"""Modules that share their component pair share no per-module verdict.

h4-twin.alg is h4.alg with a fifth section, H4A2, a copy of H4A under
another name, so two modules carry one component pair (A, B) and every
identity on H that check_t_category computes once per distinct component
value serves both.  h4-twin-broken.alg also changes H4A2's x.1 from c (cp
- 1) gx to c cp gx, so that H4A2 alone is no Yetter-Drinfeld module: every
item that fails must name H4A2, apart from thm-3.7, and H4A, whose
component values are the same, must pass everything.  The counts were
taken before the identities were keyed on component values, when each was
computed once per module position.
"""

import json
from collections import Counter
from pathlib import Path

import pytest

from homyd.cli import main

ROOT = Path(__file__).resolve().parent.parent
POINTS = ("c = 1", "c = -3/2")
BROKEN_CELL = ("act: x 1 -> c * (cp - 1) * gx\n", "act: x 1 -> c * cp * gx\n")

#: failing items of h4-twin-broken.alg per family, the same at both points
BROKEN_FAILURES = {
    "yd-member": 1, "tensor-component": 9, "braiding-module-map": 7, "braiding-comodule-map": 4,
    "braiding-inverse-left": 4, "braiding-inverse-right": 4, "conjugate-component": 2, "eq-3.5": 16,
    "thm-3.7": 1,
}


def twin_text(text, broken=False):
    """text with a copy of its H4A section appended as H4A2; with broken,
    H4A2's x.1 is c cp gx."""
    start, end = text.index("[ydmodule H4A over H4]"), text.index("[ydmodule H4B over H4]")
    twin = text[start:end].rstrip("\n").replace("[ydmodule H4A over H4]", "[ydmodule H4A2 over H4]")
    if broken:
        assert twin.count(BROKEN_CELL[0]) == 1
        twin = twin.replace(*BROKEN_CELL)
    return text + "\n" + twin + "\n"


def twin_report(tmp_path, capsys, point, broken):
    """The exit code and the items of check --suite tcat --report json of
    the twin file at point."""
    text = (ROOT / "h4.alg").read_text(encoding="utf-8")
    assert text.startswith("[params]\nc = 1\n")
    path = tmp_path / ("h4-twin-broken.alg" if broken else "h4-twin.alg")
    path.write_text(twin_text(text.replace("c = 1\n", point + "\n", 1), broken), encoding="utf-8")
    code = main(["check", str(path), "--suite", "tcat", "--report", "json"])
    out, err = capsys.readouterr()
    assert err == ""
    return code, json.loads(out)["items"]


@pytest.mark.parametrize("point", POINTS)
def test_the_twin_file_passes_every_item(tmp_path, capsys, point):
    code, items = twin_report(tmp_path, capsys, point, broken=False)
    assert code == 0 and len(items) == 713
    assert all(item["status"] == "pass" for item in items)
    assert sum("H4A2" in item["id"] for item in items) > 0


@pytest.mark.parametrize("point", POINTS)
def test_a_broken_twin_fails_only_items_that_name_it(tmp_path, capsys, point):
    code, items = twin_report(tmp_path, capsys, point, broken=True)
    failing = [item["id"] for item in items if item["status"] == "fail"]
    assert code == 1 and len(items) == 713 and len(failing) == 48
    assert Counter(ident.split(":", 1)[1].split("(")[0] for ident in failing) == BROKEN_FAILURES
    assert [ident for ident in failing if "H4A2" not in ident] == ["H4:thm-3.7"]
