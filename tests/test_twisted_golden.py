"""Report bytes at a twisted point stay fixed.

The shipped ``h4.alg`` binds ``c = 1``, so alpha and every twist mu are
identities and its reports only ever print integers.  Here the same file is
read with ``c = -3/2``: the witness reports of every corruption of
``test_witness_golden`` under its suites (``tcat`` included), the clean
``all`` report and two braiding emissions.  The twist cancels from the
braiding matrix, so H4A, H4B prints the bytes of the shipped point, while
H4B, H4AB prints entries with denominator 3 (from B^-1).  The sha256 of
those bytes is compared with ``twisted_golden.json``, recorded with the
all-``Fraction`` kernel that predates integer storage of integral entries.
"""

import hashlib
import json
from pathlib import Path

import pytest

from homyd.cli import main, render_json_report
from homyd.defformat import parse_definition, run_checks
from test_witness_golden import CORRUPTIONS, SUITES, TCAT_CORRUPTIONS, corrupted_text

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "twisted_golden.json"
POINT = "c = -3/2"


def twisted_text():
    text = (ROOT / "h4.alg").read_text(encoding="utf-8")
    assert text.count("c = 1\n") == 1
    return text.replace("c = 1\n", POINT + "\n")


def sha(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def report_digests():
    text = twisted_text()
    out = {"clean/all": sha(render_json_report(run_checks(parse_definition(text), "all")))}
    for case, header, line, replacement in CORRUPTIONS:
        df = parse_definition(corrupted_text(header, line, replacement, text))
        for suite in SUITES:
            out["%s/%s" % (case, suite)] = sha(render_json_report(run_checks(df, suite)))
    for case, header, line, replacement in TCAT_CORRUPTIONS:
        df = parse_definition(corrupted_text(header, line, replacement, text))
        out["%s/tcat" % case] = sha(render_json_report(run_checks(df, "tcat")))
    return out


@pytest.fixture(scope="module")
def golden():
    return json.loads(GOLDEN.read_text(encoding="utf-8"))


def test_twisted_reports_match_golden(golden):
    assert report_digests() == golden["reports"]


BRAIDS = [(m, n, fmt) for m, n in (("H4A", "H4B"), ("H4B", "H4AB")) for fmt in ("json", "csv")]


def braid_key(m, n, fmt):
    return "%s-%s-%s" % (m, n, fmt)


@pytest.mark.parametrize("m, n, fmt", BRAIDS)
def test_twisted_braid_bytes_match_golden(golden, tmp_path, capsys, m, n, fmt):
    path = tmp_path / "h4-twisted.alg"
    path.write_text(twisted_text(), encoding="utf-8")
    assert main(["braid", str(path), "-m", m, "-n", n, "--out", fmt]) == 0
    assert sha(capsys.readouterr().out) == golden["braid"][braid_key(m, n, fmt)]
