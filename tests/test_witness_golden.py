"""Witness bytes of failing reports stay fixed.

Each case corrupts one line of the shipped ``h4.alg`` (or one entry of a
library structure) and renders the JSON report of a suite; one module
corruption also renders the crossed-category suite ``tcat``.  The sha256 of
those bytes is compared with ``witness_golden.json``, which was recorded
from the per-basis-tuple evaluators that predate the map-equality form of
the laws (for ``tcat``, from the loop builders of ``t_category``): a change
of these bytes is a change of what a user is shown.  The ``yd`` and ``all``
reports of a file with a failing ``module`` and a failing ``comodule``
section are pinned too.
"""

import hashlib
import json
import random
from pathlib import Path

import pytest

from homyd.cli import render_json_report
from homyd.defformat import parse_definition, run_checks
from homyd.exactlin import LinearMap, rat
from homyd.h4_library import H4Params, build_h4, build_h4_yd_table, h4_automorphism
from homyd.hom_algebra import check_automorphism, identity_automorphism
from homyd.t_category import AutPair, check_t_category
from homyd.yd_modules import (
    BicomoduleAlgebraData,
    EntwiningData,
    HomModuleData,
    build_bicomodule_algebra,
    build_entwining,
    check_bicomodule_algebra,
    check_entwined_module,
    check_entwining,
    check_module_algebra,
    check_yd_datum,
)
from test_cli import MODULE_AND_COMODULE
from test_t_category import random_structure

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "witness_golden.json"
SUITES = ("algebra", "coalgebra", "hopf", "yd")

#: (case, section header, line, replacement): the first occurrence of the
#: line after the header is replaced.
CORRUPTIONS = [
    ("mul-gg", "[hopf H4]", "mul: g g -> 1", "mul: g g -> g"),
    ("mul-1x", "[hopf H4]", "mul: 1 x -> c * x", "mul: 1 x -> 2 * x"),
    ("mul-x1", "[hopf H4]", "mul: x 1 -> c * x", "mul: x 1 -> 2 * x"),
    ("mul-xg", "[hopf H4]", "mul: x g -> -c * gx", "mul: x g -> c * gx"),
    ("alpha-1", "[hopf H4]", "alpha: 1 -> 1", "alpha: 1 -> 1 + x"),
    ("alpha-x", "[hopf H4]", "alpha: x -> c * x", "alpha: x -> 2 * x"),
    ("alpha-x-g", "[hopf H4]", "alpha: x -> c * x", "alpha: x -> c * x + g"),
    ("comul-1", "[hopf H4]", "comul: 1 -> 1@1", "comul: 1 -> 1@g"),
    ("comul-g", "[hopf H4]", "comul: g -> g@g", "comul: g -> g@1"),
    ("comul-x", "[hopf H4]", "comul: x -> 1 / c * x@1 + 1 / c * g@x",
     "comul: x -> 1 / c * x@1 + 1 / c * 1@x"),
    ("comul-gx", "[hopf H4]", "comul: gx -> 1 / c * gx@g + 1 / c * 1@gx",
     "comul: gx -> 1 / c * gx@g + 2 * 1@gx"),
    ("counit-1", "[hopf H4]", "counit: 1 -> 1", "counit: 1 -> 2"),
    ("counit-g", "[hopf H4]", "counit: g -> 1", "counit: g -> 2"),
    ("antipode-1", "[hopf H4]", "antipode: 1 -> 1", "antipode: 1 -> 1 + x"),
    ("antipode-x", "[hopf H4]", "antipode: x -> -gx", "antipode: x -> gx"),
    ("antipode-x-g", "[hopf H4]", "antipode: x -> -gx", "antipode: x -> -gx + g"),
    ("h4a-act-x1", "[ydmodule H4A over H4]", "act: x 1 -> c * (cp - 1) * gx",
     "act: x 1 -> c * (cp + 1) * gx"),
    ("h4a-act-1g", "[ydmodule H4A over H4]", "act: 1 g -> g", "act: 1 g -> x"),
    ("h4a-a-x", "[ydmodule H4A over H4]", "a: x -> cp * x", "a: x -> cp * x + gx"),
    ("h4b-mu-x", "[ydmodule H4B over H4]", "mu: x -> c * x", "mu: x -> 2 * x"),
    ("h4b-b-x", "[ydmodule H4B over H4]", "b: x -> cpp * x", "b: x -> cpp * gx + x"),
    ("h4ab-coact-g", "[ydmodule H4AB over H4]", "coact: g -> g@g", "coact: g -> g@1"),
    ("h4ab-coact-x", "[ydmodule H4AB over H4]", "coact: x -> 1 / c * x@1 + 1 / c * g@x",
     "coact: x -> 1 / c * x@1 + 1 / c * 1@x"),
]


#: corruptions whose crossed-category report is pinned as well: a module
#: coaction line makes tensor products, conjugates, braidings and hexagons fail;
#: a module twist line also reaches the braiding-morphism, eq-3.5 and unit
#: items, the index-labelled unit-*-comodule witnesses among them
TCAT_CORRUPTIONS = [
    ("h4a-coact-x", "[ydmodule H4A over H4]", "coact: x -> 1 / c * x@1 + 1 / c * g@x",
     "coact: x -> 1 / c * x@1 + 1 / c * 1@x"),
    ("h4b-mu-x", "[ydmodule H4B over H4]", "mu: x -> c * x", "mu: x -> 2 * x"),
]


def corrupted_text(header, line, replacement, text=None):
    """text (by default the shipped h4.alg) with the first occurrence of
    line after header replaced."""
    if text is None:
        text = (ROOT / "h4.alg").read_text(encoding="utf-8")
    start = text.index(header)
    at = text.index(line, start)
    return text[:at] + replacement + text[at + len(line):]


def _with_entries(f, changes):
    """f with the entry at each (row, column) key of changes replaced."""
    entries = list(f.entries)
    for (i, j), value in changes.items():
        entries[i * f.cols + j] = rat(value)
    return LinearMap(f.rows, f.cols, entries)


def library_reports():
    """One corrupted input per library-level suite the CLI does not reach."""
    h = build_h4(2)
    p = H4Params(2, 3, rat(1, 2))
    a, b = h4_automorphism(3), h4_automorphism(rat(1, 2))

    n = build_bicomodule_algebra(h, a, b)
    # the left coaction of 1 gains terms in (g + x) (x) 1, the right one in 1 (x) (g + x)
    left = _with_entries(n.left.coaction, {(1 * 4, 0): 5, (2 * 4, 0): 5})
    right = _with_entries(n.right.coaction, {(1, 0): 5, (2, 0): 5})
    bad_left = BicomoduleAlgebraData(h, h.algebra, left, n.right.coaction)
    bad_right = BicomoduleAlgebraData(h, h.algebra, n.left.coaction, right)

    e = build_entwining(h, a, b)
    psi = list(e.psi.entries)
    psi[5 * e.psi.cols + 1] = rat(7)  # psi(1 (x) g) gains 7 g (x) g
    bad_e = EntwiningData(h.algebra, h.coalgebra, LinearMap(16, 16, psi))

    yd_ab = build_h4_yd_table("H4AB", p, h=h)
    regular = HomModuleData(h, _with_entries(h.algebra.mul, {(3, 2 * 4 + 1): -1}), h.alpha,
                            basis=h.basis)
    # phi(x) = 2x + g, and then also phi(1) = 1 + gx
    phi = LinearMap.from_rows([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 2, 0], [0, 0, 0, 2]])
    phi_unit = LinearMap.from_rows([[1, 0, 0, 0], [0, 1, 1, 0], [0, 0, 2, 0], [1, 0, 0, 2]])

    # arbitrary tables with non-commuting triangular pairs: most items fail
    rng = random.Random(2014)
    h_r = build_h4(rat(-3, 2))
    mods = [random_structure(h_r, rng, dim, "R%d" % dim) for dim in (1, 2, 3)]
    pairs = [AutPair.identity(h_r.dim), AutPair(mods[1].pair_b, mods[2].pair_a)]
    return {
        "bicomodule-algebra-left": check_bicomodule_algebra(bad_left),
        "bicomodule-algebra-right": check_bicomodule_algebra(bad_right),
        "entwining": check_entwining(bad_e),
        "entwined-module": check_entwined_module(yd_ab, build_entwining(h, identity_automorphism(4), b)),
        "yd-datum": check_yd_datum(yd_ab, build_bicomodule_algebra(h, b, a)),
        "automorphism": check_automorphism(h, phi),
        "automorphism-unit": check_automorphism(h, phi_unit),
        "module-algebra": check_module_algebra(regular, h.algebra),
        "t-category-random": check_t_category(h_r, mods, pairs),
    }


def all_reports():
    reports = {}
    for case, header, line, replacement in CORRUPTIONS:
        df = parse_definition(corrupted_text(header, line, replacement))
        for suite in SUITES:
            reports["%s/%s" % (case, suite)] = run_checks(df, suite)
    for case, header, line, replacement in TCAT_CORRUPTIONS:
        df = parse_definition(corrupted_text(header, line, replacement))
        reports["%s/tcat" % case] = run_checks(df, "tcat")
    df = parse_definition(MODULE_AND_COMODULE)
    for suite in ("yd", "all"):
        reports["module-comodule/%s" % suite] = run_checks(df, suite)
    for name, rep in library_reports().items():
        reports["library/%s" % name] = rep
    return reports


def digests(reports):
    return {
        key: hashlib.sha256(render_json_report(rep).encode("utf-8")).hexdigest()
        for key, rep in reports.items()
    }


@pytest.fixture(scope="module")
def reports():
    return all_reports()


def test_witness_bytes_match_golden(reports):
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))["digests"]
    assert digests(reports) == golden


def test_corruptions_reach_every_law_family(reports):
    failing = {
        item.identity.split(":", 1)[-1]
        for rep in reports.values()
        for item in rep.items
        if not item.passed and item.witness is not None
    }
    families = [
        "eq-1.1", "alpha-mult", "eq-1.2-left", "eq-1.2-right", "eq-1.3",
        "eq-1.4", "eq-1.4-alt", "eq-1.5", "counit-left", "counit-right", "eq-1.6",
        "bialg-comul-mult", "bialg-comul-unit", "bialg-counit-mult", "bialg-counit-unit",
        "antipode-left", "antipode-right", "antipode-anti-mult", "antipode-unit",
        "antipode-anti-comult", "antipode-counit", "antipode-alpha", "antipode-alpha-inv",
        "aut-mult", "aut-unit", "aut-comul", "aut-counit", "aut-alpha", "aut-antipode",
        "pair-a", "pair-b",
        "module-assoc", "module-twist", "module-unit",
        "eq-1.7", "eq-1.8-coact", "eq-1.8-counit", "eq-2.1", "eq-2.2",
        "left-eq-1.7-left", "left-eq-1.8-coact-left", "left-eq-1.8-counit-left",
        "left-comodule-algebra-mult", "left-comodule-algebra-unit",
        "right-eq-1.7", "right-eq-1.8-coact", "right-eq-1.8-counit",
        "right-comodule-algebra-mult", "right-comodule-algebra-unit", "bicomodule-compat",
        "eq-2.3", "eq-2.4", "eq-2.5", "eq-2.6", "entwined-compat", "yd-datum-main", "yd-datum-alt",
        "eq-1.9-mult",
    ]
    assert [f for f in families if f not in failing] == []
