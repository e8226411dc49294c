"""The structure-map boundary: constructors take LinearMaps and reject a
wrongly shaped one under their own suite name, the stored maps equal the
tables the objects were written from, and a failing aggregate check names
the suite that holds it."""

from pathlib import Path

import pytest

from homyd.defformat import eval_expr, parse_definition, resolve_definition
from homyd.exactlin import LinearMap, rat, table_map
from homyd.h4_library import BASIS, H4Params, build_h4, build_h4_yd_table, h4_automorphism
from homyd.hom_algebra import (
    AutPair,
    HomAlgebraData,
    HomCoalgebraData,
    HomHopfAlgebraData,
    InvalidStructure,
    check_hom_hopf,
    identity_automorphism,
    require,
)
from homyd.t_category import check_t_category
from homyd.yd_modules import (
    BicomoduleAlgebraData,
    HomComoduleData,
    HomModuleData,
    YDModuleData,
    build_bicomodule_algebra,
    build_canonical_yd,
    check_yd_module,
    trivial_yd,
)

ROOT = Path(__file__).resolve().parent.parent

# Each map case passes the map of the other table layout: 16x4 where 4x16
# is due and the reverse, the slip an out_legs mix-up makes.  Each twist
# case passes a 2x2 twist or antipode beside 4-dimensional data, and the
# yd-basis case two basis labels for a 4x4 twist.  The pair cases tag
# 4-dimensional data with automorphisms of an 8-dimensional space, and the
# module case passes check_t_category a module over another H4.
H = build_h4(1)
MUL, COMUL = H.algebra.mul, H.coalgebra.comul
UNIT, COUNIT = H.algebra.unit, H.coalgebra.counit
TWIST2, PAIR = LinearMap.identity(2), AutPair.identity(4)
PAIR8, HALF8 = AutPair.identity(8), AutPair(identity_automorphism(4), identity_automorphism(8))
# H4A over H4 at c = 2, beside data over H4 at c = 1
H4A_C2 = build_h4_yd_table("H4A", H4Params(2, 2, 3))
WRONG_SHAPE = {
    "algebra": ("hom-algebra", lambda: HomAlgebraData(BASIS, COMUL, UNIT, H.alpha)),
    "algebra-unit": ("hom-algebra", lambda: HomAlgebraData(BASIS, MUL, COUNIT, H.alpha)),
    "coalgebra": ("hom-coalgebra", lambda: HomCoalgebraData(BASIS, MUL, COUNIT, H.alpha)),
    "coalgebra-counit": ("hom-coalgebra", lambda: HomCoalgebraData(BASIS, COMUL, UNIT, H.alpha)),
    "module": ("hom-module", lambda: HomModuleData(H, COMUL, H.alpha)),
    "right-comodule": ("hom-comodule", lambda: HomComoduleData(H, MUL, H.alpha)),
    "left-comodule": ("hom-comodule", lambda: HomComoduleData(H, MUL, H.alpha, side="left")),
    "bicomodule-left": ("bicomodule-algebra", lambda: BicomoduleAlgebraData(H, H.algebra, MUL, COMUL)),
    "bicomodule-right": ("bicomodule-algebra", lambda: BicomoduleAlgebraData(H, H.algebra, COMUL, MUL)),
    "algebra-alpha": ("hom-algebra", lambda: HomAlgebraData(BASIS, MUL, UNIT, TWIST2)),
    "coalgebra-gamma": ("hom-coalgebra", lambda: HomCoalgebraData(BASIS, COMUL, COUNIT, TWIST2)),
    "hopf-antipode": ("hom-hopf", lambda: HomHopfAlgebraData(H.algebra, H.coalgebra, TWIST2)),
    "module-twist": ("hom-module", lambda: HomModuleData(H, MUL, TWIST2)),
    "comodule-twist": ("hom-comodule", lambda: HomComoduleData(H, COMUL, TWIST2)),
    "yd-twist": ("yd-module", lambda: YDModuleData(H, MUL, COMUL, TWIST2, PAIR, basis=BASIS)),
    "yd-basis": ("yd-module", lambda: YDModuleData(H, MUL, COMUL, H.alpha, PAIR, basis=BASIS[:2])),
    "yd-pair": ("yd-module", lambda: YDModuleData(H, MUL, COMUL, H.alpha, PAIR8, basis=BASIS)),
    "t-category-pair": ("t-category", lambda: check_t_category(H, [trivial_yd(H)], [PAIR, HALF8])),
    "t-category-module": ("t-category", lambda: check_t_category(H, [trivial_yd(H), H4A_C2], [PAIR])),
}


@pytest.mark.parametrize("case", sorted(WRONG_SHAPE))
def test_constructor_rejects_wrongly_shaped_map(case):
    suite, build = WRONG_SHAPE[case]
    with pytest.raises(InvalidStructure) as exc:
        build()
    assert exc.value.report.suite == suite
    assert [item.identity for item in exc.value.report.failures()] == ["shape"]


def written_table(section, key, bases, params, out_legs):
    """The map a section's `key` lines spell out: a line's arguments
    followed by a term's atom index the table, leg n in bases[n], and the
    last out_legs legs are the codomain."""
    data = {}
    for e in section.entries:
        if e.key == key:
            for t in e.value:
                idx = tuple(b.index(lbl) for b, lbl in zip(bases, e.args + t.atom))
                data[idx] = data.get(idx, 0) + eval_expr(t.coef, params, e.line)
    return table_map(tuple(len(b) for b in bases), data, out_legs)


def test_views_equal_the_tables_of_every_h4_alg_section():
    df = parse_definition((ROOT / "h4.alg").read_text(encoding="utf-8"))
    rf = resolve_definition(df)
    seen = set()
    for section in df.sections:
        if section.kind == "params":
            continue
        kind, obj = rf.get(section.name)
        seen.add(kind)
        if kind == "hopf":
            b = obj.basis
            assert obj.algebra.mul == written_table(section, "mul", (b, b, b), rf.params, 1)
            assert obj.coalgebra.comul == written_table(section, "comul", (b, b, b), rf.params, 2)
        elif kind == "ydmodule":
            hb, mb = obj.over.basis, obj.basis
            assert (obj.action.rows, obj.action.cols) == (len(mb), len(hb) * len(mb))
            assert obj.action == written_table(section, "act", (hb, mb, mb), rf.params, 1)
            assert obj.coaction == written_table(section, "coact", (mb, mb, hb), rf.params, 2)
    assert seen == {"hopf", "ydmodule", "autpair"}


def test_views_equal_both_bicomodule_coaction_tables():
    # left: h -> A(h1) (x) h2 at (h, i, p); right: h -> h1 (x) B(h2) at (h, p, j)
    h = build_h4(2)
    a, b = h4_automorphism(3), h4_automorphism(rat(1, 2))
    n = build_bicomodule_algebra(h, a, b)
    comul = h.coalgebra.comul
    r = range(4)
    left = {(k, i, p): sum(a.matrix.entry(i, s) * comul.entry(s * 4 + p, k) for s in r)
            for k in r for i in r for p in r}
    right = {(k, p, j): sum(b.matrix.entry(j, s) * comul.entry(p * 4 + s, k) for s in r)
             for k in r for p in r for j in r}
    assert n.left.coaction == table_map((4, 4, 4), left, 2)
    assert n.right.coaction == table_map((4, 4, 4), right, 2)


def test_yd_module_failure_names_the_yd_module_suite():
    # the canonical (A, id) module re-tagged (id, id): the module and comodule
    # laws hold, only the compatibility forms fail
    h = build_h4(2)
    ident = identity_automorphism(4)
    y = build_canonical_yd(h, h4_automorphism(3), ident)
    retagged = YDModuleData(h, y.action, y.coaction, y.mu, AutPair(ident, ident), basis=y.basis)
    with pytest.raises(InvalidStructure) as exc:
        require(check_yd_module(retagged))
    assert exc.value.report.suite == "yd-module"
    assert str(exc.value) == "yd-module fails: eq-2.1, eq-2.2"


def test_hopf_failure_names_the_hom_hopf_suite():
    h = build_h4(2)
    flipped = LinearMap.from_cols([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])
    with pytest.raises(InvalidStructure) as exc:
        require(check_hom_hopf(HomHopfAlgebraData(h.algebra, h.coalgebra, flipped)))
    assert exc.value.report.suite == "hom-hopf"
    assert str(exc.value) == "hom-hopf fails: antipode-left, antipode-right"


def test_views_of_one_dimensional_carriers_place_each_leg():
    # with dim M = 1 != dim H every map's shape tells its legs apart
    h = build_h4(2)
    k = trivial_yd(h)
    eps = enumerate(h.coalgebra.counit.row(0))
    one = list(enumerate(h.algebra.unit.column(0)))
    assert (k.action.rows, k.action.cols) == (1, 4)
    assert k.action == table_map((4, 1, 1), {(i, 0, 0): v for i, v in eps}, 1)
    assert (k.coaction.rows, k.coaction.cols) == (4, 1)
    assert k.coaction == table_map((1, 1, 4), {(0, 0, i): v for i, v in one}, 2)
    left = HomComoduleData(h, h.algebra.unit, LinearMap.identity(1), side="left")
    assert left.coaction == table_map((1, 4, 1), {(0, i, 0): v for i, v in one}, 2)
