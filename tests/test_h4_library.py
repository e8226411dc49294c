import itertools
from fractions import Fraction

import pytest

from homyd.exactlin import LinearMap, invert, rat
from homyd.hom_algebra import (
    check_antipode,
    check_automorphism,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    identity_automorphism,
)
from homyd.h4_library import (
    BASIS,
    H4Params,
    ZeroParameter,
    build_h4,
    build_h4_yd_table,
    golden_table_errata,
    h4_automorphism,
    h4_braiding_matrix,
)
from homyd.t_category import AutPair, braiding_inverse, braiding, conjugate_yd, sample_nonzero_rationals
from homyd.yd_modules import build_canonical_yd, check_yd_module
from twisted_h4b import build_twisted_h4b


GRID_C = [rat(1), rat(2), rat(3), rat(-1), rat(1, 2), rat(-2, 3)]


@pytest.mark.parametrize("c", GRID_C)
def test_h4_full_axiom_suite(c):
    h = build_h4(c)
    assert check_hom_algebra(h.algebra).ok()
    assert check_hom_coalgebra(h.coalgebra).ok()
    assert check_hom_bialgebra(h).ok()
    assert check_antipode(h).ok()


def test_h4_structure_spot_values():
    h = build_h4(2)
    # 1 o x = 2x and the coproduct of x carries the 1/2 factors
    assert h.algebra.mul.column(0 * 4 + 2) == (rat(0), rat(0), rat(2), rat(0))
    assert h.coalgebra.comul.entry(2 * 4 + 0, 2) == rat(1, 2)
    assert h.coalgebra.comul.entry(1 * 4 + 2, 2) == rat(1, 2)
    assert h.coalgebra.counit.row(0) == (rat(1), rat(1), rat(0), rat(0))


def test_h4_at_one_is_classical():
    h = build_h4(1)
    assert h.alpha.is_identity()
    assert check_hom_bialgebra(h).ok()


def test_h4_zero_parameter_rejected():
    with pytest.raises(ZeroParameter):
        build_h4(0)
    with pytest.raises(ZeroParameter):
        H4Params(1, 0, 2)
    with pytest.raises(ZeroParameter):
        h4_automorphism(0)


def test_h4_automorphism_validates():
    for lam in (rat(1), rat(2), rat(1, 3), rat(-5)):
        aut = h4_automorphism(lam)
        for c in (1, 2):
            assert check_automorphism(build_h4(c), aut).ok()
    assert h4_automorphism(1).matrix.is_identity()


def test_h4_automorphism_composition_is_scalar_multiplication():
    assert (h4_automorphism(2) @ h4_automorphism(3)) == h4_automorphism(6)
    assert (h4_automorphism(rat(1, 2)) @ h4_automorphism(2)).matrix.is_identity()


def test_golden_tables_pass_both_forms_on_grid():
    # (c', c'') ranging over the full {1, 2, 3, 1/2} square
    vals = [rat(1), rat(2), rat(3), rat(1, 2)]
    for c in (rat(1), rat(-2, 3)):
        h = build_h4(c)
        for cp, cpp in itertools.product(vals, vals):
            p = H4Params(c, cp, cpp)
            for which in ("H4A", "H4B", "H4AB"):
                # module and comodule laws, eq-2.1 and eq-2.2
                assert check_yd_module(build_h4_yd_table(which, p, h=h)).ok()


def test_golden_table_spot_entries():
    # the axiom-consistent x rows: x.1 = c(c'-1) gx and x.g = c(1+c') x
    p = H4Params(1, 2, 3)
    ydA = build_h4_yd_table("H4A", p)
    assert ydA.action.column(2 * 4 + 0) == (rat(0), rat(0), rat(0), rat(1))  # x.1 = gx
    assert ydA.action.column(2 * 4 + 1) == (rat(0), rat(0), rat(3), rat(0))  # x.g = 3x
    ydB = build_h4_yd_table("H4B", p)
    assert ydB.action.column(2 * 4 + 0) == (rat(0), rat(0), rat(0), rat(-2))  # x.1 = -2gx
    assert ydB.action.column(3 * 4 + 0) == (rat(0), rat(0), rat(0), rat(2))   # gx.1 = 2gx
    ydAB = build_h4_yd_table("H4AB", p)
    assert ydAB.action.column(2 * 4 + 1) == (rat(0), rat(0), rat(5), rat(0))  # x.g = (c'+c'')x


def test_golden_pair_tags():
    p = H4Params(2, 3, 5)
    assert build_h4_yd_table("H4A", p).pair_b.matrix.is_identity()
    assert build_h4_yd_table("H4B", p).pair_a.matrix.is_identity()
    ab = build_h4_yd_table("H4AB", p)
    assert ab.pair_a.matrix == h4_automorphism(3).matrix
    assert ab.pair_b.matrix == h4_automorphism(5).matrix


def test_unknown_table_name_rejected():
    with pytest.raises(ValueError):
        build_h4_yd_table("H4X", H4Params(1, 1, 1))


def test_golden_equals_canonical_everywhere_on_grid():
    vals = [rat(1), rat(2), rat(1, 2)]
    ident = identity_automorphism(4)
    for c in (rat(1), rat(3)):
        h = build_h4(c)
        for cp, cpp in itertools.product(vals, repeat=2):
            p = H4Params(c, cp, cpp)
            a, b = h4_automorphism(cp), h4_automorphism(cpp)
            for which, pair in (("H4A", (a, ident)), ("H4B", (ident, b)), ("H4AB", (a, b))):
                golden = build_h4_yd_table(which, p, h=h)
                constructed = build_canonical_yd(h, pair[0], pair[1])
                assert not golden.differences(constructed), (which, c, cp, cpp)


def test_sign_variant_tables_flagged_as_errata():
    rep = golden_table_errata(H4Params(1, 2, 3))
    assert not rep.ok()
    for name in ("H4A", "H4B", "H4AB"):
        item = rep.item("variant-table-%s" % name)
        assert not item.passed
        # the first disagreeing action cell is x acting on the unit
        assert item.witness.labels == ("x", "1")


@pytest.mark.parametrize("p,last_cells", [
    (H4Params(1, 2, 3), {"H4A": (-3, 1), "H4B": (-4, -2), "H4AB": (-5, -1)}),
    (H4Params(rat(-2, 3), rat(1, 2), 5),
     {"H4A": (1, rat(1, 3)), "H4B": (4, rat(8, 3)), "H4AB": (rat(11, 3), 3)}),
])
def test_errata_witnesses_pinned(p, last_cells):
    # the full witness of every item: x acting on the unit lands on gx only
    rep = golden_table_errata(p)
    assert rep.suite == "golden-table-errata"
    assert [item.identity for item in rep.items] == ["variant-table-%s" % name for name in last_cells]
    zero = rat(0)
    for item in rep.items:
        lhs, rhs = last_cells[item.identity[len("variant-table-"):]]
        assert item.law == "sign-variant action table equals the constructed action"
        assert not item.passed
        assert item.witness.inputs == (2, 0)
        assert item.witness.labels == ("x", "1")
        assert item.witness.lhs == (zero, zero, zero, rat(lhs))
        assert item.witness.rhs == (zero, zero, zero, rat(rhs))


def test_twisted_table_values():
    # x acts through the conjugated scale 1/c'
    p = H4Params(1, 2, 3)
    tw = build_twisted_h4b(p)
    assert check_yd_module(tw).ok()
    assert tw.action.column(2 * 4 + 0) == (rat(0), rat(0), rat(0), rat(-1))        # c(1-c'')/c' = -1
    assert tw.action.column(3 * 4 + 1) == (rat(0), rat(0), rat(-2), rat(0))        # -c(1+c'')/c' = -2
    # coaction second legs of the nilpotents scaled by c'
    assert tw.coaction.entry(1 * 4 + 2, 2) == rat(2)
    assert tw.coaction.entry(2 * 4 + 0, 2) == rat(1)


def test_twisted_table_equals_conjugation_for_sampled_tuples():
    lams = sample_nonzero_rationals(17, 30)
    for i in range(0, 30, 3):
        p = H4Params(lams[i], lams[i + 1], lams[i + 2])
        h = build_h4(p.c)
        tw = build_twisted_h4b(p, h=h)
        conj = conjugate_yd(
            AutPair(h4_automorphism(p.c_prime), identity_automorphism(4)),
            build_h4_yd_table("H4B", p, h=h),
        )
        assert not tw.differences(conj)


def test_braiding_matrix_fixed_entries_in_row_convention():
    t = h4_braiding_matrix(H4Params(1, 2, 3)).transpose()
    assert t.entry(0, 0) == 1
    assert t.entry(1, 4) == 1
    assert t.entry(9, 6) == -1
    assert t.entry(15, 15) == -1


def test_braiding_matrix_parameter_entries_depend_only_on_cp():
    for c, cp, cpp in [(1, 2, 3), (2, 2, 5), (3, rat(1, 2), rat(1, 7))]:
        t = h4_braiding_matrix(H4Params(c, cp, cpp)).transpose()
        cp = rat(cp)
        assert t.entry(2, 7) == cp - 1
        assert t.entry(3, 3) == 1 - cp
        assert t.entry(6, 6) == 1 + cp
        assert t.entry(7, 2) == -(1 + cp)
        # nonzero c' keeps the two marked cells away from -1 and 1
        assert t.entry(2, 7) != -1
        assert t.entry(3, 3) != 1


def test_braiding_matrix_invertible_with_formula_inverse():
    for c, cp, cpp in [(1, 2, 3), (rat(1, 2), 3, rat(-2, 5))]:
        p = H4Params(c, cp, cpp)
        h = build_h4(c)
        b = braiding(
            build_h4_yd_table("H4A", p, h=h), build_h4_yd_table("H4B", p, h=h)
        )
        inv = braiding_inverse(b)
        assert inv == invert(b.matrix)
        assert (b.matrix @ inv).is_identity()
        assert (inv @ b.matrix).is_identity()
