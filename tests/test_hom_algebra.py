from fractions import Fraction

import pytest

from homyd.exactlin import LinearMap, rat, table_map
from homyd.hom_algebra import (
    HomAlgebraData,
    HomCoalgebraData,
    HomHopfAlgebraData,
    HopfAutomorphism,
    InvalidStructure,
    check_antipode,
    check_automorphism,
    check_hom_algebra,
    check_hom_bialgebra,
    check_hom_coalgebra,
    check_hom_hopf,
    convolution,
    _with_inverse,
    identity_automorphism,
    require,
)
from homyd.reports import CheckReport
from homyd.h4_library import BASIS, build_h4, h4_automorphism


def broken_h4(**overrides):
    """Rebuild the dim-4 family with selected tables replaced."""
    h = build_h4(overrides.pop("c", 2))
    parts = dict(
        mul=h.algebra.mul, unit=h.algebra.unit, comul=h.coalgebra.comul, counit=h.coalgebra.counit,
        antipode=h.antipode, alpha=h.alpha,
    )
    parts.update(overrides)
    return HomHopfAlgebraData.from_maps(BASIS, **parts)


@pytest.mark.parametrize("c", [1, 5, Fraction(-1, 2)])
def test_h4_algebra_axioms(c):
    assert check_hom_algebra(build_h4(c).algebra).ok()


def test_untwisted_unit_fails_eq_12():
    h = build_h4(2)
    mul = {(i, j, k): h.algebra.mul.entry(k, i * 4 + j) for i in range(4) for j in range(4) for k in range(4)}
    # replace both unit rows by the untwisted a1 = 1a = a
    for k in range(4):
        for t in range(4):
            mul[(0, k, t)] = rat(1) if t == k else rat(0)
            mul[(k, 0, t)] = rat(1) if t == k else rat(0)
    bad = HomAlgebraData(
        BASIS, table_map((4, 4, 4), mul, 1), h.algebra.unit, h.alpha,
    )
    rep = check_hom_algebra(bad)
    assert not rep.ok()
    failing = {item.identity for item in rep.failures()}
    assert failing & {"eq-1.2-left", "eq-1.2-right"}
    witness = rep.item("eq-1.2-left").witness
    assert witness.labels == ("x",)  # 1 o x gives x instead of the twisted cx


@pytest.mark.parametrize("c", [1, 3])
def test_h4_coalgebra_axioms(c):
    assert check_hom_coalgebra(build_h4(c).coalgebra).ok()


def test_comultiplication_without_twist_factor_fails():
    h = build_h4(2)
    comul = table_map(
        (4, 4, 4),
        {  # the 1/c factors on the two nilpotent generators deleted
            (0, 0, 0): 1, (1, 1, 1): 1,
            (2, 2, 0): 1, (2, 1, 2): 1,
            (3, 3, 1): 1, (3, 0, 3): 1,
        },
        out_legs=2,
    )
    bad = HomCoalgebraData(BASIS, comul, h.coalgebra.counit, h.alpha)
    rep = check_hom_coalgebra(bad)
    assert not rep.ok()
    failing = {item.identity for item in rep.failures()}
    assert failing & {"eq-1.4", "eq-1.4-alt", "counit-left", "counit-right"}
    bad_ids = [i for i in ("eq-1.4", "eq-1.4-alt") if i in failing]
    for ident in bad_ids:
        assert rep.item(ident).witness.labels in (("x",), ("gx",))


@pytest.mark.parametrize("c", [1, 2, Fraction(-1, 2)])
def test_h4_bialgebra_axioms(c):
    assert check_hom_bialgebra(build_h4(c)).ok()


def test_group_algebra_z2_classical_bialgebra():
    # k[Z2] with identity twist embedded as dim-2 data
    mul = table_map((2, 2, 2), {(0, 0, 0): 1, (0, 1, 1): 1, (1, 0, 1): 1, (1, 1, 0): 1}, 1)
    comul = table_map((2, 2, 2), {(0, 0, 0): 1, (1, 1, 1): 1}, 2)
    h = HomHopfAlgebraData.from_maps(
        ("1", "g"), mul, LinearMap.from_cols([[1, 0]]), comul, LinearMap.from_rows([[1, 1]]),
        LinearMap.identity(2), LinearMap.identity(2),
    )
    assert check_hom_bialgebra(h).ok()
    assert check_antipode(h).ok()


def test_counit_of_g_redefined_fails_at_gg():
    bad = broken_h4(counit=LinearMap.from_rows([[1, 0, 0, 0]]))
    rep = check_hom_bialgebra(bad)
    item = rep.item("bialg-counit-mult")
    assert not item.passed
    assert item.witness.labels == ("g", "g")  # eps(g o g) = eps(1) = 1 != 0


@pytest.mark.parametrize("c", [1, 7])
def test_h4_antipode_axioms(c):
    h = build_h4(c)
    rep = check_antipode(h)
    assert rep.ok()
    # S fixes the grouplike part and sends x -> -gx
    assert h.antipode.column(0) == (rat(1), rat(0), rat(0), rat(0))
    assert h.antipode.column(2) == (rat(0), rat(0), rat(0), rat(-1))


def test_antipode_sign_flip_fails_at_x():
    flipped = LinearMap.from_cols([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    bad = broken_h4(antipode=flipped)  # S(x) = +gx
    rep = check_antipode(bad)
    item = rep.item("antipode-left")
    assert not item.passed and item.witness.labels == ("x",)


def test_antipode_commutes_with_twist_both_ways():
    rep = check_antipode(build_h4(5))
    assert rep.item("antipode-alpha").passed
    assert rep.item("antipode-alpha-inv").passed


def test_constructor_rejects_invalid_tables():
    # the constructor builds; require on the Hopf suite is what rejects
    flipped = LinearMap.from_cols([[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]])
    with pytest.raises(InvalidStructure) as exc:
        require(check_hom_hopf(broken_h4(antipode=flipped)))
    assert str(exc.value) == "hom-hopf fails: antipode-left, antipode-right, antipode-anti-mult"


def test_require_passes_an_ok_report_and_names_the_failures_of_another():
    assert require(check_hom_hopf(build_h4(2))) is None
    rep = CheckReport("some-suite")
    rep.add("first", "a law that holds", True)
    rep.add("second", "a law that fails", False)
    rep.add("third", "another law that fails", False)
    with pytest.raises(InvalidStructure) as exc:
        require(rep)
    assert exc.value.report is rep
    assert str(exc.value) == "some-suite fails: second, third"


def test_automorphism_diagonal_family():
    h = build_h4(1)
    assert check_automorphism(h, h4_automorphism(2)).ok()
    assert check_automorphism(h, identity_automorphism(4)).ok()


def test_automorphism_group_is_nonzero_scalars():
    # composition matches multiplication in the ground field minus zero
    a = h4_automorphism(2)
    b = h4_automorphism(3)
    assert (a @ b) == h4_automorphism(6)
    assert a.inv() == h4_automorphism(Fraction(1, 2))


def test_unequal_diagonal_fails_on_mixed_products():
    # diag(1,1,2,3) preserves the coproduct but not products coupling the
    # two nilpotent directions: phi(g o x) = 3c gx while phi(g)phi(x) = 2c gx
    h = build_h4(1)
    rep = check_automorphism(h, LinearMap.diagonal([1, 1, 2, 3]))
    assert not rep.ok()
    assert rep.item("aut-comul").passed
    item = rep.item("aut-mult")
    assert not item.passed
    assert set(item.witness.labels) == {"g", "x"}
    assert not rep.item("aut-antipode").passed


def test_automorphism_bijectivity_reads_the_held_inverse():
    # a HopfAutomorphism is bijective when the inverse it holds inverts its
    # matrix on both sides; a raw map is bijective when it inverts
    h = build_h4(2)
    a = h4_automorphism(3)
    rep = check_automorphism(h, _with_inverse(a.matrix, h4_automorphism(2).matrix))
    assert [(it.identity, it.passed) for it in rep] == [("aut-invertible", False)]
    assert check_automorphism(h, a).item("aut-invertible").passed
    for raw in (LinearMap.diagonal([1, 1, 0, 2]), LinearMap.zeros(3, 4)):
        rep = check_automorphism(h, raw)
        assert [(it.identity, it.passed) for it in rep] == [("aut-invertible", False)]


def test_identity_automorphism_passes_for_sampled_twists():
    for c in (1, 2, Fraction(1, 3)):
        h = build_h4(c)
        assert check_automorphism(h, identity_automorphism(4)).ok()


def convolution_unit(h):
    """The convolution unit x -> eps(x) 1."""
    return h.algebra.unit @ h.coalgebra.counit


def test_convolution_antipode_identity_is_unit():
    for c in (1, 4):
        h = build_h4(c)
        ident = LinearMap.identity(4)
        ue = convolution_unit(h)
        assert convolution(h, h.antipode, ident) == ue
        assert convolution(h, ident, h.antipode) == ue


def test_convolution_unit_is_idempotent():
    h = build_h4(3)
    ue = convolution_unit(h)
    assert convolution(h, ue, ue) == ue


def test_convolution_s_with_s_matches_oracle():
    h = build_h4(1)
    s = h.antipode
    # frozen from the brute-force sum over coproduct terms at c = 1
    expect = LinearMap.from_cols(
        [[1, 0, 0, 0], [1, 0, 0, 0], [0, 0, -1, -1], [0, 0, 1, -1]]
    )
    assert convolution(h, s, s) == expect
