import importlib.util
import itertools
import random
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from loop_reference import coact_terms, comul_terms
from homyd.defformat import parse_definition, resolve_definition
from homyd.exactlin import LinearMap, ZERO, invert, kron, permute, rat, table_map, tensor_vec
from homyd.hom_algebra import (
    AutPair,
    HopfAutomorphism,
    InvalidStructure,
    check_automorphism,
    identity_automorphism,
    require,
)
from homyd.h4_library import BASIS, H4Params, build_h4, build_h4_yd_table, h4_automorphism
from homyd.reports import CheckReport, check_matrix_equal
from homyd.yd_modules import (
    BicomoduleAlgebraData,
    EntwiningData,
    HomComoduleData,
    HomModuleData,
    YDModuleData,
    build_bicomodule_algebra,
    build_canonical_yd,
    build_entwining,
    check_bicomodule_algebra,
    check_comodule_algebra,
    check_entwined_module,
    check_entwining,
    check_hom_comodule,
    check_hom_module,
    check_module_algebra,
    check_yd,
    check_yd_module,
    check_yd_alt,
    check_yd_datum,
    trivial_yd,
)

ROOT = Path(__file__).resolve().parent.parent


def regular_module(h):
    """H acting on itself by its own product."""
    return HomModuleData(h, h.algebra.mul, h.alpha, basis=h.basis)


def regular_comodule(h):
    return HomComoduleData(h, h.coalgebra.comul, h.alpha, basis=h.basis)


def test_regular_action_is_hom_module():
    # the product of the algebra is itself a twisted module structure
    assert check_hom_module(regular_module(build_h4(2))).ok()


def test_trivial_module_counit_action():
    h = build_h4(3)
    m = HomModuleData(h, h.coalgebra.counit, LinearMap.identity(1), basis=("1",))
    assert check_hom_module(m).ok()


def test_golden_table_action_is_hom_module():
    m = build_h4_yd_table("H4A", H4Params(1, 2, 1))
    assert check_hom_module(m.module).ok()


def test_regular_coaction_is_hom_comodule():
    assert check_hom_comodule(regular_comodule(build_h4(3))).ok()


def test_trivial_comodule():
    h = build_h4(2)
    m = HomComoduleData(h, h.algebra.unit, LinearMap.identity(1), basis=("1",))
    assert check_hom_comodule(m).ok()


def test_twisted_coaction_of_conjugated_module():
    # second comultiplication legs of the nilpotents scaled by c'
    h = build_h4(1)
    cp = rat(2)
    coaction = table_map(
        (4, 4, 4),
        {
            (0, 0, 0): 1, (1, 1, 1): 1,
            (2, 2, 0): 1, (2, 1, 2): cp,
            (3, 3, 1): 1, (3, 0, 3): cp,
        },
        out_legs=2,
    )
    m = HomComoduleData(h, coaction, h.alpha, basis=BASIS)
    assert check_hom_comodule(m).ok()


def test_module_algebra_trivial_action():
    h = build_h4(2)
    act = {}
    for i, eps in enumerate(h.coalgebra.counit.row(0)):
        if not eps:
            continue
        for j in range(4):
            for k in range(4):
                v = eps * h.alpha.entry(k, j)
                if v:
                    act[(i, j, k)] = v
    m = HomModuleData(h, table_map((4, 4, 4), act, 1), h.alpha, basis=BASIS)
    assert check_module_algebra(m, h.algebra).ok()


def test_module_algebra_verdict_for_untwisted_pair_action():
    # frozen verdict: the (id, id) table at c = 1 does satisfy both laws
    m = build_h4_yd_table("H4A", H4Params(1, 1, 1))
    assert check_module_algebra(m.module, m.over.algebra).ok()


def test_module_algebra_unit_violation_witnessed():
    h = build_h4(1)
    m = build_h4_yd_table("H4A", H4Params(1, 1, 1), h=h)
    act = {
        (i, j, k): m.action.entry(k, i * 4 + j)
        for i in range(4) for j in range(4) for k in range(4)
        if m.action.entry(k, i * 4 + j)
    }
    act[(2, 0, 2)] = rat(1)  # x . 1 = x breaks h.1 = eps(h)1
    bad = HomModuleData(h, table_map((4, 4, 4), act, 1), h.alpha, basis=BASIS)
    rep = check_module_algebra(bad, h.algebra)
    item = rep.item("eq-1.9-unit")
    assert not item.passed and item.witness.labels == ("x",)


def test_comodule_algebra_regular_coaction():
    h = build_h4(2)
    assert check_comodule_algebra(regular_comodule(h), h.algebra).ok()


def test_comodule_algebra_trivial_left_coaction():
    h = build_h4(2)
    # n -> 1 (x) nu^-1(n)
    coa = {}
    for k in range(4):
        for t, v in enumerate(h.alpha_inv.column(k)):
            if v:
                coa[(k, 0, t)] = v
    m = HomComoduleData(h, table_map((4, 4, 4), coa, 2), h.alpha, basis=BASIS, side="left")
    assert check_hom_comodule(m).ok()
    assert check_comodule_algebra(m, h.algebra).ok()


def test_comodule_algebra_left_coaction_through_automorphism():
    # h -> A(h1) (x) h2 with A = diag(1,1,2,2)
    h = build_h4(2)
    a = h4_automorphism(2).matrix
    coa = {}
    for k in range(4):
        for i, j, w in comul_terms(h, k):
            for t, v in enumerate(a.column(i)):
                if v:
                    coa[(k, t, j)] = coa.get((k, t, j), ZERO) + w * v
    m = HomComoduleData(h, table_map((4, 4, 4), coa, 2), h.alpha, basis=BASIS, side="left")
    assert check_hom_comodule(m).ok()
    assert check_comodule_algebra(m, h.algebra).ok()


# ---------------------------------------------------------------------------
# the compatibility condition
# ---------------------------------------------------------------------------


def test_identity_pair_regular_carrier_is_yd():
    h = build_h4(1)
    yd = build_canonical_yd(h, identity_automorphism(4), identity_automorphism(4))
    assert check_yd_module(yd).ok()


def test_golden_h4a_is_yd_over_its_pair():
    yd = build_h4_yd_table("H4A", H4Params(1, 2, 1))
    assert check_yd(yd).ok()


def test_golden_h4a_fails_with_swapped_pair():
    m = build_h4_yd_table("H4A", H4Params(1, 2, 1))
    swapped = YDModuleData(m.over, m.action, m.coaction, m.mu, AutPair(m.pair_b, m.pair_a),
                           basis=m.basis)
    rep = check_yd(swapped)
    assert not rep.ok()
    assert rep.item("eq-2.1").witness is not None


def test_golden_h4b_satisfies_alt_form():
    yd = build_h4_yd_table("H4B", H4Params(1, 1, 3))
    assert check_yd_alt(yd).ok()


def test_equivalence_of_both_forms_on_valid_and_invalid_instances():
    # the two compatibility forms agree whenever the module/comodule
    # axioms hold, whichever way the verdict goes
    h = build_h4(2)
    lams = [rat(1), rat(2), rat(3), rat(1, 2)]
    rng = random.Random(11)
    for _ in range(12):
        actual = (rng.choice(lams), rng.choice(lams))
        declared = (rng.choice(lams), rng.choice(lams))
        yd = build_canonical_yd(
            h, h4_automorphism(actual[0]), h4_automorphism(actual[1])
        )
        tagged = YDModuleData(
            h, yd.action, yd.coaction, yd.mu,
            AutPair(h4_automorphism(declared[0]), h4_automorphism(declared[1])),
            basis=yd.basis,
        )
        assert check_yd(tagged).ok() == check_yd_alt(tagged).ok()


def load_bench_inputs():
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = importlib.util.module_from_spec(spec)
    # dataclasses look their module up in sys.modules while the file runs
    sys.modules[spec.name] = inputs
    try:
        spec.loader.exec_module(inputs)
    finally:
        del sys.modules[spec.name]
    return inputs


def check_yd_alt_left_associated(yd):
    """eq-2.2 with each side's product associated to the left, as Sweedler
    notation reads it: whole legs Kronecker-multiplied, then permuted."""
    rep = CheckReport("yd-alt")
    h = yd.over
    d, dm = h.dim, yd.dim
    mul, comul = h.algebra.mul, h.coalgebra.comul
    act, rho = yd.action, yd.coaction
    ident = LinearMap.identity(d)
    lhs = (
        kron(act, mul @ kron(yd.pair_b.matrix, ident))
        @ permute((d, d, dm, d), (0, 2, 1, 3)) @ kron(comul, rho)
    )
    rhs = (
        kron(yd.mu, mul @ kron(ident, yd.pair_a.matrix)) @ permute((d, dm, d), (1, 2, 0))
        @ kron(ident, rho @ act @ kron(ident, yd.mu_inv)) @ kron(comul, LinearMap.identity(dm))
    )
    check_matrix_equal(
        rep, "eq-2.2",
        "h1.m0 (x) B(h2)m1 = mu((h2.mu^-1(m))0) (x) (h2.mu^-1(m))1 A(h1)",
        lhs, rhs, (h.basis, yd.basis),
    )
    return rep


def test_eq_2_2_whiskered_matches_the_left_associated_formula_on_bench_mutations():
    # every module mutation of the benchmark, at the shipped point and at
    # seeded generic points: same verdict and same witness, item for item
    inputs = load_bench_inputs()
    rng = random.Random(22)
    points = [inputs.SHIPPED_POINT] + [inputs.sample_point(rng) for _ in range(3)]
    mutations = [m for m in inputs.MUTATIONS.values() if not m.hopf_data]
    assert len(mutations) >= 4
    failing = 0
    for point in points:
        clean = inputs.h4_family_text(*point)
        for text in [clean] + [inputs.apply_mutation(clean, m) for m in mutations]:
            for _, yd in resolve_definition(parse_definition(text)).of_kind("ydmodule"):
                got = check_yd_alt(yd)
                assert got == check_yd_alt_left_associated(yd)
                failing += not got.ok()
    assert failing


def test_canonical_action_classical_case_table():
    # at twist 1 with identity pair the action degenerates to the familiar
    # h.y = (h2 y) S^-1(h1); x then annihilates the unit
    h = build_h4(1)
    yd = build_canonical_yd(h, identity_automorphism(4), identity_automorphism(4))
    assert yd.action.column(2 * 4 + 0) == (ZERO, ZERO, ZERO, ZERO)          # x.1 = 0
    assert yd.action.column(2 * 4 + 1) == (ZERO, ZERO, rat(2), ZERO)        # x.g = 2x
    assert yd.action.column(1 * 4 + 0) == (rat(1), ZERO, ZERO, ZERO)        # g.1 = 1


def test_canonical_matches_golden_tables():
    p = H4Params(2, 3, rat(1, 2))
    h = build_h4(2)
    a = h4_automorphism(p.c_prime)
    b = h4_automorphism(p.c_double_prime)
    ident = identity_automorphism(4)
    assert not build_h4_yd_table("H4A", p, h=h).differences(build_canonical_yd(h, a, ident))
    assert not build_h4_yd_table("H4B", p, h=h).differences(build_canonical_yd(h, ident, b))
    assert not build_h4_yd_table("H4AB", p, h=h).differences(build_canonical_yd(h, a, b))


def test_canonical_rejects_invalid_automorphism():
    h = build_h4(1)
    bad = HopfAutomorphism(LinearMap.diagonal([1, 1, 2, 3]))
    # the builder builds over any pair; the automorphism suite rejects it
    assert build_canonical_yd(h, bad, identity_automorphism(4)).pair_a is bad
    with pytest.raises(InvalidStructure) as exc:
        require(check_automorphism(h, bad))
    assert str(exc.value) == "automorphism fails: aut-mult, aut-antipode"


def test_trivial_yd_module():
    yd = trivial_yd(build_h4(2))
    assert yd.dim == 1
    assert check_yd_module(yd).ok()


# ---------------------------------------------------------------------------
# entwining structures
# ---------------------------------------------------------------------------


def test_entwining_fixes_unit_leg():
    h = build_h4(2)
    e = build_entwining(h, h4_automorphism(3), identity_automorphism(4))
    for c in range(4):
        v = e.psi.apply(tensor_vec(h.algebra.unit.column(0), LinearMap.identity(4).column(c)))
        assert v == tuple(tensor_vec(h.algebra.unit.column(0), LinearMap.identity(4).column(c)))


def test_entwining_axioms_for_sampled_pairs():
    pool = [rat(1), rat(2), rat(3), rat(-1), rat(1, 2)]
    samples = [
        (pool[0], pool[0], pool[0]),
        (pool[1], pool[2], pool[0]),
        (pool[1], pool[1], pool[2]),
        (pool[4], pool[1], pool[3]),
        (pool[3], pool[4], pool[2]),
    ]
    for c, lam1, lam2 in samples:
        h = build_h4(c)
        e = build_entwining(h, h4_automorphism(lam1), h4_automorphism(lam2))
        assert check_entwining(e).ok()


def test_identity_pair_entwining_spot_values():
    # with identity automorphisms and twist 1 the map is the classical
    # double-crossing a (x) c -> a21 (x) (a22 c) S^-1(a1)
    h = build_h4(1)
    e = build_entwining(h, identity_automorphism(4), identity_automorphism(4))
    # g (x) g -> g (x) g g g^-1: grouplikes conjugate
    assert e.psi.apply(tensor_vec(LinearMap.identity(4).column(1), LinearMap.identity(4).column(1))) == tuple(
        tensor_vec(LinearMap.identity(4).column(1), LinearMap.identity(4).column(1))
    )


def test_flip_map_is_not_an_entwining():
    h = build_h4(2)
    from homyd.exactlin import flip

    bad = EntwiningData(h.algebra, h.coalgebra, flip(4, 4))
    rep = check_entwining(bad)
    assert not rep.ok()


def test_entwined_modules_match_compatibility_verdicts():
    p = H4Params(1, 2, 1)
    h = build_h4(1)
    ydA = build_h4_yd_table("H4A", p, h=h)
    a = h4_automorphism(2)
    ident = identity_automorphism(4)
    assert check_entwined_module(ydA, build_entwining(h, a, ident)).ok()
    # mismatched entwining map: the identity-pair one
    rep = check_entwined_module(ydA, build_entwining(h, ident, ident))
    assert not rep.ok()


def test_entwined_module_agreement_is_systematic():
    for c, cp, cpp in [(1, 2, 3), (2, 1, 2), (3, rat(1, 2), 2)]:
        p = H4Params(c, cp, cpp)
        h = build_h4(c)
        e = build_entwining(h, h4_automorphism(cp), h4_automorphism(cpp))
        for which in ("H4A", "H4B", "H4AB"):
            yd = build_h4_yd_table(which, p, h=h)
            assert check_entwined_module(yd, e).ok() == check_yd(
                YDModuleData(h, yd.action, yd.coaction, yd.mu,
                             AutPair(h4_automorphism(cp), h4_automorphism(cpp)), basis=yd.basis)
            ).ok()


# ---------------------------------------------------------------------------
# bicomodule algebras and the datum formulation
# ---------------------------------------------------------------------------


def test_bicomodule_identity_pair_coactions_are_comultiplication():
    h = build_h4(1)
    n = build_bicomodule_algebra(h, identity_automorphism(4), identity_automorphism(4))
    for k in range(4):
        want = sorted((i, p, w) for i, p, w in comul_terms(h, k))
        assert sorted(coact_terms(n.left, k)) == want
        assert sorted(coact_terms(n.right, k)) == want


def test_bicomodule_left_coaction_twists_first_leg():
    h = build_h4(2)
    n = build_bicomodule_algebra(h, h4_automorphism(2), identity_automorphism(4))
    # x -> 2/c x (x) 1 + 1/c g (x) x
    assert sorted(coact_terms(n.left, 2)) == [(1, 2, rat(1, 2)), (2, 0, rat(1))]


def test_bicomodule_axioms_for_sampled_pairs():
    for c, lam1, lam2 in [(1, 1, 1), (2, 2, 3), (1, rat(1, 2), 3)]:
        h = build_h4(c)
        n = build_bicomodule_algebra(h, h4_automorphism(lam1), h4_automorphism(lam2))
        assert check_bicomodule_algebra(n).ok()


def test_swapped_coactions_break_compatibility():
    h = build_h4(2)
    n = build_bicomodule_algebra(h, h4_automorphism(2), h4_automorphism(3))
    # exchanging the two coactions of a non-symmetric instance cannot
    # satisfy the interchange law (the sides carry different twists)
    left = table_map(
        (4, 4, 4),
        {(k, i, p): w for k in range(4) for p, i, w in coact_terms(n.right, k)},
        out_legs=2,
    )
    right = table_map(
        (4, 4, 4),
        {(k, p, i): w for k in range(4) for i, p, w in coact_terms(n.left, k)},
        out_legs=2,
    )
    swapped = BicomoduleAlgebraData(h, h.algebra, left, right)
    assert not check_bicomodule_algebra(swapped).ok()


def test_datum_conditions_match_yd_over_induced_bicomodule():
    p = H4Params(2, 3, rat(1, 2))
    h = build_h4(2)
    ydAB = build_h4_yd_table("H4AB", p, h=h)
    n = build_bicomodule_algebra(h, h4_automorphism(3), h4_automorphism(rat(1, 2)))
    assert check_yd_datum(ydAB, n).ok()


def test_datum_reduces_to_plain_compatibility_for_identity_pair():
    h = build_h4(2)
    ident = identity_automorphism(4)
    n = build_bicomodule_algebra(h, ident, ident)
    yd = build_canonical_yd(h, ident, ident)
    assert check_yd_datum(yd, n).ok() == check_yd(yd).ok() == True


def test_datum_fails_exactly_when_yd_fails():
    p = H4Params(1, 2, 3)
    h = build_h4(1)
    n = build_bicomodule_algebra(h, h4_automorphism(2), h4_automorphism(3))
    ydA = build_h4_yd_table("H4A", p, h=h)   # lives in (A, id), not (A, B)
    tagged = YDModuleData(
        h, ydA.action, ydA.coaction, ydA.mu, AutPair(h4_automorphism(2), h4_automorphism(3)),
        basis=ydA.basis,
    )
    assert not check_yd(tagged).ok()
    assert not check_yd_datum(ydA, n).ok()
