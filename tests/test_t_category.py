import itertools
import random
from fractions import Fraction
from pathlib import Path

import pytest

import loop_reference as loop
from homyd.defformat import parse_definition, resolve_definition, run_checks
from homyd.exactlin import LinearMap, ZERO, ONE, add_scaled, flip, kron, permute, rat, table_map, tensor_vec
from homyd.hom_algebra import HopfAutomorphism, identity_automorphism
from homyd.h4_library import H4Params, build_h4, build_h4_yd_table, h4_automorphism
import homyd.t_category as tc
from homyd.t_category import (
    AutPair,
    BraidingMap,
    associator,
    braiding,
    braiding_inverse,
    check_braiding_equivariance,
    check_braiding_inverse,
    check_conjugation_invariance,
    check_hexagons,
    check_t_category,
    conjugate_yd,
    group_inv,
    group_mul,
    sample_nonzero_rationals,
    tensor_yd,
)
from homyd.yd_modules import YDModuleData, check_yd, check_yd_module, trivial_yd
from twisted_h4b import build_twisted_h4b


def pair_of(lam1, lam2, label=None):
    return AutPair(h4_automorphism(lam1), h4_automorphism(lam2), label=label)


def setup_modules(c=1, cp=2, cpp=3):
    p = H4Params(c, cp, cpp)
    h = build_h4(c)
    return h, p, {
        "H4A": build_h4_yd_table("H4A", p, h=h),
        "H4B": build_h4_yd_table("H4B", p, h=h),
        "H4AB": build_h4_yd_table("H4AB", p, h=h),
    }


# ---------------------------------------------------------------------------
# index group
# ---------------------------------------------------------------------------


def test_group_unit_law():
    e = AutPair.identity(4)
    q = pair_of(2, 3)
    for prod in (group_mul(e, q), group_mul(q, e)):
        assert prod.a.matrix == q.a.matrix and prod.b.matrix == q.b.matrix


def test_group_inverse_formula_and_cancellation():
    p = pair_of(2, 3)
    inv = group_inv(p)
    # with commuting diagonals A B^-1 A^-1 collapses to B^-1
    assert inv.a.matrix == h4_automorphism(rat(1, 2)).matrix
    assert inv.b.matrix == h4_automorphism(rat(1, 3)).matrix
    for prod in (group_mul(inv, p), group_mul(p, inv)):
        assert prod.a.matrix.is_identity() and prod.b.matrix.is_identity()


def test_group_inverse_random_property():
    rng = random.Random(5)
    for _ in range(10):
        lams = [Fraction(rng.randint(1, 9), rng.randint(1, 4)) for _ in range(2)]
        p = pair_of(*lams)
        prod = group_mul(group_inv(p), p)
        assert prod.a.matrix.is_identity() and prod.b.matrix.is_identity()


def test_group_product_of_commuting_diagonals_is_componentwise():
    p, q = pair_of(2, 3), pair_of(5, 7)
    prod = group_mul(p, q)
    assert prod.a.matrix == h4_automorphism(10).matrix
    assert prod.b.matrix == h4_automorphism(21).matrix


@pytest.fixture(scope="module")
def non_commuting():
    """Random exact pairs that do not commute, for the identities of G that
    check_t_category states without computing them (t_category docstring):
    random_structure's triangular pairs and their products, with the
    modules that carry the triangular ones."""
    rng = random.Random(26)
    h = build_h4(rat(-3, 2))
    mods = [random_structure(h, rng, dim, "R%d" % dim) for dim in (1, 2, 1)]
    base = [m.pair for m in mods]
    pairs = base + [group_mul(p, q) for p, q in zip(base, base[1:] + base[:1])]
    assert any(p.a.matrix @ q.a.matrix != q.a.matrix @ p.a.matrix for p, q in itertools.combinations(pairs, 2))
    assert any(p.b.matrix @ q.a.matrix != q.a.matrix @ p.b.matrix for p, q in itertools.combinations(pairs, 2))
    return h, mods, pairs


def same_pair(x, y):
    return x.a.matrix == y.a.matrix and x.b.matrix == y.b.matrix


def test_index_group_words_hold_as_maps_on_non_commuting_pairs(non_commuting):
    """G's associativity, unit and inverse, as equalities of maps."""
    h, _, pairs = non_commuting
    e = AutPair.identity(h.dim)
    for p, q, r in itertools.product(pairs, repeat=3):
        assert same_pair(group_mul(group_mul(p, q), r), group_mul(p, group_mul(q, r)))
    for p in pairs:
        assert same_pair(group_mul(e, p), p) and same_pair(group_mul(p, e), p)
        assert same_pair(group_mul(group_inv(p), p), e) and same_pair(group_mul(p, group_inv(p)), e)


def test_functor_compose_words_hold_as_maps_on_non_commuting_pairs(non_commuting):
    """phi_{pq,N} = phi_{q,N} phi_{p,^qN}, f_{pq} = f_p f_q and
    (pq)N(pq)^-1 = p(qNq^-1)p^-1."""
    _, mods, pairs = non_commuting
    for p, q in itertools.product(pairs, repeat=2):
        pq = group_mul(p, q)
        assert tc._conj_f(pq) == tc._conj_f(p) @ tc._conj_f(q)
        for n in mods:
            qn = conjugate_yd(q, n)
            assert tc._conj_phi(pq, n.pair_a) == tc._conj_phi(q, n.pair_a) @ tc._conj_phi(p, qn.pair_a)
            assert same_pair(conjugate_yd(pq, n).pair, conjugate_yd(p, qn).pair)


def test_conjugation_respects_tensor_components_on_non_commuting_pairs(non_commuting):
    """functor-tensor's components: p(MN)p^-1 = (pMp^-1)(pNp^-1)."""
    _, mods, pairs = non_commuting
    for p in pairs:
        conj = [conjugate_yd(p, m) for m in mods]
        for (m, pm), (n, pn) in itertools.product(zip(mods, conj), repeat=2):
            assert same_pair(conjugate_yd(p, tensor_yd(m, n)).pair, group_mul(pm.pair, pn.pair))


def test_conjugation_invariance_word_holds_as_maps_on_non_commuting_pairs(non_commuting):
    """conjugation-invariance: phi_{p,M} B_{^pM}^-1 f_p = B_M^-1."""
    _, mods, pairs = non_commuting
    for p in pairs:
        for m in mods:
            pm = conjugate_yd(p, m)
            assert tc._conj_phi(p, m.pair_a) @ pm.pair_b.inverse @ tc._conj_f(p) == m.pair_b.inverse


def test_braiding_target_words_hold_as_maps_on_non_commuting_pairs(non_commuting):
    """The braiding target ^MN (x) M acts on ^MN through C^-1 B C and on M
    through A^-1 B_{^MN} A = B^-1 B_{MN}, for M in (A, B) and N in (C, D),
    as the module-map certificate reads them."""
    _, mods, _ = non_commuting
    for m, n in itertools.product(mods, repeat=2):
        mn = conjugate_yd(m.pair, n)
        assert tc._conj_phi(m.pair, n.pair_a) @ m.pair_a.matrix == tc._phi(m.pair_b, n.pair_a)
        assert (tc._phi(mn.pair_b, m.pair_a)
                == m.pair_b.inverse @ group_mul(m.pair, n.pair).b.matrix)


def test_certificate_leg_words_hold_as_maps_on_non_commuting_pairs(non_commuting):
    """The words of G that the tensor-assoc, functor-tensor and
    conjugate-component certificates rest on (t_category docstring), with
    phi_{X,Y} = A_Y^-1 B_X A_Y: A_P phi_{M,NP} = phi_{M,N} A_P, phi_{N,P}
    phi_{M,NP} = phi_{MN,P}, A_N phi_{p,MN} = phi_{p,M} A_{^pN}, phi_{M,N}
    phi_{p,MN} = phi_{p,N} phi_{^pM,^pN} and f_p B_N phi_{p,N} = B_{^pN}."""
    _, mods, pairs = non_commuting
    for m, n, p in itertools.product(mods, repeat=3):
        mn, np = group_mul(m.pair, n.pair), group_mul(n.pair, p.pair)
        assert p.pair_a.matrix @ tc._phi(m.pair_b, np.a) == tc._phi(m.pair_b, n.pair_a) @ p.pair_a.matrix
        assert tc._phi(n.pair_b, p.pair_a) @ tc._phi(m.pair_b, np.a) == tc._phi(mn.b, p.pair_a)
    for p in pairs:
        conj = [conjugate_yd(p, m) for m in mods]
        for (m, pm), (n, pn) in itertools.product(zip(mods, conj), repeat=2):
            phi_p_mn = tc._conj_phi(p, group_mul(m.pair, n.pair).a)
            assert n.pair_a.matrix @ phi_p_mn == tc._conj_phi(p, m.pair_a) @ pn.pair_a.matrix
            assert (tc._phi(m.pair_b, n.pair_a) @ phi_p_mn
                    == tc._conj_phi(p, n.pair_a) @ tc._phi(pm.pair_b, pn.pair_a))
        for n, pn in zip(mods, conj):
            assert tc._conj_f(p) @ n.pair_b.matrix @ tc._conj_phi(p, n.pair_a) == pn.pair_b.matrix


@pytest.mark.parametrize("c", [1, rat(-3, 2)])
def test_conjugate_component_words_hold_as_maps_on_h4(c):
    """conjugate-component's words f_p B_N phi_{p,N} = B_{^pN} and f_p A_N
    S^-1 phi_{p,N} = A_{^pN} S^-1; the second needs S to commute with A_p,
    B_p and A_N, which h4.alg's pairs do, so it is asserted on h4.alg's
    modules and autpair P, not on random pairs."""
    text = (Path(__file__).resolve().parent.parent / "h4.alg").read_text(encoding="utf-8")
    resolved = resolve_definition(parse_definition(text.replace("c = 1\n", "c = %s\n" % c, 1)))
    _, h = resolved.get("H4")
    mods = [yd for _, yd in resolved.of_kind("ydmodule")]
    s_inv = h.antipode_inv
    for p in [pair for _, pair in resolved.of_kind("autpair")] + [m.pair for m in mods]:
        f = tc._conj_f(p)
        for n in mods:
            pn, phi = conjugate_yd(p, n), tc._conj_phi(p, n.pair_a)
            assert f @ n.pair_b.matrix @ phi == pn.pair_b.matrix
            assert f @ n.pair_a.matrix @ s_inv @ phi == pn.pair_a.matrix @ s_inv


# ---------------------------------------------------------------------------
# tensor products
# ---------------------------------------------------------------------------


def test_tensor_with_trivial_module_reduces_via_unit_constraint():
    h, _, mods = setup_modules(c=2)
    n = mods["H4B"]
    k = trivial_yd(h)
    kn = tensor_yd(k, n)
    # the carrier reindex is trivial; the twisted unit constraint nu
    # intertwines the structures
    lhs = n.mu @ kn.action
    rhs = n.action @ kron(LinearMap.identity(h.dim), n.mu)
    assert lhs == rhs


def test_tensor_action_splits_when_left_pair_is_plain():
    # H4A (x) H4B: the second tag of H4A and first of H4B are identities,
    # so the action is simply h1 . x (x) h2 . y
    h, _, mods = setup_modules()
    m, n = mods["H4A"], mods["H4B"]
    t = tensor_yd(m, n)
    for hk in range(4):
        for i in range(4):
            for j in range(4):
                out = [ZERO] * 16
                for h1, h2, w in loop.comul_terms(h, hk):
                    add_scaled(
                        out,
                        tensor_vec(m.action.column(h1 * 4 + i), n.action.column(h2 * 4 + j)),
                        w,
                    )
                assert tuple(out) == t.action.column(hk * 16 + i * 4 + j)


def test_tensor_lands_in_product_component():
    h, p, mods = setup_modules(c=2, cp=3, cpp=5)
    t = tensor_yd(mods["H4A"], mods["H4B"])
    assert t.pair_a.matrix == h4_automorphism(3).matrix
    assert t.pair_b.matrix == h4_automorphism(5).matrix
    assert check_yd_module(t).ok()


def test_tensor_carriers_associate_strictly_at_identity_twist():
    _, _, mods = setup_modules(c=1)
    m, n, p = mods["H4A"], mods["H4B"], mods["H4AB"]
    left = tensor_yd(tensor_yd(m, n), p)
    right = tensor_yd(m, tensor_yd(n, p))
    assert not left.differences(right)


def test_tensor_orders_intertwined_by_constraint_at_general_twist():
    # with a nontrivial twist the two orders differ as raw tensors (their
    # coaction legs associate differently) but the twisted constraint is an
    # isomorphism between them, landing in the same component
    h, _, mods = setup_modules(c=2)
    m, n, p = mods["H4A"], mods["H4B"], mods["H4AB"]
    left = tensor_yd(tensor_yd(m, n), p)
    right = tensor_yd(m, tensor_yd(n, p))
    assert left.differences(right)
    assert left.pair_a.matrix == right.pair_a.matrix
    assert left.pair_b.matrix == right.pair_b.matrix
    assert check_yd(left).ok() and check_yd(right).ok()
    a = associator(m, n, p)
    idh = LinearMap.identity(4)
    assert (right.action @ kron(idh, a)) == (a @ left.action)
    assert (right.coaction @ a) == (kron(a, idh) @ left.coaction)


# ---------------------------------------------------------------------------
# conjugation
# ---------------------------------------------------------------------------


def test_identity_pair_conjugation_is_identity():
    _, _, mods = setup_modules()
    n = mods["H4B"]
    conj = conjugate_yd(AutPair.identity(4), n)
    assert not conj.differences(n)


def test_conjugation_matches_golden_twisted_table():
    p = H4Params(1, 2, 3)
    h = build_h4(1)
    n = build_h4_yd_table("H4B", p, h=h)
    conj = conjugate_yd(AutPair(h4_automorphism(2), identity_automorphism(4)), n)
    assert not build_twisted_h4b(p, h=h).differences(conj)
    assert check_yd_module(conj).ok()


def test_conjugation_is_functorial_in_the_group():
    _, _, mods = setup_modules(c=2)
    n = mods["H4AB"]
    p, q = pair_of(2, 3), pair_of(rat(1, 2), 5)
    once = conjugate_yd(group_mul(p, q), n)
    twice = conjugate_yd(p, conjugate_yd(q, n))
    assert not once.differences(twice)


def test_conjugation_distributes_over_tensor():
    _, _, mods = setup_modules(c=2)
    m, n = mods["H4A"], mods["H4B"]
    p = pair_of(3, 7)
    whole = conjugate_yd(p, tensor_yd(m, n))
    split = tensor_yd(conjugate_yd(p, m), conjugate_yd(p, n))
    assert not whole.differences(split)


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------

# transposed layout of the 16x16 braiding table on H4A (x) H4B, one row per
# source basis vector; the four parameter cells are filled per c'
_FIXED_ONES = {
    (1, 1): 1, (2, 5): 1, (3, 9): 1, (4, 13): 1,
    (5, 2): 1, (6, 6): 1, (7, 10): 1, (8, 14): 1,
    (9, 3): 1, (10, 7): -1, (11, 11): 1, (12, 15): -1,
    (13, 4): 1, (14, 8): -1, (15, 12): 1, (16, 16): -1,
}


def expected_braiding_table(cp):
    rows = [[ZERO] * 16 for _ in range(16)]
    for (i, j), v in _FIXED_ONES.items():
        rows[i - 1][j - 1] = rat(v)
    rows[2][7] = cp - 1        # source 1 (x) x
    rows[3][3] = 1 - cp        # source 1 (x) gx
    rows[6][6] = 1 + cp        # source g (x) x
    rows[7][2] = -(1 + cp)     # source g (x) gx
    return LinearMap.from_rows(rows)


def test_braiding_of_trivial_modules_is_identity():
    h = build_h4(2)
    k = trivial_yd(h)
    assert braiding(k, k).matrix == LinearMap.identity(1)


@pytest.mark.parametrize("c,cp,cpp", [(1, 2, 3), (2, 3, 5), (1, rat(1, 2), rat(2, 3))])
def test_braiding_matrix_matches_expected_table(c, cp, cpp):
    h, p, mods = setup_modules(c, cp, cpp)
    b = braiding(mods["H4A"], mods["H4B"])
    assert b.matrix.transpose() == expected_braiding_table(rat(cp))


def test_braiding_skeleton_spot_rows():
    _, _, mods = setup_modules()
    mat = braiding(mods["H4A"], mods["H4B"]).matrix
    t = mat.transpose()
    assert t.entry(0, 0) == 1          # 1 (x) 1 fixed
    assert t.entry(1, 4) == 1          # 1 (x) g crosses to g (x) 1
    assert t.entry(10, 10) == 1        # x (x) x fixed
    assert t.entry(9, 6) == -1         # x (x) g picks up the sign
    assert t.entry(15, 15) == -1       # gx (x) gx


def test_braiding_inverse_formula_equals_matrix_inverse():
    from homyd.exactlin import invert

    _, _, mods = setup_modules(c=1, cp=2, cpp=3)
    b = braiding(mods["H4A"], mods["H4B"])
    formula = braiding_inverse(b)
    assert formula == invert(b.matrix)
    assert (formula @ b.matrix).is_identity()
    assert (b.matrix @ formula).is_identity()


def test_braiding_inverse_for_sampled_parameters():
    for c, cp, cpp in [(2, 2, 2), (3, rat(1, 3), 5), (rat(-1, 2), 4, rat(1, 5))]:
        _, _, mods = setup_modules(c, cp, cpp)
        b = braiding(mods["H4A"], mods["H4AB"])
        # (False, False): no certificate given, so both composites are
        # compared as matrices
        assert check_braiding_inverse(b, (False, False)).ok()


def test_braiding_equivariance():
    _, _, mods = setup_modules(c=1, cp=2, cpp=3)
    b = braiding(mods["H4A"], mods["H4B"])
    m, n = mods["H4A"], mods["H4B"]
    src, tgt = tensor_yd(m, n), tensor_yd(conjugate_yd(m.pair, n), m)
    # (False, False, False): no certificate given, so every item is compared
    # as matrices
    assert check_braiding_equivariance(b, lambda: src, lambda: tgt, (False, False, False)).ok()


def test_braiding_equivariance_trivial():
    h = build_h4(3)
    k = trivial_yd(h)
    b = braiding(k, k)
    src, tgt = tensor_yd(k, k), tensor_yd(conjugate_yd(k.pair, k), k)
    assert check_braiding_equivariance(b, lambda: src, lambda: tgt, (False, False, False)).ok()


def test_corrupted_braiding_fails_equivariance_with_witness():
    _, _, mods = setup_modules(c=1, cp=2, cpp=3)
    b = braiding(mods["H4A"], mods["H4B"])
    entries = list(b.matrix.entries)
    entries[5 * 16 + 5] += ONE
    bad = BraidingMap(b.source, LinearMap(16, 16, entries))
    m, n = mods["H4A"], mods["H4B"]
    src, tgt = tensor_yd(m, n), tensor_yd(conjugate_yd(m.pair, n), m)
    rep = check_braiding_equivariance(bad, lambda: src, lambda: tgt, (False, False, False))
    assert not rep.ok()
    assert any(item.witness is not None for item in rep.failures())


# ---------------------------------------------------------------------------
# associator
# ---------------------------------------------------------------------------


def test_associator_trivial_modules():
    h = build_h4(1)
    k = trivial_yd(h)
    assert associator(k, k, k) == LinearMap.identity(1)


def test_associator_twist_pattern():
    h, _, mods = setup_modules(c=2)
    m = mods["H4A"]
    a = associator(m, m, m)
    expect = kron(
        LinearMap.diagonal([1, 1, 2, 2]),
        kron(LinearMap.identity(4), LinearMap.diagonal([1, 1, rat(1, 2), rat(1, 2)])),
    )
    assert a == expect


def associator_inv(m, n, p):
    """Inverse constraint M (x) (N (x) P) -> (M (x) N) (x) P."""
    return kron(m.mu_inv, kron(LinearMap.identity(n.dim), p.mu))


def test_associator_inverse():
    _, _, mods = setup_modules(c=2)
    m, n, p = mods["H4A"], mods["H4B"], mods["H4AB"]
    assert (associator_inv(m, n, p) @ associator(m, n, p)).is_identity()
    assert associator_inv(m, n, p) == kron(
        m.mu_inv, kron(LinearMap.identity(4), p.mu)
    )


# ---------------------------------------------------------------------------
# hexagons and invariance
# ---------------------------------------------------------------------------


def test_hexagons_trivial_modules():
    h = build_h4(2)
    k = trivial_yd(h)
    kk, c = tensor_yd(k, k), braiding(k, k)
    # (False, False): no certificate given, so both equations are compared
    # as matrices
    k_k = conjugate_yd(k.pair, k)
    assert check_hexagons(c, c, c, lambda: kk, lambda: kk, lambda: k_k, (False, False)).ok()


@pytest.mark.parametrize("c,cp,cpp", [(1, 2, 3), (1, rat(1, 2), 5)])
def test_hexagons_on_module_triples(c, cp, cpp):
    _, _, mods = setup_modules(c, cp, cpp)
    m, n, p = mods["H4A"], mods["H4B"], mods["H4AB"]
    mn, np, n_p = tensor_yd(m, n), tensor_yd(n, p), conjugate_yd(n.pair, p)
    assert check_hexagons(
        braiding(m, n), braiding(n, p), braiding(m, p), lambda: mn, lambda: np, lambda: n_p, (False, False),
    ).ok()


def test_untwisted_associator_breaks_hexagon_when_twist_is_nontrivial():
    # assembling one side with the naive identity reindexing instead of the
    # twisted constraint must change the matrix whenever alpha != id
    h, _, mods = setup_modules(c=2)
    m, n, p = mods["H4A"], mods["H4B"], mods["H4AB"]
    mn = tensor_yd(m, n)
    mnp_conj = conjugate_yd(mn.pair, p)
    idn = LinearMap.identity(4)
    proper = (
        kron(mnp_conj.mu_inv, kron(LinearMap.identity(4), n.mu))
        @ braiding(mn, p).matrix
        @ kron(m.mu_inv, kron(idn, p.mu))
    )
    naive = braiding(mn, p).matrix
    assert proper != naive


def test_conjugation_invariance_identity_pair():
    _, _, mods = setup_modules()
    p = AutPair.identity(4)
    m, n = mods["H4A"], mods["H4B"]
    pm, pn = conjugate_yd(p, m), conjugate_yd(p, n)
    assert braiding(pm, pn).matrix == braiding(m, n).matrix
    rep = check_conjugation_invariance(p, braiding(m, n))
    assert [(item.identity, item.passed) for item in rep.items] == [("conjugation-invariance((id,id);H4A,H4B)", True)]


def test_conjugation_invariance_concrete_pair():
    _, _, mods = setup_modules(c=1, cp=2, cpp=3)
    p = pair_of(2, 3)
    m, n = mods["H4A"], mods["H4B"]
    pm, pn = conjugate_yd(p, m), conjugate_yd(p, n)
    assert braiding(pm, pn).matrix == braiding(m, n).matrix


def test_conjugation_invariance_random_pairs():
    h, _, mods = setup_modules(c=2, cp=3, cpp=rat(1, 2))
    lams = sample_nonzero_rationals(31, 20)
    for i in range(0, 20, 2):
        p = pair_of(lams[i], lams[i + 1])
        m, n = mods["H4AB"], mods["H4A"]
        pm, pn = conjugate_yd(p, m), conjugate_yd(p, n)
        assert braiding(pm, pn).matrix == braiding(m, n).matrix


def test_classical_limit_braiding_is_untwisted_double_crossing():
    # with twist 1 and identity pair, the braiding must equal the plain
    # m (x) n -> n0 (x) n1 . m map
    h = build_h4(1)
    p = H4Params(1, 1, 1)
    m = build_h4_yd_table("H4A", p, h=h)
    n = build_h4_yd_table("H4B", p, h=h)
    assert m.pair_a.matrix.is_identity() and n.pair_b.matrix.is_identity()
    cols = []
    for i in range(4):
        for j in range(4):
            out = [ZERO] * 16
            for q, a, w in loop.coact_terms(n.comodule, j):
                add_scaled(out, tensor_vec(LinearMap.identity(4).column(q), m.action.column(a * 4 + i)), w)
            cols.append(out)
    untwisted = LinearMap.from_cols(cols)
    assert braiding(m, n).matrix == untwisted


def test_aggregate_suite_smoke():
    h, _, mods = setup_modules(c=1, cp=2, cpp=3)
    rep = check_t_category(h, [mods["H4A"], trivial_yd(h)], [pair_of(2, 3)])
    assert rep.ok()
    assert rep.item("thm-3.7").passed


def test_aggregate_suite_isolates_a_corrupted_module():
    h, _, mods = setup_modules(c=1, cp=2, cpp=3)
    good = mods["H4A"]
    bad = YDModuleData(h, good.action, good.coaction, good.mu, AutPair(good.pair_b, good.pair_a),
                       basis=good.basis, label="BAD")
    rep = check_t_category(h, [good, bad], [pair_of(2, 3)])
    assert not rep.ok()
    failing = {item.identity for item in rep.failures()}
    assert "yd-member(BAD)" in failing
    assert "yd-member(H4A)" not in failing
    assert not rep.item("thm-3.7").passed


# ---------------------------------------------------------------------------
# composite builders against the loop reference
# ---------------------------------------------------------------------------

H4_ALG = Path(__file__).resolve().parent.parent / "h4.alg"
SHIPPED_PARAMS = "[params]\nc = 1\ncp = 2\ncpp = 3\n"
# the shipped point has alpha = mu = id; the other point twists every carrier
POINTS = {"shipped": SHIPPED_PARAMS, "twisted": "[params]\nc = 2\ncp = 1/3\ncpp = -5\n"}


@pytest.fixture(scope="module", params=sorted(POINTS))
def file_objects(request):
    """The ydmodules of h4.alg plus the trivial module, and the pairs
    (id,id) and the file's P, resolved at one parameter point."""
    text = H4_ALG.read_text(encoding="utf-8")
    assert text.startswith(SHIPPED_PARAMS)
    resolved = resolve_definition(parse_definition(POINTS[request.param] + text[len(SHIPPED_PARAMS):]))
    _, h = resolved.get("H4")
    _, pair = resolved.get("P")
    modules = [yd for _, yd in resolved.of_kind("ydmodule")] + [trivial_yd(h)]
    return modules, [AutPair.identity(h.dim), pair]


def assert_same_object(got, want):
    assert got.action == want.action
    assert got.coaction == want.coaction
    assert got.mu == want.mu
    assert got.pair_a.matrix == want.pair_a.matrix
    assert got.pair_b.matrix == want.pair_b.matrix
    assert got.basis == want.basis
    assert got.name == want.name


def test_tensor_yd_matches_loop_reference(file_objects):
    modules, _ = file_objects
    for m, n in itertools.product(modules, repeat=2):
        assert_same_object(tensor_yd(m, n), loop.tensor_yd(m, n))
    for m, n, p in itertools.product(modules, repeat=3):
        for first, second in ((tensor_yd(m, n), p), (m, tensor_yd(n, p))):
            assert_same_object(
                tensor_yd(first, second), loop.tensor_yd(first, second)
            )


def test_conjugate_yd_matches_loop_reference(file_objects):
    modules, pairs = file_objects
    for p, n in itertools.product(pairs, modules):
        assert_same_object(conjugate_yd(p, n), loop.conjugate_yd(p, n))


def test_braiding_and_inverse_match_loop_reference(file_objects):
    modules, _ = file_objects
    for m, n in itertools.product(modules, repeat=2):
        b, want = braiding(m, n), loop.braiding(m, n)
        assert b.matrix == want.matrix
        assert_same_object(conjugate_yd(m.pair, n), want.target[0])
        assert braiding_inverse(b) == loop.braiding_inverse(want)


def random_structure(h, rng, dim, label):
    """Arbitrary (non-Yetter-Drinfeld) tables with an upper-triangular twist
    and upper-triangular pair: composites and loops must agree on any data,
    and such pairs do not commute, unlike the diagonal h4 automorphisms."""

    def entry():
        return Fraction(rng.randint(-3, 3), rng.randint(1, 3))

    def triangular(size):
        return LinearMap.from_rows([
            [Fraction(rng.choice((-2, 1, 3))) if i == j else entry() if j > i else ZERO
             for j in range(size)]
            for i in range(size)
        ])

    d = h.dim
    mu = triangular(dim)
    def table(dims, out_legs):
        return table_map(dims, {idx: entry() for idx in itertools.product(*map(range, dims))}, out_legs)

    action = table((d, dim, dim), 1)
    coaction = table((dim, dim, d), 2)
    pair = AutPair(HopfAutomorphism(triangular(d)), HopfAutomorphism(triangular(d)))
    return YDModuleData(h, action, coaction, mu, pair, label=label)


def test_builders_match_loop_reference_on_arbitrary_tables():
    rng = random.Random(2014)
    h = build_h4(rat(-3, 2))
    mods = [random_structure(h, rng, dim, "R%d" % dim) for dim in (1, 2, 3)]
    p = AutPair(HopfAutomorphism(mods[1].pair_b.matrix), HopfAutomorphism(mods[2].pair_a.matrix))
    for m, n in itertools.product(mods, repeat=2):
        assert_same_object(tensor_yd(m, n), loop.tensor_yd(m, n))
        b, want = braiding(m, n), loop.braiding(m, n)
        assert b.matrix == want.matrix
        assert braiding_inverse(b) == loop.braiding_inverse(want)
    for n in mods:
        assert_same_object(conjugate_yd(p, n), loop.conjugate_yd(p, n))


def kron_twist_formulas(m, n):
    """The action of M (x) N, c_{M,N} and c_{M,N}^-1 with each twist
    Kronecker-multiplied with a two-factor piece, as written before the
    twists moved onto the one-object pieces: C (x) act_N (C^-1 B C (x) id),
    nu (x) act_M (B^-1 (x) mu^-1) and act_M (B^-1 S (x) mu^-1) (x) nu.
    Every piece is written out here, so none of the objects' own pieces
    enters."""
    h = m.over
    d, idm, idn = h.dim, LinearMap.identity(m.dim), LinearMap.identity(n.dim)
    cbc = n.pair_a.inverse @ m.pair_b.matrix @ n.pair_a.matrix
    left = kron(n.pair_a.matrix, n.action @ kron(cbc, idn)) @ kron(h.coalgebra.comul, idn)
    act_flip = m.action @ flip(m.dim, d)
    action = kron(act_flip, idn) @ kron(idm, left) @ kron(flip(d, m.dim), idn)
    braid_act = m.action @ kron(m.pair_b.inverse, m.mu_inv)
    braid = kron(n.mu, braid_act) @ kron(n.coaction, idm) @ flip(m.dim, n.dim)
    inverse_act = m.action @ kron(m.pair_b.inverse @ h.antipode, m.mu_inv)
    inverse = (kron(inverse_act, n.mu) @ permute((n.dim, d, m.dim), (1, 2, 0))
               @ kron(n.coaction, idm))
    return action, braid, inverse


def twisted_point_objects():
    """The ydmodules of h4.alg at c = -3/2 plus the trivial module, their
    pair tensors and their conjugates by the file's pair P."""
    text = H4_ALG.read_text(encoding="utf-8")
    resolved = resolve_definition(parse_definition(
        "[params]\nc = -3/2\ncp = 2\ncpp = 3\n" + text[len(SHIPPED_PARAMS):]
    ))
    _, h = resolved.get("H4")
    _, pair = resolved.get("P")
    modules = [yd for _, yd in resolved.of_kind("ydmodule")] + [trivial_yd(h)]
    return (modules + [tensor_yd(m, n) for m, n in itertools.product(modules[:2], repeat=2)]
            + [conjugate_yd(pair, m) for m in modules])


def triangular_objects():
    """Arbitrary tables with triangular twists and pairs, and their pair
    tensors."""
    rng = random.Random(2015)
    h = build_h4(rat(-3, 2))
    mods = [random_structure(h, rng, dim, "R%d" % dim) for dim in (1, 2, 3)]
    return mods + [tensor_yd(m, n) for m, n in itertools.product(mods[1:], repeat=2)]


@pytest.mark.parametrize("objects", [twisted_point_objects, triangular_objects], ids=["c=-3/2", "triangular"])
def test_twists_on_the_halves_equal_the_kron_formulas(objects):
    objs = objects()
    for m, n in itertools.product(objs, repeat=2):
        if m.dim * n.dim > 64:
            continue
        action, braid, inverse = kron_twist_formulas(m, n)
        b = braiding(m, n)
        assert tensor_yd(m, n).action == action
        assert b.matrix == braid
        assert braiding_inverse(b) == inverse


def test_tcat_builds_each_pair_tensor_and_braiding_once(monkeypatch):
    calls = {"tensor_yd": [], "braiding": [], "conjugate_yd": []}

    def recording(name):
        fn = getattr(tc, name)

        def wrapped(first, second, *rest, **kwargs):
            # keep the arguments alive, so that their ids stay unique
            calls[name].append((first, second))
            return fn(first, second, *rest, **kwargs)

        return wrapped

    for name in calls:
        monkeypatch.setattr(tc, name, recording(name))
    rep = run_checks(parse_definition(H4_ALG.read_text(encoding="utf-8")), "tcat")
    assert rep.ok()
    for name in ("tensor_yd", "braiding"):
        keys = [(id(first), id(second)) for first, second in calls[name]]
        assert len(set(keys)) == len(keys), name
    assert len(calls["tensor_yd"]) <= 200 and len(calls["braiding"]) <= 240
    assert len(calls["conjugate_yd"]) <= 88


def fresh_copy(x):
    """x built anew from its structure maps, holding none of x's kept
    pieces."""
    copy = YDModuleData(x.over, x.action, x.coaction, x.mu, x.pair, basis=x.basis, label=x.name)
    assert not set(vars(copy)) & {"tensor_act", "tensor_coact", "tensor_comul", "braid_act",
                                   "braid_coact", "inverse_act"}
    return copy


STRUCTURE = ("action", "coaction", "mu", "mu_inv", "pair")


def recorded_tcat(monkeypatch, text):
    """check_t_category on h4.alg's objects, with text in place of its
    sections, at c = -3/2, recording every _tensor_maps, braiding,
    braiding_inverse and conjugate_yd call; the inputs' structure maps are
    the same objects after the call."""
    resolved = resolve_definition(parse_definition("[params]\nc = -3/2\ncp = 2\ncpp = 3\n" + text))
    _, h = resolved.get("H4")
    _, pair = resolved.get("P")
    modules = [yd for _, yd in resolved.of_kind("ydmodule")] + [trivial_yd(h)]
    pairs = [AutPair.identity(h.dim), pair]
    before_h = [dict(vars(x)) for x in (h, *pairs)]
    before = [{k: getattr(m, k) for k in STRUCTURE} for m in modules]
    tensors, braidings, inverses, conjugates = [], [], [], []
    tensor_maps, braiding_, braiding_inverse_ = tc._tensor_maps, tc.braiding, tc.braiding_inverse
    conjugate_yd_ = tc.conjugate_yd

    def recording_tensor_maps(m, n):
        out = tensor_maps(m, n)
        tensors.append((m, n, out))
        return out

    def recording_braiding(m, n):
        out = braiding_(m, n)
        braidings.append((m, n, out))
        return out

    def recording_braiding_inverse(b):
        out = braiding_inverse_(b)
        inverses.append((b, out))
        return out

    def recording_conjugate_yd(p, n):
        out = conjugate_yd_(p, n)
        conjugates.append((p, n, out))
        return out

    monkeypatch.setattr(tc, "_tensor_maps", recording_tensor_maps)
    monkeypatch.setattr(tc, "braiding", recording_braiding)
    monkeypatch.setattr(tc, "braiding_inverse", recording_braiding_inverse)
    monkeypatch.setattr(tc, "conjugate_yd", recording_conjugate_yd)
    rep = check_t_category(h, modules, pairs)
    monkeypatch.undo()
    assert [vars(x) for x in (h, *pairs)] == before_h
    assert all(getattr(m, k) is v for m, b in zip(modules, before) for k, v in b.items())
    return rep, tensors, braidings, inverses, conjugates


def assert_fresh_copies_give_the_same_maps(tensors, braidings, inverses, conjugates):
    for p, n, out in conjugates:
        assert out.differences(conjugate_yd(p, fresh_copy(n))) == []
    for m, n, (act, coact) in tensors:
        want_act, want_coact = tc._tensor_maps(fresh_copy(m), fresh_copy(n))
        assert act == want_act and coact == want_coact
    for m, n, b in braidings:
        assert b.source == (m, n) and b.matrix == braiding(fresh_copy(m), fresh_copy(n)).matrix
    for b, inv in inverses:
        m, n = b.source
        assert inv == braiding_inverse(BraidingMap((fresh_copy(m), fresh_copy(n)), b.matrix))


def test_tcat_halves_give_the_public_builders_maps(monkeypatch):
    """Every tensor product, braiding, inverse braiding and conjugate that
    check_t_category builds from the pieces its objects keep equals the one
    the same builder makes on fresh copies of its inputs, at a twisted
    point, so a stale or mis-kept piece would show; on the clean file it
    builds none, and the fallback tests below compare those it builds."""
    text = H4_ALG.read_text(encoding="utf-8")[len(SHIPPED_PARAMS):]
    rep, tensors, braidings, inverses, conjugates = recorded_tcat(monkeypatch, text)
    assert rep.ok()
    # every tensor-component, braiding equivariance, braiding-inverse,
    # unit, conjugate-component, tensor-assoc, hexagon, functor-tensor and
    # conjugation-invariance item is decided by its certificate, so no pair
    # tensor, unit tensor, braiding, inverse braiding, conjugate ^pN,
    # braiding target or ^MN is built
    assert len(tensors) == 0 and len(braidings) == 0 and len(inverses) == 0 and len(conjugates) == 0
    assert_fresh_copies_give_the_same_maps(tensors, braidings, inverses, conjugates)


def test_tcat_fallback_gives_the_public_builders_maps(monkeypatch):
    """With g g = -1 no tensor-assoc certificate and no eq-3.5 certificate
    holds, so both triple tensors and c_{M,NP} of every triple are built,
    from kept pieces of pair tensors too, and each equals the one built on
    fresh copies."""
    text = H4_ALG.read_text(encoding="utf-8")[len(SHIPPED_PARAMS):]
    assert text.count("mul: g g -> 1\n") == 1
    text = text.replace("mul: g g -> 1\n", "mul: g g -> -1\n")
    rep, tensors, braidings, inverses, conjugates = recorded_tcat(monkeypatch, text)
    assert [item.passed for item in rep.items if item.identity.startswith("tensor-assoc")].count(False) == 27
    # S(g) g = -1 breaks antipode-left and antipode-right, so every pair
    # builds its braiding and inverse braiding; the unit certificates hold
    assert len(tensors) == 16 + 128 + 16 and len(braidings) == 16 + 64 and len(inverses) == 16
    assert sum("(x)" in n.name for _, n, _ in braidings) == 64
    # no equivariance certificate holds either, so every pair builds ^MN
    assert len(conjugates) == 2 * 4 + 16
    assert_fresh_copies_give_the_same_maps(tensors, braidings, inverses, conjugates)


def test_tcat_hexagon_fallback_gives_the_public_builders_maps(monkeypatch):
    """With rho(1) = 2 1 (x) 1 in H4A, eq-1.7 fails for H4A, so eq-3.4 of
    every triple (M, N, H4A) builds c_{MN,H4A}, from the kept pieces of a
    pair tensor, and c_{M,^N H4A}, and each equals the one built on fresh
    copies; so do the ^MN and ^MN (x) M of the 7 pairs with H4A, whose
    braiding comodule-map certificate fails."""
    text = H4_ALG.read_text(encoding="utf-8")[len(SHIPPED_PARAMS):]
    first = text.index("coact: 1 -> 1@1\n")
    assert text.index("[ydmodule H4A") < first < text.index("[ydmodule H4B")
    text = text.replace("coact: 1 -> 1@1\n", "coact: 1 -> 2 * 1@1\n", 1)
    rep, tensors, braidings, inverses, conjugates = recorded_tcat(monkeypatch, text)
    assert [item.identity.split("(")[0] for item in rep.items if not item.passed].count("eq-3.4") == 16
    # the 7 pairs with H4A build their braidings, and the 4 where it comes
    # second their inverse braidings, which fail
    assert len(tensors) == 16 + 7 and len(braidings) == 7 + 32 and len(inverses) == 4
    assert sum("(x)" in m.name for m, _, _ in braidings) == 16
    # the 2 ^pH4A, whose conjugate-component certificates fail, and the 7 ^MN
    assert len(conjugates) == 2 + 7
    assert_fresh_copies_give_the_same_maps(tensors, braidings, inverses, conjugates)


def broken_p(text, old="a: g -> g", new="a: g -> 2 * g"):
    """text with the line old of the autpair P replaced by new; by default
    A(g) = 2g, so that A is neither an algebra map (A(g) A(g) = 4 while
    A(g g) = 1) nor a coalgebra map."""
    start = text.index("[autpair P over H4]")
    assert text.count(old + "\n", start) == 1
    return text[:start] + text[start:].replace(old + "\n", new + "\n")


def test_tcat_functor_fallback_gives_the_public_builders_maps(monkeypatch):
    """With A(g) = 2g in P, no functor-tensor certificate of P holds, so
    each of its 16 items builds ^pM (x) ^pN from the pieces the conjugates
    keep, and each equals the one built on fresh copies; every
    functor-compose and conjugation-invariance certificate still holds."""
    text = broken_p(H4_ALG.read_text(encoding="utf-8")[len(SHIPPED_PARAMS):])
    rep, tensors, braidings, inverses, conjugates = recorded_tcat(monkeypatch, text)
    verdicts = [(item.identity.split("(")[0], item.passed) for item in rep.items]
    assert verdicts.count(("functor-tensor", False)) == 16
    assert verdicts.count(("functor-compose", True)) == 16
    assert verdicts.count(("conjugation-invariance", True)) == 32
    assert len(tensors) == 16 + 16 and len(braidings) == 0 and len(inverses) == 0
    assert sum(m.name.startswith("^P") and n.name.startswith("^P") for m, n, _ in tensors) == 16
    assert_fresh_copies_give_the_same_maps(tensors, braidings, inverses, conjugates)


def broken_module(text):
    """text with H4A's x.1 = c (cp - 1) gx replaced by c cp gx, so that H4A
    is no Yetter-Drinfeld module and the certificates of its pairs fail."""
    old = "act: x 1 -> c * (cp - 1) * gx\n"
    assert text.count(old) == 1 and text.index("[ydmodule H4A") < text.index(old) < text.index("[ydmodule H4B")
    return text.replace(old, "act: x 1 -> c * cp * gx\n")


def test_tcat_module_fallback_gives_the_public_builders_maps(monkeypatch):
    """With an act: cell of H4A changed, eq-2.1 fails for H4A, so no
    tensor-component certificate of the 7 pairs with H4A holds, nor any of
    their braiding module-map and comodule-map certificates: each builds
    its M (x) N, ^MN and ^MN (x) M when first read, and each equals the one
    built on fresh copies."""
    text = broken_module(H4_ALG.read_text(encoding="utf-8")[len(SHIPPED_PARAMS):])
    rep, tensors, braidings, inverses, conjugates = recorded_tcat(monkeypatch, text)
    failing = [item.identity.split("(")[0] for item in rep.items if not item.passed]
    assert [failing.count(f) for f in ("yd-member", "tensor-component", "braiding-module-map",
                                       "braiding-comodule-map", "braiding-morphism")] == [1, 7, 5, 3, 0]
    # the pair tensors, which the tensor-assoc fallbacks read as well, and
    # the 7 braiding targets; the 7 pairs with H4A build their braidings,
    # and the 4 where it comes first their inverse braidings; H4A's eq-3.5
    # braid law fails, so each triple (H4A, N, P) builds c_{H4A,NP}
    assert len(tensors) == 16 + 7 and len(braidings) == 7 + 16 and len(inverses) == 4
    assert sum("(x)" in n.name for _, n, _ in braidings) == 16
    assert sum(m.name.startswith("^") for m, _, _ in tensors) == 7
    # the 2 ^pH4A, whose conjugate-component certificates fail, and the 7 ^MN
    assert len(conjugates) == 2 + 7
    assert_fresh_copies_give_the_same_maps(tensors, braidings, inverses, conjugates)


def test_conjugation_invariance_fallback_gives_the_public_builders_maps():
    """check_t_category states every conjugation-invariance item as proven
    and builds no c_{^pM,^pN}, so each one of h4.alg at c = -3/2 is built
    here from the pieces ^pM and ^pN keep across the pairs: it equals
    c_{M,N}, and it equals the braiding built on fresh copies."""
    text = H4_ALG.read_text(encoding="utf-8")[len(SHIPPED_PARAMS):]
    resolved = resolve_definition(parse_definition("[params]\nc = -3/2\ncp = 2\ncpp = 3\n" + text))
    _, h = resolved.get("H4")
    _, pair = resolved.get("P")
    modules = [yd for _, yd in resolved.of_kind("ydmodule")] + [trivial_yd(h)]
    built = []
    for p in (AutPair.identity(h.dim), pair):
        conj = [conjugate_yd(p, m) for m in modules]
        for (m, pm), (n, pn) in itertools.product(zip(modules, conj), repeat=2):
            built.append(braiding(pm, pn))
            assert built[-1].matrix == braiding(m, n).matrix
    assert len(built) == 32
    for b in built:
        pm, pn = b.source
        assert b.matrix == braiding(fresh_copy(pm), fresh_copy(pn)).matrix
