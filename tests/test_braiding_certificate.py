"""The certificates on H of tensor-component and of the braiding
module-map, comodule-map and morphism laws are sound, and the fallbacks run
only where one fails.

check_t_category decides tensor-component(M,N), braiding-module-map(M,N),
braiding-comodule-map(M,N) and braiding-morphism(M,N) from maps on H
(t_category._braiding_certificates), and builds M (x) N, ^MN and ^MN (x) M
only for an item whose certificate fails.  A certificate is sufficient, not
necessary: here, for every pair and family, it is computed beside the full
comparison, and a certificate that holds must meet a comparison that holds.
The inputs are those of the tensor-assoc certificate test (h4.alg at two
twist points, every perfbench mutation at three seeded points, and the H4
modules re-tagged with non-commuting triangular pairs); random_structure
modules with their non-commuting triangular pairs beside the trivial one;
and h4.alg at both twist points with every perfbench mutation, with A(g) =
2g in its autpair P, or with an act: cell of H4A changed.

tensor-component's certificate reads no map of the pair: yd-member of M
and N, and laws of H and of each module (t_category docstring), which prove
the identity Phi_L = Phi_R of maps on H (x) H (x) H.  Phi is kept here as
an oracle: wherever the certificate holds, Phi_L = Phi_R holds too, and on
three inputs every step of the derivation is an equality of maps.  It
reads kappa and laws of H in place of lambda = rho, and every step from
lambda through kappa to rho is an equality of maps on those inputs.  The
module-map and comodule-map certificates read kappa and laws of H, of the
modules and of their components in place of Psi_L = Psi_R and Xi_L pre =
Xi_R pre; every step of those two derivations is an equality of maps too,
and kappa is needed: lambda = rho does not give Psi.
"""

import itertools
import random
from collections import Counter

import pytest

import homyd.t_category as tc
from certificate_reference import _component_laws, _h_parts, _split
from homyd.defformat import parse_definition, resolve_definition, run_checks
from homyd.exactlin import LinearMap, flip, kron, permute
from homyd.hom_algebra import (AutPair, HomHopfAlgebraData, HopfAutomorphism, check_hom_algebra,
                                check_hom_coalgebra)
from homyd.yd_modules import YDModuleData, check_yd, trivial_yd
from test_assoc_certificate import CASES as ASSOC_CASES
from test_assoc_certificate import INPUTS, TWISTED, numbered, objects, shipped_text
from test_t_category import broken_module, broken_p, random_structure
from transport import transport

FAMILIES = ("tensor-component", "braiding-module-map", "braiding-comodule-map", "braiding-morphism")
POINTS = ("c = 1", TWISTED)


def phi_sides(h, m, n):
    """Phi_L and Phi_R (t_category docstring), maps on H (x) H (x) H taken
    right to left on their 64 columns: Phi_L(h, r, s) = (u_M, u_N, w_N w_M)
    for (u_M, w_M) = T_M(g', r) and (u_N, w_N) = T_N(g'', s), and Phi_R(h,
    r, s) = (g (x) id) T_MN(h, s r)."""
    d, g = h.dim, _split(m, n)
    idh = LinearMap.identity(d)
    t_m, t_n, t_mn = _h_parts(h, [m.pair, n.pair, tc.group_mul(m.pair, n.pair)])
    return gathered(h, t_m, t_n, g), kron(g, idh) @ (t_mn @ kron(idh, h.algebra.mul @ flip(d, d)))


def gathered(h, t_left, t_right, split):
    """(u, u', w' w) for (u, w) = t_left(k', r) and (u', w') = t_right(k'',
    s), with (k', k'') = split(h): Phi_L's shape."""
    d = h.dim
    idhh = LinearMap.identity(d * d)
    # (u, w, u', w') -> (u, u', w' w)
    gather = kron(idhh, h.algebra.mul) @ permute((d,) * 4, (0, 2, 3, 1))
    return gather @ (kron(t_left, idhh) @ (kron(idhh, t_right) @ (permute((d,) * 4, (0, 2, 1, 3))
                                                                   @ kron(split, idhh))))


def certified_items(h, modules):
    """Per pair and family, the certificate's verdict and the full
    comparison's: eq-2.1 for M (x) N, and check_braiding_equivariance with
    no certificate given.  Where tensor-component's certificate holds,
    Phi_L = Phi_R must hold too."""
    comps, keys = numbered(h, modules)
    member = [check_yd(m).ok() for m in modules]
    certified = tc._braiding_certificates(keys, member, tc._laws(h, modules, comps))
    for i, j in itertools.product(range(len(modules)), repeat=2):
        m, n = modules[i], modules[j]
        b = tc.braiding(m, n)
        src, tgt = tc.tensor_yd(m, n), tc.tensor_yd(tc.conjugate_yd(m.pair, n), m)
        full = [check_yd(src).ok()] + [
            item.passed for item in tc.check_braiding_equivariance(b, lambda: src, lambda: tgt, (False,) * 3)]
        if certified[i, j][0]:
            left, right = phi_sides(h, m, n)
            full[0] = full[0] and left == right
        for family, cert_ok, full_ok in zip(FAMILIES, certified[i, j], full):
            yield "%s(%s,%s)" % (family, m.name, n.name), cert_ok, full_ok


def random_objects():
    """Two random_structure modules, arbitrary tables with non-commuting
    triangular pairs, beside the trivial module of H4 at c = -3/2."""
    h, _ = objects(shipped_text(TWISTED))
    rng = random.Random(2027)
    yield "random", (h, [random_structure(h, rng, dim, "R%d" % dim) for dim in (1, 2)] + [trivial_yd(h)])


def mutated_shipped_objects():
    """h4.alg at both twist points with every perfbench mutation."""
    for point, name in itertools.product(POINTS, sorted(INPUTS.MUTATIONS)):
        yield "%s@%s" % (name, point), objects(INPUTS.apply_mutation(shipped_text(point), INPUTS.MUTATIONS[name]))


def broken_objects():
    """h4.alg at both twist points with A(g) = 2g in P, which no module's
    component reads, or with H4A's x.1 = c cp gx, which breaks eq-2.1 for
    H4A."""
    for point in POINTS:
        yield "broken P, %s" % point, objects(broken_p(shipped_text(point)))
        yield "broken H4A, %s" % point, objects(broken_module(shipped_text(point)))


CASES = {**ASSOC_CASES, "random": random_objects, "mutations at both points": mutated_shipped_objects,
         "broken": broken_objects}


@pytest.mark.parametrize("case", sorted(CASES))
def test_a_holding_certificate_meets_a_holding_full_comparison(case):
    held, failed, unsound = Counter(), 0, []
    for label, (h, modules) in CASES[case]():
        for item, cert_ok, full_ok in certified_items(h, modules):
            held[item.split("(")[0]] += cert_ok
            failed += not full_ok
            if cert_ok and not full_ok:
                unsound.append((label, item))
    assert unsound == []
    # the H4 modules break eq-2.1 in the retagged components, so no
    # certificate holds there
    assert all(held[f] for f in FAMILIES) or case == "retagged"
    # modules that break their laws make some full comparisons fail, so the
    # certificates meet failing items there
    assert failed or case not in ("perfbench mutations", "mutations at both points", "broken")


def fallbacks(monkeypatch, text):
    """The tcat report of text, and per family the number of pairs whose
    certificate fails, so that they run the full comparison."""
    seen = []
    braiding_certificates = tc._braiding_certificates

    def recording(*args):
        seen.append(braiding_certificates(*args))
        return seen[-1]

    monkeypatch.setattr(tc, "_braiding_certificates", recording)
    rep = run_checks(parse_definition(text), "tcat")
    monkeypatch.undo()
    [certified] = seen
    return rep, tuple(sum(not c[f] for c in certified.values()) for f in range(len(FAMILIES)))


#: per input, how it is made from h4.alg at a twist point
MAKERS = {
    None: lambda text: text,
    "broken P": broken_p,
    "broken H4A": broken_module,
    **{name: lambda text, name=name: INPUTS.apply_mutation(text, INPUTS.MUTATIONS[name])
       for name in INPUTS.MUTATIONS},
}

#: per input, the fallbacks of tensor-component, braiding-module-map,
#: braiding-comodule-map and braiding-morphism, the same at both points.  A
#: module that breaks eq-2.1 (H4A, H4B, or the trivial module when the
#: counit is broken) fails the tensor-component certificate of its 7 pairs,
#: the comodule-map certificate of the 4 pairs where it comes first, and
#: the module-map certificate of all 7, which reads its module laws; a
#: broken coaction fails the module-map certificate of the 4 pairs where it
#: comes second; a Hopf-table mutation fails every pair's certificates.
FALLBACKS = {
    None: (0, 0, 0, 0),
    "broken P": (0, 0, 0, 0),
    "broken H4A": (7, 7, 4, 0),
    "alpha-g-neg": (16, 16, 16, 16),
    "antipode-g-neg": (16, 16, 16, 0),
    "antipode-x-sign": (16, 16, 16, 0),
    "comul-g-2": (16, 16, 16, 0),
    "counit-1-2": (7, 7, 4, 0),
    "counit-g-2": (7, 7, 4, 0),
    "g-squared-minus-1": (16, 16, 16, 0),
    "h4a-coact-1-2": (7, 4, 7, 0),
    "h4ab-mu-g-2": (0, 7, 7, 7),
    "h4b-act-1g-2": (7, 7, 4, 0),
    "h4b-coact-g-2": (7, 4, 7, 0),
    "mul-1g-2": (16, 16, 16, 0),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS, key=str), ids=str)
@pytest.mark.parametrize("point", POINTS)
def test_fallbacks_on_the_shipped_file_and_its_mutations(monkeypatch, point, name):
    assert set(MAKERS) == set(FALLBACKS)
    rep, counts = fallbacks(monkeypatch, MAKERS[name](shipped_text(point)))
    assert counts == FALLBACKS[name]
    assert rep.ok() == (name is None)


def split_sides(h):
    """lambda and rho (t_category docstring), maps H -> H^(x)5, built as
    written there, leg by leg."""
    d = h.dim
    idh = LinearMap.identity(d)
    alpha, alpha_inv, mul, comul, unit = h.alpha, h.alpha_inv, h.algebra.mul, h.coalgebra.comul, h.algebra.unit
    s_inv, s3 = h.antipode_inv, kron(idh, comul) @ comul
    q = at(d, 0, s3, 3) @ (at(d, 1, s3, 0) @ comul)
    for leg, f in ((0, s_inv), (1, alpha), (4, alpha), (5, alpha)):
        q = at(d, leg, f, 5 - leg) @ q
    lam = at(d, 2, mul @ kron(alpha_inv @ alpha_inv @ s_inv, alpha_inv) @ flip(d, d), 2) @ q
    rho = at(d, 0, alpha_inv @ s_inv, 4) @ (at(d, 1, kron(idh, kron(unit, idh)) @ comul @ alpha, 1) @ s3)
    return lam, rho


def at(d, before, f, after):
    """f on the legs after the first before of a tensor power of H, with
    after legs behind them."""
    return kron(LinearMap.identity(d ** before), kron(f, LinearMap.identity(d ** after)))


def through_e(h, m, n, legs):
    """E (legs (x) id (x) id) for a map legs: H -> H^(x)5, with E(x1, ...,
    x5, r, s) = (C(x2), phi(x4), (D phi(x5) s)((BC(x3) alpha^-1(r))
    AC(x1)))."""
    d, mul = h.dim, h.algebra.mul
    a, b, c, dd = (f.matrix for f in (m.pair_a, m.pair_b, n.pair_a, n.pair_b))
    phi = tc._phi(m.pair_b, n.pair_a)
    # (x1, ..., x5) -> (C x2, phi x4, D phi x5, BC x3, AC x1)
    legs = permute((d,) * 5, (1, 3, 4, 2, 0)) @ legs
    for leg, f in enumerate((c, phi, dd @ phi, b @ c, a @ c)):
        legs = at(d, leg, f, 4 - leg) @ legs
    # (y5, y3, y1, r, s) -> (y5 s)((y3 alpha^-1(r)) y1)
    third = (mul @ kron(mul, mul @ kron(mul, LinearMap.identity(d)))
             @ permute((d,) * 5, (0, 4, 1, 3, 2)) @ at(d, 3, h.alpha_inv, 1))
    return at(d, 2, third, 0) @ kron(legs, LinearMap.identity(d * d))


def derivation(h, m, n, lam):
    """Phi_L, then each map the derivation of tensor-component turns it into,
    ending in Phi_R: Phi_L with C and phi moved from g into T_M and T_N,
    and E (lambda (x) id (x) id), for lambda from split_sides.  Where lambda
    = rho as maps, E (rho (x) id (x) id) is that same map, so the step from
    it to Phi_R is the last one here."""
    d = h.dim
    c, phi = n.pair_a.matrix, tc._phi(m.pair_b, n.pair_a)
    left, right = phi_sides(h, m, n)
    # T_M(C(k), r) = (C (x) id) T_(AC, BC)(k, r) and T_N(phi(k), s) =
    # (phi (x) id) T_(BC, D phi)(k, s)
    bc = m.pair_b @ n.pair_a
    t_m, t_n = _h_parts(h, [AutPair(m.pair_a @ n.pair_a, bc), AutPair(bc, n.pair_b @ HopfAutomorphism(phi))])
    idh = LinearMap.identity(d)
    moved = gathered(h, kron(c, idh) @ t_m, kron(phi, idh) @ t_n, h.coalgebra.comul)
    return left, moved, through_e(h, m, n, lam), right


def dense_objects():
    """The dense transport of h4.alg at c = -3/2 (transport.py, seed 1)."""
    dense = transport(resolve_definition(parse_definition(shipped_text(TWISTED))), seed=1)
    _, h = dense.get("H4")
    return h, [yd for _, yd in dense.of_kind("ydmodule")] + [trivial_yd(h)]


@pytest.mark.parametrize("point", POINTS + ("dense",))
def test_every_step_of_the_tensor_component_derivation_is_an_equality_of_maps(point):
    h, modules = dense_objects() if point == "dense" else objects(shipped_text(point))
    lam, rho = split_sides(h)
    assert lam == rho
    for m, n in itertools.product(modules, repeat=2):
        steps = derivation(h, m, n, lam)
        assert all(x == y for x, y in zip(steps, steps[1:])), (m.name, n.name)


def kappa_chain(h):
    """lambda, then each map the derivation of lambda = rho from kappa
    (t_category docstring) turns it into, ending in rho: (S^-1
    alpha^-1(h1), h21, alpha^-2(z), alpha(x), alpha(y)) for (z, x, y) =
    kappa_L(alpha^2(h22)), and the same with kappa_R."""
    d, alpha, alpha_inv = h.dim, h.alpha, h.alpha_inv
    lam, rho = split_sides(h)
    legs = at(d, 1, h.coalgebra.comul, 0) @ h.coalgebra.comul
    ends = kron(h.antipode_inv @ alpha_inv, LinearMap.identity(d))

    def through(kappa):
        return kron(ends, kron(alpha_inv @ alpha_inv, kron(alpha, alpha)) @ kappa @ alpha @ alpha) @ legs

    return (lam,) + tuple(map(through, contraction_sides(h))) + (rho,)


@pytest.mark.parametrize("point", POINTS + ("dense",))
def test_every_step_of_lambda_equals_rho_from_kappa_is_an_equality_of_maps(point):
    h, _ = derivation_objects(point)
    steps = kappa_chain(h)
    assert all(x == y for x, y in zip(steps, steps[1:]))


@pytest.mark.parametrize("name", ("antipode-g-neg", "antipode-x-sign", "g-squared-minus-1"))
@pytest.mark.parametrize("point", POINTS)
def test_the_kappa_step_alone_fails_where_an_antipode_law_does(point, name):
    # these mutations keep eq-1.3, eq-1.4, eq-1.5, alpha-mult and
    # antipode-alpha and break kappa and lambda = rho
    h, _ = objects(INPUTS.apply_mutation(shipped_text(point), INPUTS.MUTATIONS[name]))
    steps = kappa_chain(h)
    assert [x == y for x, y in zip(steps, steps[1:])] == [True, False, True]


def test_kappa_is_stronger_than_lambda_equals_rho():
    # on nilpotent_objects kappa fails, but the chain meets it only at
    # alpha^2(h22), which is a multiple of 1 there, so every step holds
    h, _ = nilpotent_objects()
    kappa_l, kappa_r = contraction_sides(h)
    steps = kappa_chain(h)
    assert kappa_l != kappa_r and all(x == y for x, y in zip(steps, steps[1:]))


@pytest.mark.parametrize("point", POINTS)
def test_a_clean_op_runs_check_yd_on_the_four_members_alone(monkeypatch, point):
    # every tensor-component and conjugate-component certificate holds on
    # the shipped file, so no M (x) N and no ^pN meets check_yd
    checked, check_yd_ = [], tc.check_yd

    def recording(yd):
        checked.append(yd.name)
        return check_yd_(yd)

    monkeypatch.setattr(tc, "check_yd", recording)
    assert run_checks(parse_definition(shipped_text(point)), "tcat").ok()
    assert checked == ["H4A", "H4B", "H4AB", "k"]


def contraction_sides(h):
    """kappa_L and kappa_R (t_category docstring), maps H -> H^(x)3, built
    as written there, leg by leg: kappa_L(h) = (S^-1(h21) alpha^-1(h1),
    h221, h222) and kappa_R(h) = (1, alpha^-2(h1), alpha^-2(h2))."""
    d = h.dim
    comul, alpha_inv = h.coalgebra.comul, h.alpha_inv
    legs = at(d, 1, kron(LinearMap.identity(d), comul) @ comul, 0) @ comul
    left = at(d, 0, h.algebra.mul @ kron(h.antipode_inv, alpha_inv) @ flip(d, d), 2) @ legs
    right = kron(h.algebra.unit, at(d, 0, alpha_inv @ alpha_inv, 1) @ at(d, 1, alpha_inv @ alpha_inv, 0) @ comul)
    return left, right


def chained(h, pieces, legs):
    """(f0(x0), ((f1(p) f2(q)) f3(y)) f4(z)) for pieces (f0, ..., f4) on the
    legs (x0, p, q, y, z) that legs: H^(x)k -> H^(x)5 gives, and the same
    with the last products taken as alpha(f1(p) f2(q)) (f3(y) alpha^-1
    f4(z)), Hom-associativity's other side: maps H^(x)k -> H (x) H."""
    d, mul, idh = h.dim, h.algebra.mul, LinearMap.identity(h.dim)
    for leg, f in enumerate(pieces):
        legs = at(d, leg, f, 4 - leg) @ legs
    return (kron(idh, mul @ kron(mul @ kron(mul, idh), idh)) @ legs,
            kron(idh, mul @ kron(h.alpha @ mul, mul @ kron(idh, h.alpha_inv))) @ legs)


def psi_derivation(h, m, n):
    """Psi_L, then each map the derivation of Psi_L = Psi_R (t_category
    docstring) turns it into, ending in Psi_R: Psi_L on the legs (h1, h21,
    h221, h222) of h with B^-1 and the automorphisms moved onto them, the
    same after Hom-associativity, G (kappa_L (x) id) and G (kappa_R (x)
    id)."""
    d, mul = h.dim, h.algebra.mul
    idh, alpha, alpha_inv = LinearMap.identity(d), h.alpha, h.alpha_inv
    b_inv, c, dd = m.pair_b.inverse, n.pair_a.matrix, n.pair_b.matrix
    phi = tc._phi(m.pair_b, n.pair_a)
    [t_n] = _h_parts(h, [n.pair])
    # Psi_L(h, t) = (alpha(u), alpha^-1(B^-1 w) alpha^-1(a)) for (a, k) =
    # g(h) and (u, w) = T_N(k, t); Psi_R(h, t) = (phi(h1), alpha^-1(B^-1
    # B_MN(h2)) B^-1(t))
    ends = kron(alpha, mul @ kron(alpha_inv @ b_inv, alpha_inv)) @ permute((d,) * 3, (1, 2, 0))
    left = ends @ (kron(idh, t_n) @ kron(_split(m, n), idh))
    b_mn = tc.group_mul(m.pair, n.pair).b.matrix
    right = kron(phi, mul @ kron(alpha_inv @ b_inv @ b_mn, b_inv)) @ kron(h.coalgebra.comul, idh)
    # (h1, h21, h221, h222, t) -> (h221, h222, t, h21, h1)
    legs = permute((d,) * 5, (2, 3, 4, 1, 0)) @ kron(at(d, 1, kron(idh, h.coalgebra.comul) @ h.coalgebra.comul,
                                                        0) @ h.coalgebra.comul, idh)
    pieces = (alpha @ alpha @ phi, alpha_inv @ b_inv @ dd @ phi, alpha_inv @ alpha_inv @ b_inv,
              alpha_inv @ c @ h.antipode_inv, alpha_inv @ c)
    moved, associated = chained(h, pieces, legs)
    # G(z, x, y, t) = (alpha^2 phi(x), alpha(alpha^-1 B^-1 D phi(y) alpha^-2
    # B^-1(t)) alpha^-1 C(z))
    g = kron(pieces[0], mul @ kron(alpha @ mul @ kron(pieces[1], pieces[2]), alpha_inv @ c)) @ permute(
        (d,) * 4, (1, 2, 3, 0))
    kappa_l, kappa_r = contraction_sides(h)
    return left, moved, associated, g @ kron(kappa_l, idh), g @ kron(kappa_r, idh), right


def xi_derivation(h, m):
    """Xi_L pre, then each map the derivation of Xi_L pre = Xi_R pre
    (t_category docstring) turns it into, ending in Xi_R pre: Xi_L pre on
    the legs (t1, s1, s21, s22) for s = alpha(t2), the same after
    Hom-associativity, G' (kappa_L alpha (x) id) and G' (kappa_R alpha (x)
    id)."""
    d, mul, comul = h.dim, h.algebra.mul, h.coalgebra.comul
    idh, alpha, alpha_inv = LinearMap.identity(d), h.alpha, h.alpha_inv
    a, b_inv = m.pair_a.matrix, m.pair_b.inverse
    [t_m] = _h_parts(h, [m.pair])
    pre = kron(comul, idh)
    # Xi_L pre (t, r) = T_M(B^-1 alpha(t2), alpha^-1(r)) times A B^-1
    # alpha(t1), and Xi_R pre (t, r) = (B^-1(t1), alpha(t2) r)
    left = kron(idh, mul) @ kron(t_m, a @ b_inv @ alpha) @ permute((d,) * 3, (1, 2, 0)) @ at(
        d, 1, kron(b_inv @ alpha, alpha_inv), 0) @ pre
    right = kron(b_inv, mul @ kron(alpha, idh)) @ pre
    # (t1, s1, s21, s22, r) -> (s21, s22, r, s1, t1)
    legs = permute((d,) * 5, (2, 3, 4, 1, 0)) @ kron(at(d, 1, kron(idh, comul) @ comul @ alpha, 0) @ comul, idh)
    pieces = (alpha @ b_inv, idh, alpha_inv @ alpha_inv, a @ b_inv @ h.antipode_inv, a @ b_inv @ alpha)
    moved, associated = chained(h, pieces, legs)
    # G'(z, x, y, r) = (alpha B^-1(x), alpha(y alpha^-2(r)) A B^-1(z))
    g = kron(pieces[0], mul @ kron(alpha @ mul @ kron(idh, pieces[2]), a @ b_inv)) @ permute((d,) * 4, (1, 2, 3, 0))
    kappa_l, kappa_r = contraction_sides(h)
    return left, moved, associated, g @ kron(kappa_l @ alpha, idh), g @ kron(kappa_r @ alpha, idh), right


def derivation_objects(point):
    if point == "dense":
        return dense_objects()
    if point == "random":
        [(_, objs)] = random_objects()
        return objs
    return objects(shipped_text(point))


#: per derivation, the steps that read no law of an automorphism: the
#: Hom-associativity step and kappa's, the only ones that hold for
#: random_objects' triangular pairs, which are no automorphisms
AUTOMORPHISM_FREE = (1, 3)


@pytest.mark.parametrize("point", POINTS + ("dense", "random"))
def test_every_step_of_the_braiding_map_derivations_is_an_equality_of_maps(point):
    h, modules = derivation_objects(point)
    kappa_l, kappa_r = contraction_sides(h)
    assert kappa_l == kappa_r and tc._contraction_law(h)
    steps = [("psi", m.name, n.name, psi_derivation(h, m, n)) for m, n in itertools.product(modules, repeat=2)]
    steps += [("xi", m.name, "", xi_derivation(h, m)) for m in modules]
    for kind, m, n, maps in steps:
        held = [x == y for x, y in zip(maps, maps[1:])]
        if point == "random":
            held = [held[k] for k in AUTOMORPHISM_FREE]
        assert all(held), (kind, m, n, held)


def nilpotent_objects():
    """H = k[x]/(x^2) with comul(1) = 1 (x) 1, comul(x) = x (x) 1 and S =
    alpha = id, and a module Z in the identity component whose action and
    coaction are zero: every law of the algebra, Hom-coassociativity,
    comul alpha = (alpha (x) alpha) comul and lambda = rho hold there, and
    the identity pair passes every automorphism law, yet kappa and Psi_L =
    Psi_R fail."""
    ident = LinearMap.identity(2)
    h = HomHopfAlgebraData.from_maps(
        ("1", "x"), LinearMap.from_cols([[1, 0], [0, 1], [0, 1], [0, 0]]), LinearMap.from_cols([[1, 0]]),
        LinearMap.from_cols([[1, 0, 0, 0], [0, 0, 1, 0]]), LinearMap.from_rows([[1, 0]]), ident, ident)
    return h, YDModuleData(h, LinearMap.zeros(1, 2), LinearMap.zeros(2, 1), LinearMap.identity(1),
                           AutPair.identity(2), label="Z")


def test_lambda_equals_rho_does_not_give_psi():
    # no counit law cancels lambda's two outer legs, so the module-map
    # certificate reads kappa, which fails here as Psi does
    h, zero = nilpotent_objects()
    assert check_hom_algebra(h.algebra).ok()
    assert {"eq-1.4", "eq-1.5"} <= tc._passing(check_hom_coalgebra(h.coalgebra))
    steps = psi_derivation(h, zero, zero)
    assert _component_laws(h) and steps[0] != steps[-1]
    assert not tc._contraction_law(h) and steps[3] != steps[4]
    comps, keys = numbered(h, [zero])
    laws = tc._laws(h, [zero], comps)
    assert "kappa" not in laws[2]
    assert not tc._braiding_certificates(keys, [True], laws)[0, 0][1]
