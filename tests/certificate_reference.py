"""Reference certificates: the certificate functions of check_t_category
as they were when each identity on H was computed once per module
position, not once per distinct tuple of the component values it reads.

Every table here is keyed by positions: the pair pieces by (M, N), the T_X
by module, the identities of _certificates, _braiding_certificates,
_functor_certificates and _conjugate_certificates by the positions of
their modules and pairs, and the laws of each component automorphism by
the module that carries it.  Every law is restated here as an equality of
maps, where t_category reads it by id from the suite that states it; the
reference shares with t_category only the group words (_phi, _conj_phi,
_conj_f, group_mul).  For the module half of tensor-assoc, eq-3.4,
functor-tensor and conjugate-component it keeps the identities of maps on
H that t_category no longer computes, since it reads laws of the component
automorphisms that imply them (t_category docstring).
"""

import itertools

from homyd.exactlin import LinearMap, flip, kron, permute
from homyd.t_category import _conj_f, _conj_phi, _phi, group_mul


def _split(m, n):
    """(C (x) C^-1 B C) comul: H -> H (x) H, with B from M's pair and C from
    N's: h.(x (x) y) = act_M (x) act_N on the legs (h1', x, h2', y) of it."""
    return kron(LinearMap.identity(m.over.dim), _phi(m.pair_b, n.pair_a)) @ n.tensor_comul


def _pair_pieces(modules):
    """Per pair (i, j) of module positions, the component pair(M) * pair(N)
    of M (x) N and its split (C (x) C^-1 B C) comul: the certificates read
    these two pieces of a pair tensor alone."""
    return {(i, j): (group_mul(m.pair, n.pair), _split(m, n))
            for (i, m), (j, n) in itertools.product(enumerate(modules), repeat=2)}


def _laws(h, modules):
    """Whether each law the certificates use holds as an identity of maps
    (module docstring).  Per module, by position: module-twist,
    module-assoc, eq-1.8-coact, eq-1.7, eq-3.5's braid law, and for its A
    and its B whether each is a bialgebra map that commutes with S^-1,
    whether each commutes with alpha, and each of those laws alone.  On H,
    once: Hom-associativity a(bc) = (alpha^-1(a) b) alpha(c),
    alpha(ab) = alpha(a) alpha(b), and the laws of H that tensor-component
    and the braiding module-map and comodule-map certificates read with the
    contraction law (_contraction_law) and a1 = alpha(a): 1a = alpha(a),
    alpha(1) = 1, Hom-coassociativity, comul alpha = (alpha (x) alpha)
    comul and S alpha = alpha S for the first, alpha(1) = 1 for the second
    and comul alpha = (alpha (x) alpha) comul for the third."""
    alpha, alpha_inv, mul, comul = h.alpha, h.alpha_inv, h.algebra.mul, h.coalgebra.comul
    unit, s_inv, idh = h.algebra.unit, h.antipode_inv, LinearMap.identity(h.dim)
    twist = [m.mu @ m.action == m.action @ kron(alpha, m.mu) for m in modules]
    assoc = [m.action @ kron(alpha, m.action) == m.action @ kron(mul, m.mu) for m in modules]
    coact_twist = [m.coaction @ m.mu == kron(m.mu, alpha) @ m.coaction for m in modules]
    coassoc = [kron(m.mu_inv, comul) @ m.coaction == kron(m.coaction, alpha_inv) @ m.coaction for m in modules]
    braid_law = [m.mu_inv @ m.action @ kron(m.pair_b.inverse @ mul, LinearMap.identity(m.dim))
                 == m.action @ kron(m.pair_b.inverse, m.mu_inv @ m.braid_act) for m in modules]

    def automorphism(f):
        return {"comul": comul @ f == kron(f, f) @ comul, "mult": f @ mul == mul @ kron(f, f),
                "unit": f @ unit == unit, "antipode": f @ s_inv == s_inv @ f, "alpha": alpha @ f == f @ alpha}

    auts = [(automorphism(m.pair_a.matrix), automorphism(m.pair_b.matrix)) for m in modules]
    hopf = [tuple(all(x[k] for k in ("comul", "mult", "unit", "antipode")) for x in pair) for pair in auts]
    commute = [tuple(x["alpha"] for x in pair) for pair in auts]
    hom_assoc = mul @ kron(idh, mul) == mul @ kron(mul @ kron(alpha_inv, idh), alpha)
    alpha_mult = alpha @ mul == mul @ kron(alpha, alpha)
    contraction = (hom_assoc and alpha_mult and mul @ kron(idh, unit) == alpha and _contraction_law(h))
    psi_h = contraction and alpha @ unit == unit
    xi_h = contraction and comul @ alpha == kron(alpha, alpha) @ comul
    lambda_h = (psi_h and xi_h and mul @ kron(unit, idh) == alpha
                and kron(alpha_inv, comul) @ comul == kron(comul, alpha_inv) @ comul
                and h.antipode @ alpha == alpha @ h.antipode)
    return (twist, assoc, coact_twist, coassoc, braid_law, hopf, commute, hom_assoc, lambda_h, auts, alpha_mult,
            psi_h, xi_h)


def _contraction_law(h):
    """Whether kappa_L = kappa_R, maps H -> H^(x)3 with kappa_L(h) =
    (S^-1(h21) alpha^-1(h1), h221, h222) and kappa_R(h) = (1,
    alpha^-2(h1), alpha^-2(h2)) (module docstring), the laws of H that the
    braiding module-map and comodule-map certificates read besides."""
    d = h.dim
    idh, comul, alpha_inv = LinearMap.identity(d), h.coalgebra.comul, h.alpha_inv
    legs = kron(idh, kron(idh, comul) @ comul) @ comul
    left = kron(h.algebra.mul @ kron(h.antipode_inv, alpha_inv) @ flip(d, d), LinearMap.identity(d * d)) @ legs
    return left == kron(h.algebra.unit, kron(alpha_inv @ alpha_inv, alpha_inv @ alpha_inv) @ comul)


def _component_laws(h):
    """Whether alpha(ab) = alpha(a) alpha(b), 1a = alpha(a) and lambda = rho
    hold on H (module docstring).  No certificate reads it, since kappa and
    laws of H prove lambda = rho; test_lambda_equals_rho_does_not_give_psi
    shows that it does not give kappa.  lambda(h) = (S^-1(q1), alpha(q2),
    alpha^-2(S^-1(q4)) alpha^-1(q3), alpha(q5), alpha(q6)) for q = (s3 (x)
    s3) comul(h) with s3 = (id (x) comul) comul, and rho(h) = (alpha^-1
    S^-1(h1), k1, 1, k2, h22) for k = alpha(h21); each side is taken right
    to left on the 4 columns of H."""
    d = h.dim
    idh = LinearMap.identity(d)
    alpha, alpha_inv, mul, comul, unit = h.alpha, h.alpha_inv, h.algebra.mul, h.coalgebra.comul, h.algebra.unit
    s_inv, split = h.antipode_inv, kron(idh, comul) @ comul
    if not (alpha @ mul == mul @ kron(alpha, alpha) and mul @ kron(unit, idh) == alpha):
        return False
    middle = mul @ kron(alpha_inv @ alpha_inv @ s_inv, alpha_inv) @ flip(d, d)
    q = kron(kron(s_inv, kron(alpha, idh)) @ split, LinearMap.identity(d ** 3)) @ (
        kron(idh, kron(idh, kron(alpha, alpha)) @ split) @ comul)
    lam = kron(LinearMap.identity(d * d), kron(middle, LinearMap.identity(d * d))) @ q
    rho = kron(alpha_inv @ s_inv, LinearMap.identity(d ** 4)) @ (
        kron(idh, kron(kron(idh, kron(unit, idh)) @ comul @ alpha, idh)) @ split)
    return lam == rho


def _h_parts(h, pairs):
    """T_(A,B) for each pair (A, B) of pairs, in order: the H part of eq-2.1
    in component (A, B), a map H (x) H -> H (x) H (module docstring).  The
    legs (k, r) -> (alpha(k21), k22, alpha^-1(r), k1) are built once; each
    T then puts B on the second leg and A S^-1 on the last, and takes (x, y,
    z) -> (x y) z on the last three, right to left on the 16 columns."""
    d = h.dim
    idh, idhh = LinearMap.identity(d), LinearMap.identity(d * d)
    mul, comul = h.algebra.mul, h.coalgebra.comul
    lift = kron(h.alpha, kron(idh, kron(h.alpha_inv, idh))) @ (
        permute((d,) * 4, (1, 2, 3, 0)) @ kron(kron(idh, comul) @ comul, idh))
    products = kron(idh, mul @ kron(mul, idh))
    return [products @ (kron(idh, kron(pair.b.matrix, idhh))
                        @ (kron(LinearMap.identity(d ** 3), pair.a.matrix @ h.antipode_inv) @ lift))
            for pair in pairs]


def _certificates(h, modules, pieces, laws):
    """Per triple (i, j, k) of module positions, whether the module and the
    comodule half of tensor-assoc, eq-3.4 and eq-3.5 hold by their
    certificates on H (module docstring); pieces holds the components and
    splits of the pair tensors by position (_pair_pieces), and laws the
    laws of H and of each module (_laws)."""
    idh, alpha, alpha_inv, comul = LinearMap.identity(h.dim), h.alpha, h.alpha_inv, h.coalgebra.comul
    twist, assoc, coact_twist, coassoc, braid_law, _, _, hom_assoc, _, auts, alpha_mult, _, _ = laws
    coalgebra_map = {}
    for (i, j), (mn, _) in pieces.items():
        f = mn.b.inverse @ alpha
        coalgebra_map[i, j] = comul @ f == kron(f, f) @ comul
    outer = kron(alpha, kron(idh, alpha_inv))
    certified = {}
    for i, j, k in itertools.product(range(len(modules)), repeat=3):
        (mn, g_mn), (np, g_np) = pieces[i, j], pieces[j, k]
        m, p = modules[i], modules[k]
        module_half = twist[i] and twist[k] and (
            kron(np.a.matrix, g_np @ _phi(m.pair_b, np.a)) @ comul
            == outer @ (kron(g_mn @ p.pair_a.matrix, _phi(mn.b, p.pair_a)) @ comul))
        certified[i, j, k] = (module_half, hom_assoc and coact_twist[i] and coact_twist[k],
                              coalgebra_map[i, j] and coact_twist[k] and coassoc[k],
                              braid_law[i] and twist[i] and assoc[i] and auts[i][1]["mult"] and alpha_mult)
    return certified


def _functor_certificates(h, modules, pairs, pieces, conj):
    """Whether functor-tensor(p;M,N) holds by its certificate on H, f_p
    multiplicative and the split identity (module docstring), keyed by the
    positions (p, M, N); pieces holds the components and splits of the pair
    tensors (_pair_pieces) and conj the conjugates ^pN by position."""
    mul = h.algebra.mul
    phi = {(pi, i): _conj_phi(p, m.pair_a) for pi, p in enumerate(pairs) for i, m in enumerate(modules)}
    certified = {}
    for pi, p in enumerate(pairs):
        f = _conj_f(p)
        multiplicative = f @ mul == mul @ kron(f, f)
        for (i, j), (mn, g) in pieces.items():
            certified[pi, i, j] = multiplicative and (
                g @ _conj_phi(p, mn.a) == kron(phi[pi, i], phi[pi, j]) @ _split(conj[pi, i], conj[pi, j]))
    return certified


def _braiding_certificates(h, modules, pieces, member, laws, part):
    """Per pair (i, j) of module positions, whether tensor-component,
    braiding-module-map, braiding-comodule-map and braiding-morphism hold by
    their certificates on H (module docstring); pieces holds the components
    and splits of the pair tensors (_pair_pieces), member the yd-member
    verdicts, laws the laws (_laws) and part the H parts T_X of eq-2.1
    (_h_parts), by position.  tensor-component and braiding-morphism are
    conjunctions of those; Psi_L = Psi_R, per pair, and Xi_L pre = Xi_R pre,
    per module, are taken right to left on their 16 columns."""
    d = h.dim
    idh = LinearMap.identity(d)
    alpha, alpha_inv, mul, comul = h.alpha, h.alpha_inv, h.algebra.mul, h.coalgebra.comul
    twist, assoc, coact_twist, coassoc, _, hopf, commute, _, lambda_h, auts, _, psi_h, xi_h = laws
    pre, rotate = kron(comul, idh), permute((d,) * 3, (1, 2, 0))
    # per module M: (u, w, a) -> (alpha(u), alpha^-1(B^-1 w) alpha^-1(a)),
    # the left end of Psi_L; and Xi_L pre = Xi_R pre, with Xi_L pre (t, r) =
    # T_M(B^-1 alpha(t2), alpha^-1(r)) times f alpha(t1) and Xi_R pre (t, r)
    # = (B^-1(t1), alpha(t2) r)
    psi_left, xi = [], []
    for m, t_m in zip(modules, part):
        b_inv = m.pair_b.inverse
        psi_left.append(kron(alpha, mul @ kron(alpha_inv @ b_inv, alpha_inv)) @ rotate)
        xi.append(kron(idh, mul) @ (kron(t_m, _conj_f(m.pair) @ alpha)
                                    @ (rotate @ (kron(idh, kron(b_inv @ alpha, alpha_inv)) @ pre)))
                  == kron(b_inv, mul @ kron(alpha, idh)) @ pre)
    certified = {}
    for (i, j), (mn, g) in pieces.items():
        m, n = modules[i], modules[j]
        b_inv = m.pair_b.inverse
        # B of M and C of N are bialgebra maps that commute with S^-1, and
        # M's A and B and N's C and D commute with alpha
        component = (member[i] and member[j] and lambda_h and hopf[i][1] and hopf[j][0] and all(commute[i])
                     and all(commute[j]))
        # Psi_L (h, t) from (a, T_N(k, t)) for (a, k) = g(h), and Psi_R (h, t)
        # = (C^-1 B C(h1), alpha^-1(B^-1 B_MN(h2)) B^-1(t))
        module_map = member[j] and twist[i] and twist[j] and assoc[i] and (
            psi_left[i] @ (kron(idh, part[j]) @ kron(g, idh))
            == kron(_phi(m.pair_b, n.pair_a), mul @ kron(alpha_inv @ b_inv @ mn.b.matrix, b_inv)) @ pre)
        # the laws that prove Psi_L = Psi_R and Xi_L pre = Xi_R pre from the
        # contraction law
        (a_m, b_m), (c_n, d_n) = auts[i], auts[j]
        module_map = module_map and psi_h and all(b_m[k] for k in ("comul", "mult", "antipode", "alpha")) and all(
            c_n.values()) and d_n["alpha"]
        comodule_map = (member[i] and coact_twist[i] and coact_twist[j] and coassoc[j] and xi[i] and xi_h
                        and all(a_m[k] for k in ("mult", "unit", "alpha")) and all(b_m.values()))
        morphism = twist[i] and coact_twist[j] and commute[i][1]
        certified[i, j] = component, module_map, comodule_map, morphism
    return certified


def _conjugate_certificates(h, modules, pairs, conj, member, part):
    """Whether conjugate-component(p;N) holds by its certificate on H, keyed
    by the positions (p, N): yd-member(N) and (id (x) f_p) T_N (phi_{p,N}
    (x) id) = (phi_{p,N} (x) id) T_{^pN} (id (x) f_p) (module docstring);
    conj holds the conjugates ^pN, member the yd-member verdicts and part
    the T_N (_h_parts), by position.  Each side is taken right to left on
    its 16 columns."""
    idh = LinearMap.identity(h.dim)
    keys = [(pi, i) for pi, i in conj if member[i]]
    conj_part = dict(zip(keys, _h_parts(h, [conj[key].pair for key in keys])))
    certified = dict.fromkeys(conj, False)
    for pi, i in keys:
        phi, f = kron(_conj_phi(pairs[pi], modules[i].pair_a), idh), kron(idh, _conj_f(pairs[pi]))
        certified[pi, i] = f @ (part[i] @ phi) == phi @ (conj_part[pi, i] @ f)
    return certified


def _inverse_certificates(h, modules, laws):
    """Per pair (i, j) of module positions, whether braiding-inverse-left
    and braiding-inverse-right hold by their certificates (module
    docstring): module-twist, module-assoc and 1.m = mu(m) for M; eq-1.7,
    eq-1.8-coact and m0 eps(m1) = mu^-1(m) for N; B of M multiplicative,
    unital and commuting with alpha; S alpha = alpha S, and S(h1)h2 =
    eps(h)1 for the left item and h1 S(h2) = eps(h)1 for the right."""
    twist, assoc, coact_twist, coassoc, _, _, commute, _, _, _, _, _, _ = laws
    mul, unit, comul, counit = h.algebra.mul, h.algebra.unit, h.coalgebra.comul, h.coalgebra.counit
    s, alpha, idh = h.antipode, h.alpha, LinearMap.identity(h.dim)
    unital = [m.action @ kron(unit, LinearMap.identity(m.dim)) == m.mu for m in modules]
    counital = [kron(LinearMap.identity(m.dim), counit) @ m.coaction == m.mu_inv for m in modules]
    b_laws = [f @ mul == mul @ kron(f, f) and f @ unit == unit for f in (m.pair_b.matrix for m in modules)]
    s_alpha = s @ alpha == alpha @ s
    left, right = (mul @ kron(f, g) @ comul == unit @ counit for f, g in ((s, idh), (idh, s)))
    certified = {}
    for i, j in itertools.product(range(len(modules)), repeat=2):
        held = (twist[i] and assoc[i] and unital[i] and coassoc[j] and coact_twist[j] and counital[j]
                and b_laws[i] and commute[i][1] and s_alpha)
        certified[i, j] = held and left, held and right
    return certified


def _unit_certificates(h, modules, laws):
    """Per module position, whether unit-left-module, unit-left-comodule,
    unit-right-module and unit-right-comodule hold by their certificates
    (module docstring): module-twist, eps(c1) c2 = alpha^-1(c) and eps A =
    eps; eq-1.8-coact and a1 = alpha(a); module-twist, c1 eps(c2) =
    alpha^-1(c) and eps B = eps; eq-1.8-coact and 1a = alpha(a)."""
    twist, _, coact_twist, _, _, _, _, _, _, _, _, _, _ = laws
    mul, unit, comul, counit = h.algebra.mul, h.algebra.unit, h.coalgebra.comul, h.coalgebra.counit
    alpha, alpha_inv, idh = h.alpha, h.alpha_inv, LinearMap.identity(h.dim)
    counit_left, counit_right = (kron(f, g) @ comul == alpha_inv for f, g in ((counit, idh), (idh, counit)))
    unit_left, unit_right = (mul @ kron(f, g) == alpha for f, g in ((unit, idh), (idh, unit)))
    return {i: (twist[i] and counit_left and counit @ m.pair_a.matrix == counit, coact_twist[i] and unit_right,
                twist[i] and counit_right and counit @ m.pair_b.matrix == counit, coact_twist[i] and unit_left)
            for i, m in enumerate(modules)}


def reference_certificates(h, modules, pairs, conj, member):
    """Per family, the certificate dict check_t_category decides from, by
    position: _braiding_certificates, with the two slots of
    _inverse_certificates after its four, _conjugate_certificates,
    _functor_certificates, _certificates and _unit_certificates."""
    pieces, laws = _pair_pieces(modules), _laws(h, modules)
    part = _h_parts(h, [m.pair for m in modules])
    inverse = _inverse_certificates(h, modules, laws)
    return {
        "braiding": {key: held + inverse[key]
                     for key, held in _braiding_certificates(h, modules, pieces, member, laws, part).items()},
        "conjugate": _conjugate_certificates(h, modules, pairs, conj, member, part),
        "functor": _functor_certificates(h, modules, pairs, pieces, conj),
        "triple": _certificates(h, modules, pieces, laws),
        "unit": _unit_certificates(h, modules, laws),
    }
