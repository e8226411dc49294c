"""The crossed-group structure on twisted Yetter-Drinfeld modules: tensor
products, conjugation functors, braidings and the full identity suite.

The index group is G = Aut x Aut with the twisted product

    (A, B) * (C, D) = (AC, D C^-1 B C),   unit (id, id),
    (A, B)^-1 = (A^-1, A B^-1 A^-1).

A module tagged (A, B) tensored with one tagged (C, D) lands in the
component of the *-product; conjugating by p moves a module to the
component p * (C, D) * p^-1.  The braiding

    c_{M,N}(m (x) n) = nu(n0) (x) B^-1(n1) . mu^-1(m)            (eq-3.3)

crosses from M (x) N to (conjugated N) (x) M, with inverse

    c^-1(n (x) m) = B^-1(S(n1)) . mu^-1(m) (x) nu(n0).           (lemma-3.6)

Each object is a composite of the stored structure maps built with @, kron
and permute, as the laws in hom_algebra and yd_modules are.  "Equality of
objects" in the functor identities below always means equality of
structure maps on the flattened carrier, the strongest checkable reading.

Every object built here is one YDModuleData on its maps, twist and
component, which inverts its twist once, in closed form for the diagonal
twists of h4.alg and their tensor products; G inverts no matrix: its
elements are the AutPairs of hom_algebra, whose products and inverses carry
their inverses, and an object's pair is read as m.pair.

Tensor products and braidings contain pieces that depend on one factor X
only.  X builds each of them once, when first read, and keeps it
(YDModuleData): tensor_act = act_X flip when X is the left tensor factor,
tensor_coact = (id (x) mul)(rho_X (x) id) flip and tensor_comul = (C (x)
id) comul (C from X's pair) when it is the right one, braid_act = act_X
(B^-1 (x) mu^-1) when it is the braiding's first factor, braid_coact = (mu
(x) id) rho_X when it is the second, and inverse_act = act_X (B^-1 S (x)
mu^-1) when it is the first factor of an inverse braiding.  Each twist
rides on the one-object piece it meets, by the interchange law (f (x)
g)(h (x) k) = fh (x) gk: nu on rho_N rather than nu (x) act_M, and C on
the comultiplication rather than C (x) act_N (...), so no twist is
Kronecker-multiplied with a piece that depends on both factors.

Each formula has one function: tensor_yd (with _tensor_maps, its maps,
which the twisted associativity check shares), braiding, braiding_inverse
and the checks.  check_t_category builds each pair tensor M (x) N,
braiding c_{M,N} and conjugate ^MN once and passes them down to the checks
as arguments.  What it builds lives only for the call; of its inputs, only
the modules' own pieces outlive it.  check_braiding_inverse, check_hexagons
and check_conjugation_invariance take every braiding they compare
prebuilt.  The twisted associativity check compares the two triple tensors
as maps, without building either as an object, and decides each
intertwining with the diagonal constraint through exactlin.intertwined,
without building the scaled products.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

from .exactlin import LinearMap, flip, intertwined, kron, permute
from .hom_algebra import AutPair, check_automorphism
from .reports import CheckReport, Witness, check_laws, index_leg
from .yd_modules import YDModuleData, check_yd, trivial_yd


def group_mul(p, q):
    """(A, B) * (C, D) = (AC, D C^-1 B C)."""
    return AutPair(p.a @ q.a, q.b @ q.a.inv() @ p.b @ q.a, label="%s*%s" % (p.name, q.name))


def group_inv(p):
    """(A, B)^-1 = (A^-1, A B^-1 A^-1)."""
    return AutPair(p.a.inv(), p.a @ p.b.inv() @ p.a.inv(), label="%s^-1" % p.name)


# ---------------------------------------------------------------------------
# tensor product and conjugation of modules
# ---------------------------------------------------------------------------


def tensor_yd(m, n):
    """M (x) N in component pair(M) * pair(N), with B from M's pair and C
    from N's:

        h.(x (x) y) = C(h1).x (x) C^-1 B C(h2).y
                    = (act_M flip (x) id) (id (x) left) (flip (x) id),
        left(h (x) y) = C(h1) (x) C^-1 B C(h2).y
                      = (id (x) act_N (C^-1 B C (x) id)) ((C (x) id) comul (x) id),
        rho(x (x) y) = (x0 (x) y0) (x) y1 x1
                     = (id (x) right) (rho_M (x) id),
        right(x1 (x) y) = y0 (x) y1 x1 = (id (x) mul) (rho_N (x) id) flip.

    act_M flip is M's tensor_act, and right and (C (x) id) comul are N's
    tensor_coact and tensor_comul.
    """
    if m.over is not n.over and not m.over.equal_tables(n.over):
        raise ValueError("tensor factors live over different algebras")
    act, coact = _tensor_maps(m, n)
    basis = tuple("%s(x)%s" % (a, b) for a in m.basis for b in n.basis)
    return YDModuleData(m.over, act, coact, kron(m.mu, n.mu), group_mul(m.pair, n.pair),
                        basis=basis, label="%s(x)%s" % (m.name, n.name))


def _tensor_maps(m, n):
    """The action and coaction of M (x) N (tensor_yd); only the piece
    act_N (C^-1 B C (x) id) of left depends on both factors, and C rides on
    N's tensor_comul, not on that piece."""
    d, dm, dn = m.over.dim, m.dim, n.dim
    idm, idn = LinearMap.identity(dm), LinearMap.identity(dn)
    cbc = n.pair_a.inverse @ m.pair_b.matrix @ n.pair_a.matrix
    left = kron(LinearMap.identity(d), n.action @ kron(cbc, idn)) @ kron(n.tensor_comul, idn)
    act = kron(m.tensor_act, idn) @ kron(idm, left) @ kron(flip(d, dm), idn)
    coact = kron(idm, n.tensor_coact) @ kron(m.coaction, idn)
    return act, coact


def conjugate_yd(p, n):
    """The conjugation functor on objects: same carrier and twist, component
    moved to p * pair(N) * p^-1, and with p = (A, B), C from N's pair,

        h.y = C^-1 B C A^-1(h).y  = act_N (C^-1 B C A^-1 (x) id),
        rho(y) = y0 (x) A B^-1(y1) = (id (x) A B^-1) rho_N.
    """
    dn = n.dim
    phi = n.pair_a.inverse @ p.b.matrix @ n.pair_a.matrix @ p.a.inverse
    act = n.action @ kron(phi, LinearMap.identity(dn))
    coact = kron(LinearMap.identity(dn), p.a.matrix @ p.b.inverse) @ n.coaction
    return YDModuleData(n.over, act, coact, n.mu, group_mul(group_mul(p, n.pair), group_inv(p)),
                        basis=n.basis, label="^%s%s" % (p.name, n.name))


# ---------------------------------------------------------------------------
# braiding
# ---------------------------------------------------------------------------


class BraidingMap:
    """The component-crossing isomorphism M (x) N -> (^M N) (x) M."""

    def __init__(self, source, matrix):
        self.source = source
        self.matrix = matrix

    @property
    def target(self):
        """(^M N, M), built when read."""
        m, n = self.source
        return conjugate_yd(m.pair, n), m

    def __repr__(self):
        m, n = self.source
        return "BraidingMap(%s, %s)" % (m.name, n.name)


def braiding(m, n):
    """eq-3.3, with B from M's component pair and the action being M's:

        c(x (x) y) = nu(y0) (x) B^-1(y1) . mu^-1(x)
                   = (id (x) act_M (B^-1 (x) mu^-1)) ((nu (x) id) rho_N (x) id) flip,

    where act_M (B^-1 (x) mu^-1) is M's braid_act and (nu (x) id) rho_N is
    N's braid_coact.
    """
    matrix = (kron(LinearMap.identity(n.dim), m.braid_act) @ kron(n.braid_coact, LinearMap.identity(m.dim))
              @ flip(m.dim, n.dim))
    return BraidingMap((m, n), matrix)


def braiding_inverse(b):
    """lemma-3.6, with nu moved through the leg permutation onto rho_N:

        c^-1(y (x) x) = B^-1(S(y1)) . mu^-1(x) (x) nu(y0)
                      = (act_M (B^-1 S (x) mu^-1) (x) id) (y, h, x -> h, x, y) ((nu (x) id) rho_N (x) id),

    where act_M (B^-1 S (x) mu^-1) is M's inverse_act and (nu (x) id) rho_N
    is N's braid_coact.
    """
    m, n = b.source
    return (
        kron(m.inverse_act, LinearMap.identity(n.dim)) @ permute((n.dim, m.over.dim, m.dim), (1, 2, 0))
        @ kron(n.braid_coact, LinearMap.identity(m.dim))
    )


def associator(m, n, p):
    """Twisted associativity constraint (M (x) N) (x) P -> M (x) (N (x) P);
    on flattened coordinates the untwisted reindexing is the identity, so
    only the twists mu (x) id (x) twist^-1 remain."""
    return kron(m.mu, kron(LinearMap.identity(n.dim), p.mu_inv))


# ---------------------------------------------------------------------------
# identity suite
# ---------------------------------------------------------------------------


def _pair_labels(m, n):
    return "%s,%s" % (m.name, n.name)


def check_braiding_equivariance(b, src, tgt):
    """The braiding intertwines the tensor actions and tensor coactions of
    its source src = M (x) N and its target tgt = ^MN (x) M, and is a
    morphism for the carrier twists."""
    m, n = b.source
    h = m.over
    tag = _pair_labels(m, n)
    return check_laws("braiding", (
        ("braiding-module-map(%s)" % tag, "c(h.(m (x) n)) = h.c(m (x) n)", (h.basis, src.basis),
         b.matrix @ src.action, tgt.action @ kron(LinearMap.identity(h.dim), b.matrix)),
        ("braiding-comodule-map(%s)" % tag, "rho(c(m (x) n)) = (c (x) id) rho(m (x) n)", (src.basis,),
         kron(b.matrix, LinearMap.identity(h.dim)) @ src.coaction, tgt.coaction @ b.matrix),
        ("braiding-morphism(%s)" % tag, "(nu (x) mu) c = c (mu (x) nu)", (src.basis,),
         kron(n.mu, m.mu) @ b.matrix, b.matrix @ kron(m.mu, n.mu)),
    ))


def check_braiding_inverse(b, inv):
    """Both composites of b with inv, the lemma-3.6 formula
    braiding_inverse(b), are identities, exactly."""
    m, n = b.source
    tag = _pair_labels(m, n)
    dim = m.dim * n.dim
    legs = (index_leg(dim),)
    return check_laws("braiding", (
        ("braiding-inverse-left(%s)" % tag, "c^-1 c = id", legs, inv @ b.matrix, LinearMap.identity(dim)),
        ("braiding-inverse-right(%s)" % tag, "c c^-1 = id", legs, b.matrix @ inv, LinearMap.identity(dim)),
    ))


def check_hexagons(c_mn, c_np, c_mp, c_mn_p, c_m_npconj, c_m_np):
    """The two crossed hexagon identities for M, N, P as exact matrix
    equalities on the flattened triple tensor, given the braidings of the
    pairs and c_{MN,P}, c_{M,^NP} and c_{M,NP}, where MN = M (x) N,
    NP = N (x) P and ^NP is P conjugated by N's pair.  Conjugates keep
    carrier and twist, so ^{MN}P, ^MN and ^MP enter only as P's and N's
    twists."""
    m, n = c_mn.source
    p = c_np.source[1]
    tag = "%s,%s,%s" % (m.name, n.name, p.name)

    idm = LinearMap.identity(m.dim)
    idn = LinearMap.identity(n.dim)
    idp = LinearMap.identity(p.dim)

    legs = (m.basis, n.basis, p.basis)
    return check_laws("hexagons", (
        # eq-3.4 on M (x) (N (x) P)
        ("eq-3.4(%s)" % tag, "a^-1 c_{MN,P} a^-1 = (c_{M,^NP} (x) id) a^-1 (id (x) c_{N,P})", legs,
         kron(p.mu_inv, kron(idm, n.mu)) @ c_mn_p.matrix @ kron(m.mu_inv, kron(idn, p.mu)),
         kron(c_m_npconj.matrix, idn) @ kron(m.mu_inv, kron(idp, n.mu)) @ kron(idm, c_np.matrix)),
        # eq-3.5 on (M (x) N) (x) P
        ("eq-3.5(%s)" % tag, "a c_{M,NP} a = (id (x) c_{M,P}) a (c_{M,N} (x) id)", legs,
         kron(n.mu, kron(idp, m.mu_inv)) @ c_m_np.matrix @ kron(m.mu, kron(idn, p.mu_inv)),
         kron(idn, c_mp.matrix) @ kron(n.mu, kron(idm, p.mu_inv)) @ kron(c_mn.matrix, idp)),
    ))


def check_conjugation_invariance(p, b, conjugated):
    """The braiding conjugated = c_{^pM,^pN} on the p-conjugates of b's
    source modules equals b as a matrix (crossed-category axiom for the
    conjugation functors)."""
    m, n = b.source
    return check_laws("conjugation", ((
        "conjugation-invariance(%s;%s,%s)" % (p.name, m.name, n.name), "c_{^pM,^pN} = c_{M,N}",
        (m.basis, n.basis), conjugated.matrix, b.matrix,
    ),))


def _structures_equal(rep, ident, law, x, y):
    """One item that fails naming the pieces in which x and y differ."""
    pieces = x.differences(y)
    rep.add(ident, law, not pieces, Witness((), tuple(pieces), (), ()) if pieces else None)


def sample_nonzero_rationals(seed, count, max_abs=4, denominators=(1, 2, 3)):
    """Deterministic stream of small nonzero rationals for property suites."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        num = rng.randint(-max_abs, max_abs)
        if num:
            out.append(Fraction(num, rng.choice(denominators)))
    return out


def check_t_category(h, modules, pairs, seed=0):
    """Aggregate suite: group axioms, component placement of tensor products
    and conjugations, functor identities, unit constraints, and for every
    pair/triple of the given modules the braiding properties, hexagons,
    invertibility and conjugation invariance.

    modules and pairs are lists; all checks iterate them in order, so the
    resulting report is deterministic.  The seed is recorded for the callers
    that sampled their inputs from it.

    Each pair tensor M (x) N, braiding c_{M,N} and conjugate ^pM and ^MN is
    built once, before the checks, and kept by position for this call.
    tensor_yd, braiding and braiding_inverse read the one-object pieces of
    their factors, which each object builds once, when first read.
    """
    rep = CheckReport("t-category", seed=seed)
    modules = list(modules)
    pairs = list(pairs)
    ident_pair = AutPair.identity(h.dim)
    idh = LinearMap.identity(h.dim)
    index_pairs = list(itertools.product(range(len(modules)), repeat=2))
    tensor = {(i, j): tensor_yd(modules[i], modules[j]) for i, j in index_pairs}
    braid = {(i, j): braiding(modules[i], modules[j]) for i, j in index_pairs}
    conj = {
        (pi, i): conjugate_yd(p, m)
        for pi, p in enumerate(pairs) for i, m in enumerate(modules)
    }
    twisted = {(i, j): conjugate_yd(modules[i].pair, modules[j]) for i, j in index_pairs}

    for p in pairs:
        for name, aut in (("a", p.a), ("b", p.b)):
            rep.add_verdict(
                "pair-automorphism(%s.%s)" % (p.name, name),
                "component of an index-group element is a structure automorphism",
                check_automorphism(h, aut),
            )

    for p, q, r in itertools.product(pairs, repeat=3):
        left = group_mul(group_mul(p, q), r)
        right = group_mul(p, group_mul(q, r))
        if left != right:
            rep.add(
                "group-assoc", "(p*q)*r = p*(q*r)", False,
                Witness((), (p.name, q.name, r.name), left.a.matrix.entries, right.a.matrix.entries),
            )
            break
    else:
        rep.add("group-assoc", "(p*q)*r = p*(q*r)", True)

    unit_ok = all(group_mul(ident_pair, p) == p and group_mul(p, ident_pair) == p for p in pairs)
    rep.add("group-unit", "(id,id)*p = p = p*(id,id)", unit_ok)
    inv_ok = all(
        group_mul(group_inv(p), p) == ident_pair and group_mul(p, group_inv(p)) == ident_pair
        for p in pairs
    )
    rep.add("group-inv", "p^-1 * p = (id,id) = p * p^-1", inv_ok)

    for m in modules:
        rep.add_verdict(
            "yd-member(%s)" % m.name, "module satisfies eq-2.1 in its component", check_yd(m),
        )

    for i, j in index_pairs:
        m, n = modules[i], modules[j]
        b = braid[i, j]
        rep.add_verdict(
            "tensor-component(%s)" % _pair_labels(m, n),
            "M (x) N satisfies eq-2.1 in component pair(M)*pair(N)",
            check_yd(tensor[i, j]),
        )
        rep.extend(check_braiding_equivariance(b, tensor[i, j], tensor_yd(twisted[i, j], m)))
        rep.extend(check_braiding_inverse(b, braiding_inverse(b)))
        rep.extend(check_laws(rep.suite, ((
            "naturality-id(%s)" % _pair_labels(m, n), "(id (x) id) c = c (id (x) id)",
            (index_leg(m.dim), index_leg(n.dim)),
            kron(LinearMap.identity(n.dim), LinearMap.identity(m.dim)) @ b.matrix,
            b.matrix @ kron(LinearMap.identity(m.dim), LinearMap.identity(n.dim)),
        ),)))

    for pi, p in enumerate(pairs):
        for i, n in enumerate(modules):
            rep.add_verdict(
                "conjugate-component(%s;%s)" % (p.name, n.name),
                "^pN satisfies eq-2.1 in component p*pair(N)*p^-1",
                check_yd(conj[pi, i]),
            )

    for (pi, p), (qi, q) in itertools.product(enumerate(pairs), repeat=2):
        for i, n in enumerate(modules):
            once = conjugate_yd(group_mul(p, q), n)
            twice = conjugate_yd(p, conj[qi, i])
            _structures_equal(
                rep, "functor-compose(%s,%s;%s)" % (p.name, q.name, n.name),
                "^(p*q)N = ^p(^qN) as structure tensors", once, twice,
            )

    for pi, p in enumerate(pairs):
        for i, j in index_pairs:
            m, n = modules[i], modules[j]
            whole = conjugate_yd(p, tensor[i, j])
            split = tensor_yd(conj[pi, i], conj[pi, j])
            _structures_equal(
                rep, "functor-tensor(%s;%s)" % (p.name, _pair_labels(m, n)),
                "^p(M (x) N) = ^pM (x) ^pN as structure tensors", whole, split,
            )
            rep.extend(check_conjugation_invariance(p, braid[i, j], braiding(conj[pi, i], conj[pi, j])))

    for i, j, k in itertools.product(range(len(modules)), repeat=3):
        m, n, p_mod = modules[i], modules[j], modules[k]
        mn, np = tensor[i, j], tensor[j, k]
        left_act, left_coact = _tensor_maps(mn, p_mod)
        right_act, right_coact = _tensor_maps(m, np)
        # The two orders share carrier, twist and component; their
        # structures coincide strictly only for identity twists, and in
        # general the twisted constraint is the intertwiner between them.
        a = associator(m, n, p_mod)
        placement = kron(mn.mu, p_mod.mu) == kron(m.mu, np.mu) and (
            group_mul(mn.pair, p_mod.pair) == group_mul(m.pair, np.pair)
        )
        module_map = intertwined(right_act, kron(idh, a), a, left_act)
        comodule_map = intertwined(right_coact, a, kron(a, idh), left_coact)
        rep.add(
            "tensor-assoc(%s,%s,%s)" % (m.name, n.name, p_mod.name),
            "(M (x) N) (x) P and M (x) (N (x) P) share the component and are "
            "intertwined by the twisted constraint",
            placement and module_map and comodule_map,
        )
        rep.extend(check_hexagons(
            braid[i, j], braid[j, k], braid[i, k], braiding(mn, p_mod), braiding(m, twisted[j, k]),
            braiding(m, np),
        ))

    unit = trivial_yd(h)
    for n in modules:
        for side, sym, src, t in (
            ("left", "l", "1 (x) n", tensor_yd(unit, n)),
            ("right", "r", "n (x) 1", tensor_yd(n, unit)),
        ):
            rep.extend(check_laws(rep.suite, (
                ("unit-%s-module(%s)" % (side, n.name), "%s(h.(%s)) = h.%s(%s)" % (sym, src, sym, src),
                 (h.basis, n.basis), n.mu @ t.action, n.action @ kron(idh, n.mu)),
                ("unit-%s-comodule(%s)" % (side, n.name),
                 "rho(%s(%s)) = (%s (x) id) rho(%s)" % (sym, src, sym, src), (index_leg(n.dim),),
                 kron(n.mu, idh) @ t.coaction, n.coaction @ n.mu),
            )))

    rep.add(
        "thm-3.7",
        "the component family with tensor, conjugation and braiding is a braided crossed category",
        all(item.passed for item in rep.items),
    )
    return rep
