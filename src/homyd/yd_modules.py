"""Twisted modules, comodules, Yetter-Drinfeld compatibility, entwining
structures and bicomodule algebras.

Conventions, fixed throughout:

* actions are left actions H (x) M -> M, stored as the LinearMap action,
  whose column h*dim(M) + m is the coordinate vector of e_h . f_m;
* right coactions M -> M (x) H are stored as the LinearMap coaction, whose
  column m holds the coefficient of f_p (x) e_j in row p*dim(H) + j; left
  coactions M -> H (x) M hold that of e_i (x) f_p in row i*dim(M) + p;
* every carrier comes with its own invertible twist mu, and every axiom
  below is the mu/alpha-twisted one.

The compatibility checked by check_yd couples an action and a coaction
through a pair (A, B) of structure automorphisms:

    rho(h.m) = alpha(h21).m0 (x) (B(h22) alpha^-1(m1)) A(S^-1(h1))     (2.1)

check_yd_alt verifies the equivalent antipode-free form (2.2); the two
verdicts must agree on any carrier whose module/comodule axioms hold, and
the test suite exercises that equivalence on failing instances too.

A Yetter-Drinfeld object is one record, built in one call, YDModuleData(over,
action, coaction, mu, pair), from its maps, its twist and its component, an
AutPair; every builder here, in t_category, h4_library and defformat goes
through it.  It is its own module and comodule, and it inverts its twist
once.  Every constructor takes the carrier's size from the twist mu and
checks only that mu is square, that a given basis has one label per row of
mu and that each map has the shape its carrier needs; the laws are the
check_* suites below, and require(check_yd_module(yd)) validates a built
object.

An object is immutable once built: nothing reassigns its action,
coaction, mu, mu_inv or pair.  That lets it keep the six pieces of
t_category's tensor products and braidings that depend on it alone
(tensor_act, tensor_coact, tensor_comul, braid_act, braid_coact,
inverse_act), each a functools.cached_property built when first read, as
exactlin.LinearMap keeps its columns and its diagonal.
"""

from __future__ import annotations

from functools import cached_property

from .exactlin import LinearMap, flip, invert, kron, permute, tensor_vec
from .hom_algebra import (
    AutPair,
    InvalidStructure,
    _require_shape,
    _shape_report,
)
from .reports import FIELD_LEG, CheckReport, check_laws


def act_vv(action, hvec, mvec):
    """hvec . mvec, bilinear in both coordinate vectors, for an action map
    H (x) M -> M."""
    return action.apply(tensor_vec(hvec, mvec))


def _carrier(suite, mu, basis):
    """The basis of a carrier with twist mu: basis, which must have a label
    for each row of mu, or e0, e1, ... when it is None; mu must be square."""
    _require_shape(suite, "twist", mu, mu.rows, mu.rows)
    if basis is None:
        return tuple("e%d" % i for i in range(mu.rows))
    if len(basis) != mu.rows:
        raise InvalidStructure(_shape_report(suite, "%d basis labels for a %dx%d twist"
                                             % (len(basis), mu.rows, mu.rows)))
    return tuple(basis)


class HomModuleData:
    """Left twisted module over a twisted Hopf algebra: the action map
    H (x) M -> M and the carrier twist mu."""

    def __init__(self, over, action, mu, basis=None):
        self.basis = _carrier("hom-module", mu, basis)
        self.over = over
        self.dim = d = mu.rows
        _require_shape("hom-module", "action", action, d, over.dim * d)
        self.action = action
        self.mu = mu


class HomComoduleData:
    """Twisted comodule: the coaction map M -> M (x) H, right-sided by
    default, or M -> H (x) M, left-sided for the bicomodule-algebra
    machinery, and the carrier twist mu."""

    def __init__(self, over, coaction, mu, basis=None, side="right"):
        self.basis = _carrier("hom-comodule", mu, basis)
        self.over = over
        self.dim = d = mu.rows
        self.side = side
        _require_shape("hom-comodule", "coaction", coaction, d * over.dim, d)
        self.coaction = coaction
        self.mu = mu
        self.mu_inv = invert(mu)


class YDModuleData:
    """One object of the braided T-category: a carrier with twist mu, a left
    action and a right coaction over the Hopf algebra over, in the
    component pair (an AutPair (A, B)).  The object is its own module and
    its own (right) comodule, and inverts mu once; check_yd_module is the
    suite of its laws.  The maps are never reassigned, so the one-object
    pieces of tensor products and braidings below are built on first read
    and kept."""

    side = "right"

    def __init__(self, over, action, coaction, mu, pair, basis=None, label=None):
        self.basis = _carrier("yd-module", mu, basis)
        self.over = over
        self.dim = d = mu.rows
        _require_shape("hom-module", "action", action, d, over.dim * d)
        _require_shape("hom-comodule", "coaction", coaction, d * over.dim, d)
        self.action = action
        self.coaction = coaction
        self.mu = mu
        self.mu_inv = invert(mu)
        self.pair = pair
        self.pair_a = pair.a
        self.pair_b = pair.b
        self.name = label or "M"

    # the object is its own module and right comodule, read-only, so that
    # no object refers to itself; perfbench/tracer.py reads yd.module.action
    # and yd.comodule.coaction
    module = property(lambda self: self)
    comodule = property(lambda self: self)

    @cached_property
    def tensor_act(self):
        """act_X flip: X (x) H -> X, the piece of a tensor product X (x) N
        that depends on its left factor X alone."""
        return self.action @ flip(self.dim, self.over.dim)

    @cached_property
    def tensor_coact(self):
        """right(x1 (x) y) = y0 (x) y1 x1 = (id (x) mul) (rho_X (x) id) flip:
        H (x) X -> X (x) H, the piece of a tensor product M (x) X that
        depends on its right factor X alone."""
        d = self.over.dim
        return (kron(LinearMap.identity(self.dim), self.over.algebra.mul)
                @ kron(self.coaction, LinearMap.identity(d)) @ flip(d, self.dim))

    @cached_property
    def tensor_comul(self):
        """(C (x) id) comul: H -> H (x) H with C from X's pair, the other
        piece of a tensor product M (x) X that depends on X alone."""
        return kron(self.pair_a.matrix, LinearMap.identity(self.over.dim)) @ self.over.coalgebra.comul

    @cached_property
    def braid_act(self):
        """act_X (B^-1 (x) mu^-1): H (x) X -> X, the piece of a braiding
        c_{X,N} that depends on its first factor X alone."""
        return self.action @ kron(self.pair_b.inverse, self.mu_inv)

    @cached_property
    def braid_coact(self):
        """(mu (x) id) rho_X: X -> X (x) H, the piece of a braiding c_{M,X}
        and of its inverse that depends on its second factor X alone."""
        return kron(self.mu, LinearMap.identity(self.over.dim)) @ self.coaction

    @cached_property
    def inverse_act(self):
        """act_X (B^-1 S (x) mu^-1): H (x) X -> X, the piece of an inverse
        braiding c_{X,N}^-1 that depends on X alone."""
        return self.action @ kron(self.pair_b.inverse @ self.over.antipode, self.mu_inv)

    def differences(self, other):
        """The structure pieces in which other differs, in the order action,
        coaction, twist, component pair; equal action maps imply equal
        carriers."""
        return [piece for piece, same in (
            ("action", self.action == other.action),
            ("coaction", self.coaction == other.coaction),
            ("twist", self.mu == other.mu),
            ("component pair", self.pair == other.pair),
        ) if not same]

    def same_structure(self, other):
        """Strict object equality: equal structure maps on the flattened
        carrier and equal component pair."""
        return not self.differences(other)


class EntwiningData:
    """Triple (H, C, psi) with psi : H (x) C -> H (x) C subject to the four
    twisted distributivity axioms eq-2.3 .. eq-2.6."""

    def __init__(self, algebra, coalgebra, psi):
        n = algebra.dim * coalgebra.dim
        if not (psi.rows == psi.cols == n):
            raise InvalidStructure(_shape_report("entwining", "psi must be %dx%d" % (n, n)))
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.psi = psi


class BicomoduleAlgebraData:
    """Twisted algebra with compatible left and right coactions of the same
    Hopf algebra."""

    def __init__(self, over, carrier, left_coaction, right_coaction):
        dn = carrier.dim
        _require_shape("bicomodule-algebra", "left coaction", left_coaction, over.dim * dn, dn)
        _require_shape("bicomodule-algebra", "right coaction", right_coaction, over.dim * dn, dn)
        self.over = over
        self.carrier = carrier
        self.left = HomComoduleData(over, left_coaction, carrier.alpha, basis=carrier.basis, side="left")
        self.right = HomComoduleData(over, right_coaction, carrier.alpha, basis=carrier.basis)


# ---------------------------------------------------------------------------
# module / comodule axiom checks
# ---------------------------------------------------------------------------


def _sided(side, right, left, codomain, lhs, rhs, legs):
    """The law record of a comodule law written right-sided, with (id, law)
    pairs for either side.  For a left coaction lambda, lhs and rhs are
    built from the right coaction flip . lambda (and, where the law
    iterates the coaction, the co-opposite coproduct); reversing their
    codomain legs gives the left-sided law exactly."""
    if side == "left":
        back = permute(codomain, tuple(reversed(range(len(codomain)))))
        return left + (legs, back @ lhs, back @ rhs)
    return right + (legs, lhs, rhs)


def check_hom_module(m):
    h = m.over
    act = m.action
    return check_laws("hom-module", (
        ("module-assoc", "alpha(a).(b.m) = (ab).mu(m)", (h.basis, h.basis, m.basis),
         act @ kron(h.alpha, act), act @ kron(h.algebra.mul, m.mu)),
        ("module-twist", "mu(a.m) = alpha(a).mu(m)", (h.basis, m.basis), m.mu @ act, act @ kron(h.alpha, m.mu)),
        ("module-unit", "1.m = mu(m)", (m.basis,), act @ kron(h.algebra.unit, LinearMap.identity(m.dim)), m.mu),
    ))


def check_hom_comodule(m):
    h = m.over
    d, dm = h.dim, m.dim
    coa = h.coalgebra
    rho, comul = m.coaction, coa.comul
    if m.side == "left":
        rho, comul = flip(d, dm) @ rho, flip(d, d) @ comul
    legs = (m.basis,)
    return check_laws("hom-comodule", (
        _sided(m.side,
               ("eq-1.7", "mu^-1(m0) (x) comul(m1) = rho(m0) (x) gamma^-1(m1)"),
               ("eq-1.7-left", "comul(m-1) (x) mu^-1(m0) = gamma^-1(m-1) (x) rho(m0)"),
               (dm, d, d), kron(m.mu_inv, comul) @ rho, kron(rho, coa.gamma_inv) @ rho, legs),
        _sided(m.side,
               ("eq-1.8-coact", "rho(mu(m)) = mu(m0) (x) gamma(m1)"),
               ("eq-1.8-coact-left", "rho(mu(m)) = gamma(m-1) (x) mu(m0)"),
               (dm, d), rho @ m.mu, kron(m.mu, coa.gamma) @ rho, legs),
        _sided(m.side,
               ("eq-1.8-counit", "m0 eps(m1) = mu^-1(m)"),
               ("eq-1.8-counit-left", "eps(m-1) m0 = mu^-1(m)"),
               (dm,), kron(LinearMap.identity(dm), coa.counit) @ rho, m.mu_inv, legs),
    ))


def check_module_algebra(m, carrier):
    """Action distributes over the carrier's product through the coproduct,
    and absorbs the unit through the counit."""
    h = m.over
    d, db = h.dim, carrier.dim
    act, mul, unit = m.action, carrier.mul, carrier.unit
    return check_laws("module-algebra", (
        ("eq-1.9-mult", "h.(ab) = (h1.a)(h2.b)", (h.basis, carrier.basis, carrier.basis),
         act @ kron(LinearMap.identity(d), mul),
         mul @ kron(act, act) @ permute((d, d, db, db), (0, 2, 1, 3))
         @ kron(h.coalgebra.comul, LinearMap.identity(db * db))),
        ("eq-1.9-unit", "h.1 = eps(h)1", (h.basis,),
         act @ kron(LinearMap.identity(d), unit), unit @ h.coalgebra.counit),
    ))


def check_comodule_algebra(m, carrier):
    """Coaction is multiplicative and unital; the side follows the comodule."""
    side = m.side
    h = m.over
    d, db = h.dim, carrier.dim
    rho = m.coaction if side == "right" else flip(d, db) @ m.coaction
    mul = carrier.mul
    return check_laws("%s-comodule-algebra" % side, (
        _sided(side,
               ("comodule-algebra-mult", "rho(ab) = a0 b0 (x) a1 b1"),
               ("comodule-algebra-mult", "rho(ab) = a-1 b-1 (x) a0 b0"),
               (db, d), rho @ mul,
               kron(mul, h.algebra.mul) @ permute((db, d, db, d), (0, 2, 1, 3)) @ kron(rho, rho),
               (carrier.basis, carrier.basis)),
        _sided(side,
               ("comodule-algebra-unit", "rho(1) = 1 (x) 1"),
               ("comodule-algebra-unit", "rho(1) = 1 (x) 1"),
               (db, d), rho @ carrier.unit, kron(carrier.unit, h.algebra.unit), (FIELD_LEG,)),
    ))


# ---------------------------------------------------------------------------
# Yetter-Drinfeld compatibility
# ---------------------------------------------------------------------------


def check_yd(yd):
    """The antipode form of the compatibility condition (eq-2.1)."""
    h = yd.over
    d, dm = h.dim, yd.dim
    mul, comul = h.algebra.mul, h.coalgebra.comul
    act, rho = yd.action, yd.coaction
    ident_m = LinearMap.identity(dm)
    # (h2, m0) -> (alpha(h21).m0, h22): h2 is split only after h1 and m1 are
    # parked behind it, so no intermediate has five legs; the parentheses
    # keep each product's right factor thin
    head = (
        kron(act @ kron(h.alpha, ident_m), LinearMap.identity(d))
        @ (permute((d, d, dm), (0, 2, 1)) @ kron(comul, ident_m))
    )
    # legs (h1, h2, m0, m1) -> (h2, m0, m1, h1)
    spread = permute((d, d, dm, d), (1, 2, 3, 0)) @ kron(comul, rho)
    tail = mul @ kron(mul @ kron(yd.pair_b.matrix, h.alpha_inv), yd.pair_a.matrix @ h.antipode_inv)
    return check_laws("yd", ((
        "eq-2.1", "rho(h.m) = alpha(h21).m0 (x) (B(h22) alpha^-1(m1)) A(S^-1(h1))", (h.basis, yd.basis),
        rho @ act, kron(ident_m, tail) @ (kron(head, LinearMap.identity(d * d)) @ spread),
    ),))


def check_yd_alt(yd):
    """The antipode-free form of the compatibility condition (eq-2.2)."""
    h = yd.over
    d, dm = h.dim, yd.dim
    mul, comul = h.algebra.mul, h.coalgebra.comul
    act, rho = yd.action, yd.coaction
    ident, ident_m = LinearMap.identity(d), LinearMap.identity(dm)
    # each side is applied right to left as a chain of whiskers, one leg's
    # map at a time, so every product has the d * dm columns of H (x) M and
    # compose reads each whisker through its middle factor; associated to
    # the left, the same chain Kronecker-multiplied whole legs and built a
    # (dm d) x (d d dm d) map and a (d d dm d)-square leg permutation
    # (h, m) -> (h1, h2, m0, m1) -> (h1, m0, h2, m1) -> (h1 . m0, B(h2) m1)
    lhs = kron(act, ident) @ (
        kron(LinearMap.identity(d * dm), mul @ kron(yd.pair_b.matrix, ident))
        @ (kron(ident, kron(flip(d, dm), ident))
           @ (kron(comul, LinearMap.identity(dm * d)) @ kron(ident, rho)))
    )
    # (h, m) -> (h1, h2, m) -> (h1, x0, x1) for x = h2 . mu^-1(m)
    # -> (x0, x1, h1) -> (mu(x0), x1 A(h1))
    rhs = kron(yd.mu, ident) @ (
        kron(ident_m, mul @ kron(ident, yd.pair_a.matrix))
        @ (flip(d, dm * d)
           @ (kron(ident, rho @ act @ kron(ident, yd.mu_inv)) @ kron(comul, ident_m)))
    )
    return check_laws("yd-alt", ((
        "eq-2.2", "h1.m0 (x) B(h2)m1 = mu((h2.mu^-1(m))0) (x) (h2.mu^-1(m))1 A(h1)", (h.basis, yd.basis),
        lhs, rhs,
    ),))


def check_yd_module(yd):
    """Every law of one Yetter-Drinfeld object: the module and comodule
    laws and both compatibility forms."""
    return (CheckReport("yd-module").extend(check_hom_module(yd)).extend(check_hom_comodule(yd))
            .extend(check_yd(yd)).extend(check_yd_alt(yd)))


def build_canonical_yd(h, a_aut, b_aut):
    """The regular-carrier member of component (A, B): carrier H, coaction
    the comultiplication, action h.y = (B(h2) alpha^-1(y)) A(S^-1(alpha(h1)));
    a Yetter-Drinfeld object when A and B are structure automorphisms
    (check_automorphism)."""
    d = h.dim
    mul = h.algebra.mul
    tail = a_aut.matrix @ h.antipode_inv @ h.alpha
    # legs (h1, h2, y) -> (h2, y, h1)
    act = (
        mul @ kron(mul @ kron(b_aut.matrix, h.alpha_inv), tail) @ permute((d, d, d), (1, 2, 0))
        @ kron(h.coalgebra.comul, LinearMap.identity(d))
    )
    return YDModuleData(h, act, h.coalgebra.comul, h.alpha, AutPair(a_aut, b_aut),
                        basis=h.basis, label="H(A,B)")


def trivial_yd(h):
    """The one-dimensional carrier: action through the counit, coaction
    through the unit, identity twist, component (id, id)."""
    return YDModuleData(h, h.coalgebra.counit, h.algebra.unit, LinearMap.identity(1),
                        AutPair.identity(h.dim), basis=FIELD_LEG, label="k")


# ---------------------------------------------------------------------------
# entwining structures
# ---------------------------------------------------------------------------


def build_entwining(h, a_aut, b_aut):
    """The entwining map induced by an automorphism pair:

        psi(a (x) c) = alpha^2(a21) (x) (B(a22) alpha^-2(c)) A(S^-1(a1)).
    """
    d = h.dim
    mul, comul = h.algebra.mul, h.coalgebra.comul
    ident = LinearMap.identity(d)
    tail = mul @ kron(mul @ kron(b_aut.matrix, h.alpha_inv @ h.alpha_inv), a_aut.matrix @ h.antipode_inv)
    # legs (a1, a21, a22, c) -> (a21, a22, c, a1)
    psi = (
        kron(h.alpha @ h.alpha, tail) @ permute((d, d, d, d), (1, 2, 3, 0))
        @ kron(kron(ident, comul) @ comul, ident)
    )
    return EntwiningData(h.algebra, h.coalgebra, psi)


def check_entwining(e):
    """The four axioms of a left-right twisted entwining structure."""
    alg, coa = e.algebra, e.coalgebra
    d, dc = alg.dim, coa.dim
    psi = e.psi
    idd, idc = LinearMap.identity(d), LinearMap.identity(dc)
    # legs (h, c, c') -> (h, c', c)
    swap = permute((d, dc, dc), (0, 2, 1))
    return check_laws("entwining", (
        ("eq-2.3", "psi(hg (x) c) = (phi h)(psi g) (x) gamma(gamma^-1(c)^psi^phi)",
         (alg.basis, alg.basis, coa.basis), psi @ kron(alg.mul, idc),
         kron(alg.mul, coa.gamma) @ permute((d, dc, d), (0, 2, 1)) @ kron(psi, idd)
         @ kron(idd, flip(d, dc) @ psi @ kron(idd, coa.gamma_inv))),
        ("eq-2.4", "psi(1 (x) c) = 1 (x) c", (coa.basis,), psi @ kron(alg.unit, idc), kron(alg.unit, idc)),
        ("eq-2.5", "psi h (x) comul(c^psi) = alpha(phi psi alpha^-1(h)) (x) c1^phi (x) c2^psi",
         (alg.basis, coa.basis), kron(idd, coa.comul) @ psi,
         kron(alg.alpha, LinearMap.identity(dc * dc)) @ kron(psi, idc) @ swap
         @ kron(psi, idc) @ swap @ kron(alg.alpha_inv, coa.comul)),
        ("eq-2.6", "eps(c^psi) psi(h) = eps(c) h", (alg.basis, coa.basis),
         kron(idd, coa.counit) @ psi, kron(idd, coa.counit)),
    ))


def check_entwined_module(m, e):
    """Entwined-module law: the coaction of an acted element routes the
    algebra leg through psi, with the comodule output leg re-twisted:

        rho(h.m) = psi_H(alpha^-1(h) (x) m1).m0 (x) alpha(psi_C(...)).

    For the induced entwining of an automorphism pair this is identically
    the eq-2.1 compatibility, so the verdict must match check_yd there.
    """
    h = m.over
    d, dm, dc = h.dim, m.dim, e.coalgebra.dim
    act, rho = m.action, m.coaction
    rhs = (
        kron(act, e.coalgebra.gamma) @ permute((dm, d, dc), (1, 0, 2))
        @ kron(LinearMap.identity(dm), e.psi) @ permute((d, dm, d), (1, 0, 2))
        @ kron(h.alpha_inv, rho)
    )
    return check_laws("entwined-module", ((
        "entwined-compat", "rho(h.m) = psi(alpha^-1(h)).m0 (x) alpha(m1^psi)", (h.basis, m.basis), rho @ act, rhs,
    ),))


# ---------------------------------------------------------------------------
# bicomodule algebras and the datum formulation
# ---------------------------------------------------------------------------


def build_bicomodule_algebra(h, a_aut, b_aut):
    """Coactions h -> A(h1) (x) h2 and h -> h1 (x) B(h2) on the carrier H."""
    comul, ident = h.coalgebra.comul, LinearMap.identity(h.dim)
    return BicomoduleAlgebraData(
        h, h.algebra, kron(a_aut.matrix, ident) @ comul, kron(ident, b_aut.matrix) @ comul,
    )


def check_bicomodule_algebra(n):
    """Both comodule structures, both comodule-algebra laws, and the
    left/right interchange compatibility."""
    rep = CheckReport("bicomodule-algebra")
    rep.extend(check_hom_comodule(n.left).prefixed("left-"))
    rep.extend(check_hom_comodule(n.right).prefixed("right-"))
    rep.extend(check_comodule_algebra(n.left, n.carrier).prefixed("left-"))
    rep.extend(check_comodule_algebra(n.right, n.carrier).prefixed("right-"))
    ainv = n.over.alpha_inv
    lam, rho = n.left.coaction, n.right.coaction
    return rep.extend(check_laws(rep.suite, ((
        "bicomodule-compat",
        "n<0>[-1] (x) n<0>[0] (x) alpha^-1(n<1>) = alpha^-1(n[-1]) (x) n[0]<0> (x) n[0]<1>",
        (n.carrier.basis,), kron(lam, ainv) @ rho, kron(ainv, rho) @ lam,
    ),)))


def check_yd_datum(m, n):
    """Compatibility of an N-action with an H-coaction across a bicomodule
    algebra N, in both printed forms."""
    h = n.over
    d, dn, dm = h.dim, n.carrier.dim, m.dim
    mul = h.algebra.mul
    lam, rho_n = n.left.coaction, n.right.coaction
    act, rho = m.action, m.coaction
    legs = (n.carrier.basis, m.basis)
    # legs (n[-1], n[0]<0>, n[0]<1>, m0, m1) -> (n[0]<0>, m0, n[0]<1>, m1, n[-1])
    spread = (
        permute((d, dn, d, dm, d), (1, 3, 2, 4, 0))
        @ kron(kron(LinearMap.identity(d), rho_n) @ lam, rho)
    )
    tail = mul @ kron(mul @ kron(LinearMap.identity(d), h.alpha_inv), h.antipode_inv)
    rhs_alt = (
        kron(m.mu, mul) @ permute((d, dm, d), (1, 2, 0))
        @ kron(LinearMap.identity(d), rho @ act @ kron(LinearMap.identity(dn), m.mu_inv))
        @ kron(lam, LinearMap.identity(dm))
    )
    return check_laws("yd-datum", (
        ("yd-datum-main", "rho(n.m) = nu(n[0]<0>).m0 (x) (n[0]<1> alpha^-1(m1)) S^-1(n[-1])", legs,
         rho @ act, kron(act @ kron(n.carrier.alpha, LinearMap.identity(dm)), tail) @ spread),
        ("yd-datum-alt", "n<0>.m0 (x) n<1> m1 = mu((n[0].mu^-1(m))0) (x) (n[0].mu^-1(m))1 n[-1]", legs,
         kron(act, mul) @ permute((dn, d, dm, d), (0, 2, 1, 3)) @ kron(rho_n, rho), rhs_alt),
    ))
