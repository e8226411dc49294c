"""Structure-map representation of twisted (Hom-type) algebras,
coalgebras, bialgebras and Hopf algebras, with a machine-checked axiom
catalogue.

The twist automorphism deforms every axiom: associativity becomes
alpha(a)(bc) = (ab)alpha(c), the unit law becomes a1 = 1a = alpha(a), and
so on.  Each structure map is stored once, as the LinearMap the laws
compose: mul and unit on HomAlgebraData, comul and counit on
HomCoalgebraData, the twist and the antipode beside them.  Each axiom is
one law record (identity, law text, legs, lhs, rhs) for
reports.check_laws: an equality of two composites of those maps on the
domain legs, compared column by column; by multilinearity a column is the
law at one basis tuple.

Identity ids ("eq-1.1", "antipode-left", ...) are stable strings; the
numbering groups the structure-level laws as the 1.x family.

Constructors only build: they reject data they cannot represent (a map
of the wrong shape, a singular twist), never data that breaks a law.  A
caller that wants a validated object runs the suite and hands its report
to require.
"""

from __future__ import annotations

from .exactlin import DimensionMismatch, LinearMap, SingularMap, flip, invert, kron, permute
from .reports import FIELD_LEG, CheckReport, check_laws


class InvalidStructure(ValueError):
    """A report with failing items, raised by require or, with the single
    item "shape", by a constructor given data it cannot represent."""

    def __init__(self, report):
        self.report = report
        bad = ", ".join(item.identity for item in report.failures())
        super().__init__("%s fails: %s" % (report.suite, bad))


def require(report):
    """Raise InvalidStructure(report) if any item of report fails: the one
    call that turns a law suite into a validation of a library object, as
    in require(check_hom_hopf(h))."""
    if not report.ok():
        raise InvalidStructure(report)


def _require_shape(suite, what, f, rows, cols):
    """Reject a structure map that is not rows x cols."""
    if (f.rows, f.cols) != (rows, cols):
        raise InvalidStructure(_shape_report(
            suite, "%s shape %dx%d, expected %dx%d" % (what, f.rows, f.cols, rows, cols)))


# ---------------------------------------------------------------------------
# data types
# ---------------------------------------------------------------------------


class HomAlgebraData:
    """Twisted unital algebra (A, m, 1, alpha) given by structure maps.

    mul is m : A (x) A -> A, so column i*dim + j is the coordinate vector of
    e_i e_j; unit is the dim x 1 map k -> A whose column is the coordinate
    vector of 1; alpha is the invertible twist.
    """

    def __init__(self, basis, mul, unit, alpha):
        self.basis = tuple(basis)
        self.dim = d = len(self.basis)
        _require_shape("hom-algebra", "mul", mul, d, d * d)
        _require_shape("hom-algebra", "unit", unit, d, 1)
        self.mul = mul
        self.unit = unit
        self.alpha = alpha
        self.alpha_inv = invert(alpha)


class HomCoalgebraData:
    """Twisted counital coalgebra (C, comul, counit, gamma).

    comul is C -> C (x) C, so row i*dim + j of column k is the coefficient
    of e_i (x) e_j in comul(e_k); counit is the 1 x dim map C -> k.
    """

    def __init__(self, basis, comul, counit, gamma):
        self.basis = tuple(basis)
        self.dim = d = len(self.basis)
        _require_shape("hom-coalgebra", "comul", comul, d * d, d)
        _require_shape("hom-coalgebra", "counit", counit, 1, d)
        self.comul = comul
        self.counit = counit
        self.gamma = gamma
        self.gamma_inv = invert(gamma)


def _shape_report(suite, msg):
    rep = CheckReport(suite)
    rep.add("shape", msg, False)
    return rep


class HomHopfAlgebraData:
    """Twisted Hopf algebra: algebra + coalgebra on the same basis with the
    same twist, plus a bijective antipode."""

    def __init__(self, algebra, coalgebra, antipode):
        if algebra.dim != coalgebra.dim or algebra.basis != coalgebra.basis:
            raise InvalidStructure(_shape_report("hom-hopf", "algebra/coalgebra basis mismatch"))
        if algebra.alpha != coalgebra.gamma:
            raise InvalidStructure(_shape_report("hom-hopf", "twist differs between the two layers"))
        self.algebra = algebra
        self.coalgebra = coalgebra
        self.antipode = antipode
        self.antipode_inv = invert(antipode)

    @classmethod
    def from_maps(cls, basis, mul, unit, comul, counit, antipode, alpha):
        """Build the algebra and coalgebra layers from their structure maps,
        both twisted by alpha, and the Hopf data on top of them."""
        return cls(HomAlgebraData(basis, mul, unit, alpha), HomCoalgebraData(basis, comul, counit, alpha),
                   antipode)

    # convenience pass-throughs used all over the higher layers
    @property
    def dim(self):
        return self.algebra.dim

    @property
    def basis(self):
        return self.algebra.basis

    @property
    def alpha(self):
        return self.algebra.alpha

    @property
    def alpha_inv(self):
        return self.algebra.alpha_inv

    def equal_tables(self, other):
        """Structural equality of every structure map."""
        return (
            self.basis == other.basis
            and self.algebra.mul == other.algebra.mul
            and self.algebra.unit == other.algebra.unit
            and self.coalgebra.comul == other.coalgebra.comul
            and self.coalgebra.counit == other.coalgebra.counit
            and self.alpha == other.alpha
            and self.antipode == other.antipode
        )


class HopfAutomorphism:
    """Invertible matrix intended to preserve the whole twisted Hopf
    structure; validate against a concrete algebra with check_automorphism."""

    def __init__(self, matrix):
        if not matrix.is_square:
            raise InvalidStructure(_shape_report("automorphism", "matrix not square"))
        self.matrix = matrix
        self.inverse = invert(matrix)

    def __matmul__(self, other):
        if isinstance(other, HopfAutomorphism):
            return _with_inverse(self.matrix @ other.matrix, other.inverse @ self.inverse)
        return self.matrix @ other

    def inv(self):
        return _with_inverse(self.inverse, self.matrix)

    def __eq__(self, other):
        return isinstance(other, HopfAutomorphism) and self.matrix == other.matrix

    def __hash__(self):
        return hash(self.matrix)

    def __repr__(self):
        return "HopfAutomorphism(%r)" % (self.matrix,)


def _with_inverse(matrix, inverse):
    """Trusted constructor: inverse is already known to invert matrix."""
    f = object.__new__(HopfAutomorphism)
    f.matrix = matrix
    f.inverse = inverse
    return f


def identity_automorphism(dim):
    return HopfAutomorphism(LinearMap.identity(dim))


class AutPair:
    """Element of the index group Aut x Aut: the component pair (A, B) of a
    Yetter-Drinfeld object."""

    def __init__(self, a, b, label=None):
        self.a = a
        self.b = b
        self.name = label or "(A,B)"

    @classmethod
    def identity(cls, dim):
        return cls(identity_automorphism(dim), identity_automorphism(dim), label="(id,id)")

    def __eq__(self, other):
        return (
            isinstance(other, AutPair)
            and self.a.matrix == other.a.matrix
            and self.b.matrix == other.b.matrix
        )

    def __hash__(self):
        return hash((self.a.matrix, self.b.matrix))

    def __repr__(self):
        return "AutPair(%s)" % self.name


# ---------------------------------------------------------------------------
# axiom checks
# ---------------------------------------------------------------------------


def check_hom_algebra(a):
    """Twisted associativity, twist multiplicativity, twisted unit laws."""
    b = a.basis
    m, u, alpha = a.mul, a.unit, a.alpha
    ident = LinearMap.identity(a.dim)
    return check_laws("hom-algebra", (
        ("eq-1.1", "alpha(a)(bc) = (ab)alpha(c)", (b, b, b), m @ kron(alpha, m), m @ kron(m, alpha)),
        ("alpha-mult", "alpha(ab) = alpha(a)alpha(b)", (b, b), alpha @ m, m @ kron(alpha, alpha)),
        ("eq-1.2-left", "1a = alpha(a)", (b,), m @ kron(u, ident), alpha),
        ("eq-1.2-right", "a1 = alpha(a)", (b,), m @ kron(ident, u), alpha),
        ("eq-1.3", "alpha(1) = 1", (FIELD_LEG,), alpha @ u, u),
    ))


def check_hom_coalgebra(c):
    """Twisted coassociativity (both printed forms), comul/counit twist
    compatibility and the twisted counit law."""
    legs = (c.basis,)
    comul, eps, gamma, gamma_inv = c.comul, c.counit, c.gamma, c.gamma_inv
    ident = LinearMap.identity(c.dim)
    return check_laws("hom-coalgebra", (
        ("eq-1.4", "gamma^-1(c1) (x) comul(c2) = comul(c1) (x) gamma^-1(c2)", legs,
         kron(gamma_inv, comul) @ comul, kron(comul, gamma_inv) @ comul),
        ("eq-1.4-alt", "c1 (x) c21 (x) gamma(c22) = gamma(c11) (x) c12 (x) c2", legs,
         kron(ident, kron(ident, gamma) @ comul) @ comul, kron(kron(gamma, ident) @ comul, ident) @ comul),
        ("eq-1.5", "comul(gamma(c)) = gamma(c1) (x) gamma(c2)", legs, comul @ gamma, kron(gamma, gamma) @ comul),
        ("counit-right", "c1 eps(c2) = gamma^-1(c)", legs, kron(ident, eps) @ comul, gamma_inv),
        ("counit-left", "eps(c1) c2 = gamma^-1(c)", legs, kron(eps, ident) @ comul, gamma_inv),
        ("eq-1.6", "eps(gamma(c)) = eps(c)", legs, eps @ gamma, eps),
    ))


def check_hom_bialgebra(h):
    """comul and counit are morphisms of twisted algebras; the product on
    H (x) H is componentwise."""
    d, b = h.dim, h.basis
    m, u = h.algebra.mul, h.algebra.unit
    comul, eps = h.coalgebra.comul, h.coalgebra.counit
    middle = permute((d, d, d, d), (0, 2, 1, 3))
    return check_laws("hom-bialgebra", (
        ("bialg-comul-mult", "comul(hg) = comul(h)comul(g)", (b, b),
         comul @ m, kron(m, m) @ middle @ kron(comul, comul)),
        ("bialg-comul-unit", "comul(1) = 1 (x) 1", (FIELD_LEG,), comul @ u, kron(u, u)),
        ("bialg-counit-mult", "eps(hg) = eps(h)eps(g)", (b, b), eps @ m, kron(eps, eps)),
        ("bialg-counit-unit", "eps(1) = 1", (FIELD_LEG,), eps @ u, LinearMap.identity(1)),
    ))


def check_antipode(h):
    """Convolution-inverse axiom plus the derived anti-homomorphism
    properties and twist compatibility (both directions)."""
    d, b = h.dim, h.basis
    legs = (b,)
    s = h.antipode
    m, u = h.algebra.mul, h.algebra.unit
    comul, eps = h.coalgebra.comul, h.coalgebra.counit
    ident = LinearMap.identity(d)
    return check_laws("antipode", (
        ("antipode-left", "S(h1)h2 = eps(h)1", legs, convolution(h, s, ident), u @ eps),
        ("antipode-right", "h1 S(h2) = eps(h)1", legs, convolution(h, ident, s), u @ eps),
        ("antipode-anti-mult", "S(hg) = S(g)S(h)", (b, b), s @ m, m @ kron(s, s) @ flip(d, d)),
        ("antipode-unit", "S(1) = 1", (FIELD_LEG,), s @ u, u),
        ("antipode-anti-comult", "comul(S(h)) = S(h2) (x) S(h1)", legs,
         comul @ s, flip(d, d) @ kron(s, s) @ comul),
        ("antipode-counit", "eps(S(h)) = eps(h)", legs, eps @ s, eps),
        ("antipode-alpha", "S alpha = alpha S", legs, s @ h.alpha, h.alpha @ s),
        ("antipode-alpha-inv", "S alpha^-1 = alpha^-1 S", legs, s @ h.alpha_inv, h.alpha_inv @ s),
    ))


def check_hom_hopf(h):
    """The laws the Hopf layer adds to its algebra and coalgebra: the
    bialgebra compatibilities and the antipode axioms."""
    return CheckReport("hom-hopf").extend(check_hom_bialgebra(h)).extend(check_antipode(h))


def check_automorphism(h, phi):
    """Bijectivity plus algebra-map, coalgebra-map, twist and antipode
    compatibility for a candidate structure automorphism.  A
    HopfAutomorphism is bijective when the inverse it holds inverts its
    matrix on both sides; a raw map when it inverts."""
    if isinstance(phi, HopfAutomorphism):
        bijective = (phi.inverse @ phi.matrix).is_identity() and (phi.matrix @ phi.inverse).is_identity()
        phi = phi.matrix
    else:
        try:
            invert(phi)
            bijective = True
        except (SingularMap, DimensionMismatch):
            bijective = False
    rep = CheckReport("automorphism")
    rep.add("aut-invertible", "phi bijective", bijective)
    if not bijective:
        return rep
    b = h.basis
    legs = (b,)
    m, u = h.algebra.mul, h.algebra.unit
    comul, eps = h.coalgebra.comul, h.coalgebra.counit
    return rep.extend(check_laws("automorphism", (
        ("aut-mult", "phi(ab) = phi(a)phi(b)", (b, b), phi @ m, m @ kron(phi, phi)),
        ("aut-unit", "phi(1) = 1", (FIELD_LEG,), phi @ u, u),
        ("aut-comul", "comul(phi(c)) = phi(c1) (x) phi(c2)", legs, comul @ phi, kron(phi, phi) @ comul),
        ("aut-counit", "eps(phi(c)) = eps(c)", legs, eps @ phi, eps),
        ("aut-alpha", "phi alpha = alpha phi", legs, phi @ h.alpha, h.alpha @ phi),
        ("aut-antipode", "phi S = S phi", legs, phi @ h.antipode, h.antipode @ phi),
    )))


def convolution(h, f, g):
    """Convolution product (f * g)(x) = f(x1) g(x2) as a LinearMap."""
    d = h.dim
    if not (f.rows == f.cols == d and g.rows == g.cols == d):
        raise InvalidStructure(_shape_report("convolution", "endomorphism shapes required"))
    return h.algebra.mul @ kron(f, g) @ h.coalgebra.comul
