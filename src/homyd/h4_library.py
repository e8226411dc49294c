"""Built-in four-dimensional example family on the basis (1, g, x, gx).

At twist parameter c = 1 this degenerates to the classical four-dimensional
Sweedler Hopf algebra; for general nonzero c the twist is diag(1, 1, c, c)
and all tables pick up c factors.  The module tables built here are one
formula in the eigenvalues of their component pair, written out as a table,
deliberately separate from the constructive builders in yd_modules /
t_category so the two can be cross-validated entry for entry.
"""

from __future__ import annotations

from fractions import Fraction

from .exactlin import LinearMap, table_map
from .hom_algebra import AutPair, HomHopfAlgebraData, HopfAutomorphism, identity_automorphism
from .reports import check_laws
from .yd_modules import YDModuleData, build_canonical_yd


class ZeroParameter(ValueError):
    """The family is only defined for nonzero parameters."""


def _nonzero(value, name):
    value = Fraction(value)
    if value == 0:
        raise ZeroParameter("%s must be nonzero" % name)
    return value


class H4Params:
    """Parameter triple (c, c', c''): algebra twist and the two diagonal
    automorphism eigenvalues."""

    def __init__(self, c, c_prime=1, c_double_prime=1):
        self.c = _nonzero(c, "c")
        self.c_prime = _nonzero(c_prime, "c'")
        self.c_double_prime = _nonzero(c_double_prime, "c''")

    def __repr__(self):
        return "H4Params(c=%s, c'=%s, c''=%s)" % (self.c, self.c_prime, self.c_double_prime)


BASIS = ("1", "g", "x", "gx")
_I, _G, _X, _GX = 0, 1, 2, 3


def build_h4(c):
    """The dim-4 twisted Hopf algebra on (1, g, x, gx) with twist
    diag(1, 1, c, c)."""
    c = _nonzero(c, "c")
    mul = table_map((4, 4, 4), {
        (_I, _I, _I): 1, (_I, _G, _G): 1, (_I, _X, _X): c, (_I, _GX, _GX): c,
        (_G, _I, _G): 1, (_G, _G, _I): 1, (_G, _X, _GX): c, (_G, _GX, _X): c,
        (_X, _I, _X): c, (_X, _G, _GX): -c,
        (_GX, _I, _GX): c, (_GX, _G, _X): -c,
    }, out_legs=1)
    cinv = 1 / c
    comul = table_map((4, 4, 4), {
        (_I, _I, _I): 1, (_G, _G, _G): 1,
        (_X, _X, _I): cinv, (_X, _G, _X): cinv,
        (_GX, _GX, _G): cinv, (_GX, _I, _GX): cinv,
    }, out_legs=2)
    unit = LinearMap.from_cols([[1, 0, 0, 0]])
    counit = LinearMap.from_rows([[1, 1, 0, 0]])
    alpha = LinearMap.diagonal([1, 1, c, c])
    antipode = LinearMap.from_cols(
        [
            [1, 0, 0, 0],   # S(1) = 1
            [0, 1, 0, 0],   # S(g) = g
            [0, 0, 0, -1],  # S(x) = -gx
            [0, 0, 1, 0],   # S(gx) = x, forced by S(gx)(g) + 1(gx) = 0
        ]
    )
    return HomHopfAlgebraData.from_maps(BASIS, mul, unit, comul, counit, antipode, alpha)


def h4_automorphism(lam):
    """diag(1, 1, lambda, lambda); these exhaust the structure automorphisms
    of the family, and compose like nonzero scalars under multiplication."""
    lam = _nonzero(lam, "lambda")
    return HopfAutomorphism(LinearMap.diagonal([1, 1, lam, lam]))


# ---------------------------------------------------------------------------
# golden module tables
# ---------------------------------------------------------------------------

# Action coefficients of the printed module tables: cell (h, m, p) is the
# f_p coefficient of h.m.  The tables share the rows for h in {1, g} and
# differ only in the values of x.1, x.g, gx.1 and gx.g.


def _table_action(c, x_on_1, x_on_g, gx_on_1, gx_on_g):
    return table_map((4, 4, 4), {
        (_I, _I, _I): 1, (_I, _G, _G): 1, (_I, _X, _X): c, (_I, _GX, _GX): c,
        (_G, _I, _I): 1, (_G, _G, _G): 1, (_G, _X, _X): -c, (_G, _GX, _GX): -c,
        (_X, _I, _GX): x_on_1, (_X, _G, _X): x_on_g,
        (_GX, _I, _GX): gx_on_1, (_GX, _G, _X): gx_on_g,
    }, out_legs=1)


_TABLES = ("H4A", "H4B", "H4AB")


def _eigenvalues(which, p):
    """The eigenvalues (a, b) of the component pair (A, B) = (diag(1,1,a,a),
    diag(1,1,b,b)) of table which: (c', 1), (1, c'') or (c', c'')."""
    if which not in _TABLES:
        raise ValueError("unknown table %r; expected H4A, H4B or H4AB" % (which,))
    return (1 if which == "H4B" else p.c_prime), (1 if which == "H4A" else p.c_double_prime)


def build_h4_yd_table(which, p, h=None):
    """Golden Yetter-Drinfeld module table H4A, H4B or H4AB.

    The coaction is the comultiplication, the carrier twist is alpha, and
    the component tag is (A, B) = (diag(1,1,a,a), diag(1,1,b,b)) with
    (a, b) = (c', 1), (1, c'') or (c', c'') respectively.  The rows of 1
    and g are those of every table, and the x and gx rows are

        x.1 = c(a - b) gx,     x.g = c(a + b) x,
        gx.1 = c(b - a) gx,    gx.g = -c(a + b) x.

    A widely quoted variant of these tables carries the opposite sign on
    the twist-parameter part of the x row (x.1 and x.g); that variant
    breaks the module law alpha(x).(g.m) = (x o g).mu(m) for every nonzero
    parameter, so the rows here are the axiom-consistent ones.  Use
    golden_table_errata to see the exact cells where the variants differ.
    """
    a, b = _eigenvalues(which, p)
    c = p.c
    if h is None:
        h = build_h4(c)
    action = _table_action(c, c * (a - b), c * (a + b), c * (b - a), -c * (a + b))
    return YDModuleData(h, action, h.coalgebra.comul, h.alpha, AutPair(h4_automorphism(a), h4_automorphism(b)),
                        basis=BASIS, label=which)


def build_twisted_h4b(p, h=None):
    """Golden conjugated module: H4B twisted by the pair (A, id).

    The action divides the x / gx rows of H4B by c', the coaction picks up
    c' on the second comultiplication legs of x and gx, and the component
    tag stays (id, B).
    """
    c, cp, cpp = p.c, p.c_prime, p.c_double_prime
    action = _table_action(
        c,
        c * (1 - cpp) / cp,
        c * (1 + cpp) / cp,
        c * (cpp - 1) / cp,
        -c * (1 + cpp) / cp,
    )
    cinv = 1 / c
    coaction = table_map((4, 4, 4), {
        (_I, _I, _I): 1, (_G, _G, _G): 1,
        (_X, _X, _I): cinv, (_X, _G, _X): cinv * cp,
        (_GX, _GX, _G): cinv, (_GX, _I, _GX): cinv * cp,
    }, out_legs=2)
    if h is None:
        h = build_h4(c)
    pair = AutPair(identity_automorphism(4), h4_automorphism(cpp))
    return YDModuleData(h, action, coaction, h.alpha, pair, basis=BASIS, label="^(A,id)H4B")


def h4_braiding_matrix(p):
    """16x16 matrix of the braiding H4A (x) H4B -> (twisted H4B) (x) H4A in
    the flattened basis (1(x)1, 1(x)g, ..., gx(x)gx).

    Columns hold images of domain basis vectors; the row-per-source table
    customary for hand calculations is this matrix's transpose.  In that
    row convention all entries are 0 or +-1 except four parameter-dependent
    cells in rows 3, 4, 7, 8 (1-indexed):

        (3, 8) = c' - 1    (4, 4) = 1 - c'
        (7, 7) = 1 + c'    (8, 3) = -(1 + c')

    Because c' is nonzero, (3, 8) never reaches -1 and (4, 4) never
    reaches 1; the values depend on c' only, not on c or c''.
    """
    from .t_category import braiding

    h = build_h4(p.c)
    m = build_h4_yd_table("H4A", p, h=h)
    n = build_h4_yd_table("H4B", p, h=h)
    return braiding(m, n).matrix


def golden_table_errata(p):
    """Entry-for-entry comparison of the sign-variant x rows against the
    constructive module built from the automorphism pair.

    Returns a CheckReport with one item per table; a failing item's witness
    pinpoints the first action cell where the variant table disagrees with
    the constructed one, which is how a transcription error in source
    tables surfaces instead of being silently patched.
    """
    c = p.c
    h = build_h4(c)
    laws = []
    for which in _TABLES:
        a, b = _eigenvalues(which, p)
        # x.1 = gx.g = -c(a + b) and x.g = gx.1 = c(b - a)
        variant = _table_action(c, -c * (a + b), c * (b - a), c * (b - a), -c * (a + b))
        laws.append(("variant-table-%s" % which, "sign-variant action table equals the constructed action",
                     (BASIS, BASIS), variant, build_canonical_yd(h, h4_automorphism(a), h4_automorphism(b)).action))
    return check_laws("golden-table-errata", laws)
