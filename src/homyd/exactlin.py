"""Exact rational scalars and sparse linear/tensor algebra.

Every structure map in this library (multiplication, comultiplication,
antipode, twists, actions, coactions, braidings) is ultimately a LinearMap
over the rationals, acting on column coordinate vectors and storing only
its nonzero entries, column by column.  Tensor legs are flattened with the
fixed convention (i, j) -> i * dim_right + j; Kronecker products and leg
permutations below follow the same convention.  Structure constants
written out as a sparse table literal become a map through table_map.

A map stores its entries fraction-free: int numerators over one positive
denominator shared by the whole map, and not necessarily in lowest terms.
Every scalar enters a map through _sparse_map, which coerces it as _scalar
does and clears a new map's entries to their least common denominator:
the constructors, table_map, defformat's tables and invert all build
their maps there.  compose and kron then multiply plain ints and multiply
the denominators, and leave the product over that product denominator.
A product whose denominator passes _BOUND = 2**20 is reduced at once by
_reduced, so no stored denominator passes _BOUND unless the map's lowest
one does: the products of a clean tcat check of the shipped files never
pass it, while a dense map whose products cancel is reduced often enough
that its numerators stay small.
Lowest terms are read where they matter and nowhere else: ==
cross-multiplies two maps over different denominators, hash hashes the
reduced map, and the identity test reads numerators equal to the
denominator.  Entries read back through the access methods are ints when
integral and Fractions otherwise, exactly as rational entries are.

Most Kronecker products in the library whisker a map with identities:
id (x) f, f (x) id, and a twist or flip placed on one leg.  kron returns
such a product I_a (x) x (x) I_b as a whisker, a LinearMap that holds
(a, x, b) and leaves its columns unbuilt; compose reads one whisker
operand, the left one when both are whiskers, through index offsets into
its middle factor's columns, and anything else that reads the columns
(entries, transpose, invert, apply, ==, hash, a kron with no identity
factor, the other operand of such a compose) builds them on first read.
A whisker equals, and hashes as, the map its columns spell out.

Twists are mostly diagonal, and identities are everywhere.  Each map
stores, once, whether it is diagonal with no zero on its diagonal, and if
so its diagonal numerators: a map that is not square when it is made, a
square one on first read (_diagonal; a whisker reads them off its middle
factor).  The identity is the case of a diagonal whose numerators all equal
the denominator, and LinearMap.identity hands out one map per size.
compose returns the other operand of an identity, kron of two diagonals
is built as a diagonal, and invert returns an identity as it is and the
inverse of any other diagonal in closed form, the diagonal den / n_i, so
only a map that is not diagonal (or has a zero on its diagonal) meets
Gauss-Jordan elimination.

All values are immutable after construction and all operations are pure,
so everything here is safe to share between threads: permute builds each
leg permutation once per shape, and LinearMap.identity each identity once
per size, and hands out that one map.  The writes after construction are
a map storing its diagonal, and a whisker its columns, on first read;
threads that race there store equal values, and either copy serves.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cache
from math import gcd, lcm

#: Ground-field scalar: an exact rational, read back from a map as an int
#: when integral and as a Fraction (positive denominator, gcd(|num|, den) = 1)
#: otherwise; a map stores it as an int numerator over the map's common
#: denominator.  Equal values compare and hash equal across the two types.
Scalar = int | Fraction

ZERO = Fraction(0)
ONE = Fraction(1)

#: A product whose denominator passes _BOUND is reduced as it is made.  A
#: larger bound lets the numerators of dense maps, whose products cancel,
#: grow and slow every later product: the tcat check of a dense change of
#: basis of h4.alg (tests/transport.py) slows as the bound grows past it.
_BOUND = 1 << 20


def rat(num, den=1):
    """Exact rational; accepts ints or strings like '-2/3'."""
    return Fraction(num, den)


def _scalar(e):
    """e as a map stores it: an int when integral, else a Fraction."""
    t = type(e)
    if t is int:
        return e
    if t is not Fraction:
        e = Fraction(e)
    return e.numerator if e.denominator == 1 else e


def _value(n, den):
    """The numerator n over den as the access methods return it: ZERO for
    an absent entry (n = 0), an int when integral, else a Fraction."""
    if not n:
        return ZERO
    if den == 1:
        return n
    q, r = divmod(n, den)
    return Fraction(n, den) if r else q


class DimensionMismatch(ValueError):
    """Shapes do not compose; this is always a hard error, never silent."""


class SingularMap(ArithmeticError):
    """Inversion of a map with zero determinant (e.g. a non-bijective
    antipode candidate)."""


class LinearMap:
    """rows x cols matrix of exact rationals, stored as the int numerators
    of its nonzero entries, column by column, over one shared denominator.

    Maps act on column coordinate vectors, so ``(f @ g)`` means "apply g
    first, then f".  This convention is fixed across the library.  Each
    column is a dict row -> nonzero int numerator that is never mutated
    after construction, and _den is the positive denominator of the whole
    map, at most _BOUND unless the map's lowest denominator is larger, and
    not necessarily prime to the numerators: two maps equal in value store
    equal columns over equal denominators, or proportional columns over
    different ones, and compare and hash equal either way.  entry,
    entries, column, row and apply read the values back as ints and
    Fractions.  _whisker is (a, x, b) for a whisker I_a (x) x (x) I_b,
    whose columns are built on first read, and None otherwise.  _diag is
    the tuple of diagonal numerators of a diagonal map with no zero on its
    diagonal, and None for any other map: from the start for a map that is
    not square, and worked out on first read (_diagonal) for one that is.
    """

    __slots__ = ("rows", "cols", "_cols", "_den", "_whisker", "_diag")

    def __init__(self, rows, cols, entries):
        """Checked constructor from row-major dense entries."""
        entries = list(entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(
                "expected %d entries for %dx%d, got %d"
                % (rows * cols, rows, cols, len(entries))
            )
        f = _sparse_map(rows, [dict(enumerate(entries[j::cols])) for j in range(cols)])
        self.rows, self.cols, self._cols, self._den, self._whisker = rows, cols, f._cols, f._den, None
        if rows != cols:
            self._diag = None

    # -- constructors ------------------------------------------------

    @classmethod
    def identity(cls, n):
        return _identity(n)

    @classmethod
    def zeros(cls, rows, cols):
        return _from_columns(rows, tuple({} for _ in range(cols)), 1)

    @classmethod
    def diagonal(cls, values):
        columns = [{j: v} for j, v in enumerate(values)]
        return _sparse_map(len(columns), columns)

    @classmethod
    def from_rows(cls, rows):
        return cls.from_cols(rows).transpose()

    @classmethod
    def from_cols(cls, cols):
        nr = len(cols[0]) if cols else 0
        if any(len(c) != nr for c in cols):
            raise DimensionMismatch("ragged rows or columns")
        return _sparse_map(nr, [dict(enumerate(c)) for c in cols])

    # -- access ------------------------------------------------------

    def __getattr__(self, name):
        # reached for a slot that is unset: a square map's _diag, or a
        # whisker's _cols, each worked out here on first read
        if name == "_diag":
            self._diag = diag = _diagonal(self)
            return diag
        if name != "_cols" or self._whisker is None:
            raise AttributeError(name)
        self._cols = columns = _whisker_columns(*self._whisker)
        return columns

    @property
    def entries(self):
        """Dense row-major view of every entry."""
        c, d = self.cols, self._den
        out = [ZERO] * (self.rows * c)
        for j, col in enumerate(self._cols):
            for i, n in col.items():
                out[i * c + j] = _value(n, d)
        return tuple(out)

    def entry(self, i, j):
        return _value(self._cols[j].get(i, 0), self._den)

    def column(self, j):
        col, d = self._cols[j], self._den
        return tuple(_value(col.get(i, 0), d) for i in range(self.rows))

    def row(self, i):
        d = self._den
        return tuple(_value(col.get(i, 0), d) for col in self._cols)

    def apply(self, vec):
        """Image of a column coordinate vector."""
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length %d, map has %d columns" % (len(vec), self.cols))
        out = [ZERO] * self.rows
        for vj, col in zip(vec, self._cols):
            if vj:
                for i, n in col.items():
                    out[i] += n * vj
        d = self._den
        return tuple(out) if d == 1 else tuple(x / d for x in out)

    def transpose(self):
        out = tuple({} for _ in range(self.rows))
        for j, col in enumerate(self._cols):
            for i, n in col.items():
                out[i][j] = n
        return _from_columns(self.cols, out, self._den)

    @property
    def is_square(self):
        return self.rows == self.cols

    def is_identity(self):
        return _is_identity(self)

    # -- algebra -----------------------------------------------------

    def __matmul__(self, other):
        return compose(self, other)

    def __eq__(self, other):
        if not (isinstance(other, LinearMap) and self.rows == other.rows and self.cols == other.cols):
            return False
        d, e = self._den, other._den
        if d == e:
            return self._cols == other._cols
        # n / d == m / e, entry by entry, as n * e == m * d; an entry absent
        # from the other column reads m = 0, which no stored n matches
        for col, ocol in zip(self._cols, other._cols):
            if len(col) != len(ocol):
                return False
            for i, n in col.items():
                if n * e != ocol.get(i, 0) * d:
                    return False
        return True

    def __hash__(self):
        f = _reduced(self.rows, self._cols, self._den)
        return hash((f.rows, f.cols, f._den, tuple(frozenset(col.items()) for col in f._cols)))

    def __repr__(self):
        return "LinearMap(%d, %d, %r)" % (self.rows, self.cols, list(self.entries))

    def __str__(self):
        width = max((len(str(e)) for e in self.entries), default=1)
        lines = []
        for i in range(self.rows):
            lines.append("  ".join(str(e).rjust(width) for e in self.row(i)))
        return "\n".join(lines)


def _from_columns(rows, columns, den):
    """Trusted constructor: columns is a tuple of dicts row -> nonzero int
    numerator over the positive den, never mutated from here on and so free
    to be shared with other maps."""
    f = object.__new__(LinearMap)
    f.rows = rows
    f.cols = len(columns)
    f._cols = columns
    f._den = den
    f._whisker = None
    if rows != f.cols:
        f._diag = None
    return f


def _whisker_map(a, x, b):
    """I_a (x) x (x) I_b as a whisker, with a nested whisker x flattened into
    one (a, x, b); its columns stay unbuilt until read, over x's
    denominator."""
    if x._whisker is not None:
        xa, x, xb = x._whisker
        a, b = a * xa, xb * b
    if a == b == 1:
        return x
    f = object.__new__(LinearMap)
    f.rows = a * x.rows * b
    f.cols = a * x.cols * b
    f._den = x._den
    f._whisker = (a, x, b)
    if x.rows != x.cols:
        f._diag = None
    return f


def _whisker_columns(a, x, b):
    """The columns of I_a (x) x (x) I_b: column (p, j, q) is x's column j
    with each row i moved to (p, i, q) = p * x.rows * b + i * b + q."""
    xcols, tops = x._cols, [p * x.rows * b for p in range(a)]
    return tuple({top + q + i * b: n for i, n in xcol.items()} for top in tops for xcol in xcols for q in range(b))


def _diagonal_map(diag, den):
    """Trusted constructor of the diagonal map whose numerators diag, none
    of them zero, are over den."""
    f = _from_columns(len(diag), tuple({j: n} for j, n in enumerate(diag)), den)
    f._diag = diag
    return f


@cache
def _identity(n):
    return _diagonal_map((1,) * n, 1)


def _diagonal(f):
    """The numerators on the diagonal of the square map f when f is
    diagonal and has no zero there, else None; a whisker reads them off its
    middle factor and stays unbuilt.  The identity is the case of
    numerators all equal to the denominator (_is_identity)."""
    if f._whisker is not None:
        a, x, b = f._whisker
        diag = x._diag
        if diag is not None and b != 1:
            diag = tuple(n for n in diag for _ in range(b))
        return diag if diag is None else diag * a
    # column j holds just its diagonal entry when each column has an entry
    # on its diagonal and the columns hold n entries in all
    columns = f._cols
    diag = tuple(map(dict.get, columns, range(len(columns))))
    return None if None in diag or sum(map(len, columns)) != len(diag) else diag


def _is_identity(f):
    """Whether f is an identity map, read from its diagonal: every
    numerator equals the denominator."""
    diag = f._diag
    return diag is not None and diag.count(f._den) == len(diag)


def _reduced(rows, columns, den):
    """The map of int numerator columns over the positive den in lowest
    terms, divided through by the gcd of den and every numerator; the scan
    stops at the first column that brings the running gcd to 1, and a den
    of 1 skips it.  Two maps equal in value reduce to equal denominators
    and equal columns.  hash reads it, and so does a product whose
    denominator passes _BOUND (_product, and kron of two diagonals)."""
    if den != 1:
        g = den
        for col in columns:
            g = gcd(g, *col.values())
            if g == 1:
                return _from_columns(rows, columns, den)
        columns = tuple({i: n // g for i, n in col.items()} for col in columns)
        den //= g
    return _from_columns(rows, columns, den)


def _product(rows, columns, den):
    """The product of numerator columns over den, the product of its
    operands' denominators: left as it is, and reduced only when den
    passes _BOUND."""
    return _from_columns(rows, columns, den) if den <= _BOUND else _reduced(rows, columns, den)


def compose(f, g):
    """Matrix product f . g (apply g first), multiplying numerators.

    An identity on either side returns the other operand.  A whisker is
    read through index offsets into its middle factor's columns and is left
    unbuilt: f when it is one, else g."""
    if f.cols != g.rows:
        raise DimensionMismatch(
            "cannot compose %dx%d with %dx%d" % (f.rows, f.cols, g.rows, g.cols)
        )
    if _is_identity(f):
        return g
    if _is_identity(g):
        return f
    if f._whisker is not None:
        return _compose_whisker_left(*f._whisker, g)
    if g._whisker is not None:
        return _compose_whisker_right(f, *g._whisker)
    fcols = f._cols
    out = []
    for gcol in g._cols:
        acc = {}
        for k, gk in gcol.items():
            for i, fik in fcols[k].items():
                acc[i] = acc[i] + fik * gk if i in acc else fik * gk
        if len(gcol) > 1:
            acc = {i: e for i, e in acc.items() if e}
        out.append(acc)
    return _product(f.rows, tuple(out), f._den * g._den)


def _compose_whisker_right(f, a, x, b):
    """f . (I_a (x) x (x) I_b).  Column (p, j, q) of the whisker holds x's
    column j on the rows (p, i, q) = top + i * b + q, so a unit column of x
    selects, and hands over, the b consecutive columns of f from top + i * b."""
    fcols, step = f._cols, x.rows * b
    out = []
    for p in range(a):
        top = p * step
        for xcol in x._cols:
            if len(xcol) == 1:
                for i, n in xcol.items():
                    start = top + i * b
                    block = fcols[start:start + b]
                    out.extend(block if n == 1 else ({r: v * n for r, v in fcol.items()} for fcol in block))
                continue
            for q in range(top, top + b):
                acc = {}
                for i, n in xcol.items():
                    for r, v in fcols[q + i * b].items():
                        acc[r] = acc[r] + v * n if r in acc else v * n
                out.append({r: v for r, v in acc.items() if v})
    return _product(f.rows, tuple(out), f._den * x._den)


def _compose_whisker_left(a, x, b, g):
    """(I_a (x) x (x) I_b) . g.  Row k = (p, j, q) of g meets x's column j,
    whose row i lands on (p, i, q) = p * x.rows * b + q + i * b."""
    xcols, inner, step = x._cols, x.cols * b, x.rows * b
    out = []
    for gcol in g._cols:
        acc = {}
        for k, gk in gcol.items():
            p, k = divmod(k, inner)
            j, q = divmod(k, b)
            base = p * step + q
            for i, n in xcols[j].items():
                r = base + i * b
                acc[r] = acc[r] + n * gk if r in acc else n * gk
        out.append({r: v for r, v in acc.items() if v} if len(gcol) > 1 else acc)
    return _product(a * step, tuple(out), x._den * g._den)


def kron(f, g):
    """Kronecker product realising f (x) g on flattened tensor coordinates.

    Index convention: basis vector (i, j) of the domain sits at i*g.cols + j,
    matching the global flattening.  With an identity factor the product is
    a whisker, and kron(I, I) is an identity; two diagonal factors give a
    diagonal, built as one.  The denominators multiply, and the product
    stays over theirs unless it passes _BOUND (_product).
    """
    if _is_identity(f):
        if _is_identity(g):
            return LinearMap.identity(f.rows * g.rows)
        return _whisker_map(f.rows, g, 1)
    if _is_identity(g):
        return _whisker_map(1, f, g.rows)
    den = f._den * g._den
    fd, gd = f._diag, g._diag
    if fd is not None and gd is not None:
        h = _diagonal_map(tuple([m * n for m in fd for n in gd]), den)
        return h if den <= _BOUND else _reduced(h.rows, h._cols, den)
    gr, gcols = g.rows, g._cols
    out = tuple({i1 * gr + i2: a * b for i1, a in fcol.items() for i2, b in gcol.items()}
                for fcol in f._cols for gcol in gcols)
    return _product(f.rows * gr, out, den)


def permute(dims, order):
    """Leg permutation X_0 (x) ... (x) X_n-1 -> X_order[0] (x) ... (x) X_order[n-1],
    where dims[k] = dim X_k.  It is a function of the integers alone and
    maps are immutable, so each shape is built once and every caller shares
    it."""
    return _permutation(tuple(dims), tuple(order))


@cache
def _permutation(dims, order):
    stride = [0] * len(dims)
    size = 1
    for k in reversed(order):
        stride[k] = size
        size *= dims[k]
    targets = [0]
    for d, s in zip(dims, stride):
        targets = [t + i * s for t in targets for i in range(d)]
    return _from_columns(size, tuple({t: 1} for t in targets), 1)


def flip(d1, d2):
    """Permutation map X (x) Y -> Y (x) X for dim(X)=d1, dim(Y)=d2."""
    return permute((d1, d2), (1, 0))


def invert(f):
    """Exact inverse of f = N / den, the map den * N^-1.

    An identity is its own inverse, and a diagonal map with no zero on its
    diagonal n_i has the diagonal inverse den / n_i; any other square map,
    a diagonal with a zero on it included, goes through _gauss_jordan.

    Raises SingularMap when the determinant vanishes.
    """
    if not f.is_square:
        raise DimensionMismatch("only square maps can be inverted")
    diag = f._diag
    if diag is None:
        return _gauss_jordan(f)
    if _is_identity(f):
        return f
    g = LinearMap.diagonal([Fraction(f._den, n) for n in diag])
    g._diag = _diagonal(g)
    return g


def _gauss_jordan(f):
    """The inverse of the square map f by Gauss-Jordan elimination over the
    rationals on the numerators N of f = N / den, dividing in Fraction
    (int / int would be a float); the inverse is den * N^-1."""
    n = f.rows
    a = [{} for _ in range(n)]
    for j, col in enumerate(f._cols):
        for i, e in col.items():
            a[i][j] = e
    b = [{i: 1} for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if col in a[r]:
                pivot = r
                break
        if pivot is None:
            raise SingularMap("matrix is singular at column %d" % col)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        p = a[col][col]
        if p != 1:
            p = Fraction(p)
            a[col] = {k: x / p for k, x in a[col].items()}
            b[col] = {k: x / p for k, x in b[col].items()}
        for r in range(n):
            if r != col and col in a[r]:
                factor = a[r][col]
                a[r] = _axpy(a[r], -factor, a[col])
                b[r] = _axpy(b[r], -factor, b[col])
    d = f._den
    return _sparse_map(n, [{k: x * d for k, x in row.items()} for row in b]).transpose()


def _axpy(y, coef, x):
    """The sparse vector y + coef * x, without stored zeros."""
    out = dict(y)
    for k, v in x.items():
        s = out.get(k, 0) + coef * v
        if s:
            out[k] = s
        else:
            del out[k]
    return out


def table_map(dims, data, out_legs):
    """The LinearMap of a sparse table literal data {(i, j, k): v} with index
    ranges dims, reading the last out_legs indices as the codomain and the
    others as the domain: a product table t[i, j, k] (the e_k coefficient of
    e_i e_j) gives A (x) A -> A with out_legs=1, a coproduct table
    t[k, i, j] (the e_i (x) e_j coefficient of comul(e_k)) C -> C (x) C
    with 2.  Each cell goes straight to its column and row, and
    _sparse_map builds the map."""
    d0, d1, d2 = dims
    rows, cols = (d2, d0 * d1) if out_legs == 1 else (d1 * d2, d0)
    columns = [{} for _ in range(cols)]
    for (i, j, k), v in data.items():
        if not (0 <= i < d0 and 0 <= j < d1 and 0 <= k < d2):
            raise DimensionMismatch("index %r out of range for dims %r" % ((i, j, k), dims))
        if out_legs == 1:
            columns[i * d1 + j][k] = v
        else:
            columns[i][j * d2 + k] = v
    return _sparse_map(rows, columns)


def _sparse_map(rows, columns):
    """The map whose column j holds the scalars of columns[j], a dict row
    -> scalar, and the one place where scalars become numerators: one pass
    takes each scalar as _scalar does, drops the zeros and finds the least
    common denominator of the rest, which is prime to their numerators
    taken together, since a prime dividing it divides some entry's
    denominator to the full power and that entry's numerator not at all."""
    den, kept = 1, []
    for col in columns:
        out = {}
        for i, v in col.items():
            v = _scalar(v)
            if type(v) is not int:
                den = lcm(den, v.denominator)
                out[i] = v
            elif v:
                out[i] = v
        kept.append(out)
    if den != 1:
        kept = [{i: v.numerator * (den // v.denominator) for i, v in col.items()} for col in kept]
    return _from_columns(rows, tuple(kept), den)


# -- coordinate vector helpers --------------------------------------


def tensor_vec(u, v):
    """Flattened u (x) v."""
    out = [ZERO] * (len(u) * len(v))
    nv = len(v)
    for i, ui in enumerate(u):
        if ui:
            base = i * nv
            for j, vj in enumerate(v):
                if vj:
                    out[base + j] = ui * vj
    return out


def add_scaled(acc, vec, coef):
    """acc += coef * vec, in place."""
    if not coef:
        return
    for i, x in enumerate(vec):
        if x:
            acc[i] += coef * x
