"""Dense reference kernels for exactlin, kept for tests only.

These are the row-major dense compose, kron and invert that the sparse
column kernel replaced, a dense transpose and apply, and a dense layout of
the table literals that table_map reads.  They read maps through the public dense view
``LinearMap.entries`` and build results with the checked constructor, so
they share no arithmetic path with the kernel under test.
"""

from fractions import Fraction

from homyd.exactlin import ONE, ZERO, DimensionMismatch, LinearMap, SingularMap


def compose(f, g):
    """Matrix product f . g (apply g first)."""
    if f.cols != g.rows:
        raise DimensionMismatch(
            "cannot compose %dx%d with %dx%d" % (f.rows, f.cols, g.rows, g.cols)
        )
    out = [ZERO] * (f.rows * g.cols)
    fe, ge = f.entries, g.entries
    fc, gc = f.cols, g.cols
    for i in range(f.rows):
        frow = i * fc
        orow = i * gc
        for k in range(fc):
            fik = fe[frow + k]
            if fik:
                grow = k * gc
                for j in range(gc):
                    gkj = ge[grow + j]
                    if gkj:
                        out[orow + j] += fik * gkj
    return LinearMap(f.rows, g.cols, out)


def kron(f, g):
    """Kronecker product; domain basis vector (i, j) sits at i*g.cols + j."""
    rows = f.rows * g.rows
    cols = f.cols * g.cols
    out = [ZERO] * (rows * cols)
    fe, ge = f.entries, g.entries
    for i1 in range(f.rows):
        for j1 in range(f.cols):
            a = fe[i1 * f.cols + j1]
            if not a:
                continue
            for i2 in range(g.rows):
                base = (i1 * g.rows + i2) * cols + j1 * g.cols
                grow = i2 * g.cols
                for j2 in range(g.cols):
                    b = ge[grow + j2]
                    if b:
                        out[base + j2] = a * b
    return LinearMap(rows, cols, out)


def invert(f):
    """Gauss-Jordan elimination on dense rows; SingularMap when singular."""
    if not f.is_square:
        raise DimensionMismatch("only square maps can be inverted")
    n = f.rows
    a = [list(f.row(i)) for i in range(n)]
    b = [[ONE if i == j else ZERO for j in range(n)] for i in range(n)]
    for col in range(n):
        pivot = None
        for r in range(col, n):
            if a[r][col]:
                pivot = r
                break
        if pivot is None:
            raise SingularMap("matrix is singular at column %d" % col)
        if pivot != col:
            a[col], a[pivot] = a[pivot], a[col]
            b[col], b[pivot] = b[pivot], b[col]
        p = a[col][col]
        if p != ONE:
            # in Fraction: entries may be ints, and int / int is a float
            a[col] = [Fraction(x) / p for x in a[col]]
            b[col] = [Fraction(x) / p for x in b[col]]
        for r in range(n):
            if r != col and a[r][col]:
                factor = a[r][col]
                a[r] = [x - factor * y for x, y in zip(a[r], a[col])]
                b[r] = [x - factor * y for x, y in zip(b[r], b[col])]
    return LinearMap(n, n, [x for row_ in b for x in row_])


def transpose(f):
    """The transpose, read off the dense entries."""
    e, c = f.entries, f.cols
    return LinearMap(c, f.rows, [e[i * c + j] for j in range(c) for i in range(f.rows)])


def apply(f, vec):
    """Image of a column vector, one dense row at a time."""
    e, c = f.entries, f.cols
    return tuple(sum((e[i * c + j] * vec[j] for j in range(c)), ZERO) for i in range(f.rows))


def table_map(dims, data, out_legs):
    """The map of a sparse table literal, laid out first as a dense rank-3
    array and then read with its last out_legs indices as the row."""
    d0, d1, d2 = dims
    table = [[[ZERO] * d2 for _ in range(d1)] for _ in range(d0)]
    for (i, j, k), v in data.items():
        table[i][j][k] = Fraction(v)
    if out_legs == 1:
        rows, cols = d2, d0 * d1
        return LinearMap(rows, cols, [table[c // d1][c % d1][r] for r in range(rows) for c in range(cols)])
    rows, cols = d1 * d2, d0
    return LinearMap(rows, cols, [table[c][r // d2][r % d2] for r in range(rows) for c in range(cols)])
