import itertools
import math
import random
from fractions import Fraction

import pytest

import dense_reference as dense
from homyd.exactlin import (
    DimensionMismatch,
    LinearMap,
    SingularMap,
    compose,
    flip,
    invert,
    kron,
    permute,
    rat,
    table_map,
)
from homyd.h4_library import build_h4


def test_scalar_canonical_form():
    assert rat(2, 4) == rat(1, 2)
    assert rat(-3, -6) == rat(1, 2)
    assert rat(3, -6).denominator == 2
    assert rat(3, -6).numerator == -1


def test_exact_sum_recomputed_two_ways():
    rng = random.Random(20240)
    for _ in range(200):
        a, b = rng.randint(-99, 99), rng.randint(1, 99)
        c, d = rng.randint(-99, 99), rng.randint(1, 99)
        direct = Fraction(a, b) + Fraction(c, d)
        cross = Fraction(a * d + c * b, b * d)
        assert direct == cross
        assert direct.denominator > 0


def test_compose_identity():
    i4 = LinearMap.identity(4)
    assert compose(i4, i4) == i4
    assert (i4 @ i4) == i4


def test_compose_alpha_twists_to_identity():
    # the twist of the dim-4 family at c composed with the twist at 1/c
    a2 = build_h4(2).alpha
    ah = build_h4(Fraction(1, 2)).alpha
    assert (a2 @ ah).is_identity()


def test_compose_antipode_square_matches_oracle():
    s = build_h4(3).antipode
    # plain triple-loop product as an independent oracle
    n = 4
    expect = [
        sum(s.entry(i, k) * s.entry(k, j) for k in range(n)) for i in range(n) for j in range(n)
    ]
    assert (s @ s) == LinearMap(4, 4, expect)
    # squaring the antipode negates the two nilpotent basis directions
    assert (s @ s) == LinearMap.diagonal([1, 1, -1, -1])


def test_compose_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        compose(LinearMap.zeros(2, 3), LinearMap.zeros(2, 3))


def test_kron_identities():
    assert kron(LinearMap.identity(2), LinearMap.identity(3)) == LinearMap.identity(6)
    a = LinearMap.from_rows([[rat(1), rat(2)], [rat(3), rat(4)]])
    assert kron(a, LinearMap.identity(1)) == a


def test_kron_diagonal_twist_pattern():
    c = rat(5)
    d = LinearMap.diagonal([1, 1, c, c])
    k = kron(d, d)
    # c exactly where one factor index is twisted, c^2 where both
    for i in range(4):
        for j in range(4):
            v = k.entry(i * 4 + j, i * 4 + j)
            twisted = (i >= 2) + (j >= 2)
            assert v == c**twisted


def test_kron_interchange_with_compose():
    rng = random.Random(7)

    def rnd(rows, cols):
        return LinearMap(rows, cols, [rat(rng.randint(-3, 3)) for _ in range(rows * cols)])

    for _ in range(20):
        f, fp = rnd(2, 3), rnd(3, 2)
        g, gp = rnd(3, 2), rnd(2, 3)
        assert compose(kron(f, g), kron(fp, gp)) == kron(compose(f, fp), compose(g, gp))


def test_invert_identity_and_diagonal():
    assert invert(LinearMap.identity(4)) == LinearMap.identity(4)
    lam = rat(3)
    d = LinearMap.diagonal([1, 1, lam, lam])
    assert invert(d) == LinearMap.diagonal([1, 1, rat(1, 3), rat(1, 3)])


def test_invert_antipode():
    # the antipode has order four: its inverse is its cube, not itself
    s = build_h4(1).antipode
    si = invert(s)
    assert si != s
    assert si == s @ s @ s
    assert (si @ s).is_identity() and (s @ si).is_identity()
    assert si.column(2) == (rat(0), rat(0), rat(0), rat(1))   # x -> gx
    assert si.column(3) == (rat(0), rat(0), rat(-1), rat(0))  # gx -> -x


def test_invert_random_matrices_exactly():
    rng = random.Random(99)
    done = 0
    while done < 25:
        m = LinearMap(5, 5, [Fraction(rng.randint(-6, 6), rng.randint(1, 3)) for _ in range(25)])
        try:
            mi = invert(m)
        except SingularMap:
            continue
        assert (mi @ m).is_identity()
        assert (m @ mi).is_identity()
        done += 1


def test_invert_singular_raises():
    with pytest.raises(SingularMap):
        invert(LinearMap.zeros(3, 3))
    with pytest.raises(DimensionMismatch):
        invert(LinearMap.zeros(2, 3))


def test_flip_is_permutation_involution():
    f = flip(2, 3)
    g = flip(3, 2)
    assert (g @ f).is_identity()
    v = tuple(rat(i) for i in range(6))
    w = f.apply(v)
    for i in range(2):
        for j in range(3):
            assert w[j * 2 + i] == v[i * 3 + j]


# ---------------------------------------------------------------------------
# the sparse column kernel against the dense reference
# ---------------------------------------------------------------------------


def random_map(rng, rows, cols, density):
    """Seeded random map with about density * rows * cols nonzero entries,
    small signed rationals so that sums cancel now and then."""
    return LinearMap(rows, cols, [
        Fraction(rng.choice((-2, -1, 1, 2)), rng.choice((1, 1, 2, 3)))
        if rng.random() < density else 0
        for _ in range(rows * cols)
    ])


def stored_values(f):
    """The int numerators f stores, over its one denominator f._den."""
    return [n for col in f._cols for n in col.values()]


# (rows, inner, cols, density): the product shapes and densities of a tcat run
TCAT_SHAPES = [(4, 4, 4, 0.25), (16, 16, 16, 0.068), (64, 64, 64, 0.019), (64, 256, 256, 0.007)]


@pytest.mark.parametrize("rows, inner, cols, density", TCAT_SHAPES)
def test_compose_matches_dense_reference(rows, inner, cols, density):
    rng = random.Random(rows * 1000 + cols)
    for _ in range(6):
        f = random_map(rng, rows, inner, density)
        g = random_map(rng, inner, cols, density)
        got = compose(f, g)
        want = dense.compose(f, g)
        assert got == want
        assert got.entries == want.entries
        assert all(stored_values(got))


def test_compose_matches_dense_reference_with_cancellation():
    # dense enough that many output cells sum to zero
    rng = random.Random(5)
    cancelled = 0
    for _ in range(40):
        f = random_map(rng, 4, 6, 0.5)
        g = random_map(rng, 6, 4, 0.5)
        got = compose(f, g)
        assert got == dense.compose(f, g)
        assert all(stored_values(got))
        cancelled += sum(1 for v in dense.compose(f, g).entries if not v)
    assert cancelled


@pytest.mark.parametrize("left, right", [
    ((4, 4, 0.25), (4, 4, 0.25)),
    ((16, 16, 0.068), (4, 4, 0.25)),
    ((4, 16, 0.25), (16, 4, 0.068)),
])
def test_kron_matches_dense_reference(left, right):
    rng = random.Random(len(left) + left[0] * right[1])
    for _ in range(6):
        f = random_map(rng, *left)
        g = random_map(rng, *right)
        got = kron(f, g)
        assert got == dense.kron(f, g)
        assert all(stored_values(got))


def test_invert_matches_dense_reference():
    rng = random.Random(31)
    outcomes = []
    for n, density in [(4, 0.25), (4, 0.6), (16, 0.068), (16, 0.3)]:
        for _ in range(12):
            m = random_map(rng, n, n, density)
            try:
                want = dense.invert(m)
            except SingularMap as exc:
                with pytest.raises(SingularMap) as got:
                    invert(m)
                assert str(got.value) == str(exc)
                outcomes.append((n, "singular"))
                continue
            got = invert(m)
            assert got == want
            assert all(stored_values(got))
            outcomes.append((n, "inverted"))
    assert {(n, o) for n in (4, 16) for o in ("singular", "inverted")} <= set(outcomes)


def test_invert_singular_with_nonzero_entries():
    # rank 2: the third column is the sum of the first two
    m = LinearMap.from_rows([[1, 2, 3], [0, 1, 1], [2, 0, 2]])
    with pytest.raises(SingularMap) as want:
        dense.invert(m)
    with pytest.raises(SingularMap) as got:
        invert(m)
    assert str(got.value) == str(want.value) == "matrix is singular at column 2"


def test_dense_built_and_kernel_built_maps_are_equal_and_hash_equal():
    rng = random.Random(11)
    for _ in range(10):
        f = random_map(rng, 16, 16, 0.068)
        g = random_map(rng, 16, 16, 0.068)
        kernel = f @ g
        rebuilt = LinearMap(16, 16, list(dense.compose(f, g).entries))
        assert kernel == rebuilt and rebuilt == kernel
        assert hash(kernel) == hash(rebuilt)
        assert LinearMap.from_cols([kernel.column(j) for j in range(16)]) == kernel
        assert kernel.transpose().transpose() == kernel
    assert kron(LinearMap.identity(2), LinearMap.identity(3)) == LinearMap(
        6, 6, [1 if i == j else 0 for i in range(6) for j in range(6)])
    bumped = list(rebuilt.entries)
    bumped[5] += 1
    assert LinearMap(16, 16, bumped) != kernel


def test_no_zeros_stored_after_entries_cancel():
    f = LinearMap.from_rows([[1, 1]])
    g = LinearMap.from_rows([[1], [-1]])
    assert stored_values(f @ g) == []
    assert f @ g == LinearMap.zeros(1, 1)
    assert hash(f @ g) == hash(LinearMap.zeros(1, 1))
    m = LinearMap.from_rows([[1, 1], [1, 2]])
    assert all(stored_values(invert(m)))
    assert invert(m) == LinearMap.from_rows([[2, -1], [-1, 1]])
    assert stored_values(LinearMap(2, 2, [0, 3, 0, 0])) == [3]


def test_permute_moves_legs():
    dims = (2, 3, 2)
    order = (2, 0, 1)
    p = permute(dims, order)
    assert (p.rows, p.cols) == (12, 12)
    for src, idx in enumerate(itertools.product(*(range(d) for d in dims))):
        tgt = idx[2] * 6 + idx[0] * 3 + idx[1]
        assert p.column(src) == tuple(rat(int(i == tgt)) for i in range(12))
    assert permute((4, 5), (1, 0)) == flip(4, 5)


@pytest.mark.parametrize("out_legs", [1, 2])
def test_table_map_matches_dense_reference(out_legs):
    rng = random.Random(40 + out_legs)
    for dims in ((2, 3, 4), (4, 4, 4), (1, 4, 1), (3, 1, 2)):
        data = {
            idx: Fraction(rng.choice((-2, -1, 0, 1, 2)), rng.choice((1, 2, 3)))
            for idx in itertools.product(*map(range, dims)) if rng.random() < 0.4
        }
        got = table_map(dims, data, out_legs)
        want = dense.table_map(dims, data, out_legs)
        assert got == want
        assert got.entries == want.entries
        assert all(stored_values(got))
    # t[0, 1, 1] = 5 and t[1, 0, 1] = -2, read as a product and as a coproduct
    t = table_map((2, 2, 2), {(0, 1, 1): rat(5), (1, 0, 1): rat(-2)}, out_legs)
    if out_legs == 1:
        assert (t.rows, t.cols) == (2, 4)
        assert t.column(0 * 2 + 1) == (rat(0), rat(5))
        assert t.column(1 * 2 + 0) == (rat(0), rat(-2))
    else:
        assert (t.rows, t.cols) == (4, 2)
        assert t.column(0) == (rat(0), rat(0), rat(0), rat(5))
        assert t.column(1) == (rat(0), rat(-2), rat(0), rat(0))
    with pytest.raises(DimensionMismatch):
        table_map((2, 2, 2), {(0, 2, 0): 1}, out_legs)


def test_kron_with_basis_vector_columns_matches_dense_reference():
    rng = random.Random(17)
    swap = permute((2, 3), (1, 0))
    scaled = LinearMap(2, 2, [rat(2), 0, 0, 1])
    for unitary in (LinearMap.identity(4), swap, scaled):
        for shape in ((4, 6, 0.3), (6, 4, 0.5), (1, 1, 1.0)):
            g = random_map(rng, *shape)
            for got, want in ((kron(unitary, g), dense.kron(unitary, g)),
                              (kron(g, unitary), dense.kron(g, unitary))):
                assert got == want
                assert all(stored_values(got))


# ---------------------------------------------------------------------------
# single-entry columns: compose selects, and reuses or scales, a column
# ---------------------------------------------------------------------------


def selector(rng, n, kind):
    """An n x n map with one entry per column: the identity, a permutation,
    or a permutation whose columns are scaled by nonzero rationals (1 among
    them)."""
    if kind == "identity":
        return LinearMap.identity(n)
    perm = list(range(n))
    rng.shuffle(perm)
    scales = [1] * n if kind == "permutation" else [
        rng.choice((1, -1, 2, rat(1, 2), rat(-3, 2))) for _ in range(n)
    ]
    return LinearMap.from_cols([[scales[j] if i == perm[j] else 0 for i in range(n)] for j in range(n)])


def snapshot(f):
    """Copies of f's numerator columns, with its denominator."""
    return tuple(dict(col) for col in f._cols), f._den


@pytest.mark.parametrize("kind", ["identity", "permutation", "scaled"])
def test_compose_with_single_entry_columns_matches_dense_reference(kind):
    rng = random.Random(len(kind))
    for n, m, density in ((4, 4, 0.5), (16, 8, 0.3), (16, 64, 0.05)):
        s = selector(rng, n, kind)
        f = random_map(rng, m, n, density)
        g = random_map(rng, n, m, density)
        for got, want in ((compose(f, s), dense.compose(f, s)), (compose(s, g), dense.compose(s, g))):
            assert got == want
            assert got.entries == want.entries
            assert all(stored_values(got))


@pytest.mark.parametrize("kind", ["identity", "permutation", "scaled"])
def test_columns_shared_by_compose_are_never_mutated(kind):
    rng = random.Random(17)
    s = selector(rng, 8, kind)
    # lower triangular with a nonzero diagonal, so h below is invertible
    f = LinearMap.from_rows([
        [rng.choice((1, 2, rat(-1, 3))) if i == j else rng.choice((0, 0, 1, rat(1, 2))) if j < i else 0
         for j in range(8)]
        for i in range(8)
    ])
    h = compose(f, s)
    # a column of s whose one numerator is 1 hands f's numerator column over
    # as it is; h keeps the product of the denominators, so no reduction
    # replaced the columns
    assert h._den == f._den * s._den
    shared = sum(1 for hc in h._cols for fc in f._cols if hc is fc)
    assert shared == sum(1 for e in stored_values(s) if e == 1)
    before_f, before_h = snapshot(f), snapshot(h)
    # every kernel operation that reads the shared columns
    assert compose(h, h) == dense.compose(h, h)
    assert compose(s, h) == dense.compose(s, h)
    assert kron(h, s) == dense.kron(h, s) and kron(s, h) == dense.kron(s, h)
    assert compose(invert(h), h).is_identity()
    assert h.transpose().transpose() == h
    assert h.apply([1] * 8) == tuple(sum(h.row(i)) for i in range(8))
    assert snapshot(f) == before_f and snapshot(h) == before_h


# ---------------------------------------------------------------------------
# fraction-free storage: numerators over one reduced denominator, against
# the dense reference on maps whose denominators cancel
# ---------------------------------------------------------------------------

# values whose products and sums cancel denominators now and then
CANCELLING = (1, -1, 2, -3, rat(1, 2), rat(-1, 2), rat(2, 3), rat(-2, 3), rat(3, 2), rat(-3, 2))


def cancelling_map(rng, rows, cols, density):
    return LinearMap(rows, cols, [
        rng.choice(CANCELLING) if rng.random() < density else 0 for _ in range(rows * cols)
    ])


def invertible_map(rng, n, density):
    """Lower times upper triangular, with diagonals drawn from CANCELLING."""
    def triangle(lower):
        return LinearMap(n, n, [
            rng.choice(CANCELLING) if i == j or ((i > j) == lower and rng.random() < density) else 0
            for i in range(n) for j in range(n)
        ])
    return triangle(True) @ triangle(False)


def assert_canonical(f):
    """int numerators, none zero, over a positive int denominator that
    shares no factor with all of them; 1 for an integral map."""
    nums = stored_values(f)
    assert all(type(n) is int and n for n in nums)
    assert type(f._den) is int and f._den > 0
    assert math.gcd(f._den, *nums) == 1


def read_type(x):
    """The type the access methods return for the value x."""
    return int if x and Fraction(x).denominator == 1 else Fraction


@pytest.mark.parametrize("rows, inner, cols, density", TCAT_SHAPES)
def test_fraction_free_kernel_matches_dense_reference(rows, inner, cols, density):
    rng = random.Random(rows * 7 + inner)
    small = cancelling_map(rng, 2, 3, 0.7)
    for _ in range(2):
        f = cancelling_map(rng, rows, inner, max(density, 0.1))
        g = cancelling_map(rng, inner, cols, density)
        results = [
            (compose(f, g), dense.compose(f, g)),
            (kron(f, small), dense.kron(f, small)),
            (kron(small, f), dense.kron(small, f)),
            (g.transpose(), dense.transpose(g)),
        ]
        sq = invertible_map(rng, min(rows, 16), density)
        results.append((invert(sq), dense.invert(sq)))
        for got, want in results:
            assert_canonical(got)
            assert got == want and hash(got) == hash(want)
            assert got.entries == want.entries
        vec = [rng.choice(CANCELLING + (0,)) for _ in range(inner)]
        assert f.apply(vec) == dense.apply(f, vec)
        assert all(type(x) is Fraction for x in f.apply(vec))
        values = [rng.choice(CANCELLING + (0, 0, 4)) for _ in range(rows * cols)]
        h = LinearMap(rows, cols, values)
        assert_canonical(h)
        assert h.entries == tuple(values)
        assert [type(x) for x in h.entries] == [read_type(x) for x in values]
        for i in range(0, rows, 7):
            assert h.row(i) == tuple(values[i * cols:(i + 1) * cols])
            assert [type(x) for x in h.row(i)] == [read_type(x) for x in h.row(i)]
        for j in range(0, cols, 7):
            assert h.column(j) == tuple(values[j::cols])
            assert [type(x) for x in h.column(j)] == [read_type(x) for x in h.column(j)]


def test_fraction_free_results_cancel_to_canonical_form():
    rng = random.Random(3)
    cancelled = 0
    for _ in range(60):
        f = cancelling_map(rng, 4, 4, 0.5)
        g = cancelling_map(rng, 4, 4, 0.5)
        h = compose(f, g)
        assert_canonical(h)
        assert h == dense.compose(f, g)
        cancelled += h._den < f._den * g._den
    assert cancelled


@pytest.mark.parametrize("n", [1, 4, 16])
def test_maps_equal_in_value_are_equal_and_hash_equal_by_any_route(n):
    half, two = LinearMap.diagonal([rat(1, 2)] * n), LinearMap.diagonal([2] * n)
    for one in (half @ two, two @ half, kron(LinearMap.identity(1), half @ two),
                invert(half) @ half, LinearMap.from_cols([[rat(i == j) for i in range(n)] for j in range(n)])):
        assert_canonical(one)
        assert one == LinearMap.identity(n) and hash(one) == hash(LinearMap.identity(n))
        assert one._den == 1
    rng = random.Random(n)
    k = 4
    f = cancelling_map(rng, n, k, 0.6)
    g = cancelling_map(rng, k, n, 0.6)
    third, three = LinearMap.diagonal([rat(1, 3)] * k), LinearMap.diagonal([3] * k)
    direct = kron(f, g)
    routed = kron(f @ third, three @ g)
    assert_canonical(routed)
    assert routed == direct and hash(routed) == hash(direct)
    assert routed == LinearMap(n * k, k * n, list(dense.kron(f, g).entries))
    assert invert(invert(half)) == half and hash(invert(invert(half))) == hash(half)
    assert LinearMap(n, n, list(half.entries)) == half
    # the same numerators over another denominator are another map
    assert half != LinearMap.identity(n) and LinearMap.diagonal([rat(1, 3)] * n) != half


def test_compose_and_kron_do_no_fraction_arithmetic(monkeypatch):
    rng = random.Random(8)
    f = cancelling_map(rng, 16, 16, 0.2)
    g = cancelling_map(rng, 16, 16, 0.2)
    s = LinearMap.diagonal([rng.choice(CANCELLING) for _ in range(16)])
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__eq__", "__hash__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *a, _op=op, _name=name: calls.append(_name) or _op(*a))
    for h in (compose(f, g), compose(s, f), compose(f, s), kron(f, g), kron(s, g), kron(f, s)):
        assert_canonical(h)
    assert calls == []
