import itertools
import math
import random
import sys
import threading
from fractions import Fraction

import pytest

import dense_reference as dense
import homyd.exactlin as exactlin
from homyd.defformat import parse_definition, resolve_definition
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
from homyd.hom_algebra import AutPair, HopfAutomorphism, check_automorphism


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


def test_invert_diagonal_in_closed_form_matches_dense_reference(monkeypatch):
    # no elimination runs: a diagonal is inverted entry by entry, and the
    # inverse knows its diagonal from the start
    monkeypatch.setattr("homyd.exactlin._gauss_jordan", None)
    rng = random.Random(18)
    kinds = {
        "integral": lambda: rng.choice((1, 2, 3, 5, 6)),
        "fraction": lambda: Fraction(rng.randint(1, 9), rng.randint(2, 9)),
        "negative": lambda: -Fraction(rng.randint(1, 9), rng.choice((1, 1, 3, 4))),
        "mixed": lambda: Fraction(rng.randint(-9, 9) or 7, rng.randint(1, 6)),
    }
    for kind, draw in kinds.items():
        for n in (1, 2, 4, 16):
            for _ in range(6):
                d = LinearMap.diagonal([draw() for _ in range(n)])
                got = invert(d)
                assert got == dense.invert(d), kind
                assert object.__getattribute__(got, "_diag") == tuple(got._cols[j][j] for j in range(n))
                assert got._den > 0 and math.gcd(got._den, *stored_values(got)) == 1
                assert (got @ d).is_identity() and (d @ got).is_identity()
    eye = LinearMap.identity(5)
    assert invert(eye) is eye
    # a diagonal whisker, I (x) d, is inverted without building its columns
    w = kron(LinearMap.identity(2), LinearMap.diagonal([2, rat(-1, 3)]))
    wi = invert(w)
    with pytest.raises(AttributeError):
        object.__getattribute__(w, "_cols")
    assert wi == dense.invert(w) == LinearMap.diagonal([rat(1, 2), -3, rat(1, 2), -3])


def test_invert_diagonal_with_a_zero_on_it_is_singular():
    for values in ([0], [1, 0, 2], [rat(1, 2), 3, 0], [0, 0]):
        d = LinearMap.diagonal(values)
        assert d._diag is None
        with pytest.raises(SingularMap) as want:
            dense.invert(d)
        with pytest.raises(SingularMap) as got:
            invert(d)
        assert str(got.value) == str(want.value)


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
    # a zero dimension gives a map with no rows or no columns
    for dims in ((2, 3, 4), (4, 4, 4), (1, 4, 1), (3, 1, 2), (0, 0, 0), (3, 2, 0), (2, 0, 3)):
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
# single-entry columns, and the columns of f that a unit column of a right
# whisker hands over
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
    w = kron(s, LinearMap.identity(2))
    # lower triangular with a nonzero diagonal, so h below is invertible
    f = LinearMap.from_rows([
        [rng.choice((1, 2, rat(-1, 3))) if i == j else rng.choice((0, 0, 1, rat(1, 2))) if j < i else 0
         for j in range(16)]
        for i in range(16)
    ])
    h = compose(f, w)
    # a column of s whose one numerator is 1 hands the 2 columns of f that
    # the whisker s (x) I_2 selects over as they are; h keeps the product of
    # the denominators, so no reduction replaced the columns
    assert h._den == f._den * s._den
    shared = sum(1 for hc in h._cols for fc in f._cols if hc is fc)
    assert shared == 2 * sum(1 for e in stored_values(s) if e == 1)
    before_f, before_h = snapshot(f), snapshot(h)
    # every kernel operation that reads the shared columns
    assert compose(h, h) == dense.compose(h, h)
    assert compose(w, h) == dense.compose(w, h) and compose(h, w) == dense.compose(h, w)
    assert kron(h, s) == dense.kron(h, s) and kron(s, h) == dense.kron(s, h)
    assert compose(invert(h), h).is_identity()
    assert h.transpose().transpose() == h
    assert h.apply([1] * 16) == tuple(sum(h.row(i)) for i in range(16))
    assert snapshot(f) == before_f and snapshot(h) == before_h


# ---------------------------------------------------------------------------
# fraction-free storage: numerators over one shared denominator, left
# unreduced by products, against the dense reference on maps whose
# denominators cancel
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


def reduced(f):
    """f in lowest terms, as _reduced makes it."""
    return exactlin._reduced(f.rows, f._cols, f._den)


def assert_kernel_form(f):
    """int numerators, none zero, over a positive int denominator no larger
    than the bound; f equals, and hashes as, its lowest terms, which
    share no factor with the denominator and are over 1 for an integral map."""
    nums = stored_values(f)
    assert all(type(n) is int and n for n in nums)
    assert type(f._den) is int and 0 < f._den <= exactlin._BOUND
    low = reduced(f)
    assert f == low and low == f and hash(f) == hash(low)
    assert math.gcd(low._den, *stored_values(low)) == 1


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
            assert_kernel_form(got)
            assert got == want and hash(got) == hash(want)
            assert got.entries == want.entries
        vec = [rng.choice(CANCELLING + (0,)) for _ in range(inner)]
        assert f.apply(vec) == dense.apply(f, vec)
        assert all(type(x) is Fraction for x in f.apply(vec))
        values = [rng.choice(CANCELLING + (0, 0, 4)) for _ in range(rows * cols)]
        h = LinearMap(rows, cols, values)
        assert_kernel_form(h)
        assert h.entries == tuple(values)
        assert [type(x) for x in h.entries] == [read_type(x) for x in values]
        for i in range(0, rows, 7):
            assert h.row(i) == tuple(values[i * cols:(i + 1) * cols])
            assert [type(x) for x in h.row(i)] == [read_type(x) for x in h.row(i)]
        for j in range(0, cols, 7):
            assert h.column(j) == tuple(values[j::cols])
            assert [type(x) for x in h.column(j)] == [read_type(x) for x in h.column(j)]


def test_fraction_free_results_cancel_to_canonical_form():
    # compose keeps the product of the denominators, and the lowest terms
    # that == and hash read cancel it now and then
    rng = random.Random(3)
    cancelled = 0
    for _ in range(60):
        f = cancelling_map(rng, 4, 4, 0.5)
        g = cancelling_map(rng, 4, 4, 0.5)
        h = compose(f, g)
        assert_kernel_form(h)
        assert h == dense.compose(f, g)
        assert h._den == f._den * g._den
        cancelled += reduced(h)._den < h._den
    assert cancelled


@pytest.mark.parametrize("n", [1, 4, 16])
def test_maps_equal_in_value_are_equal_and_hash_equal_by_any_route(n):
    half, two = LinearMap.diagonal([rat(1, 2)] * n), LinearMap.diagonal([2] * n)
    for one in (half @ two, two @ half, kron(LinearMap.identity(1), half @ two),
                invert(half) @ half, LinearMap.from_cols([[rat(i == j) for i in range(n)] for j in range(n)])):
        assert_kernel_form(one)
        assert one == LinearMap.identity(n) and hash(one) == hash(LinearMap.identity(n))
        assert reduced(one)._den == 1 and one.is_identity()
    rng = random.Random(n)
    k = 4
    f = cancelling_map(rng, n, k, 0.6)
    g = cancelling_map(rng, k, n, 0.6)
    third, three = LinearMap.diagonal([rat(1, 3)] * k), LinearMap.diagonal([3] * k)
    direct = kron(f, g)
    routed = kron(f @ third, three @ g)
    assert_kernel_form(routed)
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
    wide, tall = cancelling_map(rng, 8, 64, 0.2), cancelling_map(rng, 64, 8, 0.2)
    calls = []
    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__",
                 "__truediv__", "__rtruediv__", "__eq__", "__hash__"):
        op = getattr(Fraction, name)
        monkeypatch.setattr(Fraction, name, lambda *a, _op=op, _name=name: calls.append(_name) or _op(*a))
    # whiskers I2 (x) s (x) I2 and f (x) I4, composed on either side and
    # with each other, and built at the end by assert_kernel_form
    left, right = kron(LinearMap.identity(2), kron(s, LinearMap.identity(2))), kron(f, LinearMap.identity(4))
    # s and the whisker left are diagonal, and kron of two of them is a
    # diagonal
    s4 = LinearMap.diagonal([rng.choice(CANCELLING) for _ in range(4)])
    for h in (compose(f, g), compose(s, f), compose(f, s), kron(f, g), kron(s, g), kron(f, s),
              compose(left, tall), compose(wide, right), compose(left, right), compose(right, left),
              compose(right, kron(LinearMap.identity(4), s)), compose(kron(LinearMap.identity(4), s), left),
              compose(LinearMap.identity(16), f), compose(f, LinearMap.identity(16)), kron(s, s),
              kron(left, s4), kron(s4, left),
              compose(kron(wide, LinearMap.identity(2)), kron(LinearMap.identity(2), tall)),
              left, right):
        assert_kernel_form(h)
    assert calls == []


def test_kron_keeps_the_product_denominator():
    # a product of two diagonals, like any other product, keeps the product
    # of its factors' denominators, as compose does, and is reduced where it
    # is compared; 1/2 * 2, 1/2 * 4, 3/2 * 2, 3/2 * 4: the denominator 2
    # cancels in every product
    h = kron(LinearMap.diagonal([rat(1, 2), rat(3, 2)]), LinearMap.diagonal([2, 4]))
    assert_kernel_form(h)
    assert h._den == 2 and stored_values(h) == [2, 4, 6, 12]
    low = reduced(h)
    assert low._den == 1 and stored_values(low) == [1, 2, 3, 6]
    assert h == LinearMap.diagonal([1, 2, 3, 6])
    rng = random.Random(12)
    cancelled = 0
    for _ in range(40):
        f = cancelling_map(rng, 3, 4, 0.5)
        g = LinearMap(2, 3, [rng.choice((0, 2, -4, 6, rat(4, 3))) for _ in range(6)])
        for got, want in ((kron(f, g), dense.kron(f, g)), (kron(g, f), dense.kron(g, f))):
            assert_kernel_form(got)
            assert got == want and hash(got) == hash(want)
            assert got._den == f._den * g._den
            cancelled += reduced(got)._den < got._den
    assert cancelled


# ---------------------------------------------------------------------------
# whiskers: kron with an identity factor holds (a, x, b), and compose reads
# it through index offsets without building its columns
# ---------------------------------------------------------------------------


def built(f):
    """Whether f's columns are stored; a whisker builds them on first read."""
    try:
        LinearMap._cols.__get__(f)
    except AttributeError:
        return False
    return True


def eye(n):
    return LinearMap.identity(n)


#: (name, factors of the kron, the whisker's (a, x-shape, b)); x is a 4 x 4
#: map, except in I4 (x) I16, which is an identity
WHISKER_SHAPES = [
    ("I4(x)X", lambda x: (eye(4), x), (4, 1)),
    ("X(x)I4", lambda x: (x, eye(4)), (1, 4)),
    ("I16(x)X", lambda x: (eye(16), x), (16, 1)),
    ("I4(x)I16", lambda x: (eye(4), eye(16)), None),
    ("I4(x)(X(x)I4)", lambda x: (eye(4), kron(x, eye(4))), (4, 4)),
]


@pytest.mark.parametrize("name, factors, legs", WHISKER_SHAPES, ids=[s[0] for s in WHISKER_SHAPES])
def test_whiskers_match_dense_reference(name, factors, legs):
    rng = random.Random(name)
    for _ in range(4):
        x = cancelling_map(rng, 4, 4, 0.4)
        f, g = factors(x)
        w = kron(f, g)
        want = dense.kron(f, g)
        if legs is None:
            assert w._whisker is None and w.is_identity()
        else:
            a, xw, b = w._whisker
            assert (a, b) == legs and xw is x
            assert not built(w)
            assert not w.is_identity()
            assert not built(w)  # is_identity built no columns
        assert (w.rows, w.cols, w._den) == (want.rows, want.cols, want._den)
        assert w == want and want == w and hash(w) == hash(want)
        assert built(w)
        assert_kernel_form(w)
        assert w.entries == want.entries
        assert kron(f, g).transpose() == dense.transpose(want)
        vec = [rng.choice(CANCELLING + (0,)) for _ in range(w.cols)]
        assert kron(f, g).apply(vec) == dense.apply(want, vec)


def shift(rng, n, kind):
    """The cyclic shift e_j -> e_j+1 on n > 1 coordinates, never an
    identity, with its columns scaled by values from CANCELLING (1 among
    them) when kind is "scaled"."""
    scales = [rng.choice(CANCELLING) if kind == "scaled" else 1 for _ in range(n)]
    return LinearMap.from_cols([[scales[j] if r == (j + 1) % n else 0 for r in range(n)] for j in range(n)])


@pytest.mark.parametrize("kind", ["random", "permutation", "scaled"])
def test_compose_reads_whiskers_on_either_side_against_dense_reference(kind):
    rng = random.Random(len(kind) + 1)
    for n, (a, b) in itertools.product((2, 4), ((4, 1), (1, 4), (2, 3), (1, 16))):
        x = cancelling_map(rng, n, n + 1, 0.5) if kind == "random" else shift(rng, n, kind)
        w = kron(kron(eye(a), x), eye(b))
        assert w._whisker == (a, x, b)
        f = cancelling_map(rng, 5, w.rows, 0.3)
        g = cancelling_map(rng, w.cols, 5, 0.3)
        s, p = selector(rng, w.cols, "scaled"), selector(rng, w.cols, "permutation")
        got = [compose(f, w), compose(w, g), compose(w, s), compose(w, p)]
        assert not built(w)
        # whiskers on both sides: the left one is read unbuilt, and the
        # right one builds its columns
        v = kron(eye(w.rows // n), shift(rng, n, "scaled"))
        got.append(compose(v, w))
        assert not built(v) and built(w)
        want = [dense.compose(f, w), dense.compose(w, g), dense.compose(w, s), dense.compose(w, p),
                dense.compose(v, w)]
        for h, d in zip(got, want):
            assert_kernel_form(h)
            assert h == d and hash(h) == hash(d)
            assert h.entries == d.entries


def test_compose_hands_over_columns_through_whiskers():
    rng = random.Random(21)
    f = cancelling_map(rng, 4, 16, 0.5)
    # each column of the shift selects, and hands over, 4 columns of f
    w = kron(shift(rng, 4, "permutation"), eye(4))
    h = compose(f, w)
    assert not built(w) and h._den == f._den
    assert sum(1 for hc in h._cols for fc in f._cols if hc is fc) == 16
    assert h == dense.compose(f, w)


def test_is_identity_reads_the_stored_columns():
    n = 3
    assert (LinearMap.diagonal([rat(1, 2)] * n) @ LinearMap.diagonal([2] * n)).is_identity()
    assert LinearMap.identity(0).is_identity() and kron(eye(2), eye(3)).is_identity()
    # numerators of an identity over the denominator 2, a scaled identity,
    # a permutation and non-square maps
    for f in (LinearMap.diagonal([rat(1, 2)] * n), LinearMap.diagonal([1, 2, 1]), flip(2, 2),
              LinearMap.zeros(2, 3), LinearMap.from_rows([[1, 0, 0], [0, 1, 0]])):
        assert not f.is_identity()


def test_threads_racing_to_build_a_whisker_read_equal_columns():
    rng = random.Random(30)
    x = cancelling_map(rng, 8, 8, 0.4)
    want = dense.kron(eye(4), dense.kron(x, eye(4)))
    rounds, workers = 20, 8
    whiskers = [kron(eye(4), kron(x, eye(4))) for _ in range(rounds)]
    seen = [[] for _ in range(workers)]
    start = threading.Barrier(workers)

    def read(out):
        start.wait(timeout=30)
        for w in whiskers:
            out.append((w.entries, hash(w), w.column(5)))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(out,)) for out in seen]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert all(out == [(want.entries, hash(want), want.column(5))] * rounds for out in seen)
    assert all(w == want for w in whiskers)


# ---------------------------------------------------------------------------
# whisker on whisker, and the diagonal predicate: compose reads the left
# whisker through index offsets, and an identity operand takes a shortcut
# ---------------------------------------------------------------------------


def whisker(a, x, b):
    """I_a (x) x (x) I_b through kron, flattened to one whisker."""
    return kron(kron(eye(a), x), eye(b))


def unit_columns(rng, rows, cols):
    """A rows x cols map whose columns each hold one value from CANCELLING,
    1 among them, on a random row."""
    return LinearMap.from_cols([
        [rng.choice(CANCELLING) if r == i else 0 for r in range(rows)]
        for i in (rng.randrange(rows) for _ in range(cols))
    ])


#: (name, (a, x shape, b), (c, y shape, d)) of (I_a (x) x (x) I_b) . (I_c (x) y (x) I_d);
#: the first three are the most frequent shapes of a tcat run, where X is
#: a map with one entry per column in the third
WHISKER_PAIRS = [
    ("(1,X16x64,4)@(16,Y16x16,1)", (1, (16, 64), 4), (16, (16, 16), 1)),
    ("(4,X4x16,1)@(1,Y16x4,4)", (4, (4, 16), 1), (1, (16, 4), 4)),
    ("(16,D4x16,1)@(1,Y64x16,4)", (16, (4, 16), 1), (1, (64, 16), 4)),
    ("nested(2,X3x4,2)@(2,Y4x3,2)", (2, (3, 4), 2), (2, (4, 3), 2)),
    ("strides(2,X3x6,2)@(3,Y8x2,1)", (2, (3, 6), 2), (3, (8, 2), 1)),
]


@pytest.mark.parametrize("name, left, right", WHISKER_PAIRS, ids=[w[0] for w in WHISKER_PAIRS])
def test_compose_of_two_whiskers_leaves_the_left_unbuilt(name, left, right):
    rng = random.Random(name)
    (a, (xr, xc), b), (c, (yr, yc), d) = left, right
    for _ in range(3):
        x = unit_columns(rng, xr, xc) if name.startswith("(16,D") else cancelling_map(rng, xr, xc, 0.3)
        y = cancelling_map(rng, yr, yc, 0.3)
        if name.startswith("nested"):
            f, g = kron(eye(a), kron(x, eye(b))), kron(kron(eye(c), y), eye(d))
        else:
            f, g = whisker(a, x, b), whisker(c, y, d)
        assert f._whisker == (a, x, b) and g._whisker == (c, y, d)
        h = compose(f, g)
        assert not built(f)
        assert_kernel_form(h)
        want = dense.compose(f, g)
        assert h == want and hash(h) == hash(want)
        assert h.entries == want.entries


UNSET = object()


def stored_diag(f):
    """f's _diag slot as stored, or UNSET before its first read."""
    try:
        return LinearMap._diag.__get__(f)
    except AttributeError:
        return UNSET


def nonzero_diagonal(rng, n):
    return LinearMap.diagonal([rng.choice(CANCELLING) for _ in range(n)])


def test_diagonal_predicate_returns_the_diagonal_numerators():
    rng = random.Random(40)
    d = nonzero_diagonal(rng, 8)
    assert stored_diag(d) is UNSET
    assert d._diag == tuple(d._cols[j][j] for j in range(8))
    assert stored_diag(d) == d._diag
    assert eye(5)._diag == (1,) * 5 and eye(5).is_identity()
    # all-ones numerators over the denominator 2 are half the identity
    half = LinearMap.diagonal([rat(1, 2)] * 5)
    assert half._diag == (1,) * 5 and not half.is_identity()
    # a zero on the diagonal, a scaled permutation, a non-square map and a
    # column with an entry off the diagonal are not diagonal
    zero = LinearMap.diagonal([2, 0, rat(1, 3), 1])
    off = LinearMap.from_cols([[1, 0, 0], [0, 2, 1], [0, 0, 3]])
    for f in (zero, shift(rng, 6, "scaled"), shift(rng, 6, "permutation"), LinearMap.zeros(3, 2), off):
        assert f._diag is None and not f.is_identity()
    # a whisker of a diagonal reads its diagonal off the middle factor
    w = whisker(2, d, 3)
    assert w._diag == tuple(n for n in d._diag for _ in range(3)) * 2
    assert not built(w) and not w.is_identity()
    assert whisker(4, cancelling_map(rng, 3, 3, 1.0), 1)._diag is None


def test_diagonal_and_identity_paths_match_dense_reference():
    rng = random.Random(41)
    n = 16
    d, d4 = nonzero_diagonal(rng, n), nonzero_diagonal(rng, 4)
    x, tall, wide = cancelling_map(rng, n, n, 0.3), cancelling_map(rng, n, 5, 0.4), cancelling_map(rng, 5, n, 0.4)
    # identity on either side returns the other operand itself
    assert compose(eye(n), x) is x and compose(x, eye(n)) is x and compose(eye(n), tall) is tall
    w = kron(eye(4), x)
    assert compose(eye(4 * n), w) is w and compose(w, eye(4 * n)) is w and not built(w)
    half = LinearMap.diagonal([rat(1, 2)] * n)
    dw = whisker(4, d4, 1)
    zero = LinearMap.diagonal([rng.choice(CANCELLING) if j % 5 else 0 for j in range(n)])
    perm = shift(rng, n, "scaled")
    cases = [(d, x), (d, tall), (x, d), (wide, d), (half, x), (d, d), (zero, x), (x, zero), (perm, x),
             (x, perm), (zero, d), (d, zero), (dw, x), (dw, tall)]
    pairs = ((d, d4), (d4, d), (half, d4), (dw, d4), (d4, dw), (zero, d4), (perm, d4), (d4, perm))
    # the kernel reads the diagonal whisker dw without building it; the
    # dense reference, which reads entries, builds it afterwards
    got = [compose(f, g) for f, g in cases] + [kron(f, g) for f, g in pairs]
    assert not built(dw)
    want = [dense.compose(f, g) for f, g in cases] + [dense.kron(f, g) for f, g in pairs]
    for h, w in zip(got, want):
        assert_kernel_form(h)
        assert h == w and hash(h) == hash(w) and h.entries == w.entries
    for (f, g), h in zip(pairs, got[len(cases):]):
        if f._diag is not None and g._diag is not None:
            # built as a diagonal: its diagonal is stored, not scanned for
            assert stored_diag(h) == tuple(h._cols[j][j] for j in range(h.rows))
        else:
            assert stored_diag(h) is UNSET
    # the product of two diagonals is built as one over the product of
    # their denominators, which == cancels
    h = kron(LinearMap.diagonal([rat(1, 2), rat(3, 2)]), LinearMap.diagonal([2, 4]))
    assert h._den == 2 and stored_diag(h) == (2, 4, 6, 12)
    assert h == LinearMap.diagonal([1, 2, 3, 6])


# ---------------------------------------------------------------------------
# lazy reduction: a product keeps the product of its operands' denominators,
# and a map is read in lowest terms only where it is compared or hashed
# ---------------------------------------------------------------------------


def rescaled(f):
    """f over twice its denominator, through two products that are not
    identities: f . 2 . 1/2 stores every numerator of f doubled."""
    n = f.cols
    return compose(compose(f, LinearMap.diagonal([2] * n)), LinearMap.diagonal([rat(1, 2)] * n))


def test_maps_over_different_denominators_are_equal_and_hash_equal():
    rng = random.Random(50)
    h = build_h4(rat(-3, 2))
    for f in (h.alpha, h.antipode, cancelling_map(rng, 4, 4, 0.6), cancelling_map(rng, 6, 3, 0.5),
              LinearMap.zeros(2, 2)):
        g = rescaled(f)
        assert g._den == 2 * f._den and stored_values(g) == [2 * n for n in stored_values(f)]
        assert g == f and f == g and hash(g) == hash(f)
        assert g == dense.compose(dense.compose(f, LinearMap.diagonal([2] * f.cols)),
                                  LinearMap.diagonal([rat(1, 2)] * f.cols))
    # one entry off, over either denominator, is another map
    f = h.alpha
    for other in (LinearMap.diagonal([1, 1, rat(-3, 2), rat(-2, 3)]), rescaled(LinearMap.diagonal([1, 1, 2, 3]))):
        assert other != f and other != rescaled(f) and rescaled(f) != other
    a, b = HopfAutomorphism(h.alpha), HopfAutomorphism(rescaled(h.alpha))
    assert a.matrix._den != b.matrix._den
    assert a == b and hash(a) == hash(b)
    s = HopfAutomorphism(h.antipode)
    assert AutPair(a, s) == AutPair(b, HopfAutomorphism(rescaled(h.antipode)))
    assert hash(AutPair(a, s)) == hash(AutPair(b, HopfAutomorphism(rescaled(h.antipode))))
    assert len({AutPair(a, s), AutPair(b, s), AutPair(s, a)}) == 2


def test_a_den_scaled_identity_takes_the_identity_paths():
    n = 4
    e = compose(LinearMap.diagonal([2] * n), LinearMap.diagonal([rat(1, 2)] * n))
    # the numerators 2 over the denominator 2
    assert e._den == 2 and e._diag == (2,) * n
    assert e.is_identity() and e == LinearMap.identity(n) and hash(e) == hash(LinearMap.identity(n))
    rng = random.Random(51)
    x = cancelling_map(rng, n, n, 0.5)
    assert compose(e, x) is x and compose(x, e) is x and compose(e, e) is e
    assert kron(e, x)._whisker == (n, x, 1) and kron(x, e)._whisker == (1, x, n)
    assert kron(e, e).is_identity() and kron(e, e) is LinearMap.identity(n * n)
    assert invert(e) is e
    h = build_h4(rat(-3, 2))
    for phi in (HopfAutomorphism(e), e):
        report = check_automorphism(h, phi)
        assert [(item.identity, item.passed) for item in report][0] == ("aut-invertible", True)
        assert report.ok()


def chain_step(k, d, di, ops):
    """Step k of a chain of 8 x 8 products through ops (exactlin or the
    dense reference): d and its inverse di in turn, on either side of the
    product so far, through a whisker or a diagonal kron, so that its value
    stays L m R with L and R each d, di or the identity on a leg."""
    step, scale = (d, [3, rat(1, 3)]) if k % 2 == 0 else (di, [rat(1, 3), 3])
    kind = k % 3
    if kind == 0:
        return lambda got: ops.compose(got, ops.kron(eye(2), step))
    if kind == 1:
        return lambda got: ops.compose(ops.kron(step, eye(2)), got)
    return lambda got: ops.compose(got, ops.kron(LinearMap.diagonal(scale), step))


def test_a_long_chain_of_products_stays_under_the_bound(monkeypatch):
    # the stored denominators multiply by 6 to 90 at each of the 48 steps,
    # and unreduced would pass 2**62 within 16 of them; a product past the
    # bound is reduced where it is made
    calls = []
    original = exactlin._reduced

    def counted(*args):
        calls.append(sys._getframe(1).f_code.co_name)
        return original(*args)

    monkeypatch.setattr(exactlin, "_reduced", counted)
    rng = random.Random(52)
    d = LinearMap.diagonal([rat(1, 2), 3, rat(2, 3), 5])
    di = invert(d)
    m = cancelling_map(rng, 8, 8, 0.6)
    got, want = m, m
    for k in range(48):
        got = chain_step(k, d, di, exactlin)(got)
        want = chain_step(k, d, di, dense)(want)
        assert 0 < got._den <= exactlin._BOUND
    assert got == want and hash(got) == hash(want) and got.entries == want.entries
    assert set(calls) == {"_product", "__hash__"} and calls.count("_product") >= 2
    # kron of two maps over stored denominators whose product passes the
    # bound, diagonal or not
    big = compose(compose(d, d), di)
    lhs = compose(compose(m, kron(eye(2), d)), kron(eye(2), di))
    assert big == d and lhs == m and big._den > reduced(big)._den and lhs._den > reduced(lhs)._den
    assert big._den ** 2 > exactlin._BOUND and lhs._den * big._den > exactlin._BOUND
    calls.clear()
    k = kron(big, big)
    assert calls == ["kron"] and 0 < k._den <= exactlin._BOUND
    assert k == dense.kron(d, d) and k._diag == tuple(k._cols[j][j] for j in range(16))
    calls.clear()
    k = kron(lhs, big)
    assert calls == ["_product"] and 0 < k._den <= exactlin._BOUND
    assert k == dense.kron(m, d)


def test_an_identity_is_shared_per_size():
    for n in (0, 1, 4, 64):
        assert LinearMap.identity(n) is LinearMap.identity(n)
        assert LinearMap.identity(n).is_identity()
    assert LinearMap.identity(4) is not LinearMap.identity(16)


def assert_cleared(f, grid):
    """f is the rows x cols grid of scalars, stored as int numerators of its
    nonzero entries alone over the lcm of their denominators, which shares
    no factor with all of them."""
    values = {(i, j): Fraction(v) for i, row in enumerate(grid) for j, v in enumerate(row) if Fraction(v)}
    den = math.lcm(1, *(v.denominator for v in values.values()))
    assert (f.rows, f.cols) == (len(grid), len(grid[0]))
    assert f._den == den
    assert {(i, j): n for j, col in enumerate(f._cols) for i, n in col.items()} == {
        key: v * den for key, v in values.items()}
    assert all(type(n) is int for n in stored_values(f))
    assert math.gcd(den, *stored_values(f)) == 1


def test_every_constructor_clears_its_scalars_to_their_least_common_denominator():
    # int, Fraction and string scalars, zeros of each kind among them
    grid = [[1, "-3/4", 0, Fraction(0)], [Fraction(5, 6), "0", "2", 0], [0, 0, "-7", Fraction(4, 3)]]
    columns = [list(col) for col in zip(*grid)]
    assert_cleared(LinearMap(3, 4, [v for row in grid for v in row]), grid)
    assert_cleared(LinearMap.from_rows(grid), grid)
    assert_cleared(LinearMap.from_cols(columns), grid)
    assert_cleared(LinearMap.diagonal(["2/3", 0, -4, Fraction(5, 2)]),
                   [["2/3", 0, 0, 0], [0, 0, 0, 0], [0, 0, -4, 0], [0, 0, 0, "5/2"]])
    # t[i, j, k] is the e_k coefficient of e_i e_j: column i * 2 + j, row k
    table = {(0, 0, 0): 1, (0, 1, 1): "3/4", (1, 0, 1): Fraction(2, 3), (1, 1, 0): "0"}
    assert_cleared(table_map((2, 2, 2), table, 1), [[1, 0, 0, 0], [0, "3/4", "2/3", 0]])
    algebra = resolve_definition(parse_definition(
        "[params]\nc = 3/4\n\n[algebra A]\nbasis: u v\nunit: u\nmul: u u -> u\nmul: u v -> c * v\n"
        "mul: v u -> 2/3 * v\nmul: v v -> 0\nalpha: u -> u\nalpha: v -> 5/6 * v\n")).get("A")[1]
    assert_cleared(algebra.mul, [[1, 0, 0, 0], [0, "3/4", "2/3", 0]])
    assert_cleared(algebra.alpha, [[1, 0], [0, "5/6"]])
    # Gauss-Jordan and the closed-form diagonal inverse
    assert_cleared(invert(LinearMap.from_rows([["1/2", 1], [0, "3"]])), [[2, "-2/3"], [0, "1/3"]])
    assert_cleared(invert(LinearMap.diagonal(["2/3", -4, Fraction(5, 2)])),
                   [["3/2", 0, 0], [0, "-1/4", 0], [0, 0, "2/5"]])
