import copy
import math
import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from catdet import families as fam
from catdet import linalg
from catdet.exact import binomial
from catdet.linalg import (
    FRAC,
    INT,
    QPOLY,
    QRAT,
    BandedMinors,
    Matrix,
    Ring,
    _det_kronecker,
    _pack,
    clear_row,
    det,
    det_bareiss,
    det_cofactor,
    det_condensation,
    matvec,
    rank,
)
from catdet.qseries import ONE, Q, QPoly, QRat, q_int
from catdet.sequences import ballot

INTRO_4X4 = Matrix.from_rows(
    [
        [1, 1, 0, 0],
        [1, 3, 1, 0],
        [1, 6, 5, 1],
        [1, 10, 15, 7],
    ],
    INT,
)


def random_int_matrix(rng, n, lo=-9, hi=9):
    return Matrix(n, n, [rng.randint(lo, hi) for _ in range(n * n)], INT)


def random_qpoly(rng):
    terms = [(rng.randint(0, 3), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))]
    return QPoly(terms)


def random_qpoly_matrix(rng, n):
    return Matrix(n, n, [random_qpoly(rng) for _ in range(n * n)], QPOLY)


def test_entry_count_must_match_dimensions():
    with pytest.raises(ValueError):
        Matrix(2, 2, [1, 2, 3], INT)
    with pytest.raises(ValueError):
        det_bareiss(Matrix(2, 3, [1, 2, 3, 4, 5, 6], INT))


def test_trivial_determinants():
    assert det_bareiss(Matrix(0, 0, [], INT)) == 1
    assert det_condensation(Matrix(0, 0, [], INT)) == 1
    assert det_cofactor(Matrix(0, 0, [], INT)) == 1
    m = Matrix(1, 1, [7], INT)
    assert det_bareiss(m) == 7
    assert det_condensation(m) == 7


def test_intro_matrix_is_catalan_4():
    assert det_bareiss(INTRO_4X4) == 14
    assert det_condensation(INTRO_4X4) == 14
    assert det_cofactor(INTRO_4X4) == 14


def test_hankel_2x2_catalan():
    m = Matrix.from_rows([[2, 5], [5, 14]], INT)
    assert det_cofactor(m) == 3
    assert det_condensation(m) == 3


def test_engines_agree_on_random_integer_matrices():
    rng = random.Random(1234)
    for _ in range(80):
        n = rng.randint(0, 6)
        m = random_int_matrix(rng, n)
        d = det_cofactor(m)
        assert det_bareiss(m) == d
        assert det_condensation(m) == d


def test_engines_agree_on_random_qpoly_matrices():
    rng = random.Random(99)
    for _ in range(25):
        n = rng.randint(1, 4)
        m = random_qpoly_matrix(rng, n)
        d = det_cofactor(m)
        assert det_bareiss(m) == d
        assert det_condensation(m) == d
        assert _det_kronecker(m) == d


def test_engines_agree_on_fraction_matrices():
    rng = random.Random(5)
    for _ in range(20):
        n = rng.randint(1, 5)
        m = Matrix(
            n, n,
            [Fraction(rng.randint(-6, 6), rng.randint(1, 5)) for _ in range(n * n)],
            FRAC,
        )
        assert det_bareiss(m) == det_cofactor(m)


def _leibniz(m: Matrix):
    """sum over permutations s of sign(s) prod_i m[i, s(i)], the sign by counting inversions."""
    n, total = m.nrows, m.ring.zero
    for perm in permutations(range(n)):
        term = m.ring.one
        for i, j in enumerate(perm):
            term = term * m[i, j]
        inversions = sum(a > b for a, b in combinations(perm, 2))
        total = total - term if inversions % 2 else total + term
    return total


def test_cofactor_expansion_equals_the_leibniz_sum():
    rng = random.Random("cofactor-leibniz")
    for ring in (INT, FRAC, QPOLY):
        for n in range(7):
            m = Matrix(n, n, [_random_entry(rng, ring) for _ in range(n * n)], ring)
            assert det_cofactor(m) == _leibniz(m), (ring.name, n)


def test_cofactor_expansion_expands_each_row_set_once():
    # with every entry nonzero, each k-row minor on the last k columns
    # (2 <= k <= n) is expanded once, in k products: n 2^(n-1) - n in all
    products = [0]

    class Counted(int):
        def __mul__(self, other):
            products[0] += 1
            return int(self) * other

    counted = Ring("counted integer", 0, 1, Counted, INT.exact_div)
    rng = random.Random("cofactor-count")
    for n in (1, 2, 5, 9):
        products[0] = 0
        m = Matrix(n, n, [rng.choice((-3, -1, 2, 5)) for _ in range(n * n)], counted)
        d = det_cofactor(m)
        assert products[0] == n * 2 ** (n - 1) - n, n
        assert d == det_bareiss(m)


def test_det_transpose_invariance():
    rng = random.Random(42)
    for _ in range(30):
        m = random_int_matrix(rng, rng.randint(1, 5))
        assert det_bareiss(m) == det_bareiss(m.transpose())


def test_det_multiplicativity_4x4():
    rng = random.Random(7)
    for _ in range(20):
        a = random_int_matrix(rng, 4, -5, 5)
        b = random_int_matrix(rng, 4, -5, 5)
        assert det_bareiss(a * b) == det_bareiss(a) * det_bareiss(b)


def test_zero_pivot_row_swap_and_singular():
    m = Matrix.from_rows([[0, 1], [1, 0]], INT)
    assert det_bareiss(m) == -1
    singular = Matrix.from_rows([[1, 2], [2, 4]], INT)
    assert det_bareiss(singular) == 0
    with_zero_col = Matrix.from_rows([[0, 1, 2], [0, 3, 4], [0, 5, 6]], INT)
    assert det_bareiss(with_zero_col) == 0


def test_condensation_zero_interior_falls_back():
    m = Matrix.from_rows([[1, 2, 3], [4, 0, 6], [7, 8, 9]], INT)
    assert det_condensation(m) == det_cofactor(m)
    # 4x4 with zero in the interior minor during the second stage
    m2 = Matrix.from_rows(
        [[1, 1, 1, 1], [1, 1, 2, 3], [2, 1, 1, 4], [3, 4, 1, 1]], INT
    )
    assert det_condensation(m2) == det_cofactor(m2)


def test_inverse_identity_and_verification():
    # "the inverse of A is B" is checked as the one exact product A * B == I
    ident = Matrix.identity(4)
    assert ident * ident == ident
    m = Matrix.from_rows([[2, 1], [1, 1]], INT)
    assert m * Matrix.from_rows([[1, -1], [-1, 2]], INT) == Matrix.identity(2)
    assert m * Matrix.from_rows([[1, -1], [-1, 1]], INT) != Matrix.identity(2)
    # det(singular * B) = 0 for every B, so no candidate passes
    singular = Matrix.from_rows([[1, 2], [2, 4]], INT)
    for b in ([[1, 0], [0, 1]], [[-2, 1], [1, 0]], [[1, -2], [0, 1]]):
        assert singular * Matrix.from_rows(b, INT) != Matrix.identity(2)


def test_inverse_of_signed_binomial_is_ballot_triangle():
    n = 7
    signed = Matrix.build(
        n, n, lambda i, j: (-1) ** ((i - j) % 2) * binomial(i + j, i - j), INT
    )
    # Catalan triangle rows from the displayed table
    expected = [
        [1, 0, 0, 0, 0, 0, 0],
        [1, 1, 0, 0, 0, 0, 0],
        [2, 3, 1, 0, 0, 0, 0],
        [5, 9, 5, 1, 0, 0, 0],
        [14, 28, 20, 7, 1, 0, 0],
        [42, 90, 75, 35, 9, 1, 0],
        [132, 297, 275, 154, 54, 11, 1],
    ]
    table = Matrix.from_rows(expected, INT)
    assert signed * table == Matrix.identity(n)
    assert Matrix.build(n, n, ballot, INT) == table


def _dense_product(a: Matrix, b: Matrix) -> list:
    """The schoolbook triple loop, zero entries included."""
    return [
        sum((a[i, k] * b[k, j] for k in range(a.ncols)), a.ring.zero)
        for i in range(a.nrows)
        for j in range(b.ncols)
    ]


def _random_entry(rng, ring):
    if rng.random() < 0.4:
        return ring.zero
    c = rng.randint(-5, 5)
    if ring is INT:
        return c
    if ring is FRAC:
        return Fraction(c, rng.randint(1, 4))
    poly = QPoly([(rng.randint(-2, 3), c), (rng.randint(0, 3), rng.randint(-2, 2))])
    if ring is QPOLY:
        return poly
    return QRat(poly, QPoly([(0, 1), (rng.randint(1, 3), rng.choice([-1, 1]))]))


@pytest.mark.parametrize("ring", [INT, FRAC, QPOLY, QRAT], ids=lambda r: r.name)
def test_matrix_product_against_dense_triple_loop(ring):
    rng = random.Random(f"product:{ring.name}")
    shapes = [(0, 3, 2), (3, 0, 2), (2, 3, 0), (1, 1, 1), (3, 4, 2), (4, 4, 4), (5, 2, 6)]
    for rows, inner, cols in shapes:
        for _ in range(4):
            a = Matrix(rows, inner, [_random_entry(rng, ring) for _ in range(rows * inner)], ring)
            b = Matrix(inner, cols, [_random_entry(rng, ring) for _ in range(inner * cols)], ring)
            product = a * b
            assert (product.nrows, product.ncols, product.ring) == (rows, cols, ring)
            assert list(product.data) == _dense_product(a, b)
    # an all-zero row of A gives an all-zero row of A * B
    a = Matrix(3, 3, [_random_entry(rng, ring) for _ in range(3)] + [ring.zero] * 3
               + [_random_entry(rng, ring) for _ in range(3)], ring)
    b = Matrix(3, 2, [_random_entry(rng, ring) for _ in range(6)], ring)
    product = a * b
    assert list(product.data) == _dense_product(a, b)
    assert product[1, 0] == product[1, 1] == ring.zero
    with pytest.raises(ValueError):
        a * Matrix.identity(2, ring)


def test_public_names_resolve():
    # every module's __all__ is checked against its own bindings in test_cli
    import catdet

    namespace = {}
    exec("from catdet import *", namespace)
    assert set(catdet.__all__) <= set(namespace)


def test_from_rows_rejects_ragged_rows():
    # 6 entries fit a 3 x 2 matrix, but the rows have lengths 2, 1 and 3
    with pytest.raises(ValueError, match="rows of different lengths"):
        Matrix.from_rows([[1, 2], [3], [4, 5, 6]], INT)
    with pytest.raises(ValueError, match="rows of different lengths"):
        Matrix.from_rows([[1], [2, 3]], FRAC)
    assert Matrix.from_rows([], INT).nrows == 0
    assert Matrix.from_rows([[1, 2], [3, 4]], INT) == Matrix(2, 2, [1, 2, 3, 4], INT)


def test_matvec_and_nullspace_check():
    m = Matrix.from_rows([[1, 2], [2, 4]], INT)
    assert matvec(m, [2, -1]) == [0, 0]
    assert matvec(m, [1, 0]) == [1, 2]
    assert matvec(m, [0, 0]) == [0, 0]


def test_rank():
    assert rank(Matrix.from_rows([[1, 2], [2, 4]], INT)) == 1
    assert rank(Matrix.identity(3)) == 3
    assert rank(Matrix(2, 3, [1, 2, 3, 2, 4, 6], INT)) == 1


def max_nonzero_minor_order(m: Matrix) -> int:
    """The largest r with a nonzero r x r minor of ``m``, each taken by cofactors."""
    for r in range(min(m.nrows, m.ncols), 0, -1):
        for rows in combinations(range(m.nrows), r):
            for cols in combinations(range(m.ncols), r):
                if det_cofactor(Matrix(r, r, [m[i, j] for i in rows for j in cols], m.ring)):
                    return r
    return 0


RANK_RINGS = [
    (INT, lambda rng: rng.randint(-3, 3)),
    (FRAC, lambda rng: Fraction(rng.randint(-3, 3), rng.randint(1, 3))),
    (QPOLY, random_qpoly),
    (QRAT, lambda rng: random_qrat(rng)),
]


@pytest.mark.parametrize("ring,draw", RANK_RINGS, ids=[r[0].name for r in RANK_RINGS])
def test_rank_is_the_largest_order_of_a_nonzero_minor(ring, draw):
    # A * B with inner size 0..4 has rank at most the inner size; a zeroed row
    # of A or column of B gives a zero row or column of the product
    rng = random.Random(f"rank:{ring.name}")
    for _ in range(40):
        nrows, inner, ncols = rng.randint(0, 4), rng.randint(0, 4), rng.randint(0, 4)
        a = [[draw(rng) for _ in range(inner)] for _ in range(nrows)]
        b = [[draw(rng) for _ in range(ncols)] for _ in range(inner)]
        if nrows and rng.random() < 0.3:
            a[rng.randrange(nrows)] = [ring.zero] * inner
        if ncols and rng.random() < 0.3:
            col = rng.randrange(ncols)
            for row in b:
                row[col] = ring.zero
        m = (Matrix(nrows, inner, [v for row in a for v in row], ring)
             * Matrix(inner, ncols, [v for row in b for v in row], ring))
        assert rank(m) == max_nonzero_minor_order(m) <= inner, m


def test_qpoly_matrix_det():
    m = Matrix.from_rows([[ONE, ONE], [Q, ONE + Q + Q * Q]], QPOLY)
    # [3] - q = 1 + q^2
    assert det_bareiss(m) == ONE + Q * Q


# -- lower Hessenberg expansion, with Bareiss as the independent route --------

def hessenberg_det(m):
    """det of a square lower Hessenberg matrix: its sweep at m = 1 (Hyman's method), read at its size."""
    n = linalg._square(m)
    data, zero = m.data, m.ring.zero
    return BandedMinors(lambda i, j: data[i * n + j] if j < n else zero, m.ring, 1)[n]


def random_hessenberg(rng, n, ring, entry):
    """Random n x n lower Hessenberg matrix; about one entry in four is zero."""
    return Matrix.build(
        n, n,
        lambda i, j: ring.zero if j > i + 1 or rng.random() < 0.25 else entry(rng),
        ring,
    )


def random_qrat(rng):
    den = random_qpoly(rng)
    return QRat(random_qpoly(rng), den if den else ONE)


HESSENBERG_RINGS = [
    (INT, 6, lambda rng: rng.randint(-9, 9)),
    (FRAC, 5, lambda rng: Fraction(rng.randint(-6, 6), rng.randint(1, 5))),
    (QPOLY, 4, random_qpoly),
    (QRAT, 4, random_qrat),
]


@pytest.mark.parametrize("ring,n_max,entry", HESSENBERG_RINGS,
                         ids=[r[0].name for r in HESSENBERG_RINGS])
def test_hessenberg_agrees_with_bareiss_and_cofactor(ring, n_max, entry):
    rng = random.Random(f"hessenberg:{ring.name}")
    for _ in range(40):
        m = random_hessenberg(rng, rng.randint(0, n_max), ring, entry)
        d = det_cofactor(m)
        assert hessenberg_det(m) == det_bareiss(m) == d
        assert det(m) == d


@pytest.mark.parametrize("ring,n_max,entry", HESSENBERG_RINGS,
                         ids=[r[0].name for r in HESSENBERG_RINGS])
def test_det_of_a_hessenberg_matrix_takes_no_sweep(monkeypatch, ring, n_max, entry):
    # det has one route per ring, whatever the shape: with the sweep engine
    # refusing, lower Hessenberg matrices still get their cofactor value
    def refuse(*args):
        raise AssertionError("det built a sweep")

    monkeypatch.setattr(linalg, "BandedMinors", refuse)
    rng = random.Random(f"hessenberg-det:{ring.name}")
    for _ in range(40):
        m = random_hessenberg(rng, rng.randint(0, n_max + 2), ring, entry)
        assert det(m) == det_cofactor(m)


def test_hessenberg_edge_cases():
    assert hessenberg_det(Matrix(0, 0, [], INT)) == 1
    assert hessenberg_det(Matrix(1, 1, [7], INT)) == 7
    assert hessenberg_det(Matrix(1, 1, [0], INT)) == 0
    # a zero superdiagonal entry splits the matrix into two diagonal blocks
    split = Matrix.from_rows([[2, 3, 0, 0], [1, 4, 0, 0], [5, 6, 7, 1], [8, 9, 2, 3]], INT)
    assert hessenberg_det(split) == det_bareiss(split) == 5 * 19
    # zero leading minors D_1 and D_2: no pivot is needed
    singular_lead = Matrix.from_rows([[0, 1, 0, 0], [0, 0, 1, 0], [1, 2, 3, 1], [4, 5, 6, 7]], INT)
    assert hessenberg_det(singular_lead) == det_cofactor(singular_lead) == 3
    zero_everywhere = Matrix.from_rows([[0, 0, 0], [0, 0, 0], [1, 1, 1]], INT)
    assert hessenberg_det(zero_everywhere) == 0


@pytest.mark.parametrize("matrix", [
    pytest.param(lambda: fam.build(fam.EQ1, 40), id="eq1-n40"),
    pytest.param(lambda: fam.build(fam.EQ1B, 40), id="eq1b-n40"),
    # the mod-3 lift of eq107 at c14's largest suite point
    pytest.param(lambda: Matrix.build(81, 81, lambda i, j: binomial(i + j + 1, i - j + 1) % 3,
                                      INT), id="eq107-mod3-n81"),
    pytest.param(lambda: fam.build(fam.EQ92, 8, k=4), id="eq92-n8-k4"),
])
def test_hessenberg_on_largest_family_points(matrix):
    m = matrix()
    assert hessenberg_det(m) == det_bareiss(m)


def test_det_on_dense_matrices_is_bareiss():
    rng = random.Random(2024)
    for _ in range(30):
        n = rng.randint(3, 6)
        m = random_int_matrix(rng, n)
        m = Matrix.build(n, n, lambda i, j: 1 if (i, j) == (0, 2) else m[i, j], INT)
        assert det(m) == det_bareiss(m)
    hankel = Matrix.from_rows([[1, 1, 2], [1, 2, 5], [2, 5, 14]], INT)
    assert det(hankel) == det_bareiss(hankel) == 1


def test_condensation_reports_its_fallback(monkeypatch):
    calls = []

    def bareiss(m):
        calls.append(m)
        return det_bareiss(m)

    monkeypatch.setattr(linalg, "det_bareiss", bareiss)
    interior_zero = Matrix.from_rows([[1, 2, 3], [4, 0, 6], [7, 8, 10]], INT)
    assert det_condensation(interior_zero) == det_bareiss(interior_zero) == 52
    assert calls == [interior_zero]
    calls.clear()
    assert det_condensation(INTRO_4X4) == det_bareiss(INTRO_4X4) == 14
    assert calls == []


@pytest.mark.parametrize("ring,draw", RANK_RINGS, ids=[r[0].name for r in RANK_RINGS])
def test_bareiss_det_is_zero_exactly_when_rank_is_short(ring, draw):
    # one elimination serves both: a column without a pivot ends det_bareiss
    # and is skipped by rank
    rng = random.Random(f"det-rank:{ring.name}")
    seen = set()
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [[draw(rng) for _ in range(n)] for _ in range(n)]
        if rng.random() < 0.3:
            rows[rng.randrange(n)] = [ring.zero] * n
        if rng.random() < 0.3:
            col = rng.randrange(n)
            for row in rows:
                row[col] = ring.zero
        m = Matrix.from_rows(rows, ring)
        d = det_bareiss(m)
        assert d == det_cofactor(m)
        assert (d == 0) == (rank(m) < n), m
        seen.add(d == 0)
    assert seen == {False, True}


def test_bareiss_stops_at_a_zero_first_column_without_dividing():
    divisions = []

    def exact_div(a, b):
        divisions.append((a, b))
        return INT.exact_div(a, b)

    counting = Ring("counting integer", 0, 1, int, exact_div)
    rng = random.Random("zero-first-column")
    for n in (2, 3, 5):
        m = Matrix.build(n, n, lambda i, j: 0 if j == 0 else rng.randint(1, 9), counting)
        assert det_bareiss(m) == 0
    assert divisions == []
    assert det_bareiss(Matrix.from_rows([[1, 2, 3], [4, 5, 6], [7, 8, 10]], counting)) == -3
    assert divisions


def test_hessenberg_rejects_other_matrices():
    with pytest.raises(ValueError):
        hessenberg_det(Matrix.from_rows([[1, 0, 1], [0, 1, 0], [0, 0, 1]], INT))
    with pytest.raises(ValueError):
        hessenberg_det(INTRO_4X4.transpose())
    with pytest.raises(ValueError):
        hessenberg_det(Matrix(2, 3, [1, 2, 3, 4, 5, 6], INT))


# -- leading-minor sweeps ------------------------------------------------------

def test_leading_minors_out_of_order_equal_fresh_values():
    for family in (fam.EQ1, fam.EQ83):  # integer rows, then packed q-polynomial rows
        entry, ring = family.entry, family.ring
        minors = BandedMinors(entry, ring, 1)
        got = [minors[n] for n in (9, 3, 12)]
        assert got == [BandedMinors(entry, ring, 1)[n] for n in (9, 3, 12)]
        assert got == [det_bareiss(fam.build(family, n)) for n in (9, 3, 12)]
        assert len(minors) == 13
        assert minors[0] == 1
        with pytest.raises(IndexError):
            minors[-1]


def test_leading_minors_grow_any_hessenberg_entries():
    # zero superdiagonal entries and zero leading minors, in every ring
    rng = random.Random("leading-minors")
    for ring, _, draw in HESSENBERG_RINGS:
        m = random_hessenberg(rng, 7, ring, draw)
        minors = BandedMinors(lambda i, j: m[i, j] if j < 7 else ring.zero, ring, 1)
        for n in (7, 0, 4):
            block = Matrix.build(n, n, lambda i, j: m[i, j], ring)
            assert minors[n] == det_cofactor(block)


def test_leading_minors_reject_an_entry_above_the_superdiagonal_at_its_column():
    def entry(i, j):
        if (i, j) == (1, 4):
            return 5
        return binomial(i + j + 1, i - j + 1)

    minors = BandedMinors(entry, INT, 1)
    assert minors[4] == det_bareiss(fam.build(fam.EQ1, 4))
    with pytest.raises(ValueError, match=r"\(1, 4\)"):
        minors[5]
    with pytest.raises(ValueError):
        minors[9]
    assert minors[4] == 14
    # a request past the column fails even when nothing was read before it
    with pytest.raises(ValueError, match=r"\(1, 4\)"):
        BandedMinors(entry, INT, 1)[6]


def assert_packs_match(minors):
    """The kept minors and superdiagonal entries of a sweep at m = 1 are those values.

    After D_0 .. D_n, the sweep keeps y_k = (-1)^k D_(k+1) and lambda_k = h(k, k + 1) for
    k < n - 1 and row n - 1's vector, (-1)^(n-1) D_n.  Over q-polynomials each is packed at
    the kept width, with rows 0..k divided by q to their lowest exponents.
    """
    width, entry = minors._width, minors.entry
    kept = minors._ys[0] + [s for (s,), *_ in minors._rows]
    assert len(minors._ys[0]) == len(minors._lams) == max(len(minors) - 2, 0)
    assert len(kept) == len(minors) - 1
    shift = 0
    for k, v in enumerate(kept):
        value, lam = minors[k + 1], entry(k, k + 1)
        if width:
            low = min((h._low for h in map(entry, [k] * (k + 2), range(k + 2)) if h), default=0)
            shift += low
            value, lam = _pack(value, width, shift), _pack(lam, width, low)
        assert v == (-1) ** k * value, k
        if k < len(minors._lams):
            assert minors._lams[k] == lam, k


def laurent_qpoly(rng, big):
    """One to four terms q^e, -3 <= e <= 5, with coefficients of size up to ``big``."""
    return QPoly([(rng.randint(-3, 5), rng.randint(-big, big)) for _ in range(rng.randint(1, 4))])


@pytest.mark.parametrize(
    "cell,zero_super,ring",
    [((4, 2), False, INT), ((4, 4), True, INT), ((4, 2), False, QPOLY), ((4, 4), True, QPOLY)],
    ids=["cell0-False", "cell1-True", "q-polynomial-cell0-False", "q-polynomial-cell1-True"],
)
def test_leading_minors_keep_no_half_row_when_an_entry_raises_once(cell, zero_super, ring):
    # the failed row is read again, whole, on the next request; with a zero
    # superdiagonal entry (3, 4) row 4 starts at column 4.  Over QPOLY the
    # packing width and the packed values are those of the rows that landed.
    rng = random.Random("half-row")
    if ring is INT:
        def draw(r):
            return r.randint(1, 9)
    else:
        def draw(r):
            return laurent_qpoly(r, 10 ** r.choice([1, 30])) or ONE
    m = Matrix.build(8, 8, lambda i, j: ring.zero if j > i + 1 else draw(rng), ring)
    if zero_super:
        m = Matrix.build(8, 8, lambda i, j: ring.zero if (i, j) == (3, 4) else m[i, j], ring)
    raised = []

    def entry(i, j):
        if (i, j) == cell and not raised:
            raised.append(cell)
            raise RuntimeError("transient")
        return m[i, j] if j < 8 else ring.zero

    minors = BandedMinors(entry, ring, 1)
    minors[4]
    width = minors._width
    with pytest.raises(RuntimeError, match="transient"):
        minors[8]
    assert raised == [cell] and len(minors) == 5
    assert minors._width == width
    assert_packs_match(minors)
    for n in range(9):
        assert minors[n] == det_bareiss(Matrix.build(n, n, lambda i, j: m[i, j], ring)), n
    assert_packs_match(minors)
    if ring is QPOLY:
        assert minors._width > 64  # the sweep widened past eight-byte digits


# -- packed q-polynomial rows of the sweep at m = 1 -----------------------------

def packed_sweep_input(rng, n):
    """A random n x n lower Hessenberg q-polynomial matrix for the packed rows.

    Laurent exponents, 30-digit coefficients (digits wider than eight bytes)
    in about half the matrices, zero entries, zero superdiagonal entries, now
    and then a zero row, and now and then a row i equal on columns 0..i to a
    monomial times row i - 1, so that the minor D_(i+1) cancels to zero.
    """
    big = 10 ** 30 if rng.random() < 0.5 else 9
    rows = [[laurent_qpoly(rng, big) if j <= i + 1 and rng.random() > 0.2 else QPoly()
             for j in range(n)] for i in range(n)]
    for i in range(n - 1):
        if rng.random() < 0.15:
            rows[i][i + 1] = QPoly()
    if rng.random() < 0.15:
        rows[rng.randrange(n)] = [QPoly()] * n
    if n > 2 and rng.random() < 0.4:
        i = rng.randint(1, n - 1)
        c = QPoly.monomial(rng.randint(-2, 2), rng.choice([-2, 1, 3]))
        rows[i][:i + 1] = [c * v for v in rows[i - 1][:i + 1]]
    return Matrix.from_rows(rows, QPOLY)


def test_packed_leading_minors_equal_cofactor_and_bareiss():
    rng = random.Random("packed-rows")
    cancelled = wide = 0
    for _ in range(60):
        n = rng.randint(1, 9)
        m = packed_sweep_input(rng, n)
        minors = BandedMinors(lambda i, j: m[i, j] if j < n else QPoly(), QPOLY, 1)
        for k in range(n + 1):
            block = Matrix.build(k, k, lambda i, j: m[i, j], QPOLY)
            d = det_cofactor(block)
            assert minors[k] == d == det_bareiss(block), (n, k)
            cancelled += not d and all(any(row) for row in block.rows())
        assert_packs_match(minors)
        wide += minors._width > 64
    assert cancelled and wide


def test_packed_rows_memoize_entry_packs_and_not_minor_packs(monkeypatch):
    # entries recur across rows and sweeps and go through the _kron_pack memo;
    # a minor never recurs, so none of its packs may fill the memo
    from catdet import qseries

    monkeypatch.setattr(qseries, "_KRON_PACKED", {})
    rng = random.Random("packed-memo")
    outside = 0
    for _ in range(20):
        n = rng.randint(2, 9)
        m = packed_sweep_input(rng, n)
        minors = BandedMinors(lambda i, j: m[i, j] if j < n else QPoly(), QPOLY, 1)
        minors[n]
        entries = {v._vals for v in m.data}
        assert {vals for vals, _ in qseries._KRON_PACKED} <= entries
        outside += sum(minors[k + 1]._vals not in entries for k in range(len(minors._ys[0])))
        qseries._KRON_PACKED.clear()
    assert outside


class RecordingMemo(dict):
    """A ``_kron_pack`` memo that records the tuples stored outside QPoly products, and its hits."""

    def __init__(self):
        super().__init__()
        self.stored, self.hits = set(), set()
        self.in_product = 0

    def __setitem__(self, key, value):
        if not self.in_product:
            self.stored.add(key[0])
        super().__setitem__(key, value)

    def get(self, key, default=None):
        value = super().get(key, default)
        if value is not None:
            self.hits.add(key[0])
        return value


def test_cleared_rows_are_packed_outside_the_memo(monkeypatch):
    # a cleared q-rational row never recurs, so neither the Hessenberg sweep
    # of SEC33 nor the banded sweep of THM11_B may store its tuples in the
    # _kron_pack memo (QPoly products pack their operands there on their own
    # account and are not counted); the q-binomial entries of EQ86 recur
    # across its two sweeps and hit it
    from catdet import qseries

    memo = RecordingMemo()
    product = qseries._mul_kronecker

    def counted_product(a, b):
        memo.in_product += 1
        try:
            return product(a, b)
        finally:
            memo.in_product -= 1

    monkeypatch.setattr(qseries, "_KRON_PACKED", memo)
    monkeypatch.setattr(qseries, "_mul_kronecker", counted_product)
    for family, params, band in ((fam.SEC33, {"k": 4}, 1), (fam.THM11_B, {"x": 4, "m": 3}, 3)):
        # the entries first: q_product memoizes each, after packing its Phi_d,
        # which a cleared entry such as 1 + q^2 may equal
        cleared = set()
        for i in range(9):
            row = [QRAT.coerce(family.entry(i, j, **params)) for j in range(i + band + 1)]
            cleared |= {v._vals for v in clear_row(row, QRAT)[0] if len(v._vals) > 1}
        memo.stored.clear()
        family.sweep(**params)[9]
        assert cleared
        assert not cleared & memo.stored, family
    entries = {fam.EQ86.entry(i, j, k=3, shifted=shifted)._vals
               for shifted in (False, True) for i in range(9) for j in range(i + 2)}
    memo.clear()
    for shifted in (False, True):
        fam.EQ86.sweep(k=3, shifted=shifted)[9]
    assert {vals for vals, _ in memo} <= entries
    assert memo.hits & entries


@pytest.mark.parametrize("nbytes", [1, 2, 3, 4, 8, 9, 16])
def test_packed_row_at_its_bound_on_a_byte_boundary(nbytes):
    # [[c q^-1, c q^3], [-s c q^-2, s c q^2]]: D_2 = 2 s c^2 q, and the l1 bound
    # of the packed row is 2 c^2 too, just under 2^(8 nbytes - 1): the
    # coefficient fills its nbytes-byte digit and one byte less cannot hold it
    c = math.isqrt(((1 << (8 * nbytes - 1)) - 1) // 2)
    assert (2 * c * c).bit_length() == 8 * nbytes - 1
    for sign in (1, -1):
        rows = [[QPoly.monomial(-1, c), QPoly.monomial(3, c)],
                [QPoly.monomial(-2, -sign * c), QPoly.monomial(2, sign * c)]]
        minors = BandedMinors(lambda i, j: rows[i][j] if j < 2 else QPoly(), QPOLY, 1)
        assert minors[2] == QPoly.monomial(1, 2 * sign * c * c)
        assert minors._width == 8 * nbytes
        assert minors[2] == det_cofactor(Matrix.from_rows(rows, QPOLY))


@pytest.mark.parametrize("nbytes", [1, 2, 8])
def test_packed_row_past_its_byte_boundary(nbytes):
    # the same rows with c^2 just under 2^(8 nbytes - 1) and 2 c^2 past it:
    # each of the row's two terms fits nbytes-byte digits, their sum, the l1
    # bound, needs one byte more
    c = math.isqrt(1 << (8 * nbytes - 2)) + 1
    assert (c * c).bit_length() == 8 * nbytes - 1 and (2 * c * c).bit_length() == 8 * nbytes
    for sign in (1, -1):
        rows = [[QPoly.monomial(-1, c), QPoly.monomial(3, c)],
                [QPoly.monomial(-2, -sign * c), QPoly.monomial(2, sign * c)]]
        minors = BandedMinors(lambda i, j: rows[i][j] if j < 2 else QPoly(), QPOLY, 1)
        assert minors[2] == QPoly.monomial(1, 2 * sign * c * c)
        assert minors._width == 8 * nbytes + 8


# -- banded sweeps ----------------------------------------------------------------

def random_band_entry(rng, ring, big):
    """One entry of ``ring``; q-polynomials have Laurent exponents and up to ``big`` in size."""
    if ring is INT:
        return rng.randint(-big, big)
    if ring is FRAC:
        return Fraction(rng.randint(-big, big), rng.choice([1, 2, 3, 4, 6, 5, 7]))
    num = laurent_qpoly(rng, big)
    if ring is QPOLY:
        return num
    return QRat(num, rng.choice([ONE, q_int(2), q_int(2) * q_int(3), ONE + Q * Q]))


def random_banded(rng, n, m, ring, big=None):
    """A random n x n matrix with h(i, j) = 0 for j > i + m and a nonzero outer diagonal.

    Outer-diagonal entries are units (1, -1, q^s) or not; some entries in the
    band are zero, and sometimes row 0 is zero on its columns < m, so every
    leading block up to m x m is singular.
    """
    if big is None:
        big = rng.choice([9, 10 ** 30]) if ring in (QPOLY, QRAT) else 9
    unit = rng.random() < 0.5
    singular = rng.random() < 0.3

    def entry(i, j):
        if j > i + m or (singular and i == 0 and j < m):
            return ring.zero
        if j == i + m:
            if unit:
                v = rng.choice([1, -1]) if ring in (INT, FRAC) else QPoly.monomial(
                    rng.randint(-2, 3), rng.choice([1, -1]))
                return ring.coerce(v)
            v = ring.zero
            while not v:
                v = ring.coerce(random_band_entry(rng, ring, big))
            return v
        return ring.zero if rng.random() < 0.2 else ring.coerce(random_band_entry(rng, ring, big))
    return Matrix.build(n, n, entry, ring)


@pytest.mark.parametrize("ring", [INT, FRAC, QPOLY, QRAT], ids=lambda r: r.name)
@pytest.mark.parametrize("m", range(6))
def test_banded_minors_equal_bareiss_and_cofactor(ring, m):
    rng = random.Random(f"banded:{ring.name}:{m}")
    singular = 0
    for _ in range(6 if ring is QRAT else 12):
        size = m + rng.randint(1, 2 if ring is QRAT else 4)
        h = random_banded(rng, size, m, ring)
        minors = BandedMinors(lambda i, j: h[i, j] if i < size and j < size else ring.zero,
                              ring, m)
        for n in range(size + 1):
            block = Matrix.build(n, n, lambda i, j: h[i, j], ring)
            expected = det_cofactor(block)
            assert minors[n] == expected, (m, n)
            if ring in (INT, FRAC) or n <= 5:
                assert expected == det_bareiss(block), (m, n)
            singular += m > 0 and 0 < n <= m and not expected
    assert m == 0 or singular


def test_banded_minors_on_the_paper_families():
    # the eq110 lift (EQ74 at k = 0, mod 2) has singular leading blocks; the
    # outer diagonal of EQ71 is q^(m(m+1)/2); THM11_B at x < 0 is q-rational
    lift = fam.Family(INT, lambda i, j, m: binomial(i + j + m, i - j + m) % 2, "m")
    for m in range(1, 6):
        minors = lift.sweep(m=m)
        values = [minors[n] for n in range(25)]
        assert values == [det_bareiss(fam.build(lift, n, m=m)) for n in range(25)], m
        assert 0 in values, m
    for m in (2, 3, 5):
        minors = fam.EQ71.sweep(m=m)
        for n in range(9):
            block = fam.build(fam.EQ71, n, m=m)
            assert minors[n] == det_bareiss(block) == det(block), (m, n)
            if n <= 6:
                assert minors[n] == det_cofactor(block), (m, n)
    for x, m in ((-3, 3), (-1, 2), (-2, 4)):
        minors = fam.THM11_B.sweep(x=x, m=m)
        for n in range(9):
            block = fam.build(fam.THM11_B, n, x=x, m=m)
            assert minors[n] == det(block), (x, m, n)
            if n <= 6:
                assert minors[n] == det_cofactor(block), (x, m, n)


@pytest.mark.parametrize("ring", [INT, FRAC, QPOLY, QRAT], ids=lambda r: r.name)
@pytest.mark.parametrize("m", [0, 1])
def test_banded_minors_take_zero_outer_diagonal_entries_at_m_up_to_1(ring, m):
    # nothing is divided at m <= 1: the outer-diagonal entries (1, 1 + m),
    # (3, 3 + m) and (4, 4 + m) are zero, and so is row 6; a zero diagonal
    # entry of the random matrix is made 1
    size = 7 if ring is QRAT else 8
    rng = random.Random(f"zero-outer-low:{ring.name}:{m}")
    h = random_banded(rng, size, m, ring)
    zeros = {(1, 1 + m), (3, 3 + m), (4, 4 + m)}

    def entry(i, j):
        if (i, j) in zeros or i == 6 or j >= size:
            return ring.zero
        return h[i, j] or (ring.one if i == j else ring.zero)
    minors = BandedMinors(entry, ring, m)
    values = [minors[n] for n in range(size + 1)]
    for n, value in enumerate(values):
        assert value == det_cofactor(Matrix.build(n, n, entry, ring)), n
    assert not any(values[7:])  # row 6 is zero
    # at m = 1 the sizes between the zero superdiagonal entries do not all
    # vanish; at m = 0 every size from 2 on holds the zero entry (1, 1)
    assert any(values[2:7]) == (m == 1)


@pytest.mark.parametrize("ring", [INT, QPOLY, QRAT], ids=lambda r: r.name)
def test_banded_minors_raise_at_a_zero_outer_diagonal_entry(ring):
    rng = random.Random(f"zero-outer:{ring.name}")
    h = random_banded(rng, 9, 2, ring)

    def entry(i, j):
        return ring.zero if (i, j) == (3, 5) else h[i, j]
    minors = BandedMinors(entry, ring, 2)
    for n in range(6):  # H_5 holds (3, 5) but needs no step against it
        assert minors[n] == det_cofactor(Matrix.build(n, n, entry, ring)), n
    with pytest.raises(ValueError, match=r"outer-diagonal entry \(3, 5\) is zero"):
        minors[6]
    with pytest.raises(ValueError, match=r"\(3, 5\)"):
        BandedMinors(entry, ring, 2)[8]
    assert len(minors) == 6


def test_banded_minors_reject_an_entry_beyond_the_band_at_its_column():
    def entry(i, j):
        if (i, j) == (1, 5):
            return 3
        return binomial(i + j + 4, i - j + 2)  # EQ74 at m = 2, k = 2

    minors = BandedMinors(entry, INT, 2)
    assert minors[5] == det_bareiss(fam.build(fam.EQ74, 5, m=2, k=2))
    with pytest.raises(ValueError, match=r"entry \(1, 5\) beyond the band"):
        minors[6]
    with pytest.raises(ValueError, match=r"\(1, 5\)"):
        BandedMinors(entry, INT, 2)[9]
    assert len(minors) == 6
    with pytest.raises(ValueError, match="negative"):
        BandedMinors(entry, INT, -1)


@pytest.mark.parametrize("cell,before", [((6, 1), 6), ((7, 9), 7), ((1, 6), 6)],
                         ids=["row", "kept", "band"])
@pytest.mark.parametrize("ring", [INT, QPOLY], ids=lambda r: r.name)
def test_banded_minors_keep_no_half_size_when_an_entry_raises_once(cell, before, ring):
    # H_7 reads row 6 and tests (1, 6) when it adds column 6; H_8 reads row 7,
    # whose entry (7, 9) is kept for the steps of H_9 and H_10.  The failed
    # size is built again, whole, on the next request; over QPOLY the width
    # keeps growing past eight-byte digits afterwards
    m = 2
    rng = random.Random(f"half-size:{ring.name}")
    h = random_banded(rng, 12, m, ring, 10 ** 12 if ring is QPOLY else 9)
    raised = []

    def entry(i, j):
        if (i, j) == cell and not raised:
            raised.append(cell)
            raise RuntimeError("transient")
        return h[i, j] if i < 12 and j < 12 else ring.zero

    minors = BandedMinors(entry, ring, m)
    minors[before]
    kept = (list(minors._ys), list(minors._lams), minors._d, list(minors._rows), minors._width)
    with pytest.raises(RuntimeError, match="transient"):
        minors[12]
    assert raised == [cell] and len(minors) == before + 1
    assert (minors._ys, minors._lams, minors._d, minors._rows, minors._width) == kept
    for n in range(13):
        assert minors[n] == det(Matrix.build(n, n, lambda i, j: h[i, j], ring)), n
    if ring is QPOLY:
        assert minors._width > 64


def sweep_state(minors):
    """A deep copy of everything a sweep keeps between sizes."""
    names = ["_dets", "_ys", "_lams", "_d", "_rows", "_unit", "_scale", "_width", "_shift",
             "_span", "_norm2", "_norms", "_lam_norms"]
    return copy.deepcopy({name: getattr(minors, name, None) for name in names})


@pytest.mark.parametrize("ring,m,late", [
    (INT, 2, "exact_quotient"), (FRAC, 2, "exact_quotient"), (QPOLY, 2, "exact_quotient"),
    (QPOLY, 1, "_from_dense"), (QRAT, 1, "_from_dense"), (QPOLY, 0, "_from_dense"),
], ids=lambda v: getattr(v, "name", v))
def test_banded_minors_keep_no_half_size_when_a_late_step_raises_once(ring, m, late, monkeypatch):
    # the size's entries are read and its steps taken, over QPOLY at a size
    # whose width grows, and then the quotient by D_t^(m-1) or the reading
    # of det H_n raises: the size is built again, whole, on the next request.
    # Over a fraction ring the row's lcm is taken before the raise
    rng = random.Random(f"late-raise:{ring.name}:{m}")
    h = random_banded(rng, 12, m, ring, 10 ** 12 if ring in (QPOLY, QRAT) else 9)

    def entry(i, j):
        return h[i, j] if i < 12 and j < 12 else ring.zero
    target = 6
    if ring in (QPOLY, QRAT):
        ref, widths = BandedMinors(entry, ring, m), []
        for n in range(13):
            ref[n]
            widths.append(ref._width)
        target = next(n for n in range(m + 2, 13) if widths[n] > widths[n - 1])
    minors = BandedMinors(entry, ring, m)
    minors[target - 1]
    kept = sweep_state(minors)
    real, raised = getattr(linalg, late), []

    def once(*args):
        if not raised:
            raised.append(len(minors))
            raise RuntimeError("transient")
        return real(*args)
    monkeypatch.setattr(linalg, late, once)
    with pytest.raises(RuntimeError, match="transient"):
        minors[12]
    assert raised == [target]
    assert sweep_state(minors) == kept
    for n in range(13):
        assert minors[n] == det(Matrix.build(n, n, lambda i, j: h[i, j], ring)), n


@pytest.mark.parametrize("m", [0, 1, 2])
def test_banded_minors_raise_on_a_width_too_narrow(m, monkeypatch):
    # constant q-polynomial entries have degree 0, so at a width held at one
    # byte det H_n reads right while |det H_n| < 128 and must raise from the
    # first size past it, whose base-2^8 digits spill past degree 0
    monkeypatch.setattr(linalg, "_kron_width", lambda bound: 8)
    monkeypatch.setattr(linalg, "_BAND_WIDTH", 8)

    def entry(i, j):
        return 0 if j > i + m else 3 + (i * j) % 4
    values = BandedMinors(entry, INT, m)
    first = next(n for n in range(20) if abs(values[n]) >= 128)
    minors = BandedMinors(lambda i, j: QPoly.monomial(0, entry(i, j)), QPOLY, m)
    for n in range(first):
        assert minors[n] == QPoly.monomial(0, values[n]), n
    assert minors._width == 8
    with pytest.raises(ArithmeticError, match=f"det H_{first} .* past its degree 0"):
        minors[first]
    assert len(minors) == first


# -- q-polynomial determinants through one integer determinant ---------------

def kronecker_input(rng, n):
    """A dense n x n q-polynomial matrix with the shapes the engine special-cases.

    Laurent exponents; now and then a zero row, a row that is a single
    monomial, exponents sharing a gcd after each row's shift, and coefficients
    of 30 digits and more.
    """
    g = rng.choice([1, 1, 2, 3])
    big = 10 ** rng.randint(30, 36) if rng.random() < 0.3 else 9
    rows = []
    for _ in range(n):
        offset = rng.randint(-6, 6)

        def term():
            return (offset + g * rng.randint(-2, 4), rng.randint(-big, big))

        kind = rng.random()
        if kind < 0.07:
            rows.append([QPoly()] * n)
        elif kind < 0.2:
            row = [QPoly()] * n
            row[rng.randrange(n)] = QPoly([term()]) or ONE
            rows.append(row)
        else:
            rows.append([QPoly([term() for _ in range(rng.randint(0, 3))]) for _ in range(n)])
    return Matrix.from_rows(rows, QPOLY)


def kronecker_inputs():
    rng = random.Random("kronecker")
    yield Matrix(0, 0, [], QPOLY)
    yield Matrix(1, 1, [QPoly([(-3, 5), (2, -1)])], QPOLY)
    yield Matrix(3, 3, [QPoly()] * 9, QPOLY)
    for _ in range(70):
        yield kronecker_input(rng, rng.randint(1, 6))


def test_kronecker_det_agrees_with_bareiss_and_cofactor():
    for m in kronecker_inputs():
        assert _det_kronecker(m) == det_bareiss(m) == det_cofactor(m), m


def test_kronecker_det_against_sympy():
    pytest.importorskip("sympy")
    from sympy import ZZ, symbols
    from sympy.polys.matrices import DomainMatrix

    ring = ZZ[symbols("q")]
    for m in kronecker_inputs():
        # q^-low_i out of row i, so that sympy sees polynomials
        rows, shift = [], 0
        for i in range(m.nrows):
            row = [m[i, j] for j in range(m.ncols)]
            low = min((v.low for v in row if v), default=0)
            shift += low
            rows.append([ring.ring.from_dict({(e - low,): c for e, c in v.items()}) for v in row])
        value = DomainMatrix(rows, (m.nrows, m.ncols), ring).det()
        assert _det_kronecker(m) == QPoly([(e + shift, int(c)) for (e,), c in value.items()])


def sylvester(order):
    h = [[1]]
    while len(h) < order:
        h = [r + r for r in h] + [r + [-v for v in r] for r in h]
    return h


# (order, scale): |det| = scale^n n^(n/2) meets Hadamard's bound exactly.  The
# scaled cases put |det| at 2^7, in [2^15, 2^16) and in [2^39, 2^40), the top
# of a byte, where a width one bit short of the bound decodes the wrong sign.
@pytest.mark.parametrize("order,scale", [(2, 1), (2, 8), (4, 1), (4, 7), (8, 1), (8, 11)])
def test_kronecker_det_at_the_hadamard_bound(order, scale):
    rng = random.Random(f"hadamard:{order}:{scale}")
    h = sylvester(order)
    d = det_bareiss(Matrix.from_rows(h, INT)) * scale ** order
    assert abs(d) == scale ** order * order ** (order // 2)
    assert _det_kronecker(Matrix.from_rows([[scale * v for v in r] for r in h], QPOLY)) == d
    # entries +-c q^(r_i + s_j): the determinant is one monomial with the same coefficient
    r = [rng.randint(-5, 5) for _ in range(order)]
    s = [rng.randint(-5, 5) for _ in range(order)]
    m = Matrix.build(order, order,
                     lambda i, j: QPoly.monomial(2 * (r[i] + s[j]), scale * h[i][j]), QPOLY)
    expected = QPoly.monomial(2 * (sum(r) + sum(s)), d)
    assert _det_kronecker(m) == det_bareiss(m) == expected


def test_det_routes_dense_q_polynomial_matrices_to_one_integer_determinant(monkeypatch):
    from catdet import linalg

    rings = []

    def bareiss(m):
        rings.append(m.ring.name)
        return det_bareiss(m)

    monkeypatch.setattr(linalg, "det_bareiss", bareiss)
    dense = fam.build(fam.EQ91, 5, m=3, k=2)
    cleared = fam.build(fam.THM11_B, 5, x=4, m=3)
    assert det(dense) == det_bareiss(dense)
    assert det(cleared) == det_bareiss(cleared)
    assert rings == ["integer", "integer"]
    # a lower Hessenberg matrix takes the same route as any other
    hessenberg = fam.build(fam.EQ83, 6)
    assert hessenberg.ring is QPOLY
    assert det(hessenberg) == det_bareiss(hessenberg)
    assert rings == ["integer", "integer", "integer"]


# -- q-rational determinants by row clearing, against Bareiss over QRat -------

# shared denominators (q-integers, a repeated factor, an integer, a sparse
# binomial) and, one entry in three, a fresh random one, coprime or not
SHARED_DENOMINATORS = [ONE, ONE + Q, ONE + Q + Q * Q, (ONE + Q) * (ONE + Q),
                       QPoly.const(2), QPoly([(0, 1), (3, 1)])]


def random_cleared_entry(rng):
    num = QPoly([(rng.randint(-2, 5), rng.randint(-3, 3)) for _ in range(rng.randint(1, 3))])
    den = rng.choice(SHARED_DENOMINATORS) if rng.random() < 0.67 else random_qpoly(rng)
    return QRat(num, den or ONE)


@pytest.mark.parametrize("hessenberg", [False, True], ids=["dense", "hessenberg"])
def test_row_cleared_qrat_det_agrees_with_bareiss_and_cofactor(hessenberg):
    rng = random.Random(f"row-cleared:{hessenberg}")
    for _ in range(40):
        n = rng.randint(0, 4)
        zero_row = rng.randrange(n) if n and rng.random() < 0.25 else None
        m = Matrix.build(
            n, n,
            lambda i, j: QRat(0) if i == zero_row or (hessenberg and j > i + 1)
            else random_cleared_entry(rng),
            QRAT,
        )
        assert det(m) == det_bareiss(m) == det_cofactor(m)


@pytest.mark.parametrize("matrix", [
    pytest.param(lambda: fam.build(fam.THM11_B, 6, x=4, m=3), id="thm11B-n6-x4-m3"),
    pytest.param(lambda: fam.build(fam.SEC33, 5, k=4), id="sec33-n5-k4"),
    pytest.param(lambda: fam.build(fam.EQ89, 6, k=4), id="eq89-n6-k4"),
])
def test_row_cleared_det_on_q_rational_families(matrix):
    m = matrix()
    assert m.ring is QRAT
    assert det(m) == det_bareiss(m)


def test_rational_det_rank_and_sweep_run_no_fraction_arithmetic(monkeypatch):
    # FRAC rows clear to integers as QRAT rows clear to q-polynomials, so with
    # Fraction's +, - and * raising, det, rank and a sweep still give the
    # values the cofactor oracle took in Fraction arithmetic beforehand
    rng = random.Random("rational-cleared")

    def draw():
        return Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 4, 6, 35]))

    dense = Matrix.build(5, 5, lambda i, j: draw(), FRAC)
    hessenberg = Matrix.build(6, 6, lambda i, j: draw() if j <= i + 1 else 0, FRAC)
    low_rank = (Matrix.build(4, 2, lambda i, j: draw(), FRAC)
                * Matrix.build(2, 5, lambda i, j: draw(), FRAC))
    table = {(i, j): fam.EQ45.entry(i, j, k=2) for i in range(8) for j in range(8)}
    family = fam.Family(FRAC, lambda i, j: table[i, j])
    expected = [det_cofactor(dense), det_cofactor(hessenberg),
                det_cofactor(fam.build(family, 7)), max_nonzero_minor_order(low_rank)]
    assert expected[3] == 2 and expected[0] and expected[1]
    assert any(v.denominator != 1 for v in expected[:3])

    def refuse(*args):
        raise AssertionError("Fraction arithmetic in an elimination or a sweep")

    for name in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        monkeypatch.setattr(Fraction, name, refuse)
    got = [det(dense), det(hessenberg), family.sweep()[7], rank(low_rank)]
    assert got == expected
