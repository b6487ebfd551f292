"""Monic orthogonal polynomials from three-term recurrences, and their moments.

A :class:`FavardSystem` is the pair of coefficient sequences s(n), t(n) of

    p_n(x) = (x - s(n-1)) p_(n-1)(x) - t(n-2) p_(n-2)(x),   p_0 = 1,

over one of the exact rings.  :class:`FavardTables` grows, on demand, the
true coefficient table of the p_n, the sign-stripped table p(n, j) with
p_n(x) = sum_j (-1)^(n-j) p(n, j) x^j, and the moment table c(n, j) defined by

    c(0, j) = [j = 0]
    c(n, 0) = s(0) c(n-1, 0) + t(0) c(n-1, 1)
    c(n, j) = c(n-1, j-1) + s(j) c(n-1, j) + t(j) c(n-1, j+1)

whose first column is the moment sequence of the functional with
Lambda(p_n) = [n = 0].

The module also verifies the shifted-Hankel bridge: the n x n determinant of
p(i+m, j) equals the ratio of the m x m Hankel determinants of the moments
shifted by n and by 0 (checked exactly, in cross-multiplied form), plus the
two single-shift product formulas.  It recovers s(n), t(n) through these
same recurrences: from a moment sequence by reading the moment-table
recurrence backwards, one column at a time (Chebyshev's algorithm, see
:func:`system_from_moments`), and from an explicit coefficient table by
reading two leading columns and comparing every row with the recovered
system's :class:`FavardTables`.
"""

from __future__ import annotations

from typing import Callable, Sequence

from catdet.linalg import INT, QPOLY, QRAT, Matrix, Ring, det
from catdet.qseries import QPoly, QRat, q_binomial, q_int, q_plus_product

__all__ = [
    "FavardSystem",
    "FavardTables",
    "InconsistentRecurrenceError",
    "tyson_check",
    "hankel_shift_checks",
    "system_from_moments",
    "system_from_coeff_rows",
    "fibonacci_system",
    "lucas_variant_system",
    "carlitz_system",
    "q_chebyshev_system",
    "geometric_q_system",
    "random_integer_system",
]


class InconsistentRecurrenceError(ValueError):
    """No three-term recurrence reproduces the given coefficient table."""


class FavardSystem:
    """Recurrence data (s, t) over a scalar ring."""

    def __init__(self, s: Callable[[int], object], t: Callable[[int], object],
                 ring: Ring, name: str = ""):
        self.s = s
        self.t = t
        self.ring = ring
        self.name = name

    def tables(self) -> "FavardTables":
        return FavardTables(self)

    def __repr__(self):
        return f"FavardSystem({self.name or 'anonymous'}, ring={self.ring.name})"


class FavardTables:
    """Lazily grown coefficient and moment tables of a Favard system.

    Both tables are append-only, and a row is appended only once all of its
    entries are computed.  So an s(n) or t(n) that raises in the middle of a
    row leaves the table as it was, holding whole rows equal to a fresh
    table's, and one table can be shared by every reader in a process.  The
    Hankel determinants are kept the same way, each stored once it is taken.
    """

    def __init__(self, system: FavardSystem):
        self.system = system
        ring = system.ring
        self._one = ring.one
        self._zero = ring.zero
        self._coeffs: list[list] = [[self._one]]
        self._moments: list[list] = [[self._one]]
        self._hankel_dets: dict[tuple[int, int], object] = {}

    # -- table growth -------------------------------------------------------

    def _ensure_coeffs(self, n: int) -> None:
        s, t = self.system.s, self.system.t
        rows = self._coeffs
        while len(rows) <= n:
            m = len(rows)  # building row m
            prev = rows[m - 1]
            prev2 = rows[m - 2] if m >= 2 else None
            sn = s(m - 1)
            tn = t(m - 2) if m >= 2 else None
            row = []
            for j in range(m + 1):
                v = prev[j - 1] if j >= 1 else self._zero
                if j < m:
                    v = v - sn * prev[j]
                if prev2 is not None and j < m - 1:
                    v = v - tn * prev2[j]
                row.append(v)
            rows.append(row)

    def _ensure_moments(self, n: int) -> None:
        s, t = self.system.s, self.system.t
        rows = self._moments
        while len(rows) <= n:
            m = len(rows)
            prev = rows[m - 1]
            # s(j)/t(j) are only evaluated when they multiply an in-range
            # entry, so finite recovered systems can fill their full cone
            v = s(0) * prev[0]
            if m >= 2:
                v = v + t(0) * prev[1]
            row = [v]
            for j in range(1, m + 1):
                v = prev[j - 1]
                if j < m:
                    v = v + s(j) * prev[j]
                if j + 1 < m:
                    v = v + t(j) * prev[j + 1]
                row.append(v)
            rows.append(row)

    # -- accessors ----------------------------------------------------------

    def coeff(self, n: int, j: int):
        """True coefficient of x^j in p_n."""
        if j < 0 or j > n:
            return self._zero
        self._ensure_coeffs(n)
        return self._coeffs[n][j]

    def p_entry(self, n: int, j: int):
        """Sign-stripped table entry p(n, j) = (-1)^(n-j) [x^j] p_n."""
        v = self.coeff(n, j)
        return v if (n - j) % 2 == 0 else -v

    def coeff_row(self, n: int) -> list:
        self._ensure_coeffs(n)
        return list(self._coeffs[n])

    def c(self, n: int, j: int):
        if j < 0 or j > n:
            return self._zero
        self._ensure_moments(n)
        return self._moments[n][j]

    def moment(self, n: int):
        return self.c(n, 0)

    # -- derived matrices ---------------------------------------------------

    def hankel(self, shift: int, m: int) -> Matrix:
        """Hankel matrix (M_(shift+i+j)) of size m."""
        self._ensure_moments(shift + 2 * m)
        return Matrix.build(m, m, lambda i, j: self.c(shift + i + j, 0), self.system.ring)

    def hankel_det(self, shift: int, m: int):
        """det(M_(shift+i+j)) of size m, taken once per table and (shift, m)."""
        key = (shift, m)
        if key not in self._hankel_dets:
            self._hankel_dets[key] = det(self.hankel(shift, m))
        return self._hankel_dets[key]

    def p_matrix(self, m: int, n: int) -> Matrix:
        """The n x n matrix (p(i+m, j))."""
        self._ensure_coeffs(n - 1 + m if n else m)
        return Matrix.build(n, n, lambda i, j: self.p_entry(i + m, j), self.system.ring)


def tyson_check(tab: FavardTables, n: int, m: int) -> bool:
    """Shifted-Hankel bridge: det(p(i+m,j)) * det(M_(i+j)) = det(M_(n+i+j)).

    All three determinants are m x m or n x n and exact; the base Hankel
    determinant must be nonzero (raises ArithmeticError otherwise).
    """
    h0 = tab.hankel_det(0, m)
    if not h0:
        raise ArithmeticError("base Hankel determinant vanishes")
    hn = tab.hankel_det(n, m)
    p = det(tab.p_matrix(m, n))
    return p * h0 == hn


def hankel_shift_checks(tab: FavardTables, m: int) -> bool:
    """Single and double shift formulas for Hankel determinants.

    det(M_(i+j+1)) = p(m, 0) det(M_(i+j)) and
    det(M_(i+j+2)) = v(m) det(M_(i+j)) with
    v(m) = sum_k p_k(0)^2 t(k) t(k+1) ... t(m-1).
    """
    t = tab.system.t
    h0, h1, h2 = (tab.hankel_det(shift, m) for shift in range(3))
    if h1 != tab.p_entry(m, 0) * h0:
        return False
    v = tab._zero
    for k in range(m + 1):
        pk0 = tab.coeff(k, 0)
        term = pk0 * pk0
        for l in range(k, m):
            term = term * t(l)
        v = v + term
    return h2 == v * h0


# ---------------------------------------------------------------------------
# recovery of (s, t)
# ---------------------------------------------------------------------------

def system_from_moments(moments: Sequence, ring: Ring) -> tuple[list, list, FavardSystem]:
    """Recover s(n), t(n) from a moment sequence over the field ``ring``.

    Reads the moment-table recurrence backwards, one column at a time
    (Chebyshev's algorithm): column 0 is c(n, 0) = M_n / M_0, column -1 is
    zero, and from columns j-1 and j

        s(j) = c(j+1, j) - c(j, j-1)
        t(j) = c(j+2, j) - c(j+1, j-1) - s(j) c(j+1, j)
        c(n, j+1) = (c(n+1, j) - c(n, j-1) - s(j) c(n, j)) / t(j).

    M moments give s(j) for 2j + 2 <= M and t(j) for 2j + 3 <= M.  A zero
    M_0 or t(j) is a vanishing norm L(p_n^2), n = 0 or j + 1: the moment
    prefix is not orthogonalizable and ArithmeticError is raised.  A ring that
    is not a field (no ``integral`` ring) raises TypeError.
    """
    if not ring.integral:
        raise TypeError(f"moment recovery needs a field, not the {ring.name} ring")
    ms = [ring.coerce(v) for v in moments]
    zero = ring.zero
    s_list: list = []
    t_list: list = []
    if ms and ms[0] == zero:
        raise ArithmeticError("vanishing norm at n = 0: moments not orthogonalizable")
    prev = [zero] * len(ms)  # column j-1, read at rows n <= len(ms) - 1 - j
    col = [m / ms[0] for m in ms]  # column j, rows 0 .. len(ms) - 1 - j
    j = 0
    while 2 * j + 2 <= len(ms):
        s = col[j + 1] - prev[j]
        s_list.append(s)
        if 2 * j + 3 > len(ms):
            break
        t = col[j + 2] - prev[j + 1] - s * col[j + 1]
        if t == zero:
            raise ArithmeticError(
                f"vanishing norm at n = {j + 1}: moments not orthogonalizable")
        t_list.append(t)
        # c(n, j+1) = 0 above the diagonal, n <= j
        prev, col = col, [zero] * (j + 1) + [(col[n + 1] - prev[n] - s * col[n]) / t
                                             for n in range(j + 1, len(col) - 1)]
        j += 1

    return s_list, t_list, FavardSystem(s_list.__getitem__, t_list.__getitem__, ring, "recovered")


def system_from_coeff_rows(rows: Sequence[Sequence], ring: Ring
                           ) -> tuple[list, list, FavardSystem]:
    """Recover s(n), t(n) from a monic true-coefficient table.

    Reads s(n-1) and t(n-2) off the two leading columns of row n, then
    compares every given row with ``coeff_row`` of the recovered system's
    :class:`FavardTables` (row 0 must be [1]); raises
    InconsistentRecurrenceError at the first (n, j) that differs.
    """
    zero = ring.zero

    def a(n, j):
        return rows[n][j] if 0 <= j <= n else zero

    nmax = len(rows) - 1
    s_list = [a(n - 1, n - 2) - a(n, n - 1) for n in range(1, nmax + 1)]
    t_list = [a(n - 1, n - 3) - s_list[n - 1] * a(n - 1, n - 2) - a(n, n - 2)
              for n in range(2, nmax + 1)]
    system = FavardSystem(s_list.__getitem__, t_list.__getitem__, ring, "recovered")
    tab = system.tables()
    for n, row in enumerate(rows):
        for j, v in enumerate(tab.coeff_row(n)):
            if row[j] != v:
                raise InconsistentRecurrenceError(
                    f"coefficient table breaks the three-term recurrence at (n={n}, j={j})"
                )
    return s_list, t_list, system


# ---------------------------------------------------------------------------
# named systems
# ---------------------------------------------------------------------------

def fibonacci_system() -> FavardSystem:
    """s = 0, t = 1: Fibonacci polynomials; even moments are Catalan numbers."""
    return FavardSystem(lambda n: 0, lambda n: 1, INT, "fibonacci")


def lucas_variant_system() -> FavardSystem:
    """s = 0, t(0) = 2, t(n) = 1: even moments are central binomials."""
    return FavardSystem(lambda n: 0, lambda n: 2 if n == 0 else 1, INT, "lucas-variant")


def catalan_moment_system() -> FavardSystem:
    """s(0) = 1, s(n) = 2, t = 1: the moments are the Catalan numbers.

    This is the even contraction of the Fibonacci system; its coefficient
    table p(i+1, j) is exactly the binomial(i+j+1, i-j+1) matrix family.
    """
    return FavardSystem(lambda n: 1 if n == 0 else 2, lambda n: 1, INT, "catalan")


def central_binomial_system() -> FavardSystem:
    """s = 2, t(0) = 2, t(n) = 1: the moments are binomial(2n, n).

    Even contraction of the Lucas variant; its coefficient table p(i+1, j)
    is the ((2i+2)/(i+j+1)) binomial(i+j+1, i-j+1) family.
    """
    return FavardSystem(lambda n: 2, lambda n: 2 if n == 0 else 1, INT, "central-binomial")


def carlitz_system() -> FavardSystem:
    """s = 0, t(n) = q^n: even moments are the Carlitz q-Catalan numbers."""
    return FavardSystem(
        lambda n: QPoly.const(0),
        lambda n: QPoly.monomial(n),
        QPOLY,
        "carlitz",
    )


def q_chebyshev_system() -> FavardSystem:
    """Monic q-Chebyshev (second kind): s = 0,
    t(n) = q^(n+1) / ((1+q^(n+1))(1+q^(n+2)))."""

    def t(n):
        return q_plus_product([], [], n + 1, (), [n + 1, n + 2])

    return FavardSystem(lambda n: QRat(0), t, QRAT, "q-chebyshev")


def geometric_q_system() -> FavardSystem:
    """The system whose moments are q^(n(n-1)/2) (a q-deformation of (x-1)^n).

    s(k) = q^k [k+1] - q^(k-1) [k] and
    t(k) = q^(2k+1) [k+2 choose 2] - q^(2k-1) [k+1 choose 2] - s(k) q^k [k+1],
    derived from its explicit coefficient table; the recovery path in
    :func:`system_from_coeff_rows` cross-checks these closed forms.
    """

    def s(k):
        v = QPoly.monomial(k) * q_int(k + 1)
        if k >= 1:
            v = v - QPoly.monomial(k - 1) * q_int(k)
        return v

    def t(k):
        v = QPoly.monomial(2 * k + 1) * q_binomial(k + 2, 2)
        if k >= 1:
            v = v - QPoly.monomial(2 * k - 1) * q_binomial(k + 1, 2)
        return v - s(k) * QPoly.monomial(k) * q_int(k + 1)

    return FavardSystem(s, t, QPOLY, "geometric-q")


def geometric_q_coeff(n: int, j: int) -> QPoly:
    """Explicit true coefficient (-1)^(n-j) [n choose j] q^((n-1)(n-j))."""
    v = q_binomial(n, j).shift((n - 1) * (n - j))
    return -v if (n - j) % 2 else v


def random_integer_system(rng) -> FavardSystem:
    """Seeded random system with s(n), t(n) from -3..3 and t(n) != 0."""
    s_cache: dict[int, int] = {}
    t_cache: dict[int, int] = {}

    def s(n):
        if n not in s_cache:
            s_cache[n] = rng.randint(-3, 3)
        return s_cache[n]

    def t(n):
        if n not in t_cache:
            v = 0
            while v == 0:
                v = rng.randint(-3, 3)
            t_cache[n] = v
        return t_cache[n]

    return FavardSystem(s, t, INT, "random")
