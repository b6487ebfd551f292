"""Exact dense linear algebra over the scalar rings.

Matrices are immutable row-major arrays over the ring each is built with
(integers, rationals, q-polynomials or q-rational functions); zero is falsy
in every ring.  Identity checks call ``det``, which takes one route per
ring, whatever the matrix's shape.  A matrix over either fraction ring is
first cleared row by row to its ``integral`` ring, rationals to integers as
q-rational functions to q-polynomials: each row is multiplied by the lcm of
its denominators, the integral determinant is taken, and its quotient by the
product of the row lcms is reduced once, instead of one gcd per ring
operation.  ``clear_row`` is that one row step, which ``BandedMinors``
shares.  A q-polynomial matrix is evaluated at q = 2^w (Kronecker
substitution), with w taken from a proven degree bound and Hadamard's
coefficient bound, and its determinant is read off the signed base-2^w
digits of one integer determinant.  Every other matrix, an integer one
after clearing, goes to ``det_bareiss``, which also stays the second route
for q-polynomials.

``det_bareiss`` and ``rank`` share one fraction-free O(n^3) elimination
(Bareiss), run in the matrix's own ring: ``det_bareiss`` stops at the first
column without a pivot, and ``rank`` counts the pivots after clearing the
rows of a fraction-ring matrix as ``det`` does.

``BandedMinors`` is the one sweep engine.  It grows the matrix given by an
entry function one row and one column at a time, so a family whose entries
do not depend on n yields its determinant at every n from one sweep.  The
matrix is banded, with m diagonals above the main one (h(i, j) = 0 for
j > i + m): fraction-free forward substitution against the outer diagonal
h(i, i + m) leaves an m x m Schur complement per size, O(n m) products per
size.  At m = 1, a lower Hessenberg matrix, this is Hyman's method, the
division-free expansion of every leading minor along its last row.  Only
``families.Family.sweep`` builds one, so a swept family's determinants and
``det`` of its built matrices stay two routes.  A fraction ring's rows are
cleared once as above.  A q-polynomial sweep runs as integers at
q = 2^w, with w from a bound that only grows: the l1 recurrence of the
expansion at m <= 1, Hadamard's bound at m >= 2.  The expansion keeps its
products and yields every minor of the sweep; only each product's
representation changes.  Taking one Kronecker determinant per size instead
would cost an O(n^3) integer elimination at every n.

Dodgson condensation (with a Bareiss fallback on interior zeros, since exact
arithmetic forbids perturbation tricks) and naive cofactor expansion (the
cross-check oracle) serve as independent routes.
A statement "the inverse of A is B" is checked as the one exact product
A * B == I in A's own ring: for square matrices that product alone proves it.
``matvec`` is that product with a one-column matrix.
"""

from __future__ import annotations

import itertools
import math
import operator
from fractions import Fraction
from typing import Callable, Sequence

from catdet.exact import exact_quotient
from catdet.qseries import ONE as QP_ONE
from catdet.qseries import ZERO as QP_ZERO
from catdet.qseries import (QPoly, QRat, _from_dense, _kron_bias, _kron_pack, _kron_pack_fresh,
                            _kron_unpack_signed, _kron_width, _restride)

__all__ = [
    "Ring",
    "INT",
    "FRAC",
    "QPOLY",
    "QRAT",
    "Matrix",
    "det",
    "det_bareiss",
    "BandedMinors",
    "clear_row",
    "det_condensation",
    "det_cofactor",
    "matvec",
    "rank",
]


class Ring:
    """A scalar ring: constants, coercion, exact division; a fraction ring's ``integral`` ring."""

    def __init__(self, name, zero, one, coerce, exact_div, integral=None):
        self.name = name
        self.zero = zero
        self.one = one
        self.coerce = coerce
        self.exact_div = exact_div
        self.integral = integral

    def __repr__(self):
        return f"Ring({self.name})"


INT = Ring("integer", 0, 1, int, exact_quotient)
FRAC = Ring("rational", Fraction(0), Fraction(1), Fraction, lambda a, b: a / b, INT)


def _qpoly_coerce(v):
    if isinstance(v, QPoly):
        return v
    if isinstance(v, int):
        return QPoly.const(v)
    if isinstance(v, QRat):
        return v.as_poly()
    raise TypeError(f"cannot coerce {v!r} to QPoly")


QPOLY = Ring("q-polynomial", QP_ZERO, QP_ONE, _qpoly_coerce, lambda a, b: a.exact_div(b))


def _qrat_coerce(v):
    if isinstance(v, QRat):
        return v
    return QRat(v)


QRAT = Ring("q-rational", QRat(0), QRat(1), _qrat_coerce, lambda a, b: a / b, QPOLY)


class Matrix:
    """Immutable dense matrix over one of the exact rings."""

    __slots__ = ("nrows", "ncols", "data", "ring")

    def __init__(self, nrows: int, ncols: int, data: Sequence, ring: Ring):
        if len(data) != nrows * ncols:
            raise ValueError("entry count does not match dimensions")
        self.nrows = nrows
        self.ncols = ncols
        self.ring = ring
        self.data = tuple(ring.coerce(v) for v in data)

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence], ring: Ring) -> "Matrix":
        nrows = len(rows)
        ncols = len(rows[0]) if nrows else 0
        if any(len(row) != ncols for row in rows):
            raise ValueError("rows of different lengths")
        flat = [v for row in rows for v in row]
        return cls(nrows, ncols, flat, ring)

    @classmethod
    def build(cls, nrows: int, ncols: int, entry: Callable[[int, int], object],
              ring: Ring) -> "Matrix":
        flat = [entry(i, j) for i in range(nrows) for j in range(ncols)]
        return cls(nrows, ncols, flat, ring)

    @classmethod
    def identity(cls, n: int, ring: Ring = INT) -> "Matrix":
        return cls.build(n, n, lambda i, j: ring.one if i == j else ring.zero, ring)

    def __getitem__(self, ij):
        i, j = ij
        return self.data[i * self.ncols + j]

    def rows(self):
        n = self.ncols
        return [list(self.data[i * n:(i + 1) * n]) for i in range(self.nrows)]

    def transpose(self) -> "Matrix":
        return Matrix.build(self.ncols, self.nrows, lambda i, j: self[j, i], self.ring)

    def __mul__(self, other: "Matrix") -> "Matrix":
        """Exact product in this matrix's ring; zero entries of a row are skipped."""
        if self.ncols != other.nrows:
            raise ValueError("dimension mismatch")
        n, p = self.ncols, other.ncols
        out = []
        for i in range(self.nrows):
            acc = [self.ring.zero] * p
            for k, a in enumerate(self.data[i * n:(i + 1) * n]):
                if a:
                    acc = [x + a * b for x, b in zip(acc, other.data[k * p:(k + 1) * p])]
            out.extend(acc)
        return Matrix(self.nrows, p, out, self.ring)

    def __eq__(self, other):
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.nrows == other.nrows
            and self.ncols == other.ncols
            and all(a == b for a, b in zip(self.data, other.data))
        )

    def __repr__(self):
        body = "; ".join(
            " ".join(str(self[i, j]) for j in range(self.ncols)) for i in range(self.nrows)
        )
        return f"Matrix[{self.nrows}x{self.ncols} over {self.ring.name}]({body})"


def _square(m: Matrix) -> int:
    if m.nrows != m.ncols:
        raise ValueError("determinant of a non-square matrix")
    return m.nrows


def _pivots(m: Matrix):
    """Fraction-free (Bareiss) elimination of ``m`` in its own ring.

    Yields ``(column, pivot, sign)`` for each pivot, before eliminating below
    it; ``sign`` is the parity of the row swaps so far.  A column with no
    nonzero entry at or below the current row has no pivot and is skipped.
    After r pivot steps each entry below the pivot rows is the (r+1) x (r+1)
    minor on the pivot rows and columns and its own row and column, so every
    division by the previous pivot is exact.
    """
    nr, nc = m.nrows, m.ncols
    a = [list(m.data[i * nc:(i + 1) * nc]) for i in range(nr)]
    div = m.ring.exact_div
    prev = m.ring.one
    sign = 1
    r = 0
    for c in range(nc):
        if r == nr:
            return
        for i in range(r, nr):
            if a[i][c]:
                if i != r:
                    a[r], a[i] = a[i], a[r]
                    sign = -sign
                break
        else:
            continue
        row_r = a[r]
        pivot = row_r[c]
        yield c, pivot, sign
        for row_i in a[r + 1:]:
            head = row_i[c]
            for j in range(c + 1, nc):
                row_i[j] = div(row_i[j] * pivot - head * row_r[j], prev)
        prev = pivot
        r += 1


def det_bareiss(m: Matrix):
    """Fraction-free determinant; all intermediate divisions are exact.

    The determinant is the last pivot of the elimination, signed by its row
    swaps, or zero at the first column without a pivot.  The 0x0 matrix has
    determinant 1.
    """
    n = _square(m)
    if n == 0:
        return m.ring.one
    for k, (c, pivot, sign) in enumerate(_pivots(m)):
        if c != k:
            break
        if k == n - 1:
            return pivot if sign == 1 else -pivot
    return m.ring.zero


def _pack(p: QPoly, width: int, low: int = 0, pack=_kron_pack) -> int:
    """p / q^low at q = 2^width, its coefficient tuple packed by ``pack``; zero packs to 0.

    A monomial packs to its coefficient.
    """
    vals = p._vals
    if not vals:
        return 0
    return (pack(vals, width) if len(vals) > 1 else vals[0]) << (width * (p._low - low))


def _repack(v: int, old: int, new: int) -> int:
    """A polynomial at q = 2^old, each coefficient below 2^(old-1) in size, at q = 2^new.

    Its signed digits, biased by 2^(old-1), are widened byte-wise (``_restride``)
    and the bias is taken off again at the new stride.  A constant is its own
    digit at every width.
    """
    count = abs(v).bit_length() // old + 1
    if count == 1 and abs(v) < 1 << (old - 1):
        return v
    data = (v + _kron_bias(old, count)).to_bytes(old // 8 * count, "little")
    wide = int.from_bytes(_restride(data, old // 8, new // 8, count), "little")
    return wide - (_kron_bias(new, count) >> (new - old))


def _steps(a: int, lams: Sequence[int], hs: Sequence[int], ys: Sequence[int], unit: bool) -> int:
    """a after the steps a <- lam a - h y, one per (lam, h, y); one sum if every lam is 1."""
    if unit:
        return a - sum(map(operator.mul, hs, ys))
    for lam, h, y in zip(lams, hs, ys):
        a = lam * a - h * y
    return a


# the least width of a sweep at m >= 2: below it an integer product costs
# about the same, and each doubling repacks every kept value
_BAND_WIDTH = 64


class BandedMinors:
    """det H_n for n = 0, 1, ... of a banded matrix: h(i, j) = 0 for j > i + m.

    The matrix is given by ``entry(i, j)`` over ``ring`` and may be unbounded:
    ``self[n]`` grows it one row and one column per size up to n x n, so the
    n x n determinant of a family whose entries do not depend on n is read
    off one sweep at every n.  Write lambda_k = h(k, k + m) for its outer
    diagonal.  With t = n - m, rows < t of H_n on the columns >= m are lower
    triangular with diagonal lambda_0 .. lambda_(t-1), so eliminating against
    them leaves an m x m Schur complement.  Fraction-free, row r starts from
    the m-vector s_r^(0) = h(r, 0..m-1) and takes the steps

        s_r^(k+1) = lambda_k s_r^(k) - h(r, m + k) y_k,   y_k = s_k^(k),

    two products per component and no division; up to sign, s_r^(k) is the
    (k+1)-minor on rows 0..k-1, r and columns m..m+k-1 and one column < m.
    While every lambda_k is 1 a row's steps add up to one sum of products,
    s_r^(0) - sum_k h(r, m + k) y_k.  Then

        det H_n = (-1)^(m t) det S_n / D_t^(m-1),

    where S_n is the m x m matrix of the rows s_r^(t), r in [t, n), and
    D_t = lambda_0 ... lambda_(t-1) (det H_n = D_n for m = 0); the quotient
    is exact, and ``exact_quotient`` raises on a remainder.  For n <= m,
    det H_n is the determinant of the leading n x n block of the s_r^(0).
    A 1 x 1 block is its entry; a larger one is a memoized Laplace expansion
    (``det_cofactor``), which takes products only: a Bareiss step would
    divide the large values of S_n.

    At m = 1 this is Hyman's method, the Horner form of the expansion of
    det H_n along its last row: y_k = (-1)^k det H_(k+1), each step is the
    Laplace expansion of a (k+2)-minor along its last column, and D_t^0 = 1
    divides nothing, so D_t is not kept.  So at m <= 1 a zero outer-diagonal
    entry needs no special case (at m = 0 it makes every later det H_n zero),
    while at m >= 2 the step that reaches one raises ``ValueError``.

    Growing H_n by one size takes the step t on the m rows in [t, n) and
    every step so far on the new row: O(n m) products.  The sweep keeps the
    y_k, one list per component, the lambda_k, the m-vectors of the rows in
    [t, n), each with its entries h(r, m + t .. r + m) still to be used, and
    every det H_n read.

    The sweep runs over the integers.  A fraction ring's row r is cleared
    once (``clear_row``, over its entries (r, 0..r+m)), and det H_n is the
    integral value over the product of the row lcms, reduced once.  A
    q-polynomial row (cleared or not) is divided by q to its lowest exponent
    and evaluated at q = 2^w, so every step is an integer product, and
    det H_n is read off its signed base-2^w digits.  The width w holds every
    coefficient of det H_n, of the kept values and of the entries packed:

    - at m <= 1 it is the least width above the l1 recurrence of the
      expansion and above every entry of the row.  ||fg||_1 <= ||f||_1
      ||g||_1 bounds the new row's ||s^(k+1)||_1 by N_(k+1) =
      ||lambda_k||_1 N_k + ||h(n, 1 + k)||_1 ||y_k||_1 from N_0 =
      ||h(n, 0)||_1 (at m = 0, det H_(n+1) by ||lambda_n||_1 ||det H_n||_1),
      with the actual l1 norms of the values read;
    - at m >= 2 it holds the bounds of ``_det_kronecker`` for H_n:
      Hadamard's product, over the rows, of the l2 norm of the l1 norms of
      their entries in columns < max(n, m) (a factor below 1 counted as 1)
      bounds the coefficients of det H_n and of every kept value, each a
      minor on those columns.  So each row in [t, n) keeps the partial sums
      of squared l1 norms it still needs.  w starts at 64 bits
      (``_BAND_WIDTH``) and at least doubles when it grows.

    The width only grows, and each kept value is then unpacked at the old
    width and packed at the new one.  Entries are packed through the
    ``_kron_pack`` memo, except cleared rows, which never recur.  det H_n
    is unpacked with as many digits as its bit length needs; more digits
    than its degree bound (the sum of the rows' spans) plus one mean that a
    carry left its top coefficient, so the width was too narrow, and raise
    ``ArithmeticError``.

    Adding column c raises ``ValueError`` if one of its entries beyond the
    band is nonzero.  A size lands whole or not at all: it is built in
    locals, except that y_t and lambda_t join the kept lists before the new
    row's steps, and those two are taken off again if anything raises
    before det H_(n+1) is read, so the sweep is left as it was.
    """

    _unit = True  # every lambda_k so far is 1
    _d = 1  # D_t, at m >= 2; at m = 0, det H_n
    _scale = None  # over a fraction ring, the product of the row lcms
    # over q-polynomials: the width (0 over the integers), the sums of the
    # row shifts and of the row spans and, at m >= 2, the product of the
    # squared Hadamard factors of the rows < t
    _width = 0
    _shift = 0
    _span = 0
    _norm2 = 1

    def __init__(self, entry: Callable[[int, int], object], ring: Ring, m: int):
        if m < 0:
            raise ValueError(f"band {m} is negative")
        self.entry = entry
        self.ring = ring
        self.m = m
        self._dets = [ring.one]
        self._ys: list[list[int]] = [[] for _ in range(m)]  # _ys[c][k]: component c of y_k
        self._lams: list[int] = []
        # for r in [t, n): s_r, the entries h(r, m + t .. r + m), and over
        # q-polynomials the row's lowest exponent and, at m >= 2, its squared
        # Hadamard factors at sizes n .. r + m + 1 (partial sums of squared
        # l1 norms)
        self._rows: list[tuple[list[int], list, int, list[int]]] = []
        if ring.integral:
            self._scale = ring.integral.one
        if QPOLY in (ring, ring.integral):
            self._width = _BAND_WIDTH if m > 1 else _kron_width(0)
            self._pack_entry = _kron_pack_fresh if ring.integral else _kron_pack
            # at m <= 1, the l1 norms of the lambda_k and of each integral det H_n read
            self._lam_norms: list[int] = []
            self._norms = [1]

    def __len__(self) -> int:
        """How many sizes are computed so far."""
        return len(self._dets)

    def __getitem__(self, n: int):
        """det H_n, the determinant of the leading n x n block."""
        if n < 0:
            raise IndexError(f"no leading block of size {n}")
        while len(self._dets) <= n:
            self._grow()
        return self._dets[n]

    def _grow(self) -> None:
        """Add row and column n = len(self) - 1 and compute det H_(n+1)."""
        entry, ring, m = self.entry, self.ring, self.m
        n = len(self._dets) - 1
        for i in range(n - m):
            if entry(i, n):
                raise ValueError(
                    f"not banded: entry ({i}, {n}) beyond the band j <= i + {m} is nonzero")
        coerce = ring.coerce
        row = [coerce(entry(n, j)) for j in range(n + m + 1)]
        ys, lams, d, rows, width = self._ys, self._lams, self._d, self._rows, self._width
        if m > 1 and n >= m and not rows[0][1][0]:
            raise ValueError(f"outer-diagonal entry ({n - m}, {n}) is zero")
        scale = self._scale
        if ring.integral:
            row, lcm = clear_row(row, ring)
            scale *= lcm
        low = part = None
        if width:
            width, low, span, part, rows, norm2, lam_norm = self._fit(row, n)
            old = self._width
            if width > old:  # every kept value, at the new width
                ys = [[_repack(v, old, width) for v in y] for y in ys]
                lams = [_repack(v, old, width) for v in lams]
                d = _repack(d, old, width)
                rows = [([_repack(v, old, width) for v in s], rest, base, p)
                        for s, rest, base, p in rows]
            pack = self._pack_entry
        unit, t = self._unit, len(lams)
        try:
            if not m:  # det H_(n+1) = lambda_0 ... lambda_n
                value = d = d * (_pack(row[n], width, low, pack) if width else row[n])
            else:
                if n >= m:  # step t = n - m: row t leaves, the rows in (t, n) take the step
                    (y, (lam,), base, _), *rows = rows
                    if width:
                        lam = _pack(lam, width, base, pack)
                    for col, v in zip(ys, y):
                        col.append(v)
                    lams.append(lam)
                    stepped = []
                    for s, rest, base, p in rows:
                        h = _pack(rest[0], width, base, pack) if width else rest[0]
                        stepped.append(([lam * a - h * b for a, b in zip(s, y)], rest[1:], base, p))
                    rows = stepped
                    unit = unit and lam == 1
                    if m > 1:
                        d *= lam
                # the new row: s_n^(0), then a step against every row that has left
                steps = m + len(lams)
                head = [_pack(v, width, low, pack) for v in row[:steps]] if width else row
                hs = head[m:steps]
                s = [_steps(a, lams, hs, yc, unit) for a, yc in zip(head, ys)]
                rows = [*rows, (s, row[steps:], low, part)]
                k = min(n + 1, m)  # the rows of S_n, or for n < m the leading block
                value = rows[0][0][0] if k == 1 else det_cofactor(
                    Matrix(k, k, [v for s, *_ in rows for v in s[:k]], INT))
                if n >= m:
                    if m > 1:  # det S_n / D_t^(m-1)
                        value = exact_quotient(value, d ** (m - 1), "det S_n / D_t^(m-1)")
                    if m * (n + 1 - m) % 2:
                        value = -value
            if width:
                count = abs(value).bit_length() // width + 1
                if count > span + 1:
                    raise ArithmeticError(
                        f"det H_{n + 1} has {count} digits at width {width}, past its degree {span}")
                digits = _kron_unpack_signed(value, width, count)
                norm = sum(map(abs, digits))  # kept at m <= 1
                shift = self._shift + low
                value = _from_dense(digits, shift)
            if ring.integral:
                value = type(ring.one)(value, scale)
        except BaseException:  # y_t and lambda_t leave the kept lists again
            del self._lams[t:]
            for col in self._ys:
                del col[t:]
            raise
        # keep the new size
        self._ys, self._lams, self._d, self._rows, self._scale = ys, lams, d, rows, scale
        self._unit = unit
        if width:
            self._width, self._span, self._shift, self._norm2 = width, span, shift, norm2
            if m < 2:
                self._norms.append(norm)
                self._lam_norms.append(lam_norm)
        self._dets.append(value)

    def _fit(self, row: list, n: int):
        """With the q-polynomial ``row`` n: the sweep's width and the new bookkeeping.

        That is the width, the row's lowest exponent, the sum of the row
        spans, the row's and the kept rows' squared Hadamard factors (these
        advanced by one size), norm2, and the l1 norm of the row's last entry.
        """
        m = self.m
        low = min([v._low for v in row if v], default=0)
        high = max([v._low + len(v._vals) for v in row if v], default=low + 1)
        span = self._span + high - 1 - low
        norms = [sum(map(abs, v._vals)) for v in row]
        rows, norm2, part = self._rows, self._norm2, []
        if m > 1:
            # the Hadamard factors of H_(n+1), each row on its columns <= n
            # and < m (those of its m-vector); row t = n - m, which leaves, is
            # whole, so its factor moves into norm2
            cum = list(itertools.accumulate(v * v for v in norms))
            part = [cum[max(j, m - 1)] for j in range(n, n + m + 1)]
            rows = [(s, rest, base, p[1:]) for s, rest, base, p in rows]
            if n >= m:
                norm2 *= max(rows[0][3][0], 1)
            bound = norm2 * max(part[0], 1)
            for *_, p in rows[1:] if n >= m else rows:
                bound *= max(p[0], 1)
            need = _kron_width(math.isqrt(bound) + 1)
        elif m:
            bound = norms[0]
            for lam_norm, h_norm, y_norm in zip(self._lam_norms, norms[1:], self._norms[1:]):
                bound = lam_norm * bound + h_norm * y_norm
            need = _kron_width(max(bound, *norms))
        else:
            need = _kron_width(max(norms[n] * self._norms[n], *norms))
        old = self._width
        width = old if need <= old else max(need, 2 * old) if m > 1 else need
        return width, low, span, part, rows, norm2, norms[-1]


def clear_row(row: Sequence, ring: Ring) -> tuple[list, object]:
    """A fraction-ring ``row`` times its denominators' lcm, and that lcm, over ``ring.integral``."""
    lcm = ring.integral.one
    div = ring.integral.exact_div
    for v in row:
        d = v.denominator
        if not (d == 1 or d == lcm):
            # lcm / d reduces to (lcm / g) / (d / g), g = gcd(lcm, d)
            lcm = lcm * type(v)(lcm, d).denominator
    return [v.numerator if v.denominator == lcm else v.numerator * div(lcm, v.denominator)
            for v in row], lcm


def _clear_rows(m: Matrix) -> tuple[Matrix, object]:
    """``m`` with each row cleared, over ``m.ring.integral``, and the product of the row scales."""
    ring, n = m.ring, m.ncols
    data = []
    scale = ring.integral.one
    for i in range(m.nrows):
        row, lcm = clear_row(m.data[i * n:(i + 1) * n], ring)
        data += row
        scale = scale * lcm
    return Matrix(m.nrows, n, data, ring.integral), scale


def _det_kronecker(m: Matrix) -> QPoly:
    """Determinant of a q-polynomial matrix through one integer determinant.

    Each row is divided by q to its lowest exponent, and every exponent by the
    gcd g of all the shifted ones, so the entries become polynomials in
    t = q^g.  Their determinant has degree at most (sum of the row spans) / g,
    and on |t| = 1 Hadamard's inequality bounds it, hence each of its
    coefficients, by the product over rows of the l2 norm of the entries' l1
    norms.  With 2^(w-1) above that bound, the integer determinant of the
    matrix at t = 2^w holds the coefficients as its signed base-2^w digits.
    """
    n = _square(m)
    if n == 0:
        return QP_ONE
    rows = [m.data[i * n:(i + 1) * n] for i in range(n)]
    lows = []
    g = degree = 0
    norm2 = 1
    for row in rows:
        entries = [v for v in row if v]
        if not entries:
            return QP_ZERO
        low = min(v._low for v in entries)
        lows.append(low)
        degree += max(v._low + len(v._vals) for v in entries) - 1 - low
        for v in entries:
            if g != 1:
                g = math.gcd(g, v._low - low, *[i for i, c in enumerate(v._vals) if c])
        norm2 *= sum(sum(map(abs, v._vals)) ** 2 for v in entries)
    g = g or 1
    bound = math.isqrt(norm2) + 1
    width = _kron_width(bound)
    # each entry at t = 2^w, its coefficients in t packed from its own tuple
    packed = [_kron_pack(v._vals[::g], width) << (width * ((v._low - low) // g)) if v else 0
              for row, low in zip(rows, lows) for v in row]
    value = det_bareiss(Matrix(n, n, packed, INT))
    digits = _kron_unpack_signed(value, width, degree // g + 1)
    return _from_dense(digits, sum(lows), g)


def det(m: Matrix):
    """Exact determinant; the engine follows from the matrix's ring alone.

    A 0 x 0 or 1 x 1 matrix is its own determinant.  A larger matrix over a
    fraction ring (``FRAC`` or ``QRAT``) has each row scaled by the lcm of
    its (small) denominators; the integral determinant of the result, over
    the product of the row scales, is reduced once by the fraction type's
    constructor, so no gcd is taken per elimination step.  A q-polynomial
    matrix goes through one integer determinant at q = 2^w, with w from a
    proven coefficient bound (``_det_kronecker``).  Every other matrix uses
    ``det_bareiss``.  A lower Hessenberg matrix takes the same route as any
    other: the sweep of ``BandedMinors`` pays off only on families read at
    many sizes.
    """
    if _square(m) < 2:
        return m.data[0] if m.data else m.ring.one
    if m.ring.integral:
        cleared, scale = _clear_rows(m)
        return type(m.ring.one)(det(cleared), scale)
    if m.ring is QPOLY:
        return _det_kronecker(m)
    return det_bareiss(m)


def det_cofactor(m: Matrix):
    """Laplace expansion down the first column (an independent oracle).

    The minor on the last n - k columns depends only on its k-row set, so
    each is expanded once and memoized under its rows: O(n 2^n) products,
    not n!.  It takes no division, which is why ``BandedMinors`` uses it for
    its m x m blocks of large integers.
    """
    n = _square(m)
    ring = m.ring
    if n == 0:
        return ring.one
    data = m.data
    minors: dict[tuple[int, ...], object] = {}

    def expand(rows: tuple[int, ...], col: int):
        if len(rows) == 1:
            return data[rows[0] * n + col]
        acc = minors.get(rows)
        if acc is not None:
            return acc
        acc = ring.zero
        sign = 1
        for idx, r in enumerate(rows):
            v = data[r * n + col]
            if v:
                rest = rows[:idx] + rows[idx + 1:]
                term = v * expand(rest, col + 1)
                acc = acc + term if sign == 1 else acc - term
            sign = -sign
        minors[rows] = acc
        return acc

    return expand(tuple(range(n)), 0)


def det_condensation(m: Matrix):
    """Dodgson condensation; falls back to ``det_bareiss`` on an interior zero."""
    n = _square(m)
    one = m.ring.one
    if n == 0:
        return one
    div = m.ring.exact_div
    prev = [[one] * n for _ in range(n)]
    cur = m.rows()
    for size in range(n - 1, 0, -1):
        nxt = []
        for i in range(size):
            row = []
            for j in range(size):
                interior = prev[i + 1][j + 1]
                if not interior:
                    return det_bareiss(m)
                num = cur[i][j] * cur[i + 1][j + 1] - cur[i][j + 1] * cur[i + 1][j]
                row.append(div(num, interior))
            nxt.append(row)
        prev, cur = cur, nxt
    return cur[0][0]


def matvec(m: Matrix, v: Sequence) -> list:
    """Exact matrix-vector product: ``m`` times the column ``v`` in ``m``'s ring."""
    return list((m * Matrix(len(v), 1, v, m.ring)).data)


def rank(m: Matrix) -> int:
    """Rank: the number of pivots of the fraction-free elimination ``_pivots``.

    A fraction-ring matrix has its rows cleared first (``_clear_rows``),
    which keeps the rank, so the elimination runs over the integral ring.
    """
    if m.ring.integral:
        m = _clear_rows(m)[0]
    return sum(1 for _ in _pivots(m))
