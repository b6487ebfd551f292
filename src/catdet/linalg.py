"""Exact dense linear algebra over the scalar rings.

Matrices are immutable row-major arrays over the ring each is built with
(integers, rationals, q-polynomials or q-rational functions); zero is falsy
in every ring.  Identity checks call ``det``, which picks its route by ring
and then by shape.  A matrix over either fraction ring is first cleared row
by row to its ``integral`` ring, rationals to integers as q-rational functions
to q-polynomials: each row is multiplied by the lcm of its denominators, the
integral determinant is taken, and its quotient by the product of the row
lcms is reduced once, instead of one gcd per ring operation.  ``clear_row``
is that one row step, which the sweeps of ``catdet.families`` share.  A lower
Hessenberg matrix (every entry above the superdiagonal is zero, as in most
of the paper's families) goes to ``det_hessenberg``.  Any other
q-polynomial matrix is evaluated at q = 2^w (Kronecker substitution), with w
taken from a proven degree bound and Hadamard's coefficient bound, and its
determinant is read off the signed base-2^w digits of one integer
determinant.  Any other matrix goes to ``det_bareiss``, which also stays the
second route for q-polynomials.

``det_bareiss`` and ``rank`` share one fraction-free O(n^3) elimination
(Bareiss), run in the matrix's own ring: ``det_bareiss`` stops at the first
column without a pivot, and ``rank`` counts the pivots after clearing the
rows of a fraction-ring matrix as ``det`` does.

``LeadingMinors`` is the Hessenberg engine: the division-free expansion of
every leading minor along its last row, O(n^2) ring products in all.  It
grows the matrix given by an entry function one row and one column at a
time, so a family whose entries do not depend on n yields its determinant at
every n from one sweep; ``det_hessenberg`` runs it over a matrix's entries.
Over q-polynomials each row of the expansion runs as integers at q = 2^w:
the minors and superdiagonal entries stay packed from row to row, the row's
entries are packed once, and the new minor is unpacked once, with w taken
from an l1 bound on its coefficients that the row's own recurrence carries.
The expansion keeps its O(n^2) products and yields every minor of the sweep;
only each product's representation changes.  Taking one Kronecker
determinant per size instead would cost an O(n^3) integer elimination at
every n.

``BandedMinors`` is the same kind of sweep for a banded matrix, with m
diagonals above the main one (h(i, j) = 0 for j > i + m) and a nonzero outer
diagonal h(i, i + m): fraction-free forward substitution against that
diagonal leaves an m x m Schur complement per size, O(n m) products per
size, and a fraction ring's rows are cleared once as above.  It runs over
the integers, a q-polynomial sweep whole at one Kronecker width that only
grows.

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
    "det_hessenberg",
    "LeadingMinors",
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


def _is_lower_hessenberg(m: Matrix) -> bool:
    """True iff every entry above the superdiagonal is zero (zero is falsy in every ring)."""
    n, data = m.ncols, m.data
    return not any(any(data[i * n + i + 2:(i + 1) * n]) for i in range(n - 2))


def _pack(p: QPoly, width: int, pack=_kron_pack) -> int:
    """p's coefficient tuple at q = 2^width by ``pack``; a monomial packs to its coefficient."""
    vals = p._vals
    if len(vals) > 1:
        return pack(vals, width)
    return vals[0] if vals else 0


class LeadingMinors:
    """Leading principal minors D_0 = 1, D_1, ... of a lower Hessenberg matrix.

    The matrix is given by ``entry(i, j)`` over ``ring`` and may be unbounded:
    ``self[n]`` grows it one row and one column per minor up to n x n, so the
    n x n determinant of a family whose entries do not depend on n is read off
    one sweep at every n.  Expanding D_k along its last row gives

        D_k = sum_j (-1)^(k-1-j) a(k-1, j) * prod_{i=j}^{k-2} a(i, i+1) * D_j,

    evaluated in nested (Horner) form from the left,
    acc <- a(k-1, j) D_j - a(j-1, j) acc, so each term costs two ring products
    and no division.  Terms left of a zero superdiagonal entry a(s-1, s)
    vanish, so each row's sum starts at the last such s.  Over ``QPOLY`` a
    row of more than one term runs as integers at q = 2^w (``_packed_row``):
    the minors and the superdiagonal stay packed, and D_k is unpacked once.
    Each entry is evaluated once, when its row or column is added; only the
    superdiagonal and the minors are kept.  A row lands whole or not at all:
    if one of its entries raises, the next read evaluates the row again.
    Adding column c raises ``ValueError`` if one of its entries above the
    superdiagonal is nonzero.  ``pack`` packs the entries over ``QPOLY``:
    the ``_kron_pack`` memo, or ``_kron_pack_fresh`` for entries that never
    recur.
    """

    def __init__(self, entry: Callable[[int, int], object], ring: Ring,
                 pack: Callable[[Sequence[int], int], int] = _kron_pack):
        self.entry = entry
        self.ring = ring
        self._pack_entry = pack
        self._minors = [ring.one]
        self._super = [ring.zero]  # _super[s] = a(s-1, s); slot 0 is unused
        self._start = 0
        # QPOLY only: the l1 norm of each minor, and a width w with the minors
        # and superdiagonal entries packed so far at q = 2^w, by index
        self._norms: list[int] = []
        self._packs: tuple[int, dict[int, int], dict[int, int]] = (0, {}, {})

    def __len__(self) -> int:
        """How many minors are computed so far."""
        return len(self._minors)

    def __getitem__(self, n: int):
        """D_n, the determinant of the leading n x n block."""
        if n < 0:
            raise IndexError(f"no leading minor of size {n}")
        while len(self._minors) <= n:
            self._grow()
        return self._minors[n]

    def _grow(self) -> None:
        """Add row and column k - 1 and compute D_k, k = len(self)."""
        entry, coerce, minors = self.entry, self.ring.coerce, self._minors
        k = len(minors)
        col = k - 1
        for i in range(col - 1):
            if entry(i, col):
                raise ValueError(
                    f"not lower Hessenberg: entry ({i}, {col}) above the superdiagonal is nonzero"
                )
        sup = self._super
        start = self._start
        if k >= 2:
            sup.append(coerce(entry(k - 2, col)))
            if not sup[col]:
                start = col
        try:
            if self.ring is QPOLY:
                acc = self._packed_row(col, start)
            else:
                acc = coerce(entry(col, start)) * minors[start]
                for j in range(start + 1, k):
                    acc = coerce(entry(col, j)) * minors[j] - sup[j] * acc
        except BaseException:
            # the row lands whole or not at all, its packed a(col-1, col) too
            del sup[max(col, 1):]
            self._packs[2].pop(col, None)
            raise
        self._start = start
        minors.append(acc)

    def _packed_row(self, col: int, start: int) -> QPoly:
        """D_k, k = col + 1, over ``QPOLY``: the row's recurrence as integers at q = 2^w.

        Evaluation at q = 2^w is a ring homomorphism, so the recurrence runs
        on packed values, a term's Laurent exponents aligned with the sum's by
        a shift of w bits per exponent; only reading D_k off its signed
        base-2^w digits needs a bound.  ||fg||_1 <= ||f||_1 ||g||_1 gives
        ||D_k||_1 <= N_(k-1), where N_start = ||a(k-1, start)||_1 ||D_start||_1
        and N_j = ||a(k-1, j)||_1 ||D_j||_1 + ||a(j-1, j)||_1 N_(j-1), so
        ``_kron_width(N_(k-1))`` bits hold every coefficient.  The same bound
        covers each packed operand: a minor is used only next to a nonzero
        entry, and a superdiagonal entry only on a nonzero sum, where N is at
        least 1 and does not fall.  The minors and superdiagonal entries stay
        packed, from the first row that uses each, at a width that only grows,
        at least doubling, so each is packed once per width (measured faster
        than repacking them at each row's own width); the row's entries are
        packed once.  Entries go through the ``_kron_pack`` memo unless the
        sweep was given ``_kron_pack_fresh`` for them (cleared rows never
        recur); a minor never recurs and is packed outside it.  A row of one
        term is one ``QPoly`` product.
        """
        minors, sup = self._minors, self._super
        row = [self.ring.coerce(self.entry(col, j)) for j in range(start, col + 1)]
        if len(row) == 1:
            return row[0] * minors[start]
        norms = self._norms
        while len(norms) <= col:
            norms.append(sum(map(abs, minors[len(norms)]._vals)))
        bound = 0  # a(start-1, start) is zero, so N_start has no second term
        for j, a in enumerate(row, start):
            bound = sum(map(abs, a._vals)) * norms[j] + sum(map(abs, sup[j]._vals)) * bound
        width, packed, packed_sup = self._packs
        need = _kron_width(bound)
        if need > width:
            width, packed, packed_sup = self._packs = (max(need, 2 * width), {}, {})
        pack_entry = self._pack_entry
        acc = low = hi = 0  # acc is the sum of coefficient i of q^(low + i) at q = 2^w
        for j, a in enumerate(row, start):
            if acc:
                s = sup[j]
                p = packed_sup.get(j)
                if p is None:
                    p = packed_sup[j] = _pack(s, width, pack_entry)
                acc = -acc * p
                low += s._low
                hi += s._low + len(s._vals) - 1
            d = minors[j]
            if a and d:
                p = packed.get(j)
                if p is None:
                    p = packed[j] = _pack(d, width, _kron_pack_fresh)
                term = _pack(a, width, pack_entry) * p
                t_low = a._low + d._low
                t_hi = t_low + len(a._vals) + len(d._vals) - 2
                if not acc:
                    acc, low, hi = term, t_low, t_hi
                    continue
                if t_low < low:
                    acc <<= width * (low - t_low)
                    low = t_low
                else:
                    term <<= width * (t_low - low)
                acc += term
                hi = max(hi, t_hi)
        if not acc:
            return QP_ZERO
        return _from_dense(_kron_unpack_signed(acc, width, hi - low + 1), low)


def det_hessenberg(m: Matrix):
    """Determinant of a lower Hessenberg matrix (a(i, j) = 0 for j > i + 1).

    Runs ``LeadingMinors`` over the matrix's entries: O(n^2) ring products,
    no division, no pivoting, so zero leading minors need no special case.
    Over ``QPOLY`` those products are integer products at q = 2^w, one row
    at a time, with w from the l1 bound of ``LeadingMinors._packed_row``.
    Raises ``ValueError`` on a matrix that is not lower Hessenberg.
    """
    n = _square(m)
    data = m.data
    return LeadingMinors(lambda i, j: data[i * n + j], m.ring)[n]


def _step(s: list[int], lam: int, h: int, y: list[int]) -> list[int]:
    """lam * s - h * y entry-wise: one substitution step of ``BandedMinors``."""
    if h:
        return [lam * a - h * b for a, b in zip(s, y)]
    return s if lam == 1 else [lam * a for a in s]


def _repack(v: int, old: int, new: int) -> int:
    """A polynomial at q = 2^old, each coefficient below 2^(old-1) in size, at q = 2^new.

    Its signed digits, biased by 2^(old-1), are widened byte-wise (``_restride``)
    and the bias is taken off again at the new stride.
    """
    count = abs(v).bit_length() // old + 1
    data = (v + _kron_bias(old, count)).to_bytes(old // 8 * count, "little")
    wide = int.from_bytes(_restride(data, old // 8, new // 8, count), "little")
    return wide - (_kron_bias(new, count) >> (new - old))


# the least width of a banded q-polynomial sweep: below it an integer
# product costs about the same, and each doubling repacks every kept value
_BAND_WIDTH = 64


class BandedMinors:
    """det H_n for n = 0, 1, ... of a banded matrix: h(i, j) = 0 for j > i + m.

    The matrix is given by ``entry(i, j)`` over ``ring`` and may be unbounded,
    as for ``LeadingMinors``, and its outer diagonal lambda_k = h(k, k + m)
    must be nonzero.  With t = n - m, rows < t of H_n on the columns >= m are
    lower triangular with diagonal lambda_0 .. lambda_(t-1), so eliminating
    against them leaves an m x m Schur complement (for m = 1 this is Hyman's
    method).  Fraction-free, row r starts from the m-vector
    s_r^(0) = h(r, 0..m-1) and takes the steps

        s_r^(k+1) = lambda_k s_r^(k) - h(r, m + k) y_k,   y_k = s_k^(k),

    two products and no division; up to sign, s_r^(k) is the (k+1)-minor on
    rows 0..k-1, r and columns m..m+k-1 and one column < m.  Then

        det H_n = (-1)^(m t) det S_n / D_t^(m-1),

    where S_n is the m x m matrix of the rows s_r^(t), r in [t, n), and
    D_t = lambda_0 ... lambda_(t-1) (det H_n = D_n for m = 0); the quotient
    is exact, and ``exact_quotient`` raises on a remainder.  For n <= m,
    det H_n is the determinant of the leading n x n block of the s_r^(0).
    Both small determinants are memoized Laplace expansions (``det_cofactor``),
    which take products only: a Bareiss step would divide the large values of
    S_n.  Growing H_n by one size takes the step t on the m rows in [t, n)
    and every step so far on the new row: O(n m) products.  The sweep keeps
    the y_k and lambda_k, the m-vectors of the rows in [t, n), each with its
    entries h(r, m + t .. r + m) still to be used, and every det H_n read.

    The sweep runs over the integers.  A fraction ring's row r is cleared
    once (``clear_row``, over its entries (r, 0..r+m)), and det H_n is the
    integral value over the product of the row lcms, reduced once.  A
    q-polynomial row (cleared or not) is divided by q to its lowest exponent
    and evaluated at q = 2^w, so every step is an integer product.  The
    width w holds the bounds of ``_det_kronecker`` for H_n: Hadamard's
    product, over the rows, of the l2 norm of the l1 norms of their entries
    in columns < max(n, m) (a factor below 1 counted as 1) bounds the
    coefficients of det H_n and of every kept value, each a minor on those
    columns, and the sum of the row spans bounds the degree of det H_n.  So
    each row in [t, n) keeps the partial sums of squared l1 norms it still
    needs.  The width only grows, at least doubling, and each kept value is
    then unpacked at the old width and packed at the new one.  det H_n is
    read off its signed base-2^w digits (a leftover raises).  Entries are
    packed through the ``_kron_pack`` memo, except cleared rows, which never
    recur.

    Adding column c raises ``ValueError`` if one of its entries beyond the
    band is nonzero, and a step raises ``ValueError`` at a zero outer-diagonal
    entry.  A size lands whole or not at all: its entries are all read, and
    its checks made, before the kept values change.
    """

    def __init__(self, entry: Callable[[int, int], object], ring: Ring, m: int):
        if m < 0:
            raise ValueError(f"band {m} is negative")
        self.entry = entry
        self.ring = ring
        self.m = m
        self._pack_entry = _kron_pack_fresh if ring.integral else _kron_pack
        self._dets = [ring.one]
        self._ys: list[list[int]] = []
        self._lams: list[int] = []
        self._d = 1  # D_t
        # for r in [t, n): s_r, the entries h(r, m + t .. r + m), and over
        # q-polynomials the row's lowest exponent and its squared Hadamard
        # factors at sizes n .. r + m + 1 (partial sums of squared l1 norms)
        self._rows: list[tuple[list[int], list, int, list[int]]] = []
        self._scale = ring.integral.one if ring.integral else None  # the row lcms' product
        # q-polynomial rows: the width (0 over the integers), the product of
        # the squared Hadamard factors of the rows < t, and the sums of the
        # row shifts and of the row spans
        self._width = _BAND_WIDTH if QPOLY in (ring, ring.integral) else 0
        self._norm2 = 1
        self._shift = self._span = 0

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
        row = [ring.coerce(entry(n, j)) for j in range(n + m + 1)]
        scale = self._scale
        if ring.integral:
            row, lcm = clear_row(row, ring)
            scale = scale * lcm
        ys, lams, d, rows = self._ys, self._lams, self._d, self._rows
        width, norm2, shift, span = self._width, self._norm2, self._shift, self._span
        row_low, sums = 0, []
        if width:
            entries = [v for v in row if v]
            if entries:
                row_low = min(v._low for v in entries)
                shift += row_low
                span += max(v._low + len(v._vals) for v in entries) - 1 - row_low
            cum = list(itertools.accumulate(sum(map(abs, v._vals)) ** 2 for v in row))
            sums = [cum[max(j, m - 1)] for j in range(n, n + m + 1)]
            # the Hadamard factors of H_(n+1), each row on its columns <= n and
            # < m (those of its m-vector); the row that leaves at step t below
            # (row t) is whole, so its factor moves into norm2
            rows = [(s, rest, base, part[1:]) for s, rest, base, part in rows]
            if n >= m:
                norm2 *= max(rows[0][3][0] if m else sums[0], 1)
            need = norm2
            for _, _, _, part in rows[1:] if n >= m else rows:
                need *= max(part[0], 1)
            if m:
                need *= max(sums[0], 1)
            need = _kron_width(math.isqrt(need) + 1)
            if need > width:
                old, width = width, max(need, 2 * width)
                ys = [[_repack(v, old, width) for v in y] for y in ys]
                lams = [_repack(v, old, width) for v in lams]
                d = _repack(d, old, width)
                rows = [([_repack(v, old, width) for v in s], rest, base, part)
                        for s, rest, base, part in rows]
            pack_entry = self._pack_entry

            def pack(v, base):
                return _pack(v, width, pack_entry) << (width * (v._low - base)) if v else 0
        else:
            def pack(v, base):
                return v
        t = max(n - m, 0)  # the steps taken by the rows above
        s = [pack(v, row_low) for v in row[:m]]
        for k in range(t):
            s = _step(s, lams[k], pack(row[m + k], row_low), ys[k])
        rows = [*rows, (s, row[m + t:], row_low, sums)]
        y = None
        if n >= m:  # step t: row t leaves with y_t = s_t^(t) and lambda_t
            y, (lam_t,), base, _ = rows[0]
            if not lam_t:
                raise ValueError(f"outer-diagonal entry ({t}, {t + m}) is zero")
            lam = pack(lam_t, base)
            rows = [(_step(s, lam, pack(rest[0], base), y), rest[1:], base, part)
                    for s, rest, base, part in rows[1:]]
            d *= lam
        size = n + 1
        if m:
            k = min(size, m)  # S_n, or for size <= m the block itself
            value = det_cofactor(Matrix(k, k, [v for s, *_ in rows for v in s[:k]], INT))
            if size > m:
                value = exact_quotient(value, d ** (m - 1), "det S_n / D_t^(m-1)")
                if m * (size - m) % 2:
                    value = -value
        else:
            value = d
        if width:
            value = _from_dense(_kron_unpack_signed(value, width, span + 1), shift)
        if ring.integral:
            value = type(ring.one)(value, scale)
        if y is not None:
            ys.append(y)
            lams.append(lam)
        self._ys, self._lams, self._d, self._rows = ys, lams, d, rows
        self._width, self._norm2, self._shift, self._span = width, norm2, shift, span
        self._scale = scale
        self._dets.append(value)


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
    """Exact determinant; the engine follows from the matrix's ring and shape.

    A matrix over a fraction ring (``FRAC`` or ``QRAT``) has each row scaled
    by the lcm of its (small) denominators; the integral determinant of the
    result, over the product of the row scales, is reduced once by the
    fraction type's constructor, so no gcd is taken per elimination step.
    Then lower Hessenberg matrices use the division-free expansion of
    ``det_hessenberg``.  Other q-polynomial matrices go through one integer
    determinant at q = 2^w, with w from a proven coefficient bound
    (``_det_kronecker``).  Every other matrix uses ``det_bareiss``.
    """
    _square(m)
    if m.ring.integral:
        cleared, scale = _clear_rows(m)
        return type(m.ring.one)(det(cleared), scale)
    if _is_lower_hessenberg(m):
        return det_hessenberg(m)
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
