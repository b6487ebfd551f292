"""catdet: exact verification of determinant and sum identities for
Catalan-style combinatorial families.

The package provides exact scalar arithmetic (arbitrary-precision integers
and rationals), a Laurent polynomial ring in q, exact dense linear algebra
over the ring each matrix is built with (a determinant that clears the
denominators of a rational or q-rational matrix row by row, to integers or
q-polynomials, then takes one Kronecker-substituted integer determinant of a
q-polynomial matrix and fraction-free Bareiss of an integer one; one sweep
that yields every leading minor of a growing banded matrix by substitution
against its outer diagonal, Hyman's method for a lower Hessenberg one, so a
family is expanded once for all its sizes; one Bareiss elimination that gives both
the determinant and the rank; Dodgson condensation; and the exact product
that checks an inverse statement or a null vector), a three-term-recurrence
engine for monic orthogonal polynomials and their moment tables, the
paper's matrix families as one table built through ``families.build``, a
registry of executable identity checks, residue-lift determinant
experiments with conjecture searches, and a command line front end.
"""

from catdet.exact import binomial
from catdet.qseries import QPoly, QRat, q_binomial, q_int
from catdet.linalg import (
    BandedMinors,
    Matrix,
    det,
    det_bareiss,
    det_cofactor,
    det_condensation,
)

__all__ = [
    "binomial",
    "QPoly",
    "QRat",
    "q_int",
    "q_binomial",
    "Matrix",
    "det",
    "det_bareiss",
    "BandedMinors",
    "det_condensation",
    "det_cofactor",
]
