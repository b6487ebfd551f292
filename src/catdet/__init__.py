"""catdet: exact verification of determinant and sum identities for
Catalan-style combinatorial families.

The package provides exact scalar arithmetic (arbitrary-precision integers
and rationals), a Laurent polynomial ring in q, exact dense linear algebra
over the ring each matrix is built with (a determinant that clears the
denominators of a rational or q-rational matrix row by row, to integers or
q-polynomials, then picks the division-free Hessenberg expansion or
fraction-free Bareiss from the shape; the Hessenberg expansion as a sweep
that yields every leading minor of a growing matrix, so a family is
expanded once for all its sizes, and a banded matrix's sweep by
substitution against its outer diagonal; one Bareiss elimination that gives both
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
    LeadingMinors,
    Matrix,
    det,
    det_bareiss,
    det_cofactor,
    det_condensation,
    det_hessenberg,
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
    "det_hessenberg",
    "LeadingMinors",
    "BandedMinors",
    "det_condensation",
    "det_cofactor",
]
