"""Howell normal form for row modules over Z/p^m.

Over a ring with zero divisors a plain row echelon form does not decide
membership: the span of (2, 1) over Z/4 contains (0, 2) = 2 * (2, 1), which
no echelon reduction against (2, 1) alone will find.  The Howell form
closes the row set under such annihilator multiples and is the canonical
object here: two generating sets span the same row module over Z/p^m if
and only if their Howell forms are identical matrices.

Because the modulus n = p^m is a prime power, every nonzero residue a
factors as unit * p^k with k < m, and gcd(a, n) = p^k exactly, while
gcd(0, n) = n.  That simplifies the classical algorithm to one gcd per
column: the pivot is the first entry of least gcd with n (a least gcd of
n means the column is zero from the current row down), that gcd p^k
generates the column's ideal, the pivot is normalized to exactly p^k by a
unit, and every other entry in the column is cleared or reduced by an
exact quotient.  After placing a pivot p^k with k > 0, the annihilator
multiple (n / p^k) * row is appended so later columns still generate
everything the row module contains.

One elimination serves howell_form (the basis), howell_complete (also the
transform expressing it in the input rows) and howell_spanning_subset (the
input rows that transform uses).

Matrices are numpy int64 with entries kept in [0, p^m); moduli must stay
below 2^31 so products never overflow.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .coefficients import Modulus

INT64_MODULUS_LIMIT = 2**31


def _check_modulus(modulus: Modulus) -> None:
    if modulus.value >= INT64_MODULUS_LIMIT:
        raise ValueError("modulus too large for int64 matrix arithmetic")


@dataclass(frozen=True)
class HowellBasis:
    """Canonical Howell form of a row module over Z/p^m.

    matrix: the k nonzero rows, pivot columns strictly increasing.
    pivot_columns[i], pivot_values[i]: column index and pivot p^k of row i.
    Entries above a pivot are reduced below it, entries below are zero.
    """

    modulus: Modulus
    matrix: np.ndarray
    pivot_columns: tuple
    pivot_values: tuple

    @property
    def rank(self) -> int:
        return self.matrix.shape[0]

    @property
    def ncols(self) -> int:
        return self.matrix.shape[1]

    def reduce(self, vector: np.ndarray):
        """Canonical remainder of vector against the basis.

        Returns (residue, coefficients) with
        vector = coefficients @ matrix + residue (mod p^m).  The vector
        lies in the row module iff the residue is zero; the residue is a
        canonical coset representative either way (each pivot column is
        reduced below its pivot value).
        """
        n = self.modulus.value
        residue = np.asarray(vector, dtype=np.int64) % n
        if residue.shape != (self.ncols,):
            raise ValueError("vector length does not match the basis")
        coefficients = np.zeros(self.rank, dtype=np.int64)
        for row, (col, pk) in enumerate(zip(self.pivot_columns, self.pivot_values)):
            factor = int(residue[col]) // pk
            if factor:
                residue = (residue - factor * self.matrix[row]) % n
                coefficients[row] = factor
        return residue, coefficients


def _howell_engine(rows, modulus: Modulus, track: bool = False):
    """Eliminate rows and assemble the Howell basis of their span.

    Returns (basis, work) with work holding the basis rows.  With track,
    an identity block rides to the right of the rows, so work[:, ncols:]
    is the transform expressing the basis in them.  Rows that fall to
    zero stay below the pivots, where their gcd n never picks them.
    """
    _check_modulus(modulus)
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    nrows, ncols = rows.shape
    if track:
        rows = np.hstack([rows, np.eye(nrows, dtype=np.int64)])
    n = modulus.value
    # capacity for one appended annihilator row per pivot
    work = np.zeros((nrows + ncols + 1, rows.shape[1]), dtype=np.int64)
    work[:nrows] = rows % n
    count = nrows
    pivots = []
    r = 0
    for c in range(ncols):
        if r == count:
            break
        # every row from r down is zero left of c, so all updates can
        # stay on the column slice c: (tracking columns ride at the far
        # right and are always inside the slice)
        gcds = np.gcd(work[r:count, c], n)
        best = int(gcds.argmin())
        pk = int(gcds[best])
        if pk == n:
            continue
        best += r
        if best != r:
            work[[r, best]] = work[[best, r]]
        unit = int(work[r, c]) // pk
        if unit != 1:
            work[r, c:] = (work[r, c:] * pow(unit, -1, n)) % n
        if count > r + 1:
            factors = work[r + 1 : count, c] // pk
            work[r + 1 : count, c:] = (
                work[r + 1 : count, c:] - factors[:, None] * work[r, c:]
            ) % n
        if r > 0:
            factors = work[:r, c] // pk
            work[:r, c:] = (work[:r, c:] - factors[:, None] * work[r, c:]) % n
        if pk > 1:
            annihilator = (work[r, c:] * (n // pk)) % n
            if annihilator[: ncols - c].any():
                work[count] = 0
                work[count, c:] = annihilator
                count += 1
        pivots.append((c, pk))
        r += 1
    basis = HowellBasis(
        modulus=modulus,
        matrix=work[:r, :ncols].copy(),
        pivot_columns=tuple(c for c, _ in pivots),
        pivot_values=tuple(pk for _, pk in pivots),
    )
    return basis, work[:r]


def howell_form(rows: np.ndarray, modulus: Modulus) -> HowellBasis:
    """Canonical Howell basis of the row module spanned by rows."""
    return _howell_engine(rows, modulus)[0]


def howell_spanning_subset(rows: np.ndarray, modulus: Modulus):
    """Howell basis plus indices of input rows that already span the module.

    The indices, ascending, are the input rows the howell_complete transform
    uses, so they span: basis = transform @ rows.  Each pivot row is the row
    first promoted into its slot plus multiples of other pivot rows, and an
    annihilator row is a multiple of a pivot row, so there is at most one
    index per basis row.
    """
    basis, transform = howell_complete(rows, modulus)
    return basis, [int(k) for k in np.flatnonzero(transform.any(axis=0))]


def howell_complete(rows: np.ndarray, modulus: Modulus):
    """Howell basis plus the transform expressing it in the input rows.

    Returns (basis, transform) with
    basis.matrix = transform @ rows (mod p^m); transform has one row per
    basis row.  Tracking columns ride along through the elimination, so
    the transform is exact by construction.
    """
    basis, work = _howell_engine(rows, modulus, track=True)
    return basis, work[:, basis.ncols :].copy()
