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

    Returns (basis, work, origins): work holds the basis rows, and
    origins[i] is the input row index that basis row i started as (-1 for
    an appended annihilator row), tracked through swaps only.  With track,
    an identity block rides to the right of the rows, so work[:, ncols:]
    is the transform expressing the basis in them.
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
    origins = list(range(nrows)) + [-1] * (ncols + 1)
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
            origins[r], origins[best] = origins[best], origins[r]
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
                origins[count] = -1
                count += 1
        pivots.append((c, pk))
        r += 1
        # rows that went entirely dead in the left block only slow the
        # vector ops down; drop them now and then
        if count - r > 128 and len(pivots) % 32 == 0:
            alive = work[r:count, c + 1 : ncols].any(axis=1)
            keep = np.flatnonzero(alive)
            if keep.size < count - r:
                work[r : r + keep.size] = work[r:count][keep]
                origins[r : r + keep.size] = [origins[r + i] for i in keep]
                count = r + keep.size
    basis = HowellBasis(
        modulus=modulus,
        matrix=work[:r, :ncols].copy(),
        pivot_columns=tuple(c for c, _ in pivots),
        pivot_values=tuple(pk for _, pk in pivots),
    )
    return basis, work[:r], origins[:r]


def howell_form(rows: np.ndarray, modulus: Modulus) -> HowellBasis:
    """Canonical Howell basis of the row module spanned by rows."""
    return _howell_engine(rows, modulus)[0]


def howell_spanning_subset(rows: np.ndarray, modulus: Modulus):
    """Howell basis plus indices of input rows that already span the module.

    The returned indices are the rows promoted into pivot slots during
    elimination.  Row mixing only ever subtracts rows of earlier pivot
    slots, and annihilator rows are multiples of pivot rows, so by
    induction every row of the final basis is a combination of the pivot
    slot originals alone: span(rows[indices]) = span(rows).  The indices
    are returned in ascending order; at most one per basis row.
    """
    basis, _, origins = _howell_engine(rows, modulus)
    return basis, sorted(origin for origin in origins if origin >= 0)


def howell_complete(rows: np.ndarray, modulus: Modulus):
    """Howell basis plus the transform expressing it in the input rows.

    Returns (basis, transform) with
    basis.matrix = transform @ rows (mod p^m); transform has one row per
    basis row.  Tracking columns ride along through the elimination, so
    the transform is exact by construction.
    """
    basis, work, _ = _howell_engine(rows, modulus, track=True)
    return basis, work[:, basis.ncols :].copy()
