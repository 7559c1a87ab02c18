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

The elimination runs in two passes.  The first eliminates the rows alone.
It labels each row by its input index, or the k-th annihilator row by
nrows + k, and records each pivot as a (column, label) pair;
howell_spanning_subset is this pass alone.  A basis row is the row first
promoted into its slot plus multiples of earlier basis rows, and an
annihilator row is a multiple of a basis row, so only the origins, the
input rows among the pivot labels, ever reach the basis.  The second pass,
in howell_complete, replays the recorded pivots on the origin rows alone,
with an identity block as wide as the number of origins to their right:
the same steps on the same rows give the same basis, and the block becomes
the transform over the origins.

Rows are lists of Python ints in [0, p^m), so any modulus is exact.  A 2-D
array is accepted as input and read once into lists; nothing else here
uses numpy.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain
from math import gcd

from .coefficients import Modulus

@dataclass(frozen=True)
class HowellBasis:
    """Canonical Howell form of a row module over Z/p^m.

    matrix: the k nonzero rows, int tuples, pivot columns strictly increasing.
    pivot_columns[i], pivot_values[i]: column index and pivot p^k of row i.
    Entries above a pivot are reduced below it, entries below are zero.
    ncols: the row width, also when there are no rows.
    """

    modulus: Modulus
    matrix: tuple
    pivot_columns: tuple
    pivot_values: tuple
    ncols: int

    @property
    def rank(self) -> int:
        return len(self.matrix)

    def reduce(self, vector):
        """Canonical remainder of vector against the basis.

        Returns (residue, coefficients), two int lists, with
        vector = sum of coefficients[i] * matrix[i] + residue (mod p^m).
        The vector lies in the row module iff the residue is zero; the
        residue is a canonical coset representative either way (each
        pivot column is reduced below its pivot value).
        """
        n = self.modulus.value
        residue = [int(x) % n for x in vector]
        if len(residue) != self.ncols:
            raise ValueError("vector length does not match the basis")
        coefficients = [0] * self.rank
        for index, (col, pk) in enumerate(zip(self.pivot_columns, self.pivot_values)):
            factor = residue[col] // pk
            if factor:
                row = self.matrix[index]
                residue[col:] = [(x - factor * y) % n for x, y in zip(residue[col:], row[col:])]
                coefficients[index] = factor
        return residue, coefficients


def _eliminate(pending: list, n: int, ncols: int, next_label: int, plan=None):
    """Eliminate the (label, row) pairs of pending, rows lists of residues.

    Returns (placed, pivots): the basis rows in pivot order and one
    (column, label) pair per row, where the k-th annihilator row appended
    is labelled next_label + k.  Columns past ncols ride along as a
    tracking block.  Without plan, each column's pivot is the first pending
    row of least gcd with n, and rows that fall to zero stay pending, where
    their gcd n never picks them; plan, the pivots of an earlier call,
    replays those choices instead, and an annihilator row it never picks
    is dropped.
    """
    placed, pivots = [], []
    wanted = None if plan is None else {label for _, label in plan}
    for c in range(ncols) if plan is None else [c for c, _ in plan]:
        if plan is None:
            if not pending:
                break
            best, pk = None, n
            for index, (_, row) in enumerate(pending):
                g = gcd(row[c], n)
                if g < pk:
                    best, pk = index, g
                    if g == 1:
                        break
            if best is None:
                continue
        else:
            label = plan[len(pivots)][1]
            best = next(index for index, entry in enumerate(pending) if entry[0] == label)
            pk = gcd(pending[best][1][c], n)
        label, pivot = pending[best]
        # the first pending row moves into the pivot's slot, as a row swap
        # would: the first-least-gcd rule sees the rows in this order
        pending[best] = pending[0]
        del pending[0]
        # the pivot row is zero left of c; its tail is sparse, so every
        # update runs over its nonzero entries alone
        tail = [(j, x) for j, x in enumerate(pivot[c:], c) if x]
        unit = pivot[c] // pk
        if unit != 1:
            inverse = pow(unit, -1, n)
            tail = [(j, x * inverse % n) for j, x in tail]
            for j, x in tail:
                pivot[j] = x
        # clears column c below the pivot (pk divides every entry there)
        # and reduces it below pk above
        for row in chain([row for _, row in pending], placed):
            factor = row[c] // pk
            if factor:
                for j, x in tail:
                    row[j] = (row[j] - factor * x) % n
        if pk > 1:
            annihilator = [0] * len(pivot)
            for j, x in tail:
                annihilator[j] = x * (n // pk) % n
            if any(annihilator[:ncols]):
                if wanted is None or next_label in wanted:
                    pending.append((next_label, annihilator))
                next_label += 1
        placed.append(pivot)
        pivots.append((c, label))
    return placed, pivots


def _first_pass(rows, modulus: Modulus):
    """(basis, input rows as reduced int lists, pivots as (column, label),
    ascending origins)."""
    n = modulus.value
    shape = getattr(rows, "shape", None)
    if shape is not None:
        # a 2-D array: its width holds even without rows
        ncols, rows = shape[1], rows.tolist()
    else:
        ncols = len(rows[0]) if len(rows) else 0
    work = [[int(x) % n for x in row] for row in rows]
    if any(len(row) != ncols for row in work):
        raise ValueError("rows differ in length")
    pending = [(label, row[:]) for label, row in enumerate(work)]
    placed, pivots = _eliminate(pending, n, ncols, len(work))
    basis = HowellBasis(
        modulus=modulus,
        matrix=tuple(map(tuple, placed)),
        pivot_columns=tuple(c for c, _ in pivots),
        pivot_values=tuple(row[c] for row, (c, _) in zip(placed, pivots)),
        ncols=ncols,
    )
    origins = sorted(label for _, label in pivots if label < len(work))
    return basis, work, pivots, origins


def howell_spanning_subset(rows, modulus: Modulus):
    """Howell basis plus indices of input rows that already span the module.

    The indices, ascending, are the origins: the input rows the first
    pass promoted into a pivot slot.  They are the rows the howell_complete
    transform uses, so they span, and there is at most one per basis row.
    """
    basis, _, _, origins = _first_pass(rows, modulus)
    return basis, origins


def howell_complete(rows, modulus: Modulus):
    """Howell basis plus the transform expressing it in the origin rows.

    Returns (basis, origins, transform): origins are the ascending input
    row indices of howell_spanning_subset, and transform has one int tuple
    per basis row with
    basis.matrix[i] = sum over k of transform[i][k] * rows[origins[k]]
    (mod p^m).  The identity block rides along through the replay, so the
    transform is exact by construction.
    """
    basis, work, pivots, origins = _first_pass(rows, modulus)
    width, ncols = len(origins), basis.ncols
    pending = [
        (label, work[label] + [int(k == index) for k in range(width)])
        for index, label in enumerate(origins)
    ]
    placed, _ = _eliminate(pending, modulus.value, ncols, len(work), plan=pivots)
    if any(tuple(row[:ncols]) != basis_row for row, basis_row in zip(placed, basis.matrix)):
        raise AssertionError("the replay on the origin rows left the first pass's basis")
    return basis, tuple(origins), tuple(tuple(row[ncols:]) for row in placed)
