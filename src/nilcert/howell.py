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

The elimination runs in two passes.  The first eliminates the rows alone,
in place on its one working copy of them.  It labels each row by its
input index, or the k-th annihilator row by nrows + k, and records each
pivot as a (column, label) pair; howell_spanning_subset is this pass
alone.  A basis row is the row first promoted into its slot plus
multiples of earlier basis rows, and an annihilator row is a multiple of
a basis row, so only the origins, the input rows among the pivot labels,
ever reach the basis.  The second pass, in howell_complete, reads the
origin rows again from the input and replays the recorded pivots on them
alone, with an identity block as wide as the number of origins to their
right: the same steps on the same rows give the same basis, and the block
becomes the transform over the origins.  Neither pass exits early, and
both keep every annihilator row they form: the replay places only rows
its labels name, so one it never picks changes nothing.

Reduction against a basis is one pivot walk, pivot_walk, on a sparse
{column: residue} dict: HowellBasis.reduce and reduce_residues run it on
the basis's own pivot rows, and a membership query runs it on its weight
class's copy of them, whose columns are read as y-degrees (quotient.py).

Rows are lists of Python ints in [0, p^m), so any modulus is exact.  The
input is any sequence of rows of integers, left unchanged, and read into
such lists through operator.index, so a float entry raises TypeError
rather than being truncated.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from functools import cached_property
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

    def pivot_rows(self, offset: int = 0) -> tuple:
        """The rows pivot_walk reads: (pivot column, pivot value, nonzero
        entries (j, x)) per row, in pivot order, with each column read as
        offset plus its index.  Built afresh on every call."""
        return tuple(
            (c + offset, pk, tuple((j, x) for j, x in enumerate(row, offset) if x))
            for row, c, pk in zip(self.matrix, self.pivot_columns, self.pivot_values)
        )

    @cached_property
    def _pivot_rows(self) -> tuple:
        return self.pivot_rows()

    def reduce(self, vector):
        """Canonical remainder of vector against the basis.

        Returns (residue, coefficients), two int lists, with
        vector = sum of coefficients[i] * matrix[i] + residue (mod p^m).
        The vector lies in the row module iff the residue is zero; the
        residue is a canonical coset representative either way (each
        pivot column is reduced below its pivot value).  The vector is
        read through operator.index and left unchanged; its nonzero
        residues go to reduce_residues.
        """
        n = self.modulus.value
        vector = [x % n for x in map(operator.index, vector)]
        if len(vector) != self.ncols:
            raise ValueError("vector length does not match the basis")
        residue = {j: x for j, x in enumerate(vector) if x}
        coefficients = self.reduce_residues(residue)
        return (
            [residue.get(j, 0) for j in range(self.ncols)],
            coefficients or [0] * len(self.matrix),
        )

    def reduce_residues(self, residue: dict):
        """pivot_walk on a sparse {column: residue in [0, p^m)} dict, over
        this basis's pivot rows; the dict becomes the canonical remainder
        in place.  Returns the coefficients, an int list, or None when
        every factor is zero."""
        return pivot_walk(self._pivot_rows, residue, self.modulus.value)


def pivot_walk(rows, residue: dict, n: int):
    """The pivot walk of HowellBasis.reduce, the one copy of it.

    rows are (pivot column, pivot value, nonzero entries (j, x)) per basis
    row, in pivot order, and residue is a sparse {column: residue in
    [0, n)} dict with columns read as the rows read them; it becomes the
    canonical remainder in place.  A pivot step updates the dict at the
    pivot row's nonzero entries alone; an entry it clears stays, as 0.
    Returns the coefficients, one int per row, or None when every factor
    is zero.  The dict is not checked: its keys must be columns and its
    values residues.
    """
    coefficients = None
    for index, (col, pk, row) in enumerate(rows):
        factor = residue.get(col, 0) // pk
        if factor:
            for j, x in row:
                residue[j] = (residue.get(j, 0) - factor * x) % n
            if coefficients is None:
                coefficients = [0] * len(rows)
            coefficients[index] = factor
    return coefficients


def _eliminate(pending: list, n: int, ncols: int, next_label: int, plan=None):
    """Eliminate the (label, row) pairs of pending, rows lists of residues.

    Returns (placed, pivots): the basis rows in pivot order and one
    (column, label) pair per row, where the k-th annihilator row appended
    is labelled next_label + k.  Columns past ncols ride along as a
    tracking block.  Without plan, each column's pivot is the first pending
    row of least gcd with n, and rows that fall to zero stay pending, where
    their gcd n never picks them; plan, the pivots of an earlier call,
    replays those choices instead, picking rows by label alone.  Both keep
    every annihilator row they form (the replay leaves those it never
    picks unplaced) and visit every column, with no early exit.
    """
    placed, pivots = [], []
    for c in range(ncols) if plan is None else [c for c, _ in plan]:
        if plan is None:
            best, pk = None, n
            for index, (_, row) in enumerate(pending):
                g = gcd(row[c], n)
                if g < pk:
                    best, pk = index, g
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
                pending.append((next_label, annihilator))
                next_label += 1
        placed.append(pivot)
        pivots.append((c, label))
    return placed, pivots


def _first_pass(rows, modulus: Modulus):
    """(basis, number of input rows, pivots as (column, label), ascending
    origins).  The one working copy of the rows is eliminated in place."""
    n = modulus.value
    # len, not truth: a 2-D array is a sequence of rows too
    ncols = len(rows[0]) if len(rows) else 0
    work = [[x % n for x in map(operator.index, row)] for row in rows]
    if any(len(row) != ncols for row in work):
        raise ValueError("rows differ in length")
    placed, pivots = _eliminate(list(enumerate(work)), n, ncols, len(work))
    basis = HowellBasis(
        modulus=modulus,
        matrix=tuple(map(tuple, placed)),
        pivot_columns=tuple(c for c, _ in pivots),
        pivot_values=tuple(row[c] for row, (c, _) in zip(placed, pivots)),
        ncols=ncols,
    )
    origins = sorted(label for _, label in pivots if label < len(work))
    return basis, len(work), pivots, origins


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
    (mod p^m).  The first pass eliminated its working copy in place, so
    the replay reads each origin row again from rows, as the first pass
    read it.  The identity block rides along through the replay, so the
    transform is exact by construction.
    """
    basis, nrows, pivots, origins = _first_pass(rows, modulus)
    width, ncols, n = len(origins), basis.ncols, modulus.value
    pending = [
        (label, [x % n for x in map(operator.index, rows[label])] + [0] * width)
        for label in origins
    ]
    for index, (_, row) in enumerate(pending):
        row[ncols + index] = 1
    placed, _ = _eliminate(pending, n, ncols, nrows, plan=pivots)
    if any(tuple(row[:ncols]) != basis_row for row, basis_row in zip(placed, basis.matrix)):
        raise AssertionError("the replay on the origin rows left the first pass's basis")
    return basis, tuple(origins), tuple(tuple(row[ncols:]) for row in placed)
