"""Exact integer matrices: Smith normal form and fraction-free determinants.

Entries live in numpy object arrays holding Python ints, so nothing here can
overflow no matter how large the intermediate values grow (Smith form pivots
on graph Laplacians stay tiny, but determinants of 100x100 Laplacians easily
exceed 64 bits).

The Smith form routine is the classical elimination: repeatedly move the
smallest-magnitude nonzero entry of the working submatrix to the pivot
position, reduce its row and column by floor-division remainders, and once
both are clear record the pivot and drop its row and column.  A pairwise
gcd/lcm pass on the recorded pivots then enforces the
divisibility chain d1 | d2 | ... .  The gcd/lcm pass is also exposed on its
own (:func:`normalize_divisor_chain`) because combining the invariant factors
of a direct sum needs exactly the same fix-up.
"""

from __future__ import annotations

from math import gcd

import numpy as np

from .errors import DimensionMismatchError, InvalidShapeError


class IntegerMatrix:
    """An immutable 2-d matrix of arbitrary-precision integers."""

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        raw = np.asarray(entries, dtype=object)
        if raw.ndim != 2:
            raise InvalidShapeError(f"entries must be 2-d, got shape {raw.shape}")
        arr = np.empty(raw.shape, dtype=object)
        for i in range(raw.shape[0]):
            row = []
            for v in raw[i]:
                if isinstance(v, np.integer):
                    v = int(v)
                if not isinstance(v, int) or isinstance(v, bool):
                    raise InvalidShapeError(
                        f"entries must be ints, got {type(v).__name__}"
                    )
                row.append(v)
            arr[i] = row
        arr.flags.writeable = False
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("IntegerMatrix is immutable")

    @classmethod
    def from_rows(cls, rows) -> "IntegerMatrix":
        return cls([list(row) for row in rows])

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def to_lists(self) -> list[list[int]]:
        return [[int(v) for v in row] for row in self.entries]

    def __eq__(self, other) -> bool:
        if not isinstance(other, IntegerMatrix):
            return NotImplemented
        return self.entries.shape == other.entries.shape and bool(
            (self.entries == other.entries).all()
        )

    def __hash__(self):
        return hash((self.entries.shape, tuple(self.entries.flat)))

    def __repr__(self) -> str:
        return f"IntegerMatrix(shape={self.rows}x{self.cols})"


def normalize_divisor_chain(values) -> tuple[int, ...]:
    """Rewrite a multiset of nonnegative ints so consecutive entries divide.

    Replacing a pair (a, b) by (gcd(a, b), lcm(a, b)) does not change the
    abelian group Z/a + Z/b, so iterating until no pair violates d_i | d_(i+1)
    turns any diagonal into the canonical invariant-factor ordering.  Zeros
    (free ranks) sort to the end, since every integer divides 0.
    """
    vals = [abs(int(v)) for v in values]
    changed = True
    while changed:
        changed = False
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                a, b = vals[i], vals[j]
                if a == 0 and b != 0:
                    vals[i], vals[j] = b, a
                    changed = True
                elif a != 0 and b % a != 0:
                    g = gcd(a, b)
                    vals[i], vals[j] = g, a * b // g
                    changed = True
    return tuple(vals)


def smith_normal_form(m: IntegerMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of ``m``.

    Returns min(rows, cols) nonnegative integers d1, ..., dk with each d_i
    dividing d_(i+1); zeros (if any) come last.  The input is never mutated.
    """
    a = np.array(m.entries, dtype=object)
    diag: list[int] = []
    while True:
        nzr, nzc = np.nonzero(a)
        if nzr.size == 0:
            break
        # Smallest-magnitude pivot; np.argmin takes the first minimum in
        # row-major order, which is the (row, col) tie-break.
        k = int(np.argmin(np.abs(a[nzr, nzc])))
        r, c = int(nzr[k]), int(nzc[k])
        a[[0, r]] = a[[r, 0]]
        a[:, [0, c]] = a[:, [c, 0]]
        pivot = a[0, 0]
        rows = np.flatnonzero(a[1:, 0]) + 1
        a[rows] -= (a[rows, 0] // pivot)[:, None] * a[0]
        # Once column 0 is clear below the pivot, the column pass changes
        # row 0 alone.  Any remainder left in row or column 0 is smaller
        # than |pivot|, so the next pivot is too and the loop ends.
        if not a[1:, 0].any():
            a[0, 1:] %= pivot
            if not a[0, 1:].any():
                diag.append(abs(pivot))
                a = a[1:, 1:]
    diag += [0] * (min(m.rows, m.cols) - len(diag))
    return normalize_divisor_chain(diag)


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination.

    Every intermediate value is an (integer) minor of the input, so sizes stay
    polynomial and all divisions are exact -- no rationals, no rounding.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError(f"determinant needs a square matrix, got {m!r}")
    n = m.rows
    if n == 0:
        return 1
    a = np.array(m.entries, dtype=object)
    sign = 1
    prev = 1
    for r in range(n - 1):
        if a[r, r] == 0:
            hits = np.nonzero(a[r + 1 :, r])[0]
            if hits.size == 0:
                return 0
            swap = r + 1 + int(hits[0])
            a[[r, swap]] = a[[swap, r]]
            sign = -sign
        pivot = a[r, r]
        block = a[r + 1 :, r + 1 :]
        a[r + 1 :, r + 1 :] = (block * pivot - np.outer(a[r + 1 :, r], a[r, r + 1 :])) // prev
        a[r + 1 :, r] = 0
        prev = pivot
    return sign * int(a[n - 1, n - 1])
