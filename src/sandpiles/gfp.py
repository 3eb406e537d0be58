"""Dense exact linear algebra over the prime field Z/pZ.

Matrices are stored as read-only numpy int64 arrays with every entry reduced
to [0, p).  For p < 2**31 a single product of two residues fits in an int64,
so elimination runs vectorised without ever leaving exact integer arithmetic.

One forward-elimination loop, :func:`_echelon`, serves rank, inverse and
Schur complement.  The rank of a matrix is its pivot count.  Solving
``a @ x = b`` eliminates ``a`` inside ``[[a, b], [I, 0]]``, whose
bottom-right block then holds ``-x``; the inverse is the solve against ``I``,
and the Schur complement needs one solve and one matrix product.  Over GF(2)
the rank alone has a faster path: rows packed into Python integers and
eliminated with xor.  The test-suite checks both rank paths against minor
and row-reduction oracles, and the Schur complement against determinant
quotients.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    DimensionMismatchError,
    InvalidParamsError,
    InvalidShapeError,
    NotPrimeError,
    SingularBlockError,
)

_MAX_PRIME = 2**31
_MILLER_RABIN_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin primality test for n < 2**64.

    Witnesses 2..37 decide primality exactly below 2**64, so the test is
    exact on its whole domain and takes microseconds even for the largest
    inputs.  Larger n are refused with :class:`InvalidParamsError`.
    """
    if n >= 2**64:
        raise InvalidParamsError(f"primality is decided only below 2**64, got {n}")
    if n < 2:
        return False
    for base in _MILLER_RABIN_BASES:
        if n % base == 0:
            return n == base
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for base in _MILLER_RABIN_BASES:
        x = pow(base, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _check_prime(p: int) -> None:
    if not isinstance(p, int) or isinstance(p, bool):
        raise NotPrimeError(f"modulus must be an int, got {type(p).__name__}")
    if p >= _MAX_PRIME:
        raise NotPrimeError(f"modulus must be < 2**31, got {p}")
    if not is_prime(p):
        raise NotPrimeError(f"modulus must be prime, got {p}")


class PrimeFieldMatrix:
    """An immutable matrix over Z/pZ with entries stored in [0, p).

    The constructor validates the modulus (prime, < 2**31) and reduces the
    given entries unless they already lie in [0, p); the backing array is
    marked read-only so the many pure functions in this module cannot mutate
    a shared value by accident.
    """

    __slots__ = ("p", "entries")

    def __init__(self, p: int, entries) -> None:
        _check_prime(p)
        raw = np.asarray(entries)
        if raw.dtype.kind not in ("i", "u"):
            raise InvalidShapeError(
                f"entries must be integers, got dtype {raw.dtype}"
            )
        if raw.dtype.kind == "u":
            # Reduce before the cast: uint64 entries >= 2**63 would wrap in int64.
            raw = np.mod(raw, np.uint64(p), dtype=np.uint64)
        arr = raw.astype(np.int64)
        if arr.ndim != 2:
            raise InvalidShapeError(f"entries must be 2-d, got shape {arr.shape}")
        if arr.size and (arr.min() < 0 or arr.max() >= p):
            arr = np.mod(arr, p)
        arr.flags.writeable = False
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "entries", arr)

    def __setattr__(self, name, value):  # pragma: no cover - guard rail
        raise AttributeError("PrimeFieldMatrix is immutable")

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PrimeFieldMatrix):
            return NotImplemented
        return self.p == other.p and np.array_equal(self.entries, other.entries)

    def __hash__(self):
        return hash((self.p, self.entries.shape, self.entries.tobytes()))

    def __repr__(self) -> str:
        return f"PrimeFieldMatrix(p={self.p}, shape={self.rows}x{self.cols})"

    def render(self) -> str:
        """Small debugging aid: residues as aligned rows of text."""
        width = len(str(self.p - 1))
        return "\n".join(
            " ".join(f"{int(e):>{width}}" for e in row) for row in self.entries
        )


@dataclass(frozen=True)
class IndexSet:
    """A strictly increasing tuple of row/column indices below a fixed bound.

    Used to name the block eliminated by a Schur complement; the complementary
    indices (the block that survives) are available via :meth:`complement`.
    """

    indices: tuple[int, ...]
    bound: int

    def __post_init__(self):
        object.__setattr__(self, "indices", tuple(int(i) for i in self.indices))
        if self.bound < 0:
            raise InvalidShapeError(f"bound must be >= 0, got {self.bound}")
        prev = -1
        for i in self.indices:
            if i <= prev:
                raise InvalidShapeError(
                    f"indices must be strictly increasing, got {self.indices}"
                )
            prev = i
        if self.indices and self.indices[-1] >= self.bound:
            raise InvalidShapeError(
                f"index {self.indices[-1]} out of range for bound {self.bound}"
            )

    def complement(self) -> "IndexSet":
        inside = set(self.indices)
        rest = tuple(i for i in range(self.bound) if i not in inside)
        return IndexSet(rest, self.bound)

    def __len__(self) -> int:
        return len(self.indices)


def submatrix(m: PrimeFieldMatrix, rows, cols) -> PrimeFieldMatrix:
    """Extract the submatrix on the given row and column indices (in order)."""
    rows = tuple(rows)
    cols = tuple(cols)
    for r in rows:
        if not 0 <= r < m.rows:
            raise DimensionMismatchError(f"row index {r} out of range for {m!r}")
    for c in cols:
        if not 0 <= c < m.cols:
            raise DimensionMismatchError(f"column index {c} out of range for {m!r}")
    block = m.entries[np.ix_(rows, cols)] if rows and cols else np.zeros(
        (len(rows), len(cols)), dtype=np.int64
    )
    return PrimeFieldMatrix(m.p, block)


def _pack_gf2_rows(bits: np.ndarray) -> list[int]:
    """Pack a 0/1 int matrix into one Python integer per row (bit j = col j)."""
    packed = np.packbits(bits.astype(np.uint8), axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _rank_gf2(bits: np.ndarray) -> int:
    """Rank over GF(2) by xor-elimination on bit-packed rows."""
    pivots: dict[int, int] = {}
    rank = 0
    for row in _pack_gf2_rows(bits):
        while row:
            low = (row & -row).bit_length() - 1
            piv = pivots.get(low)
            if piv is None:
                pivots[low] = row
                rank += 1
                break
            row ^= piv
    return rank


def _echelon(a: np.ndarray, p: int, cols: int, pivot_rows: int) -> int:
    """In-place forward elimination mod p; returns the number of pivots.

    Columns ``0 .. cols-1`` are eliminated in order.  Pivots are taken only
    from the first ``pivot_rows`` rows, first nonzero entry at or below the
    current row, so every result is bit-for-bit reproducible.  Every row
    below a pivot, including rows past ``pivot_rows``, is cleared with it.
    Rows above the pivot are left alone and only the columns after the pivot
    column are updated, so entries left of the current column are stale:
    readers use the columns from ``cols`` on, or just the pivot count.
    """
    r = 0
    for c in range(cols):
        if r == pivot_rows:
            break
        hits = np.nonzero(a[r:, c])[0]
        if hits.size == 0 or hits[0] >= pivot_rows - r:
            continue
        if hits[0]:
            pr = r + int(hits[0])
            a[[r, pr], c:] = a[[pr, r], c:]
        # A swapped-down old row r is zero in column c, so the rows left to
        # clear are exactly r + hits[1:].
        below = r + hits[1:]
        if below.size:
            factors = a[below, c] * pow(int(a[r, c]), -1, p) % p
            a[below, c + 1 :] = (a[below, c + 1 :] - np.outer(factors, a[r, c + 1 :])) % p
        r += 1
    return r


def rank_mod_p(m: PrimeFieldMatrix) -> int:
    """Rank of ``m`` over Z/pZ."""
    if m.p == 2:
        return _rank_gf2(m.entries)
    return _echelon(m.entries.copy(), m.p, m.cols, m.rows)


def corank_mod_p(m: PrimeFieldMatrix) -> int:
    """min(rows, cols) minus the rank; for square matrices the nullity."""
    return min(m.rows, m.cols) - rank_mod_p(m)


def _solve(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """``inverse(a) @ b`` mod p for a square residue matrix ``a``.

    Eliminates the first k columns of ``[[a, b], [I, 0]]`` with pivots from
    its top k rows.  The bottom-right block is then the Schur complement
    ``0 - I @ inverse(a) @ b``.  Raises :class:`SingularBlockError` when
    ``a`` has fewer than k pivots.
    """
    k, width = a.shape[0], b.shape[1]
    w = np.zeros((2 * k, k + width), dtype=np.int64)
    w[:k, :k] = a
    w[:k, k:] = b
    w[k:, :k] = np.eye(k, dtype=np.int64)
    rank = _echelon(w, p, k, k)
    if rank != k:
        raise SingularBlockError(f"matrix of rank {rank} < {k} is singular")
    return -w[k:, k:] % p


def invert_mod_p(m: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Inverse of a square matrix over Z/pZ.

    Raises :class:`SingularBlockError` when no inverse exists.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError(f"cannot invert non-square {m!r}")
    return PrimeFieldMatrix(m.p, _solve(m.entries, np.eye(m.rows, dtype=np.int64), m.p))


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact ``(a @ b) % p`` for residue matrices.

    int64 accumulators hold k products of size < p**2, so the fast path is
    valid only while k * (p-1)**2 < 2**63; beyond that we compute with Python
    ints (numpy object dtype), which never overflow.
    """
    inner = a.shape[1]
    if inner == 0:
        return np.zeros((a.shape[0], b.shape[1]), dtype=np.int64)
    if inner * (p - 1) ** 2 < 2**63:
        return (a @ b) % p
    prod = a.astype(object) @ b.astype(object)
    return (prod % p).astype(np.int64)


def schur_complement(m: PrimeFieldMatrix, s: IndexSet) -> PrimeFieldMatrix:
    """Schur complement of ``m`` with respect to the index block ``s``.

    With T the complement of S, the result is
    ``A[T,T] - A[T,S] @ inverse(A[S,S]) @ A[S,T]``, a |T| x |T| matrix over the
    same field; ``inverse(A[S,S]) @ A[S,T]`` comes from one elimination of
    ``A[S,S]``, and no inverse is formed.  When ``A[S,S]`` is invertible,
    block elimination shows the complement has the same corank as ``m`` --
    this is what makes it useful for collapsing a large matrix onto a small
    interesting block.

    Raises :class:`SingularBlockError` if ``A[S,S]`` is singular and
    :class:`DimensionMismatchError` if ``m`` is not square of size
    ``s.bound``.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError(f"Schur complement needs a square matrix, got {m!r}")
    if s.bound != m.rows:
        raise DimensionMismatchError(
            f"index bound {s.bound} does not match matrix size {m.rows}"
        )
    t = s.complement()
    if len(s) == 0:
        return PrimeFieldMatrix(m.p, m.entries)
    a_ss = submatrix(m, s.indices, s.indices).entries
    a_tt = submatrix(m, t.indices, t.indices).entries
    a_ts = submatrix(m, t.indices, s.indices).entries
    a_st = submatrix(m, s.indices, t.indices).entries
    cross = _matmul_mod(a_ts, _solve(a_ss, a_st, m.p), m.p)
    return PrimeFieldMatrix(m.p, (a_tt - cross) % m.p)
