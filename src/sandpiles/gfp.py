"""Dense exact linear algebra over the prime field Z/pZ.

Matrices are stored as read-only numpy int64 arrays with every entry reduced
to [0, p).  For p < 2**31 a single product of two residues fits in an int64,
so elimination runs vectorised without ever leaving exact integer arithmetic.

One forward-elimination loop, :func:`_echelon`, serves rank, determinant,
inverse, Schur complement and kernel.  The rank of a matrix is its pivot
count, and the determinant of a square one is the product of its pivots,
negated once per row swap.  Solving
``a @ x = b`` eliminates ``a`` inside ``[[a, b], [I, 0]]``, whose
bottom-right block then holds ``-x``, and its pivots and swaps give det(a)
as well; the inverse is the solve against ``I``, and the Schur complement
needs one solve and one matrix product.  The Schur
complement takes the eliminated indices as plain integers, in any order, and
cuts its four blocks from the residue array with ``np.ix_``.  Over
GF(2) the rank alone has a faster path: rows packed into Python integers and
eliminated with xor, each pivot keyed by its highest set bit.  Both loops
also give kernels: eliminating ``a^T`` inside ``[a^T | I]`` leaves rows whose
``a^T`` part is zero, and their identity part spans the kernel of ``a``.  At
p = 2 the layout is ``[I | a^T]``, identity in the low bits, so those rows
are the pivots whose top bit lies in the identity part.  Both Monte Carlo
kinds take the corank of one block shape, [[diag(d1), E], [E^T, diag(d2)]],
and :func:`_block_corank` is their one kernel: a row scaling, a kernel
basis, two products and the rank of a small block.  The test-suite
checks both rank paths against minor and row-reduction oracles, the kernel
against ``a @ N^T = 0`` and its dimension, and the Schur complement against
determinant quotients.

Reduction mod p is lazy where int64 allows it.  Each elimination step
reduces only the pivot column and the pivot row and subtracts
``factor * pivot row`` (at most (p-1)**2 per entry) from the rows below
without a ``%``, so after t steps an entry lies in (-t (p-1)**2, p).  While
``(p-1) * (1 + steps * (p-1)) < 2**63``, with steps = min(columns
eliminated, pivot rows), one ``%`` at the end is enough; above that bound
every update is reduced.  Matrix products pick the cheapest exact type from
``inner * (p-1)**2``: float32 through BLAS below 2**24, float64 below
2**53, int64 below 2**63, Python ints beyond.
"""

from __future__ import annotations

import operator

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
    given integer entries unless they already lie in [0, p), reading bools
    as 0 and 1; the backing array is marked read-only so the many pure
    functions in this module cannot mutate a shared value by accident.
    """

    __slots__ = ("p", "entries")

    def __init__(self, p: int, entries) -> None:
        _check_prime(p)
        raw = np.asarray(entries)
        if raw.dtype.kind not in ("b", "i", "u"):
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


def _checked_indices(indices, bound: int, axis: str, m: PrimeFieldMatrix) -> np.ndarray:
    # operator.index refuses floats, which numpy would truncate.
    idx = np.fromiter(map(operator.index, indices), dtype=np.int64)
    bad = np.flatnonzero((idx < 0) | (idx >= bound))
    if bad.size:
        raise DimensionMismatchError(f"{axis} index {idx[bad[0]]} out of range for {m!r}")
    return idx


def submatrix(m: PrimeFieldMatrix, rows, cols) -> PrimeFieldMatrix:
    """Extract the submatrix on the given row and column indices (in order)."""
    rows = _checked_indices(rows, m.rows, "row", m)
    cols = _checked_indices(cols, m.cols, "column", m)
    return PrimeFieldMatrix(m.p, m.entries[np.ix_(rows, cols)])


def _pack_gf2_rows(bits: np.ndarray) -> list[int]:
    """Pack a 0/1 bool or int matrix into one Python integer per row (bit j = col j)."""
    # packbits is several times slower on a strided array (a transpose) or
    # on ints wider than a byte.
    rows = np.ascontiguousarray(bits if bits.dtype == bool else bits.astype(np.uint8))
    packed = np.packbits(rows, axis=1, bitorder="little")
    return [int.from_bytes(row.tobytes(), "little") for row in packed]


def _xor_pivots(rows: list[int], width: int) -> list[int]:
    """Xor-eliminate bit-packed rows; returns the pivot row of each top bit, or 0.

    Each row is reduced by the pivots already found until its highest set
    bit is new (it becomes the pivot of that bit) or nothing is left (it was
    dependent).  Every xor clears the row's top bit, so the loop needs only
    ``bit_length``.  The pivots are independent and span the same space as
    ``rows``, whose bits all lie below ``width``.
    """
    pivots = [0] * width
    for row in rows:
        while row:
            top = row.bit_length() - 1
            piv = pivots[top]
            if not piv:
                pivots[top] = row
                break
            row ^= piv
    return pivots


def _rank_gf2(bits: np.ndarray) -> int:
    """Rank over GF(2) by xor-elimination on bit-packed rows."""
    pivots = _xor_pivots(_pack_gf2_rows(bits), bits.shape[1])
    return len(pivots) - pivots.count(0)


def _echelon(a: np.ndarray, p: int, cols: int, pivot_rows: int) -> tuple[int, int]:
    """In-place forward elimination mod p; returns (pivots, row swaps).

    Columns ``0 .. cols-1`` are eliminated in order.  Pivots are taken only
    from the first ``pivot_rows`` rows, first nonzero entry mod p at or
    below the current row, so every result is bit-for-bit reproducible.
    Every row below a pivot, including rows past ``pivot_rows``, is cleared
    with it.  Rows above the pivot are left alone and only the columns after
    the pivot column are updated, so entries left of the current column are
    stale: readers use the columns from ``cols`` on, the pivot entries, or
    just the counts.  ``a`` must hold residues in [0, p); during the loop
    the rows below the pivot may hold unreduced values (the lazy bound in the
    module docstring), and on return every entry is reduced to [0, p) again.
    """
    lazy = (p - 1) * (1 + min(cols, pivot_rows) * (p - 1)) < 2**63
    r = swaps = 0
    for c in range(cols):
        if r == pivot_rows:
            break
        col = a[r:, c] % p
        hits = np.nonzero(col)[0]
        if hits.size == 0 or hits[0] >= pivot_rows - r:
            continue
        if hits[0]:
            pr = r + int(hits[0])
            a[[r, pr], c:] = a[[pr, r], c:]
            swaps += 1
        a[r, c:] %= p
        # A swapped-down old row r is zero in column c, so the rows left to
        # clear are exactly r + hits[1:].
        below = r + hits[1:]
        if below.size:
            factors = col[hits[1:]] * pow(int(a[r, c]), -1, p) % p
            update = a[below, c + 1 :] - np.outer(factors, a[r, c + 1 :])
            a[below, c + 1 :] = update if lazy else update % p
        r += 1
    a %= p
    return r, swaps


def rank_mod_p(m: PrimeFieldMatrix) -> int:
    """Rank of ``m`` over Z/pZ."""
    if m.p == 2:
        return _rank_gf2(m.entries)
    return _echelon(m.entries.copy(), m.p, m.cols, m.rows)[0]


def corank_mod_p(m: PrimeFieldMatrix) -> int:
    """min(rows, cols) minus the rank; for square matrices the nullity."""
    return min(m.rows, m.cols) - rank_mod_p(m)


def _singular(rank: int, k: int) -> SingularBlockError:
    return SingularBlockError(f"matrix of rank {rank} < {k} is singular")


def _solve(a: np.ndarray, b: np.ndarray, p: int) -> tuple[np.ndarray, int]:
    """``inverse(a) @ b`` mod p, and det(a) mod p, for a square residue matrix ``a``.

    Eliminates the first k columns of ``[[a, b], [I, 0]]`` with pivots from
    its top k rows.  The bottom-right block is then the Schur complement
    ``0 - I @ inverse(a) @ b``, and the pivots and row swaps give det(a).
    Raises :class:`SingularBlockError` when ``a`` has fewer than k pivots.
    """
    k, width = a.shape[0], b.shape[1]
    w = np.zeros((2 * k, k + width), dtype=np.int64)
    w[:k, :k] = a
    w[:k, k:] = b
    w[k:, :k] = np.eye(k, dtype=np.int64)
    rank, swaps = _echelon(w, p, k, k)
    if rank != k:
        raise _singular(rank, k)
    det = p - 1 if swaps % 2 else 1
    for pivot in np.diagonal(w)[:k].tolist():
        det = det * pivot % p
    return -w[k:, k:] % p, det


def _kernel_basis(a: np.ndarray, p: int) -> np.ndarray:
    """Residue rows spanning ``{x : a @ x = 0 mod p}``, as a k x cols array.

    The rows are int64, except over GF(2), where they are the uint8 bits
    that unpacking gives: at cols = 4000 an int64 copy would be 8 times
    the size.

    Row operations on an augmented matrix keep its identity part equal to
    the combination of rows of ``a^T`` that each row holds, so the rows
    whose ``a^T`` part comes out zero carry kernel vectors; they are
    independent, and there are cols - rank(a) of them.  For p > 2 the first
    ``rows`` columns of ``[a^T | I_cols]`` are eliminated with pivots from
    all of its rows.  Over GF(2) the rows of ``[I_cols | a^T]`` are packed
    into integers, identity part in the low bits, and run through the xor
    loop: its pivots with top bit below ``cols`` are those rows.
    """
    rows, cols = a.shape
    if p != 2:
        w = np.concatenate([a.T, np.eye(cols, dtype=np.int64)], axis=1)
        r, _ = _echelon(w, p, rows, cols)
        return w[r:, rows:]
    # Row i of [I_cols | a^T]: bit i, then column i of ``a`` from bit cols on.
    augmented = [(column << cols) | (1 << i) for i, column in enumerate(_pack_gf2_rows(a.T))]
    kernel = [row for row in _xor_pivots(augmented, cols + rows)[:cols] if row]
    nbytes = (cols + 7) // 8
    packed = np.frombuffer(b"".join(row.to_bytes(nbytes, "little") for row in kernel), np.uint8)
    return np.unpackbits(packed.reshape(len(kernel), nbytes), axis=1, count=cols, bitorder="little")


def invert_mod_p(m: PrimeFieldMatrix) -> PrimeFieldMatrix:
    """Inverse of a square matrix over Z/pZ.

    Raises :class:`SingularBlockError` when no inverse exists.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError(f"cannot invert non-square {m!r}")
    return PrimeFieldMatrix(m.p, _solve(m.entries, np.eye(m.rows, dtype=np.int64), m.p)[0])


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """Exact ``(a @ b) % p`` for residue matrices, as int64.

    Each entry of the product is a sum of ``inner`` products below
    (p-1)**2.  Below 2**24 every partial sum is an integer that float32
    holds exactly, and below 2**53 one that float64 holds, so the product
    runs through BLAS in the narrower of the two: at p = 2 and
    inner = 4000, float32 halves both operand copies and the time.  Below
    2**63 it runs in int64 (numpy's integer matmul, no BLAS); beyond that
    in Python ints (numpy object dtype), which never overflow.
    """
    bound = a.shape[1] * (p - 1) ** 2
    if bound < 2**53:
        exact = np.float32 if bound < 2**24 else np.float64
        prod = (a.astype(exact) @ b.astype(exact)).astype(np.int64)
        prod %= p
        return prod
    if bound < 2**63:
        return (a @ b) % p
    prod = a.astype(object) @ b.astype(object)
    return (prod % p).astype(np.int64)


def _block_corank(e: np.ndarray, d_1: np.ndarray, d_2: np.ndarray, p: int) -> int:
    """Corank mod p of [[diag(d_1), E], [E^T, diag(d_2)]], for residues d_1, d_2 and E.

    With S the rows of nonzero ``d_1``, Z the other z of them and m the
    columns of ``e``, eliminating S by a row scaling leaves
    [[0, E_Z], [E_Z^T, C]] with C = diag(d_2) - E_S^T diag(d_S)^-1 E_S.  If the
    k rows of N span the kernel of E_Z, that block has rank
    2 (m - k) + rank(N C N^T), so the corank is

        (z - m) + k + corank(N C N^T).

    The k x k matrix N C N^T comes from X = E_S N^T; C itself is never
    formed.  Negating E negates E_Z and leaves C alone, so its sign does not
    matter.
    """
    in_z = d_1 == 0
    e_z = e[in_z]
    kernel = _kernel_basis(e_z, p)
    e_s = e[~in_z]
    residues, which = np.unique(d_1[~in_z], return_inverse=True)
    d_s_inv = np.array([pow(int(d), -1, p) for d in residues], dtype=np.int64)[which]
    x = _matmul_mod(e_s, kernel.T, p)
    # In the kernel's dtype: at p = 2 that is uint8, and no int64 copy is made.
    c = _matmul_mod(kernel * d_2.astype(kernel.dtype) % p, kernel.T, p)
    c -= _matmul_mod((x * d_s_inv[:, None] % p).T, x, p)
    corank = corank_mod_p(PrimeFieldMatrix(p, c % p))
    return e_z.shape[0] - e.shape[1] + kernel.shape[0] + corank


def schur_complement(m: PrimeFieldMatrix, eliminate) -> PrimeFieldMatrix:
    """Schur complement of ``m`` after eliminating the indices ``eliminate``.

    ``eliminate`` is any sequence of distinct integers in [0, m.rows), in
    any order: with S those indices and T the rest in increasing order, the
    result is ``A[T,T] - A[T,S] @ inverse(A[S,S]) @ A[S,T]``, a |T| x |T|
    matrix over the same field, and reordering S does not change it.  The
    four blocks are cut straight from ``m.entries``, and
    ``inverse(A[S,S]) @ A[S,T]`` comes from one elimination of ``A[S,S]``,
    with no inverse formed.  When ``A[S,S]`` is invertible, block
    elimination shows the complement has the same corank as ``m`` -- this is
    what makes it useful for collapsing a large matrix onto a small
    interesting block.  An empty ``eliminate`` returns ``m`` itself.

    Raises :class:`DimensionMismatchError` if ``m`` is not square or an
    index is out of range, :class:`InvalidShapeError` if an index repeats,
    :class:`TypeError` for a non-integer index, and
    :class:`SingularBlockError` if ``A[S,S]`` is singular.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError(f"Schur complement needs a square matrix, got {m!r}")
    s = _checked_indices(eliminate, m.rows, "eliminated", m)
    if s.size == 0:
        return m
    keep = np.ones(m.rows, dtype=bool)
    keep[s] = False
    t = np.flatnonzero(keep)
    if s.size + t.size != m.rows:
        raise InvalidShapeError(f"eliminated indices must be distinct, got {s.tolist()}")
    a = m.entries
    x, _ = _solve(a[np.ix_(s, s)], a[np.ix_(s, t)], m.p)
    a_ts, a_tt = a[np.ix_(t, s)], a[np.ix_(t, t)]
    cross = _matmul_mod(a_ts, x, m.p)
    return PrimeFieldMatrix(m.p, (a_tt - cross) % m.p)
