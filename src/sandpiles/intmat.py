"""Exact integer matrices: Smith normal form, and determinants by Bareiss and by CRT.

Entries live in numpy object arrays holding Python ints, so nothing here can
overflow no matter how large the intermediate values grow (Smith form pivots
on graph Laplacians stay tiny, but determinants of 100x100 Laplacians easily
exceed 64 bits).

The Smith form routine starts with a unit phase, one pass over the
columns: in each column the first entry at or below the current row that
is a unit (+-1, or a unit mod the modulus described below) becomes a
pivot, one row update clears the rows below it, and each such pivot is an
invariant factor 1.  Almost every pivot of a graph Laplacian is a -1, so
that pass leaves a small block: on reduced Laplacians of 90-105 vertices,
and on their Schur blocks S below, 11-50 rows at alpha = 1/4 and at most
16 at alpha = 1/2 or 3/4.  On what is left the routine is the classical
elimination: repeatedly move the smallest-magnitude nonzero entry of the
working submatrix to the pivot position, reduce its row and column by
floor-division remainders, and once both are clear record the pivot and
drop its row and column.  A pairwise gcd/lcm pass on the recorded pivots
then enforces the divisibility chain d1 | d2 | ... .  The gcd/lcm pass is also exposed on its
own (:func:`normalize_divisor_chain`) because combining the invariant factors
of a direct sum needs exactly the same fix-up.

The loop takes a private modulus m.  With m > 0 it keeps every entry as a
symmetric residue mod m, which is elimination on ``[A | m*I]``, and returns
the Smith form of that matrix: gcd(s_i, m) for each invariant factor s_i of
A (Hafner-McCurley 1991).  :func:`smith_form_by_largest_factor` uses this
to get the Smith form of a nonsingular N x N matrix A, D = |det A|, with no
big-integer elimination (Eberly-Giesbrecht-Villard 2000).  Each of its
three steps works modulo some integer, and there the leading diagonal
block of A is eliminated in closed form (:func:`_lead_schur`).  On a
reduced Laplacian that block is the diagonal of the left degrees d_i, the
larger part on the paper's graphs.  Its rows whose d_i is a unit mod the
modulus go by one row scaling and one product, and leave the Schur block
S on the other indices.  At 90-105 vertices S has 19-44 rows mod the
primes, where every d_i is a unit, and 48-84 under the loop's moduli
above 1, which share factors with many degrees.  An empty lead leaves S = A.

1. Solve ``A X = B`` for a fixed-seed integer block B by Dixon p-adic
   lifting modulo one prime P < 2**26, with as many lifting steps as
   Hadamard's bound H >= D needs for rational reconstruction to be unique.
   The common denominator c of X divides s_N, since the entries of
   inverse(A) have denominators dividing s_N.  Only S is inverted mod P,
   and the 2 x 2 block-inverse formula gives inverse(A) mod P.  The
   elimination of S gives det S mod P, from its pivots and swaps, and
   det A = prod(d_i) det S.  Every degree is below N < P, so each is a
   unit mod P.
2. Recover m = D / c <= H / c by the CRT, from det A mod P and from
   prod(d_i) det S mod as many 27-bit primes q, stacked, as it takes to
   cover 2 H / c; P alone covers it on two thirds of the graphs of 90-105
   vertices.  P divides neither D nor c.  Then D = m c.
3. The loop modulo any multiple of s_(N-1) returns s_i exactly for i < N,
   since each such s_i divides it.  m is one such multiple, because
   s_1 ... s_(N-1) divides it.  Then s_N = D / (s_1 ... s_(N-1)).  Modulo
   the loop's modulus the Smith form of A is one 1 per eliminated d_i
   followed by that of S, so the loop runs on S alone; a d_i that shares
   a factor with the modulus stays in S.

Random-graph sandpile groups are close to cyclic, so m is often 1.  Where
the p-rank is large (alpha = 1/4, p = 2) m reaches 30-40 bits at N ~ 100,
but s_(N-1) stays small.  So the loop runs mod gcd(m, c) first, a multiple
of s_(N-1) whenever c = s_N; modulo 1 every factor is 1, with no run.  Its
leading factors t_i then bound the rest:
s_(N-1) always divides gcd(m, c K) with K = m / (t_1 ... t_(N-1)), so the
result stands when that divides the modulus, and otherwise one more run
modulo gcd(m, c K) is exact.  Moduli below 2**31 run on int64 residues,
larger ones on Python ints.

Step 2 and the tree count in ``groups`` share one CRT prime range and one
kernel: :func:`_covering_primes` walks the primes below 2**27, skipping any
that divides a diagonal entry eliminated in closed form, so each prime's
Schur block has one shape; :func:`_det_mod_primes` eliminates their int64
stack, one prime per layer; :func:`_crt_signed` rebuilds the integer.  The
count takes 14-19 primes at 90-105 vertices and 84 at 350, step 2 none
besides P on 163 of 240 such graphs, one on 66 and two on 11.  There step 2
took 0.19 ms per graph against 0.18 ms with one elimination per prime below
2**31, and the Smith route 5.8-6.0 ms either way (best of 7, three rounds).
:func:`determinant` is the Bareiss reference that ``verify`` and the
tests compare with.
"""

from __future__ import annotations

from functools import cache
from itertools import islice
from math import gcd, isqrt, prod

import numpy as np

from .errors import DimensionMismatchError, InvalidShapeError, SingularBlockError
from .gfp import _matmul_mod, _solve, is_prime
from .rng import SplitMix64

# Right-hand sides of the lifted solve: any integer block gives exact
# factors, and each random column halves, at least, the chance that c misses
# a factor of s_N, which costs one more run of the loop.  With one column c
# missed on 18 of 40 alpha = 1/4 graphs (N = 100), with two on 7.  More
# columns cost more lifting than they save.
_RHS_SEED = 20001
_RHS_COLUMNS = 2


class IntegerMatrix:
    """An immutable 2-d matrix of arbitrary-precision integers."""

    __slots__ = ("entries",)

    def __init__(self, entries) -> None:
        integral = isinstance(entries, np.ndarray) and entries.dtype.kind in "iu"
        raw = entries if integral else np.asarray(entries, dtype=object)
        if raw.ndim != 2:
            raise InvalidShapeError(f"entries must be 2-d, got shape {raw.shape}")
        if integral:
            # Nothing to refuse in an integer array; one cast gives Python ints.
            arr = raw.astype(object)
        else:
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

    @property
    def rows(self) -> int:
        return self.entries.shape[0]

    @property
    def cols(self) -> int:
        return self.entries.shape[1]

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
    (free ranks) sort to the end, since every integer divides 0.  A 1
    divides everything, so the 1s are set aside, only the other values are
    paired, and the 1s go in front.
    """
    vals = [abs(int(v)) for v in values]
    ones = vals.count(1)
    vals = [v for v in vals if v != 1]
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
    return (1,) * ones + tuple(vals)


def smith_normal_form(m: IntegerMatrix) -> tuple[int, ...]:
    """Diagonal of the Smith normal form of ``m``.

    Returns min(rows, cols) nonnegative integers d1, ..., dk with each d_i
    dividing d_(i+1); zeros (if any) come last.  The input is never mutated.
    """
    return _smith_diagonal(np.array(m.entries, dtype=object), 0)


def _symmetric(a: np.ndarray, modulus: int) -> np.ndarray:
    """Residues of ``a`` mod ``modulus`` in (-modulus/2, modulus/2]."""
    a = a % modulus
    a[a > modulus // 2] -= modulus
    return a


def _smith_diagonal(a: np.ndarray, modulus: int) -> tuple[int, ...]:
    """Smith diagonal of ``[a | modulus * I]``; eliminates in ``a`` itself.

    ``modulus`` 0 gives the Smith form of ``a``.  Otherwise ``a`` must hold
    symmetric residues mod ``modulus`` (int64 below 2**31, else object).

    Unit phase, one pass over the columns: the first entry at or below row r
    that is a unit mod the modulus (+-1 for modulus 0) becomes the pivot of
    row r, and one update clears the rows below it in its column.  The
    updates are full width, so the columns that took no pivot stay current.
    Column operations would clear the rest of each pivot row, so every unit
    pivot splits off a factor 1.  With g = gcd(entry, modulus), an entry is
    a unit when g is 1 and zero when g is the modulus, reduced or not.  In
    int64 the rows below a pivot are reduced lazily, as in ``gfp._echelon``:
    the pivot row is reduced to [0, modulus), so each update moves an entry
    by at most (modulus - 1)**2.  A column that is zero stays zero, so it
    is skipped.

    The smallest-pivot loop then runs on the rows and columns left over;
    under a modulus it reduces every row update to symmetric residues again.
    """
    rows, cols = a.shape
    size = min(rows, cols)
    reduce_each = modulus and (
        a.dtype == object or modulus // 2 + size * (modulus - 1) ** 2 >= 2**63
    )
    live = a.any(axis=0)
    left = np.flatnonzero(~live).tolist()
    r = 0
    for c in np.flatnonzero(live).tolist():
        g = np.gcd(a[r:, c], modulus)
        units = np.flatnonzero(g == 1)
        if units.size == 0:
            left.append(c)
            continue
        u = int(units[0])
        if u:
            a[[r, r + u]] = a[[r + u, r]]
            g[[0, u]] = g[[u, 0]]
        if modulus:
            a[r] %= modulus
        below = r + 1 + np.flatnonzero(g[1:] != modulus)
        if below.size:
            pivot = int(a[r, c])
            if modulus:
                factors = a[below, c] % modulus * pow(pivot, -1, modulus) % modulus
            else:
                factors = a[below, c] * pivot
            update = a[below] - factors[:, None] * a[r]
            a[below] = update % modulus if reduce_each else update
        r += 1
    a = a[r:][:, left]
    if modulus:
        a = _symmetric(a, modulus)
    diag = [1] * r
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
        reduced = a[rows] - (a[rows, 0] // pivot)[:, None] * a[0]
        a[rows] = _symmetric(reduced, modulus) if modulus else reduced
        # Once column 0 is clear below the pivot, the column pass changes
        # row 0 alone.  Any remainder left in row or column 0 is smaller
        # than |pivot|, so the next pivot is too and the loop ends.
        if not a[1:, 0].any():
            a[0, 1:] %= pivot
            if not a[0, 1:].any():
                diag.append(gcd(int(pivot), modulus))
                a = a[1:, 1:]
    # What is left is zero mod the modulus: one Z/modulus per dropped row.
    diag += [modulus] * (size - len(diag))
    return normalize_divisor_chain(diag)


@cache
def _prime_below(bound: int) -> int:
    """The largest prime below ``bound``, for ``bound`` > 2.

    The lifting and CRT primes are the same few values in every call, so
    each is searched for and tested once per process.
    """
    return next(q for q in range(bound - 1, 1, -1) if is_prime(q))


def _primes_below(bound: int):
    """Primes below ``bound``, largest first."""
    while bound > 2:
        bound = _prime_below(bound)
        yield bound


# Lifting primes tried before a matrix counts as singular and runs the plain
# loop.  A nonsingular matrix fails a prime only when the prime divides D.
_LIFT_PRIMES = tuple(islice(_primes_below(2**26), 3))


def _rational_denominator(z: int, modulus: int, numer_bound: int, denom_bound: int) -> int:
    """Denominator of the fraction n/d = z mod ``modulus`` with small n and d.

    Wang's half extended Euclid: the first remainder at most ``numer_bound``
    gives n and its cofactor gives d.  When some n/d with |n| <= numer_bound
    and 0 < d <= denom_bound exists and ``modulus`` > 2 * numer_bound *
    denom_bound, it is unique and this finds it.
    """
    r0, r1 = modulus, z % modulus
    t0, t1 = 0, 1
    while r1 > numer_bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if not 0 < abs(t1) <= denom_bound or gcd(r1, t1) != 1:
        raise RuntimeError(f"rational reconstruction of {z} mod {modulus} failed")
    return abs(t1)


def _product_mod(x: np.ndarray, y: np.ndarray, modulus: int) -> np.ndarray:
    """Exact ``(x @ y) % modulus`` for integer matrices.

    Each entry is a sum of ``inner`` products of at most max|x| max|y|.
    Below 2**53 the product runs through BLAS in float64, as in
    ``gfp._matmul_mod``, and otherwise in the arrays' own type.  Here int64
    arrays come only with moduli below 2**31, and then int64 is exact too:
    one factor is a block of an input with n * max|entry| < 2**31 and the
    other holds residues.  A Laplacian's off-diagonal blocks hold 0/-1, so
    its products take the float64 path at every int64 modulus.
    """
    bound = x.shape[1] * int(np.abs(x).max(initial=0)) * int(np.abs(y).max(initial=0))
    if bound < 2**53:
        return (x.astype(np.float64) @ y.astype(np.float64)).astype(np.int64) % modulus
    return x @ y % modulus


def _lead_schur(
    a: np.ndarray, modulus: int
) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """Eliminate the unit rows of the leading diagonal block of ``a`` mod ``modulus``.

    The lead is the longest leading block ``a[:k, :k]`` that is diagonal:
    the left degrees of a reduced Laplacian.  U holds its indices whose
    diagonal entry d_i is a unit mod ``modulus``, and T the other indices in
    order.  With U first, ``a`` is [[D, E], [F, G]], and mod ``modulus`` its
    Schur block S = G - F (D^-1 E) takes one row scaling and one product.
    Row and column operations invertible mod ``modulus`` take ``a`` to
    D (+) S, so det(a) = prod(d_i) det(S), and the Smith form of ``a`` mod
    ``modulus`` is |U| ones followed by that of S.  An empty U leaves S = a.

    Returns (U then T as one index array, |U|, the inverses of the d_i mod
    ``modulus``, S), with S as residues in [0, ``modulus``): int64 below
    2**31, Python ints above.  ``a`` is int64 with n * max|entry| < 2**31.
    """
    n = a.shape[0]
    off = a != 0
    np.fill_diagonal(off, False)
    # Column j ends the lead when a[i, j] or a[j, i] is nonzero for an i < j.
    ends = np.triu(off | off.T).any(axis=0)
    lead = int(ends.argmax()) if ends.any() else n
    diagonal = np.diagonal(a)[:lead].tolist()
    units = [i for i, d in enumerate(diagonal) if gcd(d, modulus) == 1]
    kept = np.ones(n, dtype=bool)
    kept[units] = False
    order = np.concatenate([np.array(units, dtype=np.int64), np.flatnonzero(kept)])
    k = len(units)
    work = a[np.ix_(order, order)]
    if modulus >= 2**31:
        work = work.astype(object)
    inverses = np.array([pow(diagonal[i], -1, modulus) for i in units], dtype=work.dtype)
    s = work[k:, k:] % modulus
    if k:
        scaled = inverses[:, None] * work[:k, k:] % modulus
        s -= _product_mod(work[k:, :k], scaled, modulus)
        s %= modulus
    return order, k, inverses, s


def _inverse_mod(a: np.ndarray, prime: int) -> tuple[np.ndarray, int]:
    """``inverse(a)`` mod ``prime`` and det(a) mod ``prime``, from the Schur block.

    With the lead eliminated (:func:`_lead_schur`) only S is inverted, and
    the 2 x 2 block-inverse formula gives the rest:
    [[D^-1 + D^-1 E S^-1 F D^-1, -D^-1 E S^-1], [-S^-1 F D^-1, S^-1]].
    Raises :class:`SingularBlockError` when ``a`` is singular mod ``prime``.
    """
    order, k, d, s = _lead_schur(a, prime)
    s_inv, det_s = _solve(s, np.eye(s.shape[0], dtype=np.int64), prime)
    permuted = a[np.ix_(order, order)]
    e, f = permuted[:k, k:], permuted[k:, :k]
    lower = -_product_mod(s_inv, f, prime) * d % prime
    right = -d[:, None] * _product_mod(e, s_inv, prime) % prime
    upper = (np.diag(d) - d[:, None] * _product_mod(e, lower, prime)) % prime
    inverse = np.empty_like(a)
    inverse[np.ix_(order, order)] = np.block([[upper, right], [lower, s_inv]])
    return inverse, _lead_det(a, order[:k], det_s, prime)


def _lead_det(a: np.ndarray, units: np.ndarray, det_s: int, modulus: int) -> int:
    """det(a) mod ``modulus`` as prod(d_i) det(S), d_i the eliminated lead entries."""
    return prod(np.diagonal(a)[units].tolist()) * det_s % modulus


def _solution_denominator(
    a: np.ndarray, b: np.ndarray, hadamard: int
) -> tuple[int, int, int] | None:
    """Common denominator c of x = ``inverse(a) @ b`` for an int64 block b.

    Dixon lifting mod one prime P < 2**26: with ``inverse(a)`` mod P known,
    each step solves for the next P-adic digit of x and divides the residual
    by P exactly.  Entries of x are u / D with |u| <= H |b_col| (Cramer and
    Hadamard's bound H >= D), so once P**k > 2 H**2 |b_col| each is the
    unique fraction with those bounds.  Returns (c, P, det(a) mod P), the
    residue read from the elimination that inverts ``a``, or None when
    ``a`` is singular mod every prime tried.
    """
    numer_bound = hadamard * (isqrt(int((b * b).sum(axis=0).max())) + 1)
    for prime in _LIFT_PRIMES:
        try:
            inverse, det_residue = _inverse_mod(a, prime)
        except SingularBlockError:
            continue
        break
    else:
        return None
    residual = b
    digits = []
    modulus = 1
    while modulus <= 2 * numer_bound * hadamard:
        digit = _matmul_mod(inverse, residual % prime, prime)
        residual = (residual - a @ digit) // prime
        digits.append(digit)
        modulus *= prime
    # Two digits make one int64 digit below P**2 < 2**52, so the Horner
    # steps on Python ints run in base P**2, half as many.
    if len(digits) % 2:
        digits.append(np.zeros_like(b))
    lifted = np.zeros(b.shape, dtype=object)
    for low, high in reversed(list(zip(digits[::2], digits[1::2]))):
        lifted = lifted * prime**2 + (low + prime * high)
    # Entries that are already integral after scaling by c need no
    # reconstruction; c grows to the lcm of the denominators seen.
    c = 1
    for value in lifted.flat:
        z = c * value % modulus
        if min(z, modulus - z) > numer_bound:
            c *= _rational_denominator(z, modulus, numer_bound, hadamard)
    return c, prime, det_residue


def _covering_primes(bound: int, avoid: int) -> list[int]:
    """Primes below 2**27, largest first, that do not divide ``avoid``.

    As few as make their product exceed ``bound``.  Below 2**27,
    :func:`_det_mod_primes` reduces lazily up to 512 rows.
    """
    primes, product = [], 1
    candidates = _primes_below(2**27)
    while product <= bound:
        q = next(candidates)
        if avoid % q:
            primes.append(q)
            product *= q
    return primes


def _crt_signed(residues, primes) -> int:
    """The integer in (-P/2, P/2] that is ``residues[i]`` mod ``primes[i]``.

    P is the product of the (distinct) primes; Garner's mixed-radix steps,
    one prime at a time.
    """
    value, product = 0, 1
    for residue, q in zip(residues, primes):
        value += product * ((int(residue) - value) * pow(product, -1, q) % q)
        product *= q
    return value - product if value > product // 2 else value


def _determinant_quotient(
    a: np.ndarray, c: int, bound: int, prime: int, det_residue: int
) -> int:
    """det(a) / c, given that c divides it and |det(a) / c| <= ``bound``.

    CRT from ``det_residue`` = det(a) mod ``prime``, a prime that does not
    divide c, and from det(a) mod as few of :func:`_covering_primes` as take
    the product of all the primes past 2 * bound (none when ``prime`` >
    2 * bound).  These divide neither c, ``prime`` nor a nonzero diagonal
    entry, so each has the same :func:`_lead_schur` block shape and one
    :func:`_det_mod_primes` stack takes them all.
    """
    diagonal = [d for d in np.diagonal(a).tolist() if d]
    extra = _covering_primes(2 * bound // prime, c * prime * prod(diagonal))
    residues = [det_residue]
    if extra:
        blocks = [_lead_schur(a, q) for q in extra]
        order, k, _, _ = blocks[0]
        dets = _det_mod_primes(np.stack([s for *_, s in blocks]), np.array(extra))
        residues += [_lead_det(a, order[:k], d, q) for d, q in zip(dets.tolist(), extra)]
    primes = [prime, *extra]
    return _crt_signed([r * pow(c, -1, q) % q for r, q in zip(residues, primes)], primes)


def _det_mod_primes(a: np.ndarray, primes: np.ndarray) -> np.ndarray:
    """Determinant of layer i of ``a`` mod ``primes[i]``, for every layer at once.

    ``a`` is an int64 stack of shape (k, n, n), layer i holding residues in
    [0, primes[i]), and is eliminated in place; ``primes`` holds k primes
    below 2**31.  Each column step runs on the whole stack: every layer
    takes its first nonzero entry mod its prime at or below the diagonal as
    pivot, the layers whose pivot lies lower swap it up (each swap negates
    that layer's determinant), and the rows below are cleared.  A layer with
    no pivot in a column is singular mod its prime: its determinant is 0 and
    its later updates are zero.  The rows below a pivot are reduced lazily,
    under the bound of ``gfp._echelon`` for the largest prime.
    """
    k, n = a.shape[0], a.shape[-1]
    q = np.asarray(primes, dtype=np.int64)
    moduli = q.tolist()
    per_row = q[:, None]
    largest = int(q.max(initial=2))
    lazy = (largest - 1) * (1 + n * (largest - 1)) < 2**63
    det = np.ones(k, dtype=np.int64)
    flips = np.zeros(k, dtype=bool)
    for c in range(n):
        col = a[:, c:, c] % per_row
        first = (col != 0).argmax(axis=1)
        swap = np.flatnonzero(first)
        if swap.size:
            below = c + first[swap]
            top = a[swap, c, c:]
            a[swap, c, c:] = a[swap, below, c:]
            a[swap, below, c:] = top
            col[swap, 0] = col[swap, first[swap]]
            col[swap, first[swap]] = 0
            flips[swap] ^= True
        a[:, c, c:] %= per_row
        pivots = col[:, 0]
        det = det * pivots % q
        inverses = [pow(v, -1, p) if v else 0 for v, p in zip(pivots.tolist(), moduli)]
        factors = col[:, 1:] * np.array(inverses, dtype=np.int64)[:, None] % per_row
        block = a[:, c + 1 :, c + 1 :]
        block -= factors[:, :, None] * a[:, c, None, c + 1 :]
        if not lazy:
            block %= per_row[:, :, None]
    return np.where(flips, (q - det) % q, det)


def smith_form_by_largest_factor(m: IntegerMatrix) -> tuple[int, ...]:
    """Same diagonal as :func:`smith_normal_form`, without big-integer elimination.

    For a square matrix with nonzero determinant, the largest invariant
    factor comes from one p-adic solve and the rest from the pivot loop run
    modulo m = D / c (see the module docstring).  Non-square matrices,
    entries too large for int64 lifting, and matrices singular modulo every
    lifting prime run the plain loop.  Raises :class:`RuntimeError` if an
    internal invariant fails.
    """
    n = m.rows
    # Bounding n * max|entry| keeps the column norms and the lifting products
    # (entries times residues below 2**26, summed n times) exact in int64.
    if n == 0 or n != m.cols or int(np.abs(m.entries).max()) * n >= 2**31:
        return smith_normal_form(m)
    a = m.entries.astype(np.int64)
    hadamard = isqrt(prod(int(v) for v in (a * a).sum(axis=0))) + 1
    draws = SplitMix64(_RHS_SEED).next_block(n * _RHS_COLUMNS) >> np.uint64(48)
    b = draws.astype(np.int64).reshape(n, _RHS_COLUMNS) - 2**15
    solved = _solution_denominator(a, b, hadamard)
    if solved is None:
        return smith_normal_form(m)
    # The lifting prime does not divide D, so it does not divide c either.
    c, prime, det_residue = solved
    quotient = abs(_determinant_quotient(a, c, hadamard // c, prime, det_residue))
    if quotient == 0:
        raise RuntimeError("determinant is 0 by CRT but a unit modulo the lifting prime")
    det = quotient * c

    def chain_mod(modulus: int) -> tuple[int, ...]:
        if modulus == 1:
            return (1,) * n
        _, k, _, s = _lead_schur(a, modulus)
        return (1,) * k + _smith_diagonal(_symmetric(s, modulus), modulus)

    # quotient is m = D / c.  When c = s_N, s_(N-1) divides gcd(m, c), often
    # a far smaller modulus.  Whatever the modulus, each leading factor t_i
    # divides s_i, so k = s_N / c = m / (s_1 ... s_(N-1)) divides
    # K = m / (t_1 ... t_(N-1)), and s_(N-1) divides gcd(m, s_N), which
    # divides gcd(m, c K).  Once that divides the modulus the chain is exact;
    # otherwise one more run modulo it is.
    modulus = gcd(quotient, c)
    chain = chain_mod(modulus)
    exact = gcd(quotient, c * (quotient // prod(chain[:-1])))
    if modulus % exact:
        modulus = exact
        chain = chain_mod(modulus)
    leading = chain[:-1]
    last, rest = divmod(det, prod(leading))
    if (
        rest
        or quotient % prod(leading)
        or (leading and last % leading[-1])
        or gcd(last, modulus) != chain[-1]
    ):
        raise RuntimeError(
            f"Smith form mod {modulus} gives {chain}, inconsistent with determinant {det}"
        )
    return leading + (last,)


def determinant(m: IntegerMatrix) -> int:
    """Exact determinant via Bareiss fraction-free elimination.

    Every intermediate value is an (integer) minor of the input, so sizes stay
    polynomial and all divisions are exact -- no rationals, no rounding.
    """
    if m.rows != m.cols:
        raise DimensionMismatchError(f"determinant needs a square matrix, got {m!r}")
    a = np.array(m.entries, dtype=object)
    n = a.shape[0]
    if n == 0:
        return 1
    sign, prev = 1, 1
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
