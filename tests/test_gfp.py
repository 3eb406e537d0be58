"""Tests for prime-field matrices: rank, inversion and Schur complements."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import (
    det_by_cofactors,
    is_prime_by_trial_division,
    random_uniform_matrix,
    rank_by_minors,
    rank_by_row_reduction,
)
from sandpiles import (
    DimensionMismatchError,
    InvalidParamsError,
    InvalidShapeError,
    NotPrimeError,
    PrimeFieldMatrix,
    SingularBlockError,
    SplitMix64,
    corank_mod_p,
    invert_mod_p,
    is_prime,
    rank_mod_p,
    schur_complement,
    submatrix,
)
from sandpiles.gfp import _echelon, _kernel_basis, _matmul_mod, _solve
from sandpiles.reduction import build_M

# At n = 32 the lazy-reduction bound (p-1) * (1 + n (p-1)) < 2**63 falls
# between these two consecutive primes: the first reduces lazily, the
# second reduces every update.
LAZY_N = 32
LAZY_PRIME, EAGER_PRIME = 536870909, 536870923


def _lazy(p: int, steps: int) -> bool:
    return (p - 1) * (1 + steps * (p - 1)) < 2**63


def _python_matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a.astype(object) @ b.astype(object)


def _arrowhead(stream: SplitMix64, n: int, p: int) -> np.ndarray:
    """Diagonal plus a dense last row and column; some diagonal entries zero.

    Cofactor expansion along the first row stays polynomial on these, and
    elimination piles every update of the last row into its last entry.
    """
    a = np.zeros((n, n), dtype=np.int64)
    for i in range(n - 1):
        a[i, i] = 0 if stream.next_below(6) == 0 else stream.next_below(p)
        a[i, n - 1] = stream.next_below(p)
        a[n - 1, i] = p - 1 - stream.next_below(4)
    a[n - 1, n - 1] = stream.next_below(p)
    return a


def test_is_prime_small_cases():
    primes = {2, 3, 5, 7, 11, 13, 97, 2147483629, 2147483647}
    composites = {-3, 0, 1, 4, 6, 9, 15, 91, 2147483647 * 3}
    assert all(is_prime(p) for p in primes)
    assert not any(is_prime(c) for c in composites)


def test_is_prime_matches_trial_division():
    assert [n for n in range(-5, 5000) if is_prime(n)] == [
        n for n in range(-5, 5000) if is_prime_by_trial_division(n)
    ]
    stream = SplitMix64(2357)
    for _ in range(300):
        n = stream.next_below(2**32)
        assert is_prime(n) == is_prime_by_trial_division(n)
    for n in (2**31 - 1, 2**31 + 11, 2**32 - 5, 2**33 - 9):
        assert is_prime(n) == is_prime_by_trial_division(n)


def test_is_prime_large_inputs_up_to_two_to_the_64():
    # A Mersenne prime and the largest prime below 2**64.
    assert is_prime(2**61 - 1)
    assert is_prime(2**64 - 59)
    # Strong pseudoprimes: 3215031751 to bases 2, 3, 5, 7;
    # 3825123056546413051 to every prime base up to 23.
    assert not is_prime(3215031751)
    assert not is_prime(3825123056546413051)
    assert not is_prime((2**31 - 1) * (2**31 - 19))
    assert not is_prime(2**64 - 1)
    with pytest.raises(InvalidParamsError):
        is_prime(2**64)
    with pytest.raises(InvalidParamsError):
        is_prime(2**64 + 13)


def test_matrix_construction_reduces_entries():
    m = PrimeFieldMatrix(5, [[7, -1], [10, 3]])
    assert m.entries.tolist() == [[2, 4], [0, 3]]
    assert m.entries.dtype == np.int64
    # Entries only below 0, or only at or above p, are still reduced.
    assert PrimeFieldMatrix(7, [[-1, -7], [-8, 0]]).entries.tolist() == [[6, 0], [6, 0]]
    assert PrimeFieldMatrix(7, [[7, 13], [1, 2]]).entries.tolist() == [[0, 6], [1, 2]]
    big = PrimeFieldMatrix(2147483647, np.array([[2**40, -(2**40)]], dtype=np.int64))
    assert big.entries.tolist() == [[2**40 % 2147483647, -(2**40) % 2147483647]]
    assert PrimeFieldMatrix(2, np.array([[3, 0]], dtype=np.uint8)).entries.tolist() == [[1, 0]]
    # Unsigned entries at or above 2**63 are reduced, not wrapped through int64.
    huge = np.array([[2**64 - 1, 2**63]], dtype=np.uint64)
    assert PrimeFieldMatrix(3, huge).entries.tolist() == [[0, 2]]
    assert PrimeFieldMatrix(257, np.array([[255, 3]], dtype=np.uint8)).entries.tolist() == [[255, 3]]
    # Bools, such as a graph's biadjacency, are read as 0 and 1.
    flags = PrimeFieldMatrix(3, np.array([[True, False], [False, True]]))
    assert flags.entries.dtype == np.int64 and flags.entries.tolist() == [[1, 0], [0, 1]]


def test_matrix_construction_copies_already_reduced_entries():
    raw = np.array([[0, 1], [2, 4]], dtype=np.int64)
    m = PrimeFieldMatrix(5, raw)
    assert m.entries.tolist() == [[0, 1], [2, 4]]
    assert m.entries.dtype == np.int64
    assert not m.entries.flags.writeable
    raw[0, 0] = 3  # the caller's array stays theirs
    assert m.entries[0, 0] == 0
    assert PrimeFieldMatrix(3, np.zeros((0, 4), dtype=np.int64)).entries.shape == (0, 4)


def test_matrix_rejects_bad_modulus():
    with pytest.raises(NotPrimeError):
        PrimeFieldMatrix(6, [[1]])
    with pytest.raises(NotPrimeError):
        PrimeFieldMatrix(1, [[1]])
    # Largest supported prime works; anything >= 2**31 does not.
    PrimeFieldMatrix(2147483647, [[1, 2]])
    with pytest.raises(ValueError):
        PrimeFieldMatrix(2**31 + 11, [[1]])


def test_matrix_rejects_ragged_and_float():
    with pytest.raises(ValueError):
        PrimeFieldMatrix(3, [[1, 2], [3]])
    with pytest.raises(ValueError):
        PrimeFieldMatrix(3, [[1.5, 2.0]])


def test_matrix_entries_read_only():
    m = PrimeFieldMatrix(3, [[1, 2], [0, 1]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 2


def test_matrix_equality_and_hash():
    a = PrimeFieldMatrix(3, [[1, 2], [0, 1]])
    b = PrimeFieldMatrix(3, [[1, 2], [0, 1]])
    c = PrimeFieldMatrix(5, [[1, 2], [0, 1]])
    assert a == b and hash(a) == hash(b)
    assert a != c
    assert a != [[1, 2], [0, 1]]


def test_schur_complement_index_validation():
    m = PrimeFieldMatrix(7, [[1, 2, 0, 3], [2, 4, 1, 0], [0, 1, 5, 6], [3, 0, 6, 2]])
    with pytest.raises(InvalidShapeError):
        schur_complement(m, (0, 2, 0))  # repeated
    with pytest.raises(DimensionMismatchError, match=r"^eliminated index 4 out of range for "):
        schur_complement(m, (0, 4))
    with pytest.raises(DimensionMismatchError, match=r"^eliminated index -1 out of range for "):
        schur_complement(m, (-1,))
    with pytest.raises(TypeError):
        schur_complement(m, (0.5,))
    assert schur_complement(m, (3, 1, 0)) == schur_complement(m, (0, 1, 3))


def test_submatrix_selects_rows_and_columns():
    m = PrimeFieldMatrix(7, [[1, 2, 3], [4, 5, 6], [0, 1, 2]])
    sub = submatrix(m, (0, 2), (1,))
    assert sub.entries.tolist() == [[2], [1]]
    assert submatrix(m, (), (0, 1)).entries.shape == (0, 2)
    assert submatrix(m, (1,), ()).entries.shape == (1, 0)
    assert submatrix(m, range(1, 3), [2, 0]).entries.tolist() == [[6, 4], [2, 0]]
    with pytest.raises(DimensionMismatchError):
        submatrix(m, (3,), (1,))


def test_submatrix_names_the_first_bad_index():
    m = PrimeFieldMatrix(7, [[1, 2, 3], [4, 5, 6]])
    with pytest.raises(DimensionMismatchError, match=r"^row index 5 out of range for "):
        submatrix(m, (0, 5, -1), (1,))
    with pytest.raises(DimensionMismatchError, match=r"^row index -1 out of range for "):
        submatrix(m, (-1, 7), (1,))
    with pytest.raises(DimensionMismatchError, match=r"^column index 3 out of range for "):
        submatrix(m, (0,), (0, 3, 4))
    with pytest.raises(TypeError):
        submatrix(m, (0.5,), (1,))


def test_rank_known_cases():
    assert rank_mod_p(PrimeFieldMatrix(2, [[1, 1], [1, 1]])) == 1
    assert rank_mod_p(PrimeFieldMatrix(3, [[1, 2], [2, 4]])) == 1
    assert rank_mod_p(PrimeFieldMatrix(5, [[1, 0], [0, 1]])) == 2
    assert rank_mod_p(PrimeFieldMatrix(5, [[0, 0], [0, 0]])) == 0
    assert rank_mod_p(PrimeFieldMatrix(3, np.zeros((0, 4), dtype=np.int64))) == 0
    # [[2, 4], [6, 8]] vanishes mod 2; mod 3 its determinant -8 is nonzero.
    assert rank_mod_p(PrimeFieldMatrix(2, [[2, 4], [6, 8]])) == 0
    assert rank_mod_p(PrimeFieldMatrix(3, [[2, 4], [6, 8]])) == 2


def test_rank_against_minor_oracle_sweep():
    stream = SplitMix64(314)
    for trial in range(200):
        p = (2, 3, 5, 7, 13)[trial % 5]
        rows = 1 + stream.next_below(5)
        cols = 1 + stream.next_below(6)
        m = random_uniform_matrix(stream, rows, cols, p)
        assert rank_mod_p(m) == rank_by_minors(m)


def test_echelon_rank_matches_row_reduction_oracle_on_rank_deficient_matrices():
    # Products of random (rows x k) and (k x cols) factors have rank <= k;
    # a repeated row and a repeated column add dependent rows and columns.
    stream = SplitMix64(4242)
    for p in (3, 5, 7, 2**31 - 1):
        for _ in range(12):
            rows = 2 + stream.next_below(14)
            cols = 2 + stream.next_below(14)
            k = 1 + stream.next_below(min(rows, cols) - 1)
            left = random_uniform_matrix(stream, rows, k, p).entries
            right = random_uniform_matrix(stream, k, cols, p).entries
            block = _matmul_mod(left, right, p)
            block = np.concatenate([block, block[:1]], axis=0)[:, [0, *range(cols)]]
            m = PrimeFieldMatrix(p, block)
            oracle = rank_by_row_reduction(m.entries.tolist(), p)
            assert oracle <= k
            assert rank_mod_p(m) == oracle


def test_lazy_reduction_is_exact_at_the_worst_growth_on_both_sides_of_the_bound():
    assert _lazy(LAZY_PRIME, LAZY_N) and not _lazy(EAGER_PRIME, LAZY_N)
    assert not any(is_prime(x) for x in range(LAZY_PRIME + 1, EAGER_PRIME))
    # Ones on the diagonal and p-1 along the last row and column: each of
    # the n steps subtracts exactly (p-1)**2 from the corner, which ends at
    # 1 - n (p-1)**2.  Without a reduction that overflows int64 at the
    # eager prime.
    assert LAZY_N * (EAGER_PRIME - 1) ** 2 > 2**63 + EAGER_PRIME
    for p in (LAZY_PRIME, EAGER_PRIME):
        a = np.eye(LAZY_N + 1, dtype=np.int64)
        a[LAZY_N, :LAZY_N] = a[:LAZY_N, LAZY_N] = p - 1
        assert _echelon(a, p, LAZY_N, LAZY_N) == (LAZY_N, 0)
        assert a[LAZY_N, LAZY_N] == (1 - LAZY_N) % p
        assert a.min() >= 0 and a.max() < p


def test_rank_on_both_sides_of_the_lazy_bound_matches_row_reduction():
    stream = SplitMix64(8128)
    for p in (LAZY_PRIME, EAGER_PRIME):
        for trial in range(8):
            if trial % 2:
                m = PrimeFieldMatrix(p, _arrowhead(stream, LAZY_N, p))
            else:
                k = 1 + stream.next_below(LAZY_N)
                left = random_uniform_matrix(stream, LAZY_N, k, p).entries
                right = random_uniform_matrix(stream, k, LAZY_N, p).entries
                m = PrimeFieldMatrix(p, (_python_matmul(left, right) % p).astype(np.int64))
            assert rank_mod_p(m) == rank_by_row_reduction(m.entries.tolist(), p)


def _assert_solve_determinant(a: np.ndarray, p: int) -> bool:
    """``_solve(a, I, p)``'s determinant is det(a) mod p, or it refuses a singular ``a``.

    Returns whether ``a`` is singular mod p.
    """
    expect = det_by_cofactors(a.tolist()) % p
    eye = np.eye(a.shape[0], dtype=np.int64)
    if expect == 0:
        with pytest.raises(SingularBlockError):
            _solve(a, eye, p)
    else:
        assert _solve(a, eye, p)[1] == expect
    return expect == 0


def test_determinant_on_both_sides_of_the_lazy_bound_matches_cofactors():
    # _solve eliminates the n columns of [[a, I], [I, 0]] with pivots from
    # its top n rows, so its lazy bound is that of an n x n elimination.
    stream = SplitMix64(496)
    swapped = 0
    for p in (LAZY_PRIME, EAGER_PRIME):
        for _ in range(10):
            a = _arrowhead(stream, LAZY_N, p)
            swapped += not np.diagonal(a)[:-1].all()
            _assert_solve_determinant(a, p)
        worst = np.eye(LAZY_N, dtype=np.int64)
        worst[-1, :-1] = worst[:-1, -1] = p - 1
        _assert_solve_determinant(worst, p)
    assert swapped >= 5


def test_inverse_round_trip_with_lazy_reduction_on_and_off():
    # 2**26 - 5 is in the range intmat's p-adic lifting uses.
    stream = SplitMix64(6174)
    for p, lazy in ((2**26 - 5, True), (2**31 - 1, False)):
        size = 40
        assert _lazy(p, size) == lazy
        m = random_uniform_matrix(stream, size, size, p)
        inv = invert_mod_p(m).entries
        for prod in (_python_matmul(m.entries, inv), _python_matmul(inv, m.entries)):
            assert np.array_equal(prod % p, np.eye(size, dtype=np.int64))


def _gf2_structured_cases(stream: SplitMix64) -> list[np.ndarray]:
    """0/1 matrices that hit the corners of the packed xor loop.

    Zero, duplicate and xor-dependent rows, widths that are not a multiple
    of 8 and widths above 64 bits; plus all-zero and 0-row matrices.
    """
    cases = []
    for cols in (1, 7, 9, 63, 64, 65, 70, 131):
        a = random_uniform_matrix(stream, 6, cols, 2).entries
        rows = [a[0], np.zeros(cols, dtype=np.int64), a[1], a[0], a[1] ^ a[2], a[2]]
        cases.append(np.array(rows + list(a[3:]), dtype=np.int64))
        cases.append(np.zeros((3, cols), dtype=np.int64))
        cases.append(np.zeros((0, cols), dtype=np.int64))
    return cases


def test_gf2_bit_path_matches_generic_elimination():
    stream = SplitMix64(272)
    for _ in range(150):
        rows = 1 + stream.next_below(8)
        cols = 1 + stream.next_below(8)
        m = random_uniform_matrix(stream, rows, cols, 2)
        assert rank_mod_p(m) == _echelon(m.entries.copy(), 2, cols, rows)[0]
    for a in _gf2_structured_cases(stream):
        rows, cols = a.shape
        rank = rank_mod_p(PrimeFieldMatrix(2, a))
        assert rank == _echelon(a.copy(), 2, cols, rows)[0], a.shape
        assert rank == rank_by_row_reduction(a.tolist(), 2), a.shape
        assert rank_mod_p(PrimeFieldMatrix(2, a.T)) == rank, a.shape


def test_kernel_basis_spans_the_kernel_with_independent_rows():
    # Random matrices, and products of (rows x r) and (r x cols) factors for
    # kernels larger than cols - rows; plus a 0-row and a zero matrix, and
    # at p = 2 the structured cases and their transposes.
    stream = SplitMix64(1313)
    for p in (2, 3, 5, 7, 2**31 - 1):
        cases = [np.zeros((0, 5), dtype=np.int64), np.zeros((4, 6), dtype=np.int64)]
        if p == 2:
            cases += _gf2_structured_cases(stream)
            cases += [a.T for a in _gf2_structured_cases(stream)]
        for _ in range(16):
            rows = 1 + stream.next_below(12)
            cols = 1 + stream.next_below(12)
            a = random_uniform_matrix(stream, rows, cols, p).entries
            if stream.next_below(2):
                r = 1 + stream.next_below(min(rows, cols))
                left = random_uniform_matrix(stream, rows, r, p).entries
                a = _matmul_mod(left, random_uniform_matrix(stream, r, cols, p).entries, p)
            cases.append(a)
        for a in cases:
            kernel = _kernel_basis(a, p)
            k = a.shape[1] - rank_mod_p(PrimeFieldMatrix(p, a))
            assert kernel.shape == (k, a.shape[1]), (p, a.shape)
            assert kernel.dtype == (np.uint8 if p == 2 else np.int64), (p, a.shape)
            assert kernel.min(initial=0) >= 0 and kernel.max(initial=0) < p
            assert not (_python_matmul(a, kernel.T) % p).any(), (p, a.shape)
            assert rank_mod_p(PrimeFieldMatrix(p, kernel)) == k, (p, a.shape)
        assert any(0 < _kernel_basis(a, p).shape[0] < a.shape[1] for a in cases)


def test_corank_is_min_dimension_minus_rank():
    m = PrimeFieldMatrix(3, [[1, 2, 0], [2, 4, 0]])
    assert rank_mod_p(m) == 1
    assert corank_mod_p(m) == 1  # min(2, 3) - 1
    square = PrimeFieldMatrix(3, [[1, 2], [2, 4]])
    assert corank_mod_p(square) == 1
    assert corank_mod_p(PrimeFieldMatrix(5, [[0, 0], [0, 0]])) == 2


def test_inverse_round_trip():
    stream = SplitMix64(16180)
    found = 0
    while found < 50:
        p = (2, 3, 5, 7, 2**31 - 1)[found % 5]
        size = 1 + stream.next_below(5)
        m = random_uniform_matrix(stream, size, size, p)
        if rank_mod_p(m) < size:
            continue
        inv = invert_mod_p(m)
        prod = _matmul_mod(m.entries, inv.entries, p)
        assert np.array_equal(prod, np.eye(size, dtype=np.int64))
        found += 1


def test_inverse_of_singular_matrix_raises():
    with pytest.raises(SingularBlockError):
        invert_mod_p(PrimeFieldMatrix(3, [[1, 2], [2, 4]]))
    with pytest.raises(DimensionMismatchError):
        invert_mod_p(PrimeFieldMatrix(3, [[1, 2]]))


def test_matmul_large_prime_uses_exact_arithmetic():
    p = 2147483629
    stream = SplitMix64(31337)
    a = random_uniform_matrix(stream, 3, 4, p).entries
    b = random_uniform_matrix(stream, 4, 2, p).entries
    got = _matmul_mod(a, b, p)
    expect = [
        [sum(int(a[i, k]) * int(b[k, j]) for k in range(4)) % p for j in range(2)]
        for i in range(3)
    ]
    assert got.tolist() == expect
    assert got.dtype == np.int64


def test_matmul_is_exact_on_both_sides_of_the_float64_and_int64_bounds():
    # inner * (p-1)**2 crosses 2**24 (the float32 bound) at p = 1447,
    # 2**53 at p = 2**25 - 39 and 2**63 at p = 2**30 - 35 between
    # inner = 8 and inner = 9.  Entries near p - 1 make the sums reach past
    # each bound.
    stream = SplitMix64(2718)
    for p, bound in ((1447, 2**24), (2**25 - 39, 2**53), (2**30 - 35, 2**63)):
        assert is_prime(p)
        for inner in (8, 9):
            assert (inner * (p - 1) ** 2 < bound) == (inner == 8)
            a = np.array([[p - 1 - stream.next_below(8) for _ in range(inner)] for _ in range(3)])
            b = np.array([[p - 1 - stream.next_below(8) for _ in range(4)] for _ in range(inner)])
            got = _matmul_mod(a, b, p)
            assert got.dtype == np.int64
            assert got.tolist() == (_python_matmul(a, b) % p).tolist()
    empty = _matmul_mod(np.zeros((2, 0), dtype=np.int64), np.zeros((0, 3), dtype=np.int64), 3)
    assert empty.dtype == np.int64 and empty.tolist() == [[0] * 3] * 2


def test_schur_complement_hand_example():
    # m = [[2, 1], [1, 1]] over Z/5Z, eliminating the first variable:
    # 1 - 1 * inv(2) * 1 = 1 - 3 = -2 = 3 (mod 5).
    m = PrimeFieldMatrix(5, [[2, 1], [1, 1]])
    out = schur_complement(m, (0,))
    assert out.entries.tolist() == [[3]]


def test_schur_complement_preserves_corank_sweep():
    stream = SplitMix64(60221023)
    done = 0
    while done < 120:
        p = (2, 3, 5, 7)[done % 4]
        size = 3 + stream.next_below(4)
        m = random_uniform_matrix(stream, size, size, p)
        block = 1 + stream.next_below(size - 1)
        picks = sorted(set(stream.next_below(size) for _ in range(block)))
        try:
            out = schur_complement(m, picks)
        except SingularBlockError:
            continue
        assert corank_mod_p(out) == corank_mod_p(m)
        done += 1


def test_determinant_mod_p_matches_cofactor_expansion():
    # Entries from {0, 1} make singular matrices and row swaps common.
    stream = SplitMix64(5150)
    singular = 0
    for trial in range(150):
        p = (2, 3, 5, 7, 2**31 - 1)[trial % 5]
        size = 1 + stream.next_below(6)
        bound = 2 if trial % 3 == 0 else p
        rows = [[stream.next_below(bound) for _ in range(size)] for _ in range(size)]
        singular += _assert_solve_determinant(np.array(rows, dtype=np.int64), p)
    assert 30 <= singular <= 120


def _check_schur_by_determinant_quotients(m: PrimeFieldMatrix, s: list[int]) -> bool:
    """Whether A[S,S] is invertible; asserts the complement or the error."""
    # Entry (i, j) of the Schur complement is det(A[S+i, S+j]) / det(A[S, S]),
    # with i and j in T appended last to the rows and columns of S.
    p = m.p
    rows = m.entries.tolist()
    block = [[rows[a][b] for b in s] for a in s]
    det_ss = det_by_cofactors(block) % p
    if det_ss == 0:
        rank = rank_by_row_reduction(block, p)
        message = f"matrix of rank {rank} < {len(s)} is singular"
        with pytest.raises(SingularBlockError, match=f"^{message}$"):
            schur_complement(m, s)
        return False
    scale = pow(det_ss, -1, p)
    t = [i for i in range(m.rows) if i not in s]
    expect = [
        [
            det_by_cofactors(
                [[rows[a][b] for b in (*s, j)] for a in (*s, i)]
            ) * scale % p
            for j in t
        ]
        for i in t
    ]
    assert schur_complement(m, s).entries.tolist() == expect
    return True


def test_schur_complement_matches_determinant_quotients():
    # Each draw is checked as it is and with the off-diagonal entries of
    # A[S,S] zeroed, a diagonal block like the paper's D1; every other
    # diagonal variant also gets a zero on its diagonal.
    stream = SplitMix64(1729)
    done = 0
    diagonal = {True: 0, False: 0}
    while done < 100:
        p = (2, 3, 5, 7, 2**31 - 1)[done % 5]
        size = 2 + stream.next_below(5)
        m = random_uniform_matrix(stream, size, size, p)
        picks = sorted({stream.next_below(size) for _ in range(1 + stream.next_below(size - 1))})
        if len(picks) == size:
            continue
        entries = m.entries.copy()
        block = entries[np.ix_(picks, picks)]
        entries[np.ix_(picks, picks)] = np.diag(np.diagonal(block))
        if sum(diagonal.values()) % 2:
            entries[picks[-1], picks[-1]] = 0
        invertible = _check_schur_by_determinant_quotients(PrimeFieldMatrix(p, entries), picks)
        diagonal[invertible] += 1
        if _check_schur_by_determinant_quotients(m, picks):
            done += 1
    assert min(diagonal.values()) >= 40


def test_schur_complement_on_build_M_matches_the_eliminating_solve():
    # The block the corank kernel eliminates by a row scaling: the nonzero
    # diagonal of the D1 block.  _solve eliminates the same block.
    for p in (3, 5, 7):
        for seed in range(4):
            m = build_M(80, 0.25, 0.5, p, 310 + seed)
            a = m.matrix.entries
            picks = np.nonzero(np.diagonal(a)[: m.split])[0]
            rest = np.setdiff1d(np.arange(m.dim), picks)
            a_ss = a[np.ix_(picks, picks)]
            assert np.count_nonzero(a_ss - np.diag(np.diagonal(a_ss))) == 0
            x, det = _solve(a_ss, a[np.ix_(picks, rest)], p)
            assert det == math.prod(np.diagonal(a_ss).tolist()) % p
            expect = (a[np.ix_(rest, rest)] - _python_matmul(a[np.ix_(rest, picks)], x)) % p
            out = schur_complement(m.matrix, picks)
            assert out.entries.tolist() == expect.tolist()


def test_schur_complement_empty_and_full_selection():
    m = PrimeFieldMatrix(3, [[1, 2], [2, 2]])
    empty = schur_complement(m, ())
    assert empty == m
    full = schur_complement(m, (0, 1))
    assert full.entries.shape == (0, 0)


def test_schur_complement_requires_square_and_in_range_indices():
    with pytest.raises(DimensionMismatchError):
        schur_complement(PrimeFieldMatrix(3, [[1, 2, 0], [0, 1, 1]]), (0,))
    m = PrimeFieldMatrix(3, [[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatchError):
        schur_complement(m, (0, 2))


def test_schur_complement_singular_block_raises():
    m = PrimeFieldMatrix(2, [[0, 1], [1, 0]])
    with pytest.raises(SingularBlockError):
        schur_complement(m, (0,))
