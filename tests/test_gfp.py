"""Tests for prime-field matrices: rank, inversion and Schur complements."""

from __future__ import annotations

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
    IndexSet,
    InvalidParamsError,
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
from sandpiles.gfp import _echelon, _matmul_mod


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


def test_index_set_validation():
    s = IndexSet((0, 2, 5), 6)
    assert s.complement().indices == (1, 3, 4)
    assert IndexSet((), 4).complement().indices == (0, 1, 2, 3)
    with pytest.raises(ValueError):
        IndexSet((2, 1), 4)  # not increasing
    with pytest.raises(ValueError):
        IndexSet((0, 0), 4)  # repeated
    with pytest.raises(ValueError):
        IndexSet((0, 4), 4)  # out of bound
    with pytest.raises(ValueError):
        IndexSet((-1,), 4)


def test_submatrix_selects_rows_and_columns():
    m = PrimeFieldMatrix(7, [[1, 2, 3], [4, 5, 6], [0, 1, 2]])
    sub = submatrix(m, (0, 2), (1,))
    assert sub.entries.tolist() == [[2], [1]]
    assert submatrix(m, (), (0, 1)).entries.shape == (0, 2)
    with pytest.raises(DimensionMismatchError):
        submatrix(m, (3,), (1,))


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


def test_gf2_bit_path_matches_generic_elimination():
    stream = SplitMix64(272)
    for _ in range(150):
        rows = 1 + stream.next_below(8)
        cols = 1 + stream.next_below(8)
        m = random_uniform_matrix(stream, rows, cols, 2)
        assert rank_mod_p(m) == _echelon(m.entries.copy(), 2, cols, rows)


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


def test_schur_complement_hand_example():
    # m = [[2, 1], [1, 1]] over Z/5Z, eliminating the first variable:
    # 1 - 1 * inv(2) * 1 = 1 - 3 = -2 = 3 (mod 5).
    m = PrimeFieldMatrix(5, [[2, 1], [1, 1]])
    out = schur_complement(m, IndexSet((0,), 2))
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
        s = IndexSet(tuple(picks), size)
        try:
            out = schur_complement(m, s)
        except SingularBlockError:
            continue
        assert corank_mod_p(out) == corank_mod_p(m)
        done += 1


def test_schur_complement_matches_determinant_quotients():
    # Entry (i, j) of the Schur complement is det(A[S+i, S+j]) / det(A[S, S]),
    # with i and j in T appended last to the rows and columns of S.
    stream = SplitMix64(1729)
    done = 0
    while done < 100:
        p = (2, 3, 5, 7, 2**31 - 1)[done % 5]
        size = 2 + stream.next_below(5)
        m = random_uniform_matrix(stream, size, size, p)
        picks = sorted({stream.next_below(size) for _ in range(1 + stream.next_below(size - 1))})
        s = IndexSet(tuple(picks), size)
        if len(s) == size:
            continue
        rows = m.entries.tolist()
        det_ss = det_by_cofactors([[rows[a][b] for b in s.indices] for a in s.indices]) % p
        if det_ss == 0:
            with pytest.raises(SingularBlockError):
                schur_complement(m, s)
            continue
        scale = pow(det_ss, -1, p)
        t = s.complement().indices
        expect = [
            [
                det_by_cofactors(
                    [[rows[a][b] for b in (*s.indices, j)] for a in (*s.indices, i)]
                ) * scale % p
                for j in t
            ]
            for i in t
        ]
        assert schur_complement(m, s).entries.tolist() == expect
        done += 1


def test_schur_complement_empty_and_full_selection():
    m = PrimeFieldMatrix(3, [[1, 2], [2, 2]])
    empty = schur_complement(m, IndexSet((), 2))
    assert empty == m
    full = schur_complement(m, IndexSet((0, 1), 2))
    assert full.entries.shape == (0, 0)


def test_schur_complement_requires_square_and_matching_bound():
    with pytest.raises(DimensionMismatchError):
        schur_complement(PrimeFieldMatrix(3, [[1, 2, 0], [0, 1, 1]]), IndexSet((0,), 2))
    m = PrimeFieldMatrix(3, [[1, 0], [0, 1]])
    with pytest.raises(DimensionMismatchError):
        schur_complement(m, IndexSet((0,), 3))


def test_schur_complement_singular_block_raises():
    m = PrimeFieldMatrix(2, [[0, 1], [1, 0]])
    with pytest.raises(SingularBlockError):
        schur_complement(m, IndexSet((0,), 2))


def test_render_shows_residues():
    text = PrimeFieldMatrix(7, [[1, 9], [3, 4]]).render()
    assert text.splitlines() == ["1 2", "3 4"]
