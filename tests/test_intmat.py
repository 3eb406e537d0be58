"""Tests for exact integer matrices, Smith normal form and determinants."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import det_by_cofactors, smith_diagonal_by_minors
from sandpiles import (
    IntegerMatrix,
    SplitMix64,
    determinant,
    normalize_divisor_chain,
    smith_normal_form,
)


def _random_entries(stream: SplitMix64, rows: int, cols: int, lo: int, hi: int):
    span = hi - lo + 1
    return [[lo + stream.next_below(span) for _ in range(cols)] for _ in range(rows)]


def test_construction_and_round_trip():
    m = IntegerMatrix([[1, -2], [3, 4]])
    assert m.to_lists() == [[1, -2], [3, 4]]
    assert (m.rows, m.cols) == (2, 2)
    n = IntegerMatrix(np.array([[10**30, 1], [0, 2]], dtype=object))
    assert n.to_lists()[0][0] == 10**30
    assert all(isinstance(e, int) for row in n.to_lists() for e in row)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        IntegerMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntegerMatrix([[1.5, 2.0]])
    with pytest.raises(ValueError):
        IntegerMatrix([[True, False]])
    with pytest.raises(ValueError):
        IntegerMatrix([1, 2, 3])
    # from_rows validates like the constructor instead of truncating.
    for rows in ([[2.7, True]], [[2.0]], [[False]], [["3"]]):
        with pytest.raises(ValueError):
            IntegerMatrix.from_rows(rows)
    assert IntegerMatrix.from_rows([np.array([1, -2]), (3, 4)]).to_lists() == [[1, -2], [3, 4]]


def test_entries_are_read_only():
    m = IntegerMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 9


def test_equality_and_hash():
    a = IntegerMatrix([[1, 2]])
    b = IntegerMatrix.from_rows([[1, 2]])
    assert a == b and hash(a) == hash(b)
    assert a != IntegerMatrix([[2, 1]])


def test_normalize_divisor_chain_cases():
    assert normalize_divisor_chain(()) == ()
    assert normalize_divisor_chain((2, 3)) == (1, 6)
    assert normalize_divisor_chain((2, 0, 3)) == (1, 6, 0)
    assert normalize_divisor_chain((4, 6)) == (2, 12)
    assert normalize_divisor_chain((6, 10, 15)) == (1, 30, 30)
    assert normalize_divisor_chain((0, 0)) == (0, 0)
    chain = normalize_divisor_chain((12, 18, 8))
    for a, b in zip(chain, chain[1:]):
        assert b == 0 or (a != 0 and b % a == 0)


def test_smith_form_known_cases():
    assert smith_normal_form(IntegerMatrix([[2, 0], [0, 3]])) == (1, 6)
    assert smith_normal_form(IntegerMatrix([[0]])) == (0,)
    assert smith_normal_form(IntegerMatrix([[0, 0], [0, 0]])) == (0, 0)
    assert smith_normal_form(IntegerMatrix([[2, 4], [4, 8]])) == (2, 0)
    assert smith_normal_form(IntegerMatrix([[6, 0], [0, 10]])) == (2, 30)
    assert smith_normal_form(IntegerMatrix([[1]])) == (1,)
    assert smith_normal_form(IntegerMatrix([[-5]])) == (5,)


def test_smith_form_non_square_shapes():
    assert smith_normal_form(IntegerMatrix([[2, 4, 6]])) == (2,)
    assert smith_normal_form(IntegerMatrix([[3], [6]])) == (3,)
    zero_wide = IntegerMatrix(np.zeros((2, 5), dtype=object))
    assert smith_normal_form(zero_wide) == (0, 0)


def test_smith_form_diagonal_is_nonnegative_divisor_chain():
    stream = SplitMix64(8128)
    # Without +-1 entries, or with entries near 10**6, most pivots leave a
    # nonzero remainder and have to be replaced by a smaller one.
    no_units = (0, 2, -2, 3, -3, 4, -4, 6, -6)
    near_million = tuple(10**6 + d for d in (-7, -1, 0, 3, 12))
    for trial in range(300):
        rows = 1 + stream.next_below(4)
        cols = 1 + stream.next_below(4)
        if trial < 150:
            entries = _random_entries(stream, rows, cols, -6, 6)
        else:
            entries = [
                [no_units[stream.next_below(len(no_units))] for _ in range(cols)]
                for _ in range(rows)
            ]
            if trial % 3 == 0:
                entries[0][0] = near_million[stream.next_below(len(near_million))]
                entries[-1][-1] = -near_million[stream.next_below(len(near_million))]
        m = IntegerMatrix(entries)
        diag = smith_normal_form(m)
        assert len(diag) == min(rows, cols)
        assert all(d >= 0 for d in diag)
        for a, b in zip(diag, diag[1:]):
            assert b == 0 or (a != 0 and b % a == 0)
        assert diag == smith_diagonal_by_minors(m.to_lists())


def test_smith_form_invariant_under_unimodular_moves():
    stream = SplitMix64(1729)
    for _ in range(60):
        size = 2 + stream.next_below(3)
        rows = _random_entries(stream, size, size, -5, 5)
        base = smith_normal_form(IntegerMatrix(rows))
        # Apply a few random row/column additions and swaps (determinant +-1).
        work = [row[:] for row in rows]
        for _ in range(6):
            move = stream.next_below(4)
            i = stream.next_below(size)
            j = stream.next_below(size)
            if i == j:
                continue
            if move == 0:
                work[i] = [a + b for a, b in zip(work[i], work[j])]
            elif move == 1:
                work[i], work[j] = work[j], work[i]
            elif move == 2:
                for row in work:
                    row[i] += row[j]
            else:
                for row in work:
                    row[i], row[j] = row[j], row[i]
        assert smith_normal_form(IntegerMatrix(work)) == base


def test_determinant_known_cases():
    assert determinant(IntegerMatrix(np.zeros((0, 0), dtype=object))) == 1
    assert determinant(IntegerMatrix([[7]])) == 7
    assert determinant(IntegerMatrix([[1, 2], [3, 4]])) == -2
    assert determinant(IntegerMatrix([[2, 0, 0], [0, 3, 0], [0, 0, 5]])) == 30
    assert determinant(IntegerMatrix([[1, 2], [2, 4]])) == 0


def test_determinant_requires_square():
    with pytest.raises(ValueError):
        determinant(IntegerMatrix([[1, 2, 3], [4, 5, 6]]))


def test_determinant_against_cofactor_oracle():
    stream = SplitMix64(4104)
    for _ in range(120):
        size = 1 + stream.next_below(5)
        rows = _random_entries(stream, size, size, -9, 9)
        assert determinant(IntegerMatrix(rows)) == det_by_cofactors(rows)


def test_determinant_of_big_entries_is_exact():
    big = 10**18
    m = IntegerMatrix([[big, 1], [1, big]])
    assert determinant(m) == big * big - 1


def test_smith_form_times_sign_recovers_determinant():
    stream = SplitMix64(6174)
    for _ in range(40):
        size = 2 + stream.next_below(3)
        rows = _random_entries(stream, size, size, -4, 4)
        m = IntegerMatrix(rows)
        det = determinant(m)
        diag = smith_normal_form(m)
        prod = math.prod(diag)
        assert prod == abs(det)
