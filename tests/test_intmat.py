"""Tests for exact integer matrices, Smith normal form and determinants."""

from __future__ import annotations

import math

import numpy as np
import pytest

from oracles import (
    det_by_cofactors,
    det_by_fractions,
    divisor_chain_by_pairwise_gcd,
    matrix_with_diagonal_lead,
    smith_diagonal_by_minors,
    solution_denominator_by_fractions,
)
from sandpiles import (
    IntegerMatrix,
    InvalidShapeError,
    SplitMix64,
    determinant,
    normalize_divisor_chain,
    smith_form_by_largest_factor,
    smith_normal_form,
)
from sandpiles import intmat
from sandpiles.intmat import _LIFT_PRIMES, _solution_denominator


def _random_entries(stream: SplitMix64, rows: int, cols: int, lo: int, hi: int):
    span = hi - lo + 1
    return [[lo + stream.next_below(span) for _ in range(cols)] for _ in range(rows)]


def test_construction_and_round_trip():
    m = IntegerMatrix([[1, -2], [3, 4]])
    assert m.entries.tolist() == [[1, -2], [3, 4]]
    assert (m.rows, m.cols) == (2, 2)
    n = IntegerMatrix(np.array([[10**30, 1], [0, 2]], dtype=object))
    assert n.entries.tolist()[0][0] == 10**30
    assert all(isinstance(e, int) for row in n.entries.tolist() for e in row)


def test_construction_rejects_bad_input():
    with pytest.raises(ValueError):
        IntegerMatrix([[1, 2], [3]])
    with pytest.raises(ValueError):
        IntegerMatrix([[1.5, 2.0]])
    with pytest.raises(ValueError):
        IntegerMatrix([[True, False]])
    with pytest.raises(ValueError):
        IntegerMatrix([1, 2, 3])
    # Rows are validated, not truncated, and may mix arrays and tuples.
    for rows in ([[2.7, True]], [[2.0]], [[False]], [["3"]]):
        with pytest.raises(ValueError):
            IntegerMatrix(rows)
    assert IntegerMatrix([np.array([1, -2]), (3, 4)]).entries.tolist() == [[1, -2], [3, 4]]
    # A generator of rows has no shape to read.
    with pytest.raises(InvalidShapeError, match=r"entries must be 2-d, got shape \(\)"):
        IntegerMatrix(row for row in [[1, 2], [3, 4]])


def test_integer_arrays_become_python_ints_and_other_arrays_are_checked():
    for dtype in (np.int8, np.int64, np.uint64):
        source = np.array([[1, 2], [3, 4]], dtype=dtype)
        m = IntegerMatrix(source)
        source[0, 0] = 9
        assert m.entries.tolist() == [[1, 2], [3, 4]]
        assert all(type(e) is int for e in m.entries.flat)
        assert not m.entries.flags.writeable
    assert IntegerMatrix(np.array([[2**63 - 1]])).entries[0, 0] * 2 == 2**64 - 2
    for bad in ([[1.0, 2.0]], [[True, False]], [["1", "2"]]):
        with pytest.raises(ValueError):
            IntegerMatrix(bad)
        with pytest.raises(ValueError):
            IntegerMatrix(np.array(bad))
    with pytest.raises(ValueError):
        IntegerMatrix(np.arange(3))


def test_entries_are_read_only():
    m = IntegerMatrix([[1, 2], [3, 4]])
    with pytest.raises(ValueError):
        m.entries[0, 0] = 9


def test_equality_and_hash():
    a = IntegerMatrix([[1, 2]])
    b = IntegerMatrix([(1, 2)])
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


def test_normalize_divisor_chain_matches_the_pairwise_loop_with_many_ones_and_zeros():
    stream = SplitMix64(4141)
    pool = (0, 1, 1, 1, 1, 2, 3, 4, 6, 9, 10, 12, 25, 36, -1, -8)
    for trial in range(300):
        values = [pool[stream.next_below(len(pool))] for _ in range(stream.next_below(30))]
        assert normalize_divisor_chain(values) == divisor_chain_by_pairwise_gcd(values)
    assert normalize_divisor_chain([1] * 99) == (1,) * 99
    assert normalize_divisor_chain([0, 1, 2, 1, 0, 3]) == (1, 1, 1, 6, 0, 0)


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
        assert diag == smith_diagonal_by_minors(m.entries.tolist())
        assert smith_form_by_largest_factor(m) == diag


def test_largest_factor_route_matches_minors_up_to_seven():
    stream = SplitMix64(3003)
    for trial in range(40):
        size = 5 + trial % 3
        entries = _random_entries(stream, size, size, -3, 3)
        if trial % 4 == 0:
            entries[-1] = entries[0][:]  # singular: runs the plain loop
        got = smith_form_by_largest_factor(IntegerMatrix(entries))
        assert got == smith_diagonal_by_minors(entries)


def _hadamard(rows) -> int:
    return math.isqrt(math.prod(sum(v * v for v in col) for col in zip(*rows))) + 1


def test_solution_denominator_matches_fraction_solve():
    # Small dense matrices keep Hadamard's bound close to the true sizes, so
    # one lifting step fewer than the bound asks for gives a wrong c here.
    stream = SplitMix64(6007)
    checked = 0
    while checked < 120:
        size = 1 + stream.next_below(6)
        rows = _random_entries(stream, size, size, -9, 9)
        if det_by_cofactors(rows) == 0:
            continue
        width = 1 + checked % 2
        b = _random_entries(stream, size, width, -(2**15), 2**15 - 1)
        c, prime, det_residue = _solution_denominator(
            np.array(rows, dtype=np.int64), np.array(b, dtype=np.int64), _hadamard(rows)
        )
        want = math.lcm(*(solution_denominator_by_fractions(rows, col) for col in zip(*b)))
        assert c == want
        assert (prime, det_residue) == (_LIFT_PRIMES[0], det_by_cofactors(rows) % prime)
        checked += 1


def test_lifting_prime_dividing_the_determinant_moves_to_the_next_prime():
    p0, p1, p2 = _LIFT_PRIMES
    b = np.array([[5], [-7], [3]], dtype=np.int64)
    # det = 2 * p0: singular mod the first lifting prime only.
    rows = [[p0, 1, 0], [0, 2, 1], [0, 0, 1]]
    a = np.array(rows, dtype=np.int64)
    assert _solution_denominator(a, b, _hadamard(rows)) == (
        solution_denominator_by_fractions(rows, b[:, 0].tolist()),
        p1,
        2 * p0 % p1,
    )
    assert smith_form_by_largest_factor(IntegerMatrix(rows)) == smith_normal_form(
        IntegerMatrix(rows)
    ) == (1, 1, 2 * p0)
    # Every lifting prime divides det: no solve, the plain loop runs.
    rows = [[p0, 0, 0], [0, p1, 0], [0, 0, p2]]
    assert _solution_denominator(np.array(rows, dtype=np.int64), b, _hadamard(rows)) is None
    assert smith_form_by_largest_factor(IntegerMatrix(rows)) == (1, 1, p0 * p1 * p2)
    singular = IntegerMatrix([[2, 4, 6], [1, 2, 3], [0, 1, 5]])
    assert smith_form_by_largest_factor(singular) == smith_normal_form(singular) == (1, 1, 0)


# Lead entries: units mod every modulus, entries that share a factor with
# the small moduli of the pivot loop, and 0, which is a unit mod 1 alone.
LEAD_VALUES = (1, -1, 2, 3, 4, 6, -6, 9, 12, 5, 0)


def test_largest_factor_route_on_diagonal_leads_matches_the_plain_loop(monkeypatch):
    # A lone zero lead entry is no unit, so nothing is eliminated (S = a);
    # then partial leads, and leads that cover the whole matrix.
    calls = []
    schur = intmat._lead_schur

    def spy(a, modulus):
        result = schur(a, modulus)
        calls.append((modulus, result[1]))
        return result

    monkeypatch.setattr(intmat, "_lead_schur", spy)
    stream = SplitMix64(4409)
    skipped = 0
    for trial in range(90):
        size = 2 + trial % 9
        cases = ((1, (0,)), (1 + trial % size, LEAD_VALUES), (size, LEAD_VALUES[:-1]))
        lead, values = cases[trial % 3]
        rows = matrix_with_diagonal_lead(stream, size, lead, values)
        m = IntegerMatrix(rows)
        calls.clear()
        assert smith_form_by_largest_factor(m) == smith_normal_form(m), rows
        assert calls
        if values == (0,):
            assert all(units == 0 for q, units in calls if q > 1)
        # A lead entry that shares a factor with a pivot-loop modulus stays in S.
        skipped += any(1 < q < 2**26 and units < lead for q, units in calls[1:])
    assert skipped >= 5


def test_lead_schur_gives_the_smith_form_and_determinant_mod_m():
    stream = SplitMix64(5501)
    primes = (2, 3, 5, _LIFT_PRIMES[0], 2**31 - 1)
    for trial in range(60):
        size = 2 + trial % 5
        lead = 1 + trial % size
        rows = matrix_with_diagonal_lead(stream, size, lead, LEAD_VALUES)
        a = np.array(rows, dtype=np.int64)
        for modulus in LOOP_MODULI[1:]:
            order, k, inverses, s = intmat._lead_schur(a, modulus)
            assert sorted(order.tolist()) == list(range(size))
            assert order[k:].tolist() == sorted(order[k:].tolist())
            lead_entries = [rows[i][i] for i in order[:k].tolist()]
            assert all(math.gcd(d, modulus) == 1 for d in lead_entries)
            assert [d * v % modulus for d, v in zip(lead_entries, inverses)] == [1] * k
            assert s.dtype == (np.int64 if modulus < 2**31 else object)
            chain = (1,) * k + _loop_mod(s.tolist(), modulus) if k < size else (1,) * size
            assert chain == _chain_by_minors(rows, modulus), (rows, modulus)
        for q in primes:
            order, k, _, s = intmat._lead_schur(a, q)
            det_s = int(intmat._det_mod_primes(s[None], np.array([q]))[0])
            det = intmat._lead_det(a, order[:k], det_s, q)
            assert det == det_by_fractions(rows) % q


def test_solution_denominator_on_diagonal_leads_matches_fraction_solve():
    stream = SplitMix64(7703)
    for trial in range(40):
        size = 2 + trial % 8
        rows = matrix_with_diagonal_lead(stream, size, 1 + trial % size, LEAD_VALUES[:-1])
        b = _random_entries(stream, size, 2, -(2**15), 2**15 - 1)
        got = _solution_denominator(
            np.array(rows, dtype=np.int64), np.array(b, dtype=np.int64), _hadamard(rows)
        )
        want = math.lcm(*(solution_denominator_by_fractions(rows, col) for col in zip(*b)))
        prime = _LIFT_PRIMES[0]
        assert got == (want, prime, det_by_fractions(rows) % prime)
    # Lead (2, 3) and det = 6 x - 5 = k P: S = x - 1/2 - 1/3 is singular
    # mod the first lifting prime P, so the next prime is taken.
    p0, p1, _ = _LIFT_PRIMES
    k = next(k for k in range(1, 7) if k * p0 % 6 == 1)
    rows = [[2, 0, 1], [0, 3, 1], [1, 1, (k * p0 + 5) // 6]]
    assert det_by_fractions(rows) == k * p0
    b = np.array([[5], [-7], [3]], dtype=np.int64)
    assert _solution_denominator(np.array(rows, dtype=np.int64), b, _hadamard(rows)) == (
        solution_denominator_by_fractions(rows, [5, -7, 3]),
        p1,
        k * p0 % p1,
    )
    m = IntegerMatrix(rows)
    assert smith_form_by_largest_factor(m) == smith_normal_form(m) == (1, 1, k * p0)


def test_largest_factor_route_runs_moduli_over_two_to_the_31_on_python_ints(monkeypatch):
    # Two copies of a block of determinant 2**32 + 1 give s_(N-1) = s_N =
    # 2**32 + 1, so every modulus the loop can run under exceeds 2**31.
    block = [[2**16, 1], [-1, 2**16]]
    rows = [[*row, 0, 0] for row in block] + [[0, 0, *row] for row in block]
    dtypes = []
    loop = intmat._smith_diagonal

    def spy(a, modulus):
        if modulus:
            dtypes.append(a.dtype)
        return loop(a, modulus)

    monkeypatch.setattr(intmat, "_smith_diagonal", spy)
    assert smith_form_by_largest_factor(IntegerMatrix(rows)) == (1, 1, 2**32 + 1, 2**32 + 1)
    assert dtypes and all(dtype == object for dtype in dtypes)


def test_largest_factor_route_runs_the_plain_loop_outside_its_domain():
    wide = IntegerMatrix([[2, 4, 6], [3, 9, 12]])
    huge = IntegerMatrix([[2**40, 1], [1, 2**40 + 3]])
    for m in (wide, huge, IntegerMatrix(np.zeros((0, 0), dtype=object))):
        assert smith_form_by_largest_factor(m) == smith_normal_form(m)


# Moduli of the pivot loop: prime powers, composites, 0 (the plain Smith
# form), two large int64 ones (the unit phase reduces lazily below 2**29 +
# 11 at these sizes, and every update at 2**31 - 1) and one above 2**31,
# which runs on Python ints.
LOOP_MODULI = (0, 2, 3, 4, 8, 9, 6, 12, 36, 2**29 + 11, 2**31 - 1, 2**32 + 15)


def _loop_mod(rows, modulus: int) -> tuple[int, ...]:
    """``_smith_diagonal`` of ``rows`` mod ``modulus``, on the largest-factor route's dtype."""
    a = np.array(rows, dtype=object).reshape(len(rows), -1)
    if 0 < modulus < 2**31:
        a = a.astype(np.int64)
    return intmat._smith_diagonal(intmat._symmetric(a, modulus) if modulus else a, modulus)


def _chain_by_minors(rows, modulus: int) -> tuple[int, ...]:
    # [A | m I] has Smith diagonal gcd(s_i, m), which keeps the chain order.
    return tuple(math.gcd(s, modulus) for s in smith_diagonal_by_minors(rows))


def test_smith_loop_mod_m_matches_minors_and_the_plain_loop():
    stream = SplitMix64(1807)
    no_units = (0, 2, -2, 4, 6, -6)
    sparse = (0, 0, 0, 1, -1, 2, 3)
    for trial in range(720):
        modulus = LOOP_MODULI[trial % len(LOOP_MODULI)]
        kind = trial // len(LOOP_MODULI) % 5
        rows, cols = 1 + stream.next_below(5), 1 + stream.next_below(5)
        if kind == 0:
            entries = _random_entries(stream, rows, cols, -6, 6)
        elif kind == 3:
            entries = _random_entries(stream, rows, cols, -(2**34), 2**34)
        elif kind == 4:
            # A product through fewer dimensions: singular, so even a large
            # prime modulus leaves zero factors that wrong updates would miss.
            inner = stream.next_below(min(rows, cols))
            left = _random_entries(stream, rows, inner, -(2**17), 2**17)
            right = _random_entries(stream, inner, cols, -(2**17), 2**17)
            entries = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)] for row in left]
            if inner == 0:
                entries = [[0] * cols for _ in range(rows)]
        else:
            pool = no_units if kind == 1 else sparse
            entries = [
                [pool[stream.next_below(len(pool))] for _ in range(cols)] for _ in range(rows)
            ]
            entries[stream.next_below(rows)] = [0] * cols
        want = _chain_by_minors(entries, modulus)
        assert _loop_mod(entries, modulus) == want, (entries, modulus)
        plain = smith_normal_form(IntegerMatrix(entries))
        assert tuple(math.gcd(s, modulus) for s in plain) == want


def test_smith_loop_with_no_unit_a_late_unit_and_zero_rows():
    # Even entries: no entry is a unit mod 0, 4 or 8, so the smallest-pivot
    # loop does all the work.
    even = [[2, 4, 6], [6, 2, 0], [0, 2, 2], [4, 0, 2]]
    # Column 0 holds no unit when the pass reaches it.  The pivot 1 of
    # column 1 then turns rows 1 and 2 into units in column 0, which the
    # loop on the left-over block takes.
    late = [[2, 1, 0], [3, 1, 2], [5, 2, 4]]
    zero_rows = [[0, 0, 0], [1, 2, 3], [0, 0, 0], [2, 4, 7]]
    for entries in (even, late, zero_rows, [[0, 0, 0], [0, 0, 0]], [[0], [-1], [0]]):
        for modulus in LOOP_MODULI:
            assert _loop_mod(entries, modulus) == _chain_by_minors(entries, modulus)
    assert _loop_mod(late, 0) == (1, 1, 2)
    assert _loop_mod(even, 4) == (2, 2, 2)
    assert _loop_mod([[2, 4], [4, 2]], 36) == (2, 6)
    assert intmat._smith_diagonal(np.zeros((3, 0), dtype=np.int64), 6) == ()


def test_determinant_quotient_starts_from_the_lifting_residue(monkeypatch):
    # det(a) / c by CRT: the lifting prime alone when it exceeds twice the
    # bound, and as few primes below 2**27 besides as cover it, in one
    # stack, when it does not.
    prime = _LIFT_PRIMES[0]
    real = intmat._det_mod_primes
    stacks = []

    def spy(stack, primes):
        stacks.append((stack.shape, primes.tolist()))
        return real(stack, primes)

    def extra_primes(rows, c, bound):
        stacks.clear()
        det = determinant(IntegerMatrix(rows))
        got = intmat._determinant_quotient(
            np.array(rows, dtype=np.int64), c, bound, prime, det % prime
        )
        assert got == det // c
        assert len(stacks) <= 1
        shape, more = stacks[0] if stacks else ((0,), [])
        assert shape[0] == len(more) and prime not in more and all(q < 2**27 for q in more)
        if more:
            assert math.prod(more[:-1]) <= 2 * bound // prime < math.prod(more)
        else:
            assert 2 * bound < prime
        # Skipped: primes that divide c or a nonzero diagonal entry.
        avoid = c * math.prod(filter(None, np.diagonal(rows).tolist()))
        assert all(avoid % q for q in more)
        return shape

    monkeypatch.setattr(intmat, "_det_mod_primes", spy)
    stream = SplitMix64(2718)
    seen = {True: 0, False: 0}
    for trial in range(40):
        size, span = (3, 3) if trial % 2 else (8, 50)
        rows = _random_entries(stream, size, size, -span, span)
        det = determinant(IntegerMatrix(rows))
        if det % prime == 0:
            continue
        for c in {1, math.gcd(det, 720720)}:
            seen[extra_primes(rows, c, _hadamard(rows) // c)[0] == 0] += 1
    assert min(seen.values()) >= 10
    # |det| just under P: P alone would give the residue 3, the wrong sign
    # and size, so one more prime is needed.
    for rows in ([[3 - prime]], [[prime - 3, 0], [0, -1]]):
        assert extra_primes(rows, 1, abs(determinant(IntegerMatrix(rows))))[0] == 1
    # The lead holds the largest primes below 2**27, which the CRT would
    # take first.  Mod such a prime the entry is no unit, so its Schur block
    # would keep one row more than the other primes' blocks and the stack
    # could not be formed.
    layers = set()
    for rows in ([[134217689, 1], [1, 2]], [[134217689, 0, 1], [0, -134217649, 1], [1, 1, 3]]):
        for bound in (abs(determinant(IntegerMatrix(rows))), 2**90):
            shape = extra_primes(rows, 1, bound)
            assert shape[1:] == (1, 1)
            layers.add(shape[0])
    assert layers == {1, 2, 3}


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


# 2 and 3 meet zero pivots often; the others are the tree count's 27-bit
# primes, and 2**31 - 1 turns the lazy reduction off for the whole stack.
_STACK_PRIMES = (2, 3, 134217689, 134217649, 5)
_EAGER_PRIME = 2**31 - 1


def _assert_layers_match(layers, primes):
    stack = np.array([np.array(rows, dtype=np.int64) % q for rows, q in zip(layers, primes)])
    got = intmat._det_mod_primes(stack, np.array(primes))
    for i, (rows, q) in enumerate(zip(layers, primes)):
        assert int(got[i]) == det_by_cofactors(rows) % q, (rows, q)


def test_det_mod_primes_matches_each_layer_alone():
    stream = SplitMix64(2718)
    for trial in range(80):
        size = 1 + stream.next_below(6)
        primes = _STACK_PRIMES if trial % 4 else _STACK_PRIMES + (_EAGER_PRIME,)
        # The same integer matrix in every layer, as in a CRT, or one per layer.
        if trial % 2:
            rows = _random_entries(stream, size, size, -2, 2)
            _assert_layers_match([rows] * len(primes), primes)
        else:
            layers = [_random_entries(stream, size, size, -9, 9) for _ in primes]
            _assert_layers_match(layers, primes)


def test_det_mod_primes_singular_layers_and_lone_swaps():
    primes = (2, 3, 134217689, _EAGER_PRIME)
    # det -3: singular mod 3 only, with a pivot in the first column there.
    _assert_layers_match([[[1, 2, 3], [4, 5, 6], [7, 8, 10]]] * 4, primes)
    # The leading 3 is zero mod 3 alone, so only that layer swaps (det 2 = -1 mod 3).
    _assert_layers_match([[[3, 1], [1, 1]]] * 4, primes)
    # Zero mod 2 at (0, 0) and (1, 1) after the swap: two swaps, only there.
    _assert_layers_match([[[2, 1, 1], [1, 2, 1], [1, 1, 1]]] * 4, primes)
    # Singular everywhere: equal rows.
    _assert_layers_match([[[1, 2], [1, 2]]] * 4, primes)


def test_det_mod_primes_on_empty_and_one_by_one_stacks():
    primes = np.array([2, 3, 134217689])
    assert intmat._det_mod_primes(np.zeros((3, 0, 0), dtype=np.int64), primes).tolist() == [1, 1, 1]
    one = np.array([[[1]], [[0]], [[134217688]]], dtype=np.int64)
    assert intmat._det_mod_primes(one, primes).tolist() == [1, 0, 134217688]
    assert intmat._det_mod_primes(np.zeros((0, 4, 4), dtype=np.int64), primes[:0]).size == 0


def test_crt_signed_and_covering_primes():
    # The largest prime below 2**27 divides ``avoid`` and is skipped.
    for bits in range(1, 400, 11):
        primes = intmat._covering_primes(2**bits, 6 * 134217689)
        assert 134217689 not in primes
        assert math.prod(primes[:-1]) <= 2**bits < math.prod(primes)
    for value in (0, 1, -1, 10**40, -(10**40), 7**47):
        assert intmat._crt_signed([value % q for q in primes], primes) == value


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
