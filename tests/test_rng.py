"""Tests for the deterministic random number generator."""

from __future__ import annotations

import pytest

from sandpiles import SplitMix64, derive_seed


def test_canonical_output_vector():
    stream = SplitMix64(1234567)
    assert [stream.next_u64() for _ in range(3)] == [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
    ]


def test_block_matches_scalar_outputs():
    a = SplitMix64(42)
    b = SplitMix64(42)
    block = b.next_block(257)
    assert [a.next_u64() for _ in range(257)] == [int(x) for x in block]


def test_block_then_scalar_interleave():
    a = SplitMix64(7)
    b = SplitMix64(7)
    first = [a.next_u64() for _ in range(10)]
    got = [int(x) for x in b.next_block(4)]
    got.append(b.next_u64())
    got.extend(int(x) for x in b.next_block(5))
    assert got == first


def test_uniform_block_range_and_value():
    stream = SplitMix64(99)
    u = stream.next_uniform_block(1000)
    assert u.shape == (1000,)
    assert (u >= 0.0).all() and (u < 1.0).all()
    check = SplitMix64(99)
    expect = (check.next_u64() >> 11) * 2.0**-53
    assert u[0] == expect


def test_bernoulli_block_equals_the_uniform_comparison():
    # 1 - 2**-53 and the subnormals put the threshold at its two ends; the
    # next two q equal the first uniform and the next float above it; the
    # rest lie on or outside [0, 1].
    first = (SplitMix64(808).next_u64() >> 11) * 2.0**-53
    for q in (0.5, 0.3, 1 - 2**-53, 1e-300, 5e-324, first, first + 2**-53, 0.0, 1.0, -0.5, 3.0):
        for count in (0, 1, 257):
            a, b = SplitMix64(808), SplitMix64(808)
            got = a.next_bernoulli_block(count, q)
            assert got.dtype == bool and got.shape == (count,)
            assert (got == (b.next_uniform_block(count) < q)).all(), (q, count)
            assert a.next_u64() == b.next_u64(), (q, count)


def test_uniform_block_mean_is_plausible():
    u = SplitMix64(2024).next_uniform_block(20000)
    assert abs(u.mean() - 0.5) < 0.01


def test_next_below_range_and_determinism():
    a = SplitMix64(5)
    draws = [a.next_below(10) for _ in range(500)]
    assert all(0 <= d < 10 for d in draws)
    b = SplitMix64(5)
    assert draws == [b.next_below(10) for _ in range(500)]


def test_next_below_hits_every_residue():
    stream = SplitMix64(123)
    seen = {stream.next_below(7) for _ in range(300)}
    assert seen == set(range(7))


def test_next_below_bound_one():
    stream = SplitMix64(1)
    assert stream.next_below(1) == 0


def test_next_below_rejects_bad_bound():
    stream = SplitMix64(1)
    with pytest.raises(ValueError):
        stream.next_below(0)
    with pytest.raises(ValueError):
        stream.next_below(-3)


def test_seed_out_of_range_rejected():
    with pytest.raises(ValueError):
        SplitMix64(-1)
    with pytest.raises(ValueError):
        SplitMix64(2**64)
    SplitMix64(2**64 - 1)  # boundary is fine


def test_derive_seed_matches_stream_outputs():
    master = 777
    stream = SplitMix64(master)
    outputs = [stream.next_u64() for _ in range(5)]
    assert [derive_seed(master, i) for i in range(5)] == outputs


def test_derive_seed_distinct_and_validated():
    seeds = {derive_seed(555, i) for i in range(100)}
    assert len(seeds) == 100
    with pytest.raises(ValueError):
        derive_seed(555, -1)


def test_negative_count_rejected():
    with pytest.raises(ValueError):
        SplitMix64(3).next_block(-1)
