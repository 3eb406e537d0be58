"""Tests for the closed-form predictions: binomial laws, regimes and bounds."""

from __future__ import annotations

import math
from fractions import Fraction

import numpy as np
import pytest

from oracles import (
    binom_numerators_from_scratch,
    binom_pmf_fraction,
    conditional_mean_by_summation,
    expected_excess_by_summation,
    full_rank_probability_uniform,
)
from sandpiles import (
    BinomialSpec,
    EmptyConditioningEventError,
    InvalidParamsError,
    InvalidShapeError,
    NotPrimeError,
    OutOfRangeError,
    OutOfSupportError,
    RankDistribution,
    SplitMix64,
    binom_pmf,
    binom_tail_gt,
    conditional_mean_above,
    dml_estimate,
    expected_excess_exact,
    expected_rank_asymptotic,
    min_entropy_rank_bound,
    rank_pmf_theoretical,
)
from sandpiles.theory import _pmf_numerators


# ---------------------------------------------------------------- binomials


def test_binomial_spec_takes_only_rationals():
    assert BinomialSpec(10, Fraction(1, 2)).prob == Fraction(1, 2)
    spec = BinomialSpec(10, 1)  # an int probability becomes a Fraction
    assert isinstance(spec.prob, Fraction) and spec.prob == 1
    for prob in (0.5, np.float64(0.5), True, "0.5"):
        with pytest.raises(InvalidParamsError, match="Fraction"):
            BinomialSpec(10, prob)
    with pytest.raises(InvalidParamsError):
        BinomialSpec(-1, Fraction(1, 2))
    with pytest.raises(InvalidParamsError):
        BinomialSpec(10, Fraction(3, 2))


def test_binom_pmf_exact():
    spec = BinomialSpec(4, Fraction(1, 2))
    assert binom_pmf(spec, 2) == Fraction(3, 8)
    assert isinstance(binom_pmf(spec, 2), Fraction)
    assert sum(binom_pmf(spec, k) for k in range(5)) == 1


def test_binom_pmf_rejects_out_of_support():
    spec = BinomialSpec(4, Fraction(1, 2))
    with pytest.raises(OutOfSupportError):
        binom_pmf(spec, -1)
    with pytest.raises(OutOfSupportError):
        binom_pmf(spec, 5)


def test_binom_pmf_degenerate_probabilities():
    assert binom_pmf(BinomialSpec(5, Fraction(0)), 0) == 1
    assert binom_pmf(BinomialSpec(5, Fraction(0)), 3) == 0
    assert binom_pmf(BinomialSpec(5, Fraction(1)), 5) == 1


def test_binom_tail_cases():
    spec = BinomialSpec(4, Fraction(1, 2))
    assert binom_tail_gt(spec, -1) == 1
    assert binom_tail_gt(spec, 0) == Fraction(15, 16)
    assert binom_tail_gt(spec, 3) == Fraction(1, 16)
    assert binom_tail_gt(spec, 4) == 0
    assert binom_tail_gt(spec, 99) == 0
    assert all(isinstance(binom_tail_gt(spec, s), Fraction) for s in (-1, 1, 4))
    # n = 0 and the degenerate probabilities, on both sides of the support.
    empty = BinomialSpec(0, Fraction(1, 2))
    assert binom_tail_gt(empty, -1) == 1 and binom_tail_gt(empty, 0) == 0
    never, always = BinomialSpec(5, Fraction(0)), BinomialSpec(5, Fraction(1))
    assert [binom_tail_gt(never, s) for s in (-1, 0, 4, 5)] == [1, 0, 0, 0]
    assert [binom_tail_gt(always, s) for s in (-1, 0, 4, 5)] == [1, 1, 1, 0]
    for spec in (empty, never, always):
        assert all(isinstance(binom_tail_gt(spec, s), Fraction) for s in (-3, 0, 5, 8))


def test_tail_complements_pmf_sum():
    for n in (12, 25):
        for prob in (Fraction(2, 7), Fraction(0), Fraction(1)):
            spec = BinomialSpec(n, prob)
            for s in range(-1, n + 1):
                head = sum(binom_pmf(spec, k) for k in range(0, max(s + 1, 0)))
                assert head + binom_tail_gt(spec, s) == 1


# q = 1 takes the generator's (b - a) = 0 branch; q = 0 has a = 0.
STEPPED_PROBS = (Fraction(0), Fraction(1), Fraction(1, 2), Fraction(1, 3), Fraction(2, 7),
                 Fraction(1, 2**31 - 1))


def test_stepped_numerators_match_closed_form():
    for q in STEPPED_PROBS:
        for n in range(41):
            assert list(_pmf_numerators(n, q)) == binom_numerators_from_scratch(n, q), (n, q)
    q = Fraction(1, 5)
    assert list(_pmf_numerators(1000, q)) == binom_numerators_from_scratch(1000, q)


def test_numerators_from_any_start_match_the_full_pass():
    for q in STEPPED_PROBS:
        for n in range(41):
            full = list(_pmf_numerators(n, q))
            for start in range(n + 2):
                assert list(_pmf_numerators(n, q, start)) == full[start:], (n, q, start)


def test_tail_and_conditional_mean_on_both_sides_of_the_middle():
    # The tail is summed directly above n/2 and as b**n minus the head below.
    for n in (9, 10, 25):
        for prob in (Fraction(1, 2), Fraction(2, 7), Fraction(5, 6), Fraction(1, 2**31 - 1)):
            spec = BinomialSpec(n, prob)
            for s in range(-1, n):
                tail = sum((binom_pmf_fraction(n, prob, k) for k in range(s + 1, n + 1)),
                           Fraction(0))
                assert binom_tail_gt(spec, s) == tail, (n, prob, s)
                assert conditional_mean_above(n, prob, s) == conditional_mean_by_summation(
                    n, prob, s
                ), (n, prob, s)


# ------------------------------------------------- conditional expectations


def test_conditional_mean_small_case_is_exact():
    # B(2, 1/2) conditioned on B > 1 is the constant 2.
    assert conditional_mean_above(2, Fraction(1, 2), 1) == 2


def test_conditional_mean_matches_naive_summation():
    cases = [(10, Fraction(3, 10), 3), (7, Fraction(1, 2), 0), (15, Fraction(4, 5), 11)]
    for n, alpha, s in cases:
        got = conditional_mean_above(n, alpha, s)
        assert got == conditional_mean_by_summation(n, alpha, s)
        assert isinstance(got, Fraction)


def test_conditional_mean_float_variant():
    exact = conditional_mean_above(10, Fraction(3, 10), 3)
    approx = conditional_mean_above(10, 0.3, 3)
    assert isinstance(approx, float)
    assert abs(approx - float(exact)) < 1e-9


def test_conditional_mean_empty_event_raises():
    with pytest.raises(EmptyConditioningEventError):
        conditional_mean_above(1, Fraction(1, 2), 1)  # B > 1 impossible for n=1
    with pytest.raises(EmptyConditioningEventError):
        conditional_mean_above(5, Fraction(1, 2), 7)


def test_conditional_mean_at_degenerate_alphas():
    # alpha = 1: B = n surely, so every event B > s with s < n leaves the mean n.
    for alpha in (Fraction(1), 1.0):
        for s in range(-2, 6):
            assert conditional_mean_above(6, alpha, s) == 6
    # alpha = 0: B = 0 surely, so only B > -1 has positive probability.
    assert conditional_mean_above(6, Fraction(0), -1) == 0
    for s in range(0, 6):
        with pytest.raises(EmptyConditioningEventError):
            conditional_mean_above(6, Fraction(0), s)


def test_expected_excess_examples():
    assert expected_excess_exact(4, 0.5, 2) == pytest.approx(0.375)
    # With a cut of zero the excess is the full mean n/p.
    assert expected_excess_exact(100, 0.0, 2) == pytest.approx(50.0)
    assert expected_excess_exact(1, 0.99, 2) == pytest.approx(0.5 * (1 - 0.99))


def test_expected_excess_equals_distribution_mean_when_cut_is_integral():
    for n, alpha, p in [(8, Fraction(1, 2), 2), (9, Fraction(1, 3), 3)]:
        excess = expected_excess_exact(n, alpha, p)
        dist = rank_pmf_theoretical(n, alpha, p)
        assert excess == pytest.approx(dist.mean(), abs=1e-12)


def test_expected_excess_equals_the_summation_oracle():
    # The excess comes from the tail identity, not a weighted sum; the float
    # must still be the weighted sum's exact value rounded once.
    cases = []
    for n, p in ((1, 2), (2, 3), (40, 2), (41, 3), (60, 2**31 - 1)):
        for cut in (Fraction(-1, 2), -0.25, 0, Fraction(1, 3), 0.5, 1.0, Fraction(3, 2), 1.5,
                    Fraction(1, n), 1 - 1 / n, 0.1):
            cases.append((n, cut, p))
    assert Fraction(0.1).denominator == 2**55
    # s = floor(alpha_cut*n) on both sides of n/2.
    for n in (30, 31):
        for s in range(-1, n + 2):
            cases.append((n, Fraction(s, n), 3))
    stream = SplitMix64(2024)
    for _ in range(400):
        n = stream.next_below(70)
        p = (2, 3, 5, 7, 2**31 - 1)[stream.next_below(5)]
        cut = -0.5 + 2 * (stream.next_u64() >> 11) / 2**53
        cases.append((n, cut, p))
    for n, cut, p in cases:
        oracle = float(expected_excess_by_summation(n, cut, p))
        assert expected_excess_exact(n, cut, p) == oracle, (n, cut, p)


# ---------------------------------------------------------------- regimes


def test_asymptotic_regimes():
    mean, regime = expected_rank_asymptotic(400, 0.5, 2)
    assert regime == "critical"
    assert mean == pytest.approx(math.sqrt(0.25 * 400 / (2 * math.pi)))
    assert mean == pytest.approx(3.98942, abs=1e-5)

    mean, regime = expected_rank_asymptotic(1000, Fraction(1, 5), 3)
    assert regime == "subcritical"
    assert mean == pytest.approx((1 / 3 - 1 / 5) * 1000)

    mean, regime = expected_rank_asymptotic(1000, 0.9, 3)
    assert regime == "supercritical"
    assert mean == 0.0


def test_asymptotic_regime_boundary_is_exact():
    # alpha = 1/3 must classify as critical for p = 3 even when passed as the
    # binary64 closest to 1/3 would not equal the rational value.
    _, regime = expected_rank_asymptotic(100, Fraction(1, 3), 3)
    assert regime == "critical"
    _, regime = expected_rank_asymptotic(100, Fraction(1, 3) - Fraction(1, 10**9), 3)
    assert regime == "subcritical"


def test_asymptotic_rejects_bad_inputs():
    with pytest.raises(InvalidParamsError):
        expected_rank_asymptotic(100, 0.0, 2)
    with pytest.raises(ValueError):
        expected_rank_asymptotic(100, 0.5, 4)


PREDICT_FUNCTIONS = (expected_rank_asymptotic, expected_excess_exact, rank_pmf_theoretical)

# (n, alpha, p) -> the exact refusal; p is checked first, then n, then alpha.
LAW_REFUSALS = (
    ((10, 0.5, 4), NotPrimeError, "p must be prime, got 4"),
    ((10, 0.5, 1), NotPrimeError, "p must be prime, got 1"),
    ((10, 0.5, 2**64), InvalidParamsError,
     "primality is decided only below 2**64, got 18446744073709551616"),
    ((-1, math.inf, 4), NotPrimeError, "p must be prime, got 4"),
    ((-1, 0.5, 2), InvalidParamsError, "n must be an integer >= 0, got -1"),
    ((2.0, 0.5, 2), InvalidParamsError, "n must be an integer >= 0, got 2.0"),
    ((-1, math.inf, 2), InvalidParamsError, "n must be an integer >= 0, got -1"),
    ((10, 0.0, 2), InvalidParamsError, "alpha must be in (0, 1], got 0.0"),
    ((10, 1.5, 2), InvalidParamsError, "alpha must be in (0, 1], got 1.5"),
    ((10, -0.25, 2), InvalidParamsError, "alpha must be in (0, 1], got -0.25"),
    ((10, math.inf, 2), InvalidParamsError, "alpha must be a finite number, got inf"),
)


@pytest.mark.parametrize("fn", (expected_rank_asymptotic, rank_pmf_theoretical))
@pytest.mark.parametrize("args, error, message", LAW_REFUSALS)
def test_law_refusals_are_pinned(fn, args, error, message):
    with pytest.raises(ValueError) as info:
        fn(*args)
    assert type(info.value) is error and str(info.value) == message


@pytest.mark.parametrize("fn", PREDICT_FUNCTIONS)
def test_predictions_refuse_a_negative_or_non_integer_n(fn):
    # For p = 2, alpha = 1/2 takes the critical branch (a sqrt of n) and
    # alpha = 1/4 the subcritical one.
    for n in (-5, -1, 2.0):
        for alpha in (0.25, 0.5):
            with pytest.raises(InvalidParamsError, match=r"n must be an integer >= 0"):
                fn(n, alpha, 2)
    fn(0, 0.25, 2)


@pytest.mark.parametrize("fn", PREDICT_FUNCTIONS + (conditional_mean_above,))
def test_predictions_refuse_a_non_finite_alpha(fn):
    last = 1 if fn is conditional_mean_above else 2  # its s, else the prime p
    for alpha in (math.inf, -math.inf, math.nan, float("1e400")):
        with pytest.raises(InvalidParamsError, match=r"alpha must be a finite number"):
            fn(10, alpha, last)


# ------------------------------------------------------- rank distribution


def test_rank_pmf_smallest_example():
    dist = rank_pmf_theoretical(2, 0.5, 2)
    assert dist.pmf == pytest.approx((0.75, 0.25))
    assert dist.offset == 1


def test_rank_pmf_matches_truncated_binomial():
    n, p = 9, 3
    alpha = Fraction(1, 3)
    cut = 3  # floor(alpha * n)
    dist = rank_pmf_theoretical(n, alpha, p)
    for r in range(1, n - cut + 1):
        expect = binom_pmf_fraction(n, Fraction(1, p), cut + r)
        assert dist.pmf[r] == pytest.approx(float(expect))
    atom = sum(float(binom_pmf_fraction(n, Fraction(1, 3), k)) for k in range(cut + 1))
    assert dist.pmf[0] == pytest.approx(atom)


def test_rank_pmf_sums_to_one_sweep():
    stream = SplitMix64(40320)
    for _ in range(25):
        n = 2 + stream.next_below(50)
        p = (2, 3, 5)[stream.next_below(3)]
        alpha = Fraction(1 + stream.next_below(n), n)
        dist = rank_pmf_theoretical(n, alpha, p)
        assert sum(dist.pmf) == pytest.approx(1.0, abs=1e-12)
        assert 1 <= len(dist.pmf) <= n + 1  # ranks 0..len - 1 lie in [0, n]
        assert dist.mean() >= 0


def test_rank_pmf_and_excess_are_rounded_once_sweep():
    # Each float must be the exact rational rounded once, not a sum of
    # rounded terms, so the comparison is equality, not approx.
    def oracle_pmf(n, p, k):
        return binom_pmf_fraction(n, Fraction(1, p), k)

    cases = [(1, 0.5, 2), (1, 1.0, 3), (7, 1.0, 5), (10, 0.3, 3), (12, 0.3, 2**31 - 1)]
    stream = SplitMix64(1729)
    for _ in range(30):
        n = 1 + stream.next_below(60)
        p = (2, 3, 5, 7, 2**31 - 1)[stream.next_below(5)]
        alpha = (1 + stream.next_below(n)) / n if stream.next_below(2) else 0.1
        cases.append((n, alpha, p))
    for n, alpha, p in cases:
        dist = rank_pmf_theoretical(n, alpha, p)
        offset = math.floor(Fraction(alpha) * n)
        atom = sum((oracle_pmf(n, p, k) for k in range(min(offset, n) + 1)), Fraction(0))
        assert dist.offset == offset
        assert dist.pmf[0] == float(atom)
        for j in range(1, n - offset + 1):
            assert dist.pmf[j] == float(oracle_pmf(n, p, offset + j))
        assert len(dist.pmf) == n - offset + 1
        for cut in (alpha, 0, Fraction(2, 7)):
            assert expected_excess_exact(n, cut, p) == float(expected_excess_by_summation(n, cut, p))


def test_rank_distribution_quantile_and_cdf():
    dist = rank_pmf_theoretical(20, 0.5, 2)
    assert dist.cdf_at(-1) == 0.0
    assert dist.cdf_at(20) == pytest.approx(1.0)
    assert dist.quantile(1e-9) == 0
    assert dist.quantile(1 - 1e-12) == len(dist.pmf) - 1
    # Quantiles are monotone in the level.
    levels = [0.01, 0.25, 0.5, 0.75, 0.99]
    values = [dist.quantile(u) for u in levels]
    assert values == sorted(values)
    for bad in (0.0, 1.0, 1.5, -0.2):
        with pytest.raises(ValueError):
            dist.quantile(bad)


def test_rank_distribution_cdf_and_quantile_match_full_scans():
    # The cumulative table must reproduce a left-to-right scan of the pmf
    # bit for bit, at every integer and at levels on and between CDF values.
    for n, alpha, p in ((20, 0.5, 2), (300, 0.25, 3), (1000, 0.1, 5), (57, Fraction(1, 3), 3)):
        dist = rank_pmf_theoretical(n, alpha, p)
        points = range(len(dist.pmf))
        for k in range(-2, n + 2):
            scan = 0
            for j in points:
                if j <= k:
                    scan += dist.pmf[j]
            assert dist.cdf_at(k) == scan
        acc, steps = 0.0, []
        for k in points:
            acc += dist.pmf[k]
            steps.append((acc, k))
        levels = [a for a, _ in steps if 0 < a < 1]
        levels += [math.nextafter(a, 0) for a in levels] + [math.nextafter(a, 1) for a in levels]
        for u in [u for u in levels if u < 1] + [1e-300, 0.5, 1 - 1e-16]:
            expected = next((k for a, k in steps if a >= u), points[-1])
            assert dist.quantile(u) == expected


def test_rank_distribution_validates_pmf():
    with pytest.raises(ValueError):
        RankDistribution(n=4, alpha=0.5, p=2, offset=2, pmf=(0.5, 0.4))
    with pytest.raises(ValueError):
        RankDistribution(n=4, alpha=0.5, p=2, offset=2, pmf=(1.5, -0.5))
    with pytest.raises(ValueError):
        RankDistribution(n=4, alpha=0.5, p=2, offset=2, pmf=())  # sums to 0


def test_rank_distribution_refuses_nan_and_a_dict():
    # A NaN compares False both ways, so it must fail the checks, not pass
    # them; a dict, iterated, would be read as its keys.
    for pmf in ((math.nan, 1.0), (1.0, math.nan), (0.5, 0.5, math.nan)):
        with pytest.raises(InvalidParamsError, match=r"is not >= 0"):
            RankDistribution(n=4, alpha=0.5, p=2, offset=2, pmf=pmf)
    for pmf in ({0: 0.5, 1: 0.5}, [1.0]):
        with pytest.raises(InvalidParamsError, match=r"pmf must be a tuple, got a (dict|list)"):
            RankDistribution(n=4, alpha=0.5, p=2, offset=2, pmf=pmf)


def test_rank_distribution_refuses_entries_that_are_not_real_numbers():
    for pmf, bad in ((("a",), "'a'"), ((None, 1.0), "None"), ((1 + 0j,), r"\(1\+0j\)")):
        with pytest.raises(InvalidParamsError, match=rf"probability {bad} at rank 0 is not a real"):
            RankDistribution(n=4, alpha=0.5, p=2, offset=2, pmf=pmf)


def test_rank_distribution_json_shape():
    dist = rank_pmf_theoretical(4, 0.5, 2)
    payload = dist.to_json()
    assert set(payload) == {"params", "pmf"}
    assert payload["params"]["n"] == 4
    ranks = [r for r, _ in payload["pmf"]]
    assert ranks == sorted(ranks)
    assert sum(w for _, w in payload["pmf"]) == pytest.approx(1.0)


# ------------------------------------------------------------- local limit


def test_dml_estimate_example():
    got = dml_estimate(100, 0.5, 50)
    assert got == pytest.approx(1 / math.sqrt(2 * math.pi * 100 * 0.25), abs=1e-9)
    assert got == pytest.approx(0.0797885, abs=1e-6)


def test_dml_estimate_window_enforced():
    # sqrt(100) = 10: s = 59 is inside the window around 50, s = 60 is not.
    dml_estimate(100, 0.5, 59)
    with pytest.raises(OutOfRangeError):
        dml_estimate(100, 0.5, 60)
    with pytest.raises(OutOfRangeError):
        dml_estimate(100, 0.5, 70)
    with pytest.raises(InvalidParamsError):
        dml_estimate(100, 0.0, 50)


def test_dml_estimate_converges_to_exact_pmf():
    for n in (100, 1000, 10000):
        exact = float(binom_pmf(BinomialSpec(n, Fraction(1, 2)), n // 2))
        est = dml_estimate(n, 0.5, n // 2)
        rel = abs(est - exact) / exact
        assert rel <= 10 / math.sqrt(n)


# ------------------------------------------------------------------ bounds


def test_min_entropy_bound_example_and_edges():
    got = min_entropy_rank_bound(3, 13, 0.5)
    assert got == pytest.approx(1 - (1 - 0.5) ** 11 / 0.25)
    assert got == pytest.approx(0.998046875)
    assert min_entropy_rank_bound(5, 5, 0.9) >= 0.0
    # A weak entropy floor can push the bound to the 0 clamp.
    assert min_entropy_rank_bound(4, 4, 0.01) == 0.0
    with pytest.raises(InvalidShapeError):
        min_entropy_rank_bound(6, 5, 0.5)
    with pytest.raises(InvalidParamsError):
        min_entropy_rank_bound(3, 13, 0.0)


def test_min_entropy_bound_dominated_by_uniform_probability():
    for p in (2, 3, 5):
        beta = 1 / p
        for n in range(1, 9):
            for m in range(n, n + 8):
                bound = min_entropy_rank_bound(n, m, beta)
                exact = full_rank_probability_uniform(n, m, p)
                assert bound <= float(exact)
