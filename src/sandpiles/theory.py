"""Closed-form predictions for p-ranks of random bipartite sandpile groups.

The limiting law implemented here: for a random bipartite graph with parts of
size n and floor(alpha*n), the p-rank of the sandpile group is (up to an O(1)
distributional distance) distributed as

    max(B(n, 1/p) - floor(alpha*n), 0),

a truncated shifted binomial.  Everything else in the module is supporting
machinery: exact binomial arithmetic on integer numerators, the three
expectation regimes (alpha below / above / at 1/p), an exact identity for
binomial conditional means, the De Moivre-Laplace local estimate, and a
min-entropy lower bound for the full-rank probability of random matrices
over GF(p).

The numerators are stepped, each from the last by an exact integer ratio,
from any first k, so a pass covers only the terms a result needs.  The rank
law steps only the terms above its cut; its atom at 0 is b**n minus their
sum.  A tail P(B > s) is summed from whichever side of s has fewer terms.
The expected excess and the conditional mean need no weighted sum: both
come from the tail and one B(n-1) numerator at the cut.

Exactness policy: whenever a parameter is rational, probabilities are
computed in exact rational arithmetic and rounded to binary64 only at the
reporting boundary.  ``conditional_mean_above``, ``expected_excess_exact`` and
``rank_pmf_theoretical`` convert a float alpha to its exact binary64 rational,
so they stay exact too; an infinite or NaN alpha has no such rational and is
refused with :class:`InvalidParamsError`.  A :class:`BinomialSpec` takes only
a rational ``prob``, so ``binom_pmf`` and ``binom_tail_gt`` are exact as well.
"""

from __future__ import annotations

from bisect import bisect_left
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import accumulate, islice, repeat
from math import comb, exp, pi, sqrt

from .bigraph import floor_ratio
from .errors import (
    EmptyConditioningEventError,
    InvalidParamsError,
    InvalidShapeError,
    NotPrimeError,
    OutOfRangeError,
    OutOfSupportError,
)
from .gfp import is_prime


@dataclass(frozen=True)
class BinomialSpec:
    """A binomial distribution B(n, prob) with a rational ``prob``.

    An int ``prob`` becomes a ``Fraction``.  A float is refused, not
    converted: its exact binary64 value has a denominator near 2**54, which
    makes every exact sum slow.
    """

    n: int
    prob: Fraction

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 0:
            raise InvalidParamsError(f"n must be an integer >= 0, got {self.n}")
        if isinstance(self.prob, int) and not isinstance(self.prob, bool):
            object.__setattr__(self, "prob", Fraction(self.prob))
        if not isinstance(self.prob, Fraction):
            raise InvalidParamsError(
                f"prob must be a Fraction, got {self.prob!r}; "
                "pass Fraction(x) for a float's exact binary64 value"
            )
        if not 0 <= self.prob <= 1:
            raise InvalidParamsError(f"prob must be in [0, 1], got {self.prob}")


def _exact_alpha(alpha: Fraction | float) -> Fraction:
    """``alpha`` as an exact rational; an infinite or NaN alpha is refused."""
    try:
        return Fraction(alpha)
    except (OverflowError, ValueError) as exc:
        raise InvalidParamsError(f"alpha must be a finite number, got {alpha}") from exc


def _pmf_numerator(n: int, q: Fraction, k: int) -> int:
    """Numerator of P(B(n, q) = k) over the shared denominator b**n, q = a/b."""
    return comb(n, k) * q.numerator**k * (q.denominator - q.numerator) ** (n - k)


def _pmf_numerators(n: int, q: Fraction, start: int = 0) -> Iterator[int]:
    """``_pmf_numerator(n, q, k)`` for k = start..n, each stepped from the last.

    Only the first, N(start), takes a ``comb`` and two powers.  After it,
    N(k+1) = N(k)*(n-k)*a / ((k+1)*(b-a)) is an exact integer division.  A
    ``start`` above n yields nothing.
    """
    a, c = q.numerator, q.denominator - q.numerator
    if start > n:
        return
    if c == 0:
        yield from repeat(0, n - start)
        yield a**n
        return
    num = _pmf_numerator(n, q, start)
    yield num
    for k in range(start, n):
        num = num * ((n - k) * a) // ((k + 1) * c)
        yield num


def _tail_numerator(n: int, q: Fraction, s: int) -> int:
    """T = sum of ``_pmf_numerator(n, q, k)`` over k > s, any integer s.

    The tail has n - s terms and the head k <= s has s + 1; T is summed
    from the side with fewer, as b**n minus the head when that is shorter.
    """
    if s >= n:
        return 0
    if s < 0:
        return q.denominator**n
    if n - s <= s + 1:
        return sum(_pmf_numerators(n, q, s + 1))
    return q.denominator**n - sum(islice(_pmf_numerators(n, q), s + 1))


def _tail_moments(n: int, q: Fraction, s: int) -> tuple[int, int]:
    """(T, M): the sums of N_k and of k*N_k over k > s, for n >= 1.

    M needs no weighted pass.  k*C(n, k) = n*C(n-1, k-1) gives, with q = a/b,
        M = n*a*(T + (b-a)*N_s(n-1)) / b,
    an exact division, where N_s(n-1) is the numerator of B(n-1, q) at s
    (0 for s < 0).
    """
    a, b = q.numerator, q.denominator
    tail = _tail_numerator(n, q, s)
    bump = _pmf_numerator(n - 1, q, s) if s >= 0 else 0
    return tail, n * a * (tail + (b - a) * bump) // b


def binom_pmf(spec: BinomialSpec, k: int) -> Fraction:
    """P(B(n, prob) = k), exact.

    Raises :class:`OutOfSupportError` unless 0 <= k <= n.
    """
    if not 0 <= k <= spec.n:
        raise OutOfSupportError(f"k={k} outside support [0, {spec.n}]")
    return Fraction(_pmf_numerator(spec.n, spec.prob, k), spec.prob.denominator**spec.n)


def binom_tail_gt(spec: BinomialSpec, s: int) -> Fraction:
    """P(B(n, prob) > s), exact; s may be any integer (s < 0 gives 1, s >= n gives 0)."""
    return Fraction(_tail_numerator(spec.n, spec.prob, s), spec.prob.denominator**spec.n)


def conditional_mean_above(n: int, alpha: Fraction | float, s: int) -> Fraction | float:
    """E(B(n, alpha) | B(n, alpha) > s) via an exact closed identity.

    The identity
        E(B | B > s) = alpha*n + alpha*(1-alpha)*n * P(B(n-1)=s) / P(B(n)>s)
    holds for every integer s with P(B > s) > 0; it is cross-checked against
    direct summation in the tests.  All arithmetic is rational; the result is
    a Fraction when ``alpha`` is one, else a float.

    Raises :class:`EmptyConditioningEventError` when the event B > s has
    probability zero (in particular whenever s >= n).
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidParamsError(f"n must be an integer >= 1, got {n}")
    if s >= n:
        raise EmptyConditioningEventError(
            f"B({n}, alpha) > {s} has probability zero"
        )
    a = _exact_alpha(alpha)
    if not 0 <= a <= 1:
        raise InvalidParamsError(f"alpha must be in [0, 1], got {alpha}")
    tail, moment = _tail_moments(n, a, s)
    if tail == 0:
        raise EmptyConditioningEventError(
            f"B({n}, {alpha}) > {s} has probability zero"
        )
    return Fraction(moment, tail) if isinstance(alpha, Fraction) else moment / tail


def expected_excess_exact(n: int, alpha_cut: Fraction | float, p: int) -> float:
    """E(max(B(n, 1/p) - alpha_cut*n, 0)), exact arithmetic, binary64 result.

    The expectation is the sum over k > s = floor(alpha_cut*n) of
    (k - alpha_cut*n) * pmf(k), with the *exact* (unfloored) cut in the
    summand.  It is taken from the tail alone: the tail's sums of N_k and
    k*N_k (``_tail_moments``, the pmf numerators N_k over p**n) give the
    same integer numerator as the weighted sum, so the same float.
    """
    if not is_prime(p):
        raise NotPrimeError(f"p must be prime, got {p}")
    if not isinstance(n, int) or n < 0:
        raise InvalidParamsError(f"n must be an integer >= 0, got {n}")
    u, v = _exact_alpha(alpha_cut).as_integer_ratio()
    s = u * n // v
    if s >= n:
        return 0.0
    tail, moment = _tail_moments(n, Fraction(1, p), s)
    # (k - u*n/v) * pmf(k) = (v*k - u*n) * N_k / (v * p**n), summed over k > s.
    return (v * moment - u * n * tail) / (v * p**n)


def _law_alpha(n: int, alpha: Fraction | float, p: int) -> Fraction:
    """The exact alpha of the law at (n, alpha, p), once p, n and alpha are checked."""
    if not is_prime(p):
        raise NotPrimeError(f"p must be prime, got {p}")
    if not isinstance(n, int) or n < 0:
        raise InvalidParamsError(f"n must be an integer >= 0, got {n}")
    a = _exact_alpha(alpha)
    if not 0 < a <= 1:
        raise InvalidParamsError(f"alpha must be in (0, 1], got {alpha}")
    return a


def expected_rank_asymptotic(n: int, alpha: Fraction | float, p: int) -> tuple[float, str]:
    """Leading term of the expected p-rank, with its regime label.

    Three regimes by exact comparison of alpha to 1/p:
      * "subcritical"  (alpha < 1/p): (1/p - alpha) * n
      * "supercritical" (alpha > 1/p): 0
      * "critical"     (alpha = 1/p): sqrt((1/p)(1-1/p) n / (2 pi))
    The O(1) corrections are deliberately not included.
    """
    a = _law_alpha(n, alpha, p)
    threshold = Fraction(1, p)
    if a < threshold:
        return float((threshold - a) * n), "subcritical"
    if a > threshold:
        return 0.0, "supercritical"
    variance = float(threshold * (1 - threshold))
    return sqrt(variance * n / (2 * pi)), "critical"


@dataclass(frozen=True)
class RankDistribution:
    """The predicted law max(B(n, 1/p) - offset, 0) as an explicit finite pmf.

    ``pmf[k]`` is the probability of rank k, for k = 0..len(pmf) - 1;
    ``offset`` is the truncation point floor(alpha*n).
    """

    n: int
    alpha: float
    p: int
    offset: int
    pmf: tuple[float, ...]

    def __post_init__(self):
        if not isinstance(self.pmf, tuple):
            raise InvalidParamsError(f"pmf must be a tuple, got a {type(self.pmf).__name__}")
        try:
            for k, prob in enumerate(self.pmf):
                # Both checks are written so that a NaN, which compares False, fails.
                if not prob >= 0:
                    raise InvalidParamsError(f"probability {prob} at rank {k} is not >= 0")
        except TypeError:
            raise InvalidParamsError(
                f"probability {prob!r} at rank {k} is not a real number"
            ) from None
        total = sum(self.pmf)
        if not abs(total - 1.0) <= 1e-12:
            raise InvalidParamsError(f"pmf sums to {total}, not 1")

    def mean(self) -> float:
        return sum(k * prob for k, prob in enumerate(self.pmf))

    @cached_property
    def _cdf(self) -> list[float]:
        """The CDF at each rank, summed left to right once."""
        return list(accumulate(self.pmf))

    def cdf_at(self, k: int) -> float:
        return self._cdf[min(k, len(self.pmf) - 1)] if k >= 0 else 0.0

    def quantile(self, u: float) -> int:
        """Smallest rank whose CDF reaches ``u`` (0 < u < 1)."""
        if not 0 < u < 1:
            raise InvalidParamsError(f"u must be in (0, 1), got {u}")
        return min(bisect_left(self._cdf, u), len(self.pmf) - 1)

    def to_json(self) -> dict:
        return {
            "params": {"n": self.n, "alpha": self.alpha, "p": self.p, "offset": self.offset},
            "pmf": [[k, prob] for k, prob in enumerate(self.pmf)],
        }


def rank_pmf_theoretical(n: int, alpha: Fraction | float, p: int) -> RankDistribution:
    """Exact pmf of max(B(n, 1/p) - floor(alpha*n), 0).

    All mass of B at or below the cut collapses onto rank 0; above the cut,
    rank j carries P(B = cut + j).  Probabilities are computed exactly and
    rounded once.
    """
    a = _law_alpha(n, alpha, p)
    offset = floor_ratio(a, n)
    den = p**n
    above, tail = [], 0
    for num in _pmf_numerators(n, Fraction(1, p), offset + 1):
        above.append(num / den)
        tail += num
    pmf = ((den - tail) / den, *above)
    return RankDistribution(n=n, alpha=float(alpha), p=p, offset=offset, pmf=pmf)


def dml_estimate(n: int, alpha: float, s: int) -> float:
    """De Moivre-Laplace local estimate of P(B(n, alpha) = s).

    Valid only in the window |alpha*n - s| < sqrt(n); outside it the estimate
    raises :class:`OutOfRangeError` rather than return a number the
    approximation does not cover.  Relative error against the exact pmf decays
    like 1/sqrt(n).
    """
    if not isinstance(n, int) or n < 1:
        raise InvalidParamsError(f"n must be an integer >= 1, got {n}")
    a = float(alpha)
    if not 0 < a < 1:
        raise InvalidParamsError(f"alpha must be in (0, 1), got {alpha}")
    gap = a * n - s
    if abs(gap) >= sqrt(n):
        raise OutOfRangeError(
            f"|alpha*n - s| = {abs(gap):.3f} >= sqrt(n) = {sqrt(n):.3f}"
        )
    var = a * (1.0 - a) * n
    return exp(-(gap * gap) / (2.0 * var)) / sqrt(2.0 * pi * var)


def min_entropy_rank_bound(n: int, m: int, beta: float) -> float:
    """Lower bound on P(an n x m random matrix has full rank n).

    Applies to entry distributions with min-entropy at least beta (no entry
    can be forced into a single value with probability above 1 - beta, under
    any conditioning on other designated entries).  The bound is
    1 - (1-beta)^(m+1-n) / beta^2, clamped at 0 where vacuous.

    Raises :class:`InvalidShapeError` when m < n (a wide matrix is required).
    """
    if m < n:
        raise InvalidShapeError(f"need m >= n, got n={n}, m={m}")
    if not 0 < beta < 1:
        raise InvalidParamsError(f"beta must be in (0, 1), got {beta}")
    return max(0.0, 1.0 - (1.0 - beta) ** (m + 1 - n) / (beta * beta))
