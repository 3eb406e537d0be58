"""Seeded Monte Carlo experiments and theory-vs-empirics comparisons.

Every experiment follows the same discipline: trial t draws its entire
randomness from a stream seeded by ``derive_seed(master_seed, t)``, so runs
are reproducible bit-for-bit, independent of execution order, and safe to
parallelize externally by partitioning trial indices.  Aggregates are always
computed from the trial-indexed observation list, never from accumulation
order.

The comparison statistics quantify "the empirical p-rank law is within O(1)
of the truncated binomial": Wasserstein-1 distance (L1 distance between
CDFs), and the tail P(|X - Y| >= m) of the comonotone coupling, i.e. sorted
observations paired with theoretical quantiles.  The comonotone coupling
minimizes displacement among all couplings, so an exponential-looking tail
under it is a necessary condition for the predicted closeness -- if it fails
here, it fails under every coupling.
"""

from __future__ import annotations

import csv
import json
import time
from collections import Counter
from dataclasses import asdict, dataclass, field, replace
from math import sqrt
from typing import Callable, Sequence

import numpy as np

from .bigraph import GraphModelParams, sample_bipartite
from .errors import EmptyInputError, InvalidParamsError, NotPrimeError
from .gfp import is_prime
from .groups import is_cyclic, p_rank
from .reduction import build_M, corank_pipeline
from .rng import derive_seed
from .theory import RankDistribution, rank_pmf_theoretical

EXPERIMENT_KINDS = ("prank", "cyclicity", "m-corank", "q-sweep", "balanced-scaling")

QSWEEP_QS = (0.2, 0.35, 0.5, 0.65, 0.8)
BALANCED_NS = (50, 100, 200)

_QUANTILE_LEVELS = (1, 25, 50, 75, 99)
_COUPLING_TAIL_RANGE = range(1, 11)


@dataclass(frozen=True)
class ExperimentConfig:
    """Parameters of one seeded experiment."""

    kind: str
    n: int
    alpha: float
    q: float
    p: int
    trials: int
    master_seed: int
    output_path: str | None = None

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise InvalidParamsError(
                f"kind must be one of {EXPERIMENT_KINDS}, got {self.kind!r}"
            )
        if not isinstance(self.trials, int) or self.trials < 1:
            raise InvalidParamsError(f"trials must be >= 1, got {self.trials}")
        if not is_prime(self.p):
            raise NotPrimeError(f"p must be prime, got {self.p}")
        if self.kind == "balanced-scaling" and float(self.alpha) != 1.0:
            raise InvalidParamsError(
                f"balanced-scaling requires alpha = 1, got {self.alpha}"
            )
        # Delegate n/alpha/q range checks to the graph model itself.
        GraphModelParams(n=self.n, alpha=self.alpha, q=self.q, seed=0)
        if not isinstance(self.master_seed, int) or not 0 <= self.master_seed < 2**64:
            raise InvalidParamsError(
                f"master_seed must be an integer in [0, 2**64), got {self.master_seed}"
            )

    def to_json(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class ComparisonStats:
    """How far an empirical integer-valued sample sits from a predicted law."""

    mean_gap: float
    wasserstein1: float
    quantile_coupling_tail: tuple[float, ...]
    fitted_decay_rate: float | None

    def to_json(self) -> dict:
        return {
            "mean_gap": self.mean_gap,
            "wasserstein1": self.wasserstein1,
            "quantile_coupling_tail": list(self.quantile_coupling_tail),
            "fitted_decay_rate": self.fitted_decay_rate,
        }


@dataclass(frozen=True)
class ExperimentResult:
    """Observations plus summary statistics for one experiment run."""

    config: ExperimentConfig
    per_trial: tuple[int, ...]
    mean: float
    variance: float
    quantiles: dict[int, float]
    wall_time_ms: float
    version: str
    comparison: ComparisonStats | None = None
    extras: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "config": self.config.to_json(),
            "per_trial": list(self.per_trial),
            "mean": self.mean,
            "variance": self.variance,
            "quantiles": {str(k): v for k, v in self.quantiles.items()},
            "comparison": None if self.comparison is None else self.comparison.to_json(),
            "wall_time_ms": self.wall_time_ms,
            "version": self.version,
            "extras": self.extras,
        }


def _check_kind(cfg: ExperimentConfig, kind: str) -> None:
    if cfg.kind != kind:
        raise InvalidParamsError(f"expected kind {kind!r}, got {cfg.kind!r}")


def _run_trials(
    cfg: ExperimentConfig, observe: Callable[[int], int]
) -> tuple[tuple[int, ...], float]:
    """Run ``observe(trial_seed)`` for every trial; returns observations."""
    start = time.perf_counter()
    observations = tuple(
        int(observe(derive_seed(cfg.master_seed, t))) for t in range(cfg.trials)
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    return observations, elapsed_ms


def _sample(cfg: ExperimentConfig, seed: int):
    return sample_bipartite(GraphModelParams(n=cfg.n, alpha=cfg.alpha, q=cfg.q, seed=seed))


def _compare_to_law(cfg: ExperimentConfig, observations) -> ComparisonStats:
    return compare_to_theory(observations, rank_pmf_theoretical(cfg.n, cfg.alpha, cfg.p))


def _result(
    cfg: ExperimentConfig,
    observations: tuple[int, ...],
    elapsed_ms: float,
    comparison: ComparisonStats | None = None,
    extras: dict | None = None,
) -> ExperimentResult:
    from . import __version__

    arr = np.asarray(observations, dtype=np.float64)
    return ExperimentResult(
        config=cfg,
        per_trial=observations,
        mean=float(arr.mean()),
        variance=float(arr.var(ddof=1)) if arr.size > 1 else 0.0,
        quantiles={level: float(np.percentile(arr, level)) for level in _QUANTILE_LEVELS},
        wall_time_ms=elapsed_ms,
        version=__version__,
        comparison=comparison,
        extras=extras or {},
    )


def run_prank_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Sample graphs and record the p-rank of each sandpile group.

    The comparison block is filled against the truncated-binomial law for the
    same (n, alpha, p).
    """
    _check_kind(cfg, "prank")
    obs, elapsed_ms = _run_trials(cfg, lambda seed: p_rank(_sample(cfg, seed), cfg.p))
    return _result(cfg, obs, elapsed_ms, _compare_to_law(cfg, obs))


def wilson_interval(successes: int, trials: int, z: float = 1.96) -> tuple[float, float]:
    """95% (by default) Wilson score interval for a binomial proportion."""
    if trials < 1:
        raise EmptyInputError("wilson interval needs at least one trial")
    phat = successes / trials
    denom = 1.0 + z * z / trials
    center = (phat + z * z / (2 * trials)) / denom
    half = z * sqrt(phat * (1 - phat) / trials + z * z / (4 * trials * trials)) / denom
    return max(0.0, center - half), min(1.0, center + half)


def run_cyclicity_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Record, per sampled graph, whether the sandpile group is cyclic.

    Uses the exact integer Smith form on every trial, so a graph with a
    component over ``groups.SNF_VERTEX_GUARD`` vertices is refused
    (:class:`GuardExceededError`).
    The 95% Wilson interval for the cyclic fraction lands in
    ``extras["wilson95"]``.
    """
    _check_kind(cfg, "cyclicity")
    obs, elapsed_ms = _run_trials(cfg, lambda seed: is_cyclic(_sample(cfg, seed)))
    low, high = wilson_interval(sum(obs), cfg.trials)
    return _result(cfg, obs, elapsed_ms, extras={"wilson95": [low, high]})


def run_mcorank_experiment(cfg: ExperimentConfig) -> ExperimentResult:
    """Record coranks of the uniformized matrices, with pipeline cross-checks.

    Observations are the directly computed coranks; ``extras`` reports
    whether the Schur-complement corank agreed on every trial and how the
    zero-diagonal regimes split.  The comparison block is filled against the
    same truncated-binomial law as the p-rank experiment.
    """
    _check_kind(cfg, "m-corank")
    reports = []

    def observe(seed: int) -> int:
        reports.append(corank_pipeline(build_M(cfg.n, cfg.alpha, cfg.q, cfg.p, seed)))
        return reports[-1].corank_direct

    obs, elapsed_ms = _run_trials(cfg, observe)
    mismatches = sum(r.corank_direct != r.corank_schur for r in reports)
    extras = {
        "schur_all_equal": mismatches == 0,
        "schur_mismatches": mismatches,
        "regime_counts": dict(Counter(r.regime for r in reports)),
    }
    return _result(cfg, obs, elapsed_ms, _compare_to_law(cfg, obs), extras)


def compare_to_theory(
    observations: Sequence[int], dist: RankDistribution
) -> ComparisonStats:
    """Distance statistics between integer observations and a predicted law.

    Wasserstein-1 is computed as the L1 distance between the empirical and
    theoretical CDFs on the integer grid.  The coupling tail pairs sorted
    observations with theoretical quantiles at levels (t + 0.5) / trials and
    reports the fraction of pairs at distance >= m for m = 1..10; the fitted
    decay rate is the least-squares slope of log tail against m over the
    strictly positive tail entries (None when fewer than two are positive).
    """
    observations = list(observations)
    if not observations:
        raise EmptyInputError("no observations to compare")
    trials = len(observations)
    emp_mean = sum(observations) / trials
    mean_gap = abs(emp_mean - dist.mean())

    top = max(max(observations), max(dist.support()))
    wasserstein1 = 0.0
    emp_cdf = 0.0
    counts = np.bincount(np.asarray(observations, dtype=np.int64), minlength=top + 1)
    for k in range(top):
        emp_cdf += counts[k] / trials
        wasserstein1 += abs(emp_cdf - dist.cdf_at(k))

    sorted_obs = sorted(observations)
    gaps = [
        abs(x - dist.quantile((t + 0.5) / trials))
        for t, x in enumerate(sorted_obs)
    ]
    tail = tuple(
        sum(1 for g in gaps if g >= m) / trials for m in _COUPLING_TAIL_RANGE
    )
    positive = [(m, t) for m, t in zip(_COUPLING_TAIL_RANGE, tail) if t > 0]
    if len(positive) >= 2:
        ms = np.array([m for m, _ in positive], dtype=np.float64)
        logs = np.log(np.array([t for _, t in positive], dtype=np.float64))
        decay = float(np.polyfit(ms, logs, 1)[0])
    else:
        decay = None
    return ComparisonStats(
        mean_gap=mean_gap,
        wasserstein1=wasserstein1,
        quantile_coupling_tail=tail,
        fitted_decay_rate=decay,
    )


@dataclass(frozen=True)
class SweepResult:
    """A table experiment: one sub-experiment per swept parameter value."""

    kind: str
    rows: tuple[tuple[float, float], ...]
    results: tuple[ExperimentResult, ...]
    wall_time_ms: float

    def to_json(self) -> dict:
        return {
            "schema": 1,
            "kind": self.kind,
            "rows": [list(row) for row in self.rows],
            "results": [r.to_json() for r in self.results],
            "wall_time_ms": self.wall_time_ms,
        }


def _run_sweep(cfg: ExperimentConfig, swept: str, values: Sequence, row) -> SweepResult:
    """One ``prank`` run per value of the field ``swept``.

    Run i uses the sub-stream ``derive_seed(cfg.master_seed, i)``.  Its
    ``output_path`` is None, so the parent's ``--out`` is not repeated in every
    sub-result.  Rows are (value, row(value, mean)).
    """
    if not values:
        raise InvalidParamsError(f"need at least one {swept} value")
    start = time.perf_counter()
    results = tuple(
        run_prank_experiment(
            replace(
                cfg,
                kind="prank",
                output_path=None,
                master_seed=derive_seed(cfg.master_seed, i),
                **{swept: value},
            )
        )
        for i, value in enumerate(values)
    )
    elapsed_ms = (time.perf_counter() - start) * 1000.0
    rows = tuple((float(v), row(v, r.mean)) for v, r in zip(values, results))
    return SweepResult(kind=cfg.kind, rows=rows, results=results, wall_time_ms=elapsed_ms)


def run_qsweep(cfg: ExperimentConfig, qs: Sequence[float] = QSWEEP_QS) -> SweepResult:
    """Mean p-rank across edge probabilities, all else shared.

    The predicted law does not involve q at all; the sweep makes that
    empirical.  Rows are (q, mean p-rank).  Each q gets an independent
    sub-stream of the master seed.
    """
    _check_kind(cfg, "q-sweep")
    return _run_sweep(cfg, "q", qs, lambda _q, mean: mean)


def run_balanced_scaling(
    cfg: ExperimentConfig, ns: Sequence[int] = BALANCED_NS
) -> SweepResult:
    """Mean p-rank divided by n, for equal part sizes (alpha = 1).

    The prediction for alpha = 1 is sublinear growth, so mean/n should fall
    as n grows.  Rows are (n, mean p-rank / n).
    """
    _check_kind(cfg, "balanced-scaling")
    return _run_sweep(cfg, "n", ns, lambda n, mean: mean / n)


_RUNNERS = {
    "prank": run_prank_experiment,
    "cyclicity": run_cyclicity_experiment,
    "m-corank": run_mcorank_experiment,
    "q-sweep": run_qsweep,
    "balanced-scaling": run_balanced_scaling,
}


def run_experiment(cfg: ExperimentConfig) -> ExperimentResult | SweepResult:
    """Dispatch on ``cfg.kind``."""
    return _RUNNERS[cfg.kind](cfg)


def write_result_json(result: ExperimentResult | SweepResult, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(result.to_json(), fh, indent=2)
        fh.write("\n")


def write_trials_csv(result: ExperimentResult, path) -> None:
    """Per-trial CSV with fixed columns (trial, seed, observation)."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["trial", "seed", "observation"])
        for t, obs in enumerate(result.per_trial):
            writer.writerow([t, derive_seed(result.config.master_seed, t), obs])
