"""Tests for the Monte Carlo harness: determinism, statistics and output files."""

from __future__ import annotations

import csv
import dataclasses
import json

import pytest

import sandpiles
from sandpiles import (
    ComparisonStats,
    EmptyInputError,
    ExperimentConfig,
    GraphModelParams,
    GuardExceededError,
    InvalidParamsError,
    NotPrimeError,
    RankDistribution,
    SplitMix64,
    SweepResult,
    compare_to_theory,
    derive_seed,
    p_rank,
    rank_pmf_theoretical,
    run_balanced_scaling,
    run_cyclicity_experiment,
    run_experiment,
    run_mcorank_experiment,
    run_prank_experiment,
    run_qsweep,
    sample_bipartite,
    sandpile_group,
    wilson_interval,
    write_result_json,
    write_trials_csv,
)
from sandpiles import harness
from sandpiles.harness import BALANCED_NS, QSWEEP_QS


def _cfg(**overrides) -> ExperimentConfig:
    base = dict(
        kind="prank", n=10, alpha=0.5, q=0.5, p=2, trials=20, master_seed=8675309
    )
    base.update(overrides)
    return ExperimentConfig(**base)


# ------------------------------------------------------------- validation


def test_config_validation():
    with pytest.raises(InvalidParamsError):
        _cfg(kind="nonsense")
    with pytest.raises(InvalidParamsError):
        _cfg(trials=0)
    with pytest.raises(NotPrimeError):
        _cfg(p=6)
    with pytest.raises(InvalidParamsError):
        _cfg(alpha=0.0)
    with pytest.raises(InvalidParamsError):
        _cfg(master_seed=-5)
    with pytest.raises(InvalidParamsError):
        _cfg(kind="balanced-scaling", alpha=0.5)
    # Valid balanced-scaling config.
    _cfg(kind="balanced-scaling", alpha=1.0)


def test_runner_kind_mismatch_rejected():
    with pytest.raises(InvalidParamsError):
        run_prank_experiment(_cfg(kind="cyclicity"))
    with pytest.raises(InvalidParamsError):
        run_cyclicity_experiment(_cfg(kind="prank"))
    with pytest.raises(InvalidParamsError):
        run_mcorank_experiment(_cfg(kind="prank"))
    with pytest.raises(InvalidParamsError):
        run_qsweep(_cfg(kind="prank"))
    with pytest.raises(InvalidParamsError):
        run_balanced_scaling(_cfg(kind="prank"))


# ------------------------------------------------------------ determinism


def test_prank_experiment_is_deterministic():
    cfg = _cfg(trials=30)
    a = run_prank_experiment(cfg)
    b = run_prank_experiment(cfg)
    assert a.per_trial == b.per_trial
    assert a.mean == b.mean and a.variance == b.variance
    assert a.quantiles == b.quantiles
    # Everything except the wall time serializes identically.
    ja, jb = a.to_json(), b.to_json()
    ja.pop("wall_time_ms"), jb.pop("wall_time_ms")
    assert json.dumps(ja, sort_keys=True) == json.dumps(jb, sort_keys=True)


def test_prank_trials_recomputable_in_any_order():
    cfg = _cfg(trials=25)
    result = run_prank_experiment(cfg)
    recomputed = []
    for t in reversed(range(cfg.trials)):
        seed = derive_seed(cfg.master_seed, t)
        g = sample_bipartite(GraphModelParams(n=cfg.n, alpha=cfg.alpha, q=cfg.q, seed=seed))
        recomputed.append(p_rank(g, cfg.p))
    assert tuple(reversed(recomputed)) == result.per_trial


def test_single_trial_run():
    result = run_prank_experiment(_cfg(trials=1))
    assert len(result.per_trial) == 1
    assert result.variance == 0.0
    assert result.mean == result.per_trial[0]


def test_version_tag_matches_package():
    result = run_prank_experiment(_cfg(trials=2))
    assert result.to_json()["version"] == sandpiles.__version__


@pytest.mark.parametrize(
    "trials, expected",
    [
        (
            1,
            '{"schema": 1, "config": {"kind": "prank", "n": 10, "alpha": 0.5, "q": 0.5, '
            '"p": 2, "trials": 1, "master_seed": 8675309, "output_path": null}, '
            '"per_trial": [2], "mean": 2.0, "variance": 0.0, '
            '"quantiles": {"1": 2.0, "25": 2.0, "50": 2.0, "75": 2.0, "99": 2.0}, '
            '"comparison": {"mean_gap": 1.384765625, "wasserstein1": 1.517578125, '
            '"quantile_coupling_tail": [1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], '
            '"fitted_decay_rate": 0.0}, "version": "0.1.0", "extras": {}}',
        ),
        (
            2,
            '{"schema": 1, "config": {"kind": "prank", "n": 10, "alpha": 0.5, "q": 0.5, '
            '"p": 2, "trials": 2, "master_seed": 8675309, "output_path": null}, '
            '"per_trial": [2, 1], "mean": 1.5, "variance": 0.5, '
            '"quantiles": {"1": 1.01, "25": 1.25, "50": 1.5, "75": 1.75, "99": 1.99}, '
            '"comparison": {"mean_gap": 0.884765625, "wasserstein1": 1.017578125, '
            '"quantile_coupling_tail": [1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0], '
            '"fitted_decay_rate": null}, "version": "0.1.0", "extras": {}}',
        ),
    ],
)
def test_result_json_is_pinned(trials, expected):
    # One trial takes the variance's 0.0 branch, two the ddof=1 one; the
    # string also pins the key order.
    doc = run_prank_experiment(_cfg(trials=trials)).to_json()
    doc.pop("wall_time_ms")
    assert json.dumps(doc) == expected


# ------------------------------------------------- cross-validated content


def test_prank_observations_match_exact_group_computation():
    # The harness takes the fast corank route; recompute each observation
    # through the integer Smith form and compare.
    for p in (2, 3):
        cfg = _cfg(n=6, alpha=1.0, p=p, trials=60, master_seed=424243 + p)
        result = run_prank_experiment(cfg)
        for t, observed in enumerate(result.per_trial):
            seed = derive_seed(cfg.master_seed, t)
            g = sample_bipartite(
                GraphModelParams(n=cfg.n, alpha=cfg.alpha, q=cfg.q, seed=seed)
            )
            assert observed == sandpile_group(g).p_multiplicity(p)
            assert type(observed) is int


def test_cyclicity_extras_and_guard():
    cfg = _cfg(kind="cyclicity", n=8, trials=40)
    result = run_cyclicity_experiment(cfg)
    assert set(result.extras) == {"wilson95"}
    low, high = result.extras["wilson95"]
    assert 0.0 <= low <= result.mean <= high <= 1.0
    assert all(type(obs) is int and obs in (0, 1) for obs in result.per_trial)
    with pytest.raises(GuardExceededError):
        run_cyclicity_experiment(_cfg(kind="cyclicity", n=400, trials=1))


def test_wilson_interval_properties():
    low, high = wilson_interval(50, 100)
    assert low < 0.5 < high
    assert wilson_interval(0, 50)[0] == 0.0
    assert wilson_interval(50, 50)[1] == 1.0
    narrow = wilson_interval(500, 1000)
    wide = wilson_interval(5, 10)
    assert narrow[1] - narrow[0] < wide[1] - wide[0]
    with pytest.raises(EmptyInputError):
        wilson_interval(0, 0)


def test_wilson_interval_refuses_a_count_outside_the_trials():
    for successes, trials in ((11, 10), (-1, 10), (1001, 1000)):
        with pytest.raises(InvalidParamsError) as info:
            wilson_interval(successes, trials)
        assert str(info.value) == (
            f"successes must be in [0, trials], got {successes} of {trials} trials"
        )


def test_wilson_interval_values_are_pinned():
    # The 95% interval's floats, exact: any change to z or the arithmetic shows.
    assert wilson_interval(0, 50) == (0.0, 0.07135003417431873)
    assert wilson_interval(50, 50) == (0.9286499658256813, 1.0)
    assert wilson_interval(50, 100) == (0.40382982859014716, 0.5961701714098528)
    assert wilson_interval(3, 40) == (0.025835556771858226, 0.19864530159097524)
    assert wilson_interval(500, 1000) == (0.4690690341793595, 0.5309309658206405)
    cfg = _cfg(kind="cyclicity", n=40, trials=30, master_seed=12345)
    result = run_cyclicity_experiment(cfg)
    assert result.extras["wilson95"] == [0.11792239210501232, 0.40928672330324267]


def test_mcorank_extras_and_regime_counts():
    cfg = _cfg(kind="m-corank", n=20, alpha=0.5, p=3, trials=25, master_seed=616)
    result = run_mcorank_experiment(cfg)
    assert result.extras["schur_all_equal"] is True
    assert result.extras["schur_mismatches"] == 0
    # The cut is floor(0.5 * 20) = 10 for the requested n, and five trials
    # have exactly 10 zero diagonal entries in D1, so they count as "at or above".
    assert list(result.extras["regime_counts"].items()) == [
        ("zero-diagonal count below the cut", 18),
        ("zero-diagonal count at or above the cut", 7),
    ]
    assert result.comparison is not None
    assert all(type(obs) is int and obs >= 0 for obs in result.per_trial)


def test_mcorank_counts_schur_mismatches(monkeypatch):
    real, reports = harness.corank_pipeline, []

    def skewed(m):  # trials 1 and 4 report a Schur corank one above the direct one
        report = real(m)
        if len(reports) in (1, 4):
            report = dataclasses.replace(report, corank_schur=report.corank_direct + 1)
        reports.append(report)
        return report

    monkeypatch.setattr(harness, "corank_pipeline", skewed)
    result = run_mcorank_experiment(_cfg(kind="m-corank", p=3, trials=6, master_seed=616))
    assert result.per_trial == tuple(r.corank_direct for r in reports)
    assert result.extras["schur_mismatches"] == 2
    assert result.extras["schur_all_equal"] is False
    regimes = [r.regime for r in reports]
    expected_counts = [(g, regimes.count(g)) for g in dict.fromkeys(regimes)]
    assert list(result.extras["regime_counts"].items()) == expected_counts
    assert sum(result.extras["regime_counts"].values()) == 6


def test_mcorank_matches_predicted_law_at_moderate_size():
    # Distributional check at the documented operating point: corank of the
    # uniformized matrix vs the truncated binomial, Wasserstein-1 within 2.
    cfg = ExperimentConfig(
        kind="m-corank", n=100, alpha=0.25, q=0.5, p=2, trials=500, master_seed=1301
    )
    result = run_mcorank_experiment(cfg)
    assert result.extras["schur_all_equal"] is True
    assert result.comparison.wasserstein1 <= 2.0


# ------------------------------------------------------ comparison stats


def test_compare_to_theory_empty_input():
    dist = rank_pmf_theoretical(4, 0.5, 2)
    with pytest.raises(EmptyInputError):
        compare_to_theory([], dist)


def test_compare_to_theory_perfect_match_is_zero():
    dist = RankDistribution(n=4, alpha=1.0, p=2, offset=4, pmf=(1.0,))
    stats = compare_to_theory([0, 0, 0, 0], dist)
    assert stats.mean_gap == 0.0
    assert stats.wasserstein1 == 0.0
    assert all(t == 0.0 for t in stats.quantile_coupling_tail)
    assert stats.fitted_decay_rate is None


def test_compare_to_theory_constant_shift():
    dist = RankDistribution(n=9, alpha=1.0, p=2, offset=9, pmf=(1.0,))
    stats = compare_to_theory([3, 3, 3], dist)
    assert stats.mean_gap == pytest.approx(3.0)
    assert stats.wasserstein1 == pytest.approx(3.0)
    assert stats.quantile_coupling_tail[:3] == (1.0, 1.0, 1.0)
    assert stats.quantile_coupling_tail[3:] == (0.0,) * 7
    assert stats.fitted_decay_rate == pytest.approx(0.0)


def test_compare_to_theory_values_above_the_laws_top_are_pinned():
    # Observations past the law's top make the CDF be read above its last
    # point; the floats are exact, so any change to the summing order shows.
    one_point = RankDistribution(n=4, alpha=1.0, p=2, offset=4, pmf=(1.0,))
    assert compare_to_theory([0, 2, 5, 5, 1], one_point) == ComparisonStats(
        mean_gap=2.6,
        wasserstein1=2.5999999999999996,
        quantile_coupling_tail=(0.8, 0.6, 0.4, 0.4, 0.4, 0.0, 0.0, 0.0, 0.0, 0.0),
        fitted_decay_rate=-0.1791759469228055,
    )
    critical = rank_pmf_theoretical(200, 0.5, 2)  # ranks 0..100
    assert compare_to_theory([0, 0, 1, 3, 7, 12, 103], critical) == ComparisonStats(
        mean_gap=15.182576049537179,
        wasserstein1=15.182576049537165,
        quantile_coupling_tail=(
            0.7142857142857143, 0.5714285714285714, 0.5714285714285714,
            0.42857142857142855, 0.2857142857142857, 0.2857142857142857,
            0.14285714285714285, 0.14285714285714285, 0.14285714285714285,
            0.14285714285714285,
        ),
        fitted_decay_rate=-0.2085836994627268,
    )


def test_compare_to_theory_tail_is_monotone():
    cfg = _cfg(n=30, trials=50)
    result = run_prank_experiment(cfg)
    tail = result.comparison.quantile_coupling_tail
    assert len(tail) == 10
    assert all(a >= b for a, b in zip(tail, tail[1:]))


def test_compare_to_theory_self_sampling_is_close():
    # Draw from the predicted law itself through its quantile function; the
    # empirical-theoretical distance must then be small.
    dist = rank_pmf_theoretical(20, 0.5, 2)
    stream = SplitMix64(123456)
    draws = [dist.quantile(u) for u in stream.next_uniform_block(10_000) if 0 < u < 1]
    stats = compare_to_theory(draws, dist)
    assert stats.wasserstein1 <= 0.1
    assert stats.mean_gap <= 0.1


# ------------------------------------------------------------------ sweeps


def test_qsweep_shape_and_mean_stability():
    cfg = _cfg(kind="q-sweep", n=16, trials=4, master_seed=515)
    sweep = run_qsweep(cfg)
    assert isinstance(sweep, SweepResult)
    assert sweep.kind == "q-sweep"
    assert [q for q, _ in sweep.rows] == list(QSWEEP_QS)
    assert len(sweep.results) == len(QSWEEP_QS)
    for (q, mean), sub in zip(sweep.rows, sweep.results):
        assert sub.config.q == q
        assert sub.config.kind == "prank"
        assert mean == sub.mean
    payload = sweep.to_json()
    assert payload["schema"] == 1
    assert len(payload["results"]) == 5


def test_balanced_scaling_structure():
    cfg = _cfg(kind="balanced-scaling", alpha=1.0, trials=6, master_seed=99)
    sweep = run_balanced_scaling(cfg)
    assert sweep.kind == "balanced-scaling"
    assert [n for n, _ in sweep.rows] == [float(n) for n in BALANCED_NS]
    for (n, ratio), sub in zip(sweep.rows, sweep.results):
        assert sub.config.n == int(n)
        assert ratio == pytest.approx(sub.mean / n)


def test_sweep_subconfigs_write_no_file_and_use_substreams():
    for run, kind in ((run_qsweep, "q-sweep"), (run_balanced_scaling, "balanced-scaling")):
        cfg = _cfg(kind=kind, alpha=1.0, trials=2, output_path="x.json")
        for i, sub in enumerate(run(cfg).results):
            assert sub.config.output_path is None
            assert sub.config.master_seed == derive_seed(cfg.master_seed, i)


def test_run_experiment_dispatch():
    assert run_experiment(_cfg(trials=2)).config.kind == "prank"
    sweep = run_experiment(_cfg(kind="q-sweep", n=12, trials=2))
    assert isinstance(sweep, SweepResult)
    balanced = run_experiment(_cfg(kind="balanced-scaling", alpha=1.0, trials=2))
    assert balanced.rows[0][0] == BALANCED_NS[0]


# ------------------------------------------------------------ file output


def test_result_json_round_trip(tmp_path):
    cfg = _cfg(trials=8)
    result = run_prank_experiment(cfg)
    path = tmp_path / "result.json"
    write_result_json(result, path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["config"]["kind"] == "prank"
    assert payload["per_trial"] == list(result.per_trial)
    assert set(payload["quantiles"]) == {"1", "25", "50", "75", "99"}
    assert payload["comparison"]["wasserstein1"] == result.comparison.wasserstein1
    assert payload["version"] == sandpiles.__version__


def test_sweep_json_round_trip(tmp_path):
    sweep = run_qsweep(_cfg(kind="q-sweep", n=12, trials=2))
    path = tmp_path / "sweep.json"
    write_result_json(sweep, path)
    payload = json.loads(path.read_text())
    assert payload["schema"] == 1
    assert payload["rows"] == [[q, mean] for q, (_, mean) in zip(QSWEEP_QS, sweep.rows)]


def test_trials_csv_round_trip(tmp_path):
    cfg = _cfg(trials=6)
    result = run_prank_experiment(cfg)
    path = tmp_path / "trials.csv"
    write_trials_csv(result, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "seed", "observation"]
    assert len(rows) == 7
    for t, row in enumerate(rows[1:]):
        assert int(row[0]) == t
        assert int(row[1]) == derive_seed(cfg.master_seed, t)
        assert int(row[2]) == result.per_trial[t]
