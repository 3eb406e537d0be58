"""Tests for the command-line interface (exit codes and output formats)."""

from __future__ import annotations

import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sandpiles
from sandpiles import BipartiteGraph, groups, save_graph, verify
from sandpiles.cli import main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_simulate_prints_json_summary(capsys):
    code, out, err = run_cli(
        capsys,
        "simulate", "--kind", "prank", "--n", "12", "--alpha", "0.5",
        "--q", "0.5", "--p", "2", "--trials", "5", "--seed", "42",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["config"]["kind"] == "prank"
    assert len(payload["per_trial"]) == 5
    assert payload["comparison"] is not None


def test_simulate_writes_output_files(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    csv_path = tmp_path / "trials.csv"
    code, out, _ = run_cli(
        capsys,
        "simulate", "--kind", "prank", "--n", "10", "--alpha", "0.5",
        "--q", "0.4", "--p", "3", "--trials", "4", "--seed", "7",
        "--out", str(out_path), "--csv", str(csv_path),
    )
    assert code == 0
    assert out == ""  # summary went to the file, not stdout
    payload = json.loads(out_path.read_text())
    assert payload["config"]["p"] == 3
    with open(csv_path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["trial", "seed", "observation"]
    assert len(rows) == 5


def test_simulate_rejects_invalid_model(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--kind", "prank", "--n", "10", "--alpha", "2.0",
        "--q", "0.5", "--p", "2", "--trials", "3", "--seed", "1",
    )
    assert code == 2
    assert "error:" in err


def test_simulate_rejects_csv_for_sweeps(capsys, tmp_path):
    code, _, err = run_cli(
        capsys,
        "simulate", "--kind", "q-sweep", "--n", "12", "--alpha", "0.5",
        "--q", "0.5", "--p", "2", "--trials", "2", "--seed", "3",
        "--csv", str(tmp_path / "x.csv"),
    )
    assert code == 2
    assert "--csv" in err


def test_simulate_guard_failure_exit_code(capsys):
    code, _, err = run_cli(
        capsys,
        "simulate", "--kind", "cyclicity", "--n", "400", "--alpha", "0.5",
        "--q", "0.5", "--p", "2", "--trials", "1", "--seed", "5",
    )
    assert code == 2
    assert "error:" in err


def test_predict_reports_regime_and_distribution(capsys):
    code, out, _ = run_cli(capsys, "predict", "--n", "400", "--alpha", "0.5", "--p", "2")
    assert code == 0
    payload = json.loads(out)
    assert payload["regime"] == "critical"
    assert payload["asymptotic_mean"] == pytest.approx(3.98942, abs=1e-5)
    assert payload["distribution"]["params"]["n"] == 400
    total = sum(w for _, w in payload["distribution"]["pmf"])
    assert total == pytest.approx(1.0, abs=1e-9)


def test_predict_rejects_non_prime(capsys):
    code, _, err = run_cli(capsys, "predict", "--n", "100", "--alpha", "0.5", "--p", "4")
    assert code == 2
    assert "error:" in err


def test_predict_with_huge_prime_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "predict", "--n", "10", "--alpha", "0.5", "--p", "2305843009213693951"
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["p"] == 2305843009213693951


def test_prime_beyond_two_to_the_64_exits_two(capsys):
    p = str(2**64 + 13)
    code, _, err = run_cli(capsys, "predict", "--n", "10", "--alpha", "0.5", "--p", p)
    assert code == 2
    assert "2**64" in err
    code, _, err = run_cli(
        capsys,
        "simulate", "--kind", "prank", "--n", "10", "--alpha", "0.5",
        "--q", "0.5", "--p", p, "--trials", "2", "--seed", "1",
    )
    assert code == 2
    assert "2**64" in err


def test_group_on_explicit_graph(tmp_path, capsys):
    path = tmp_path / "k23.json"
    save_graph(BipartiteGraph(2, 3, np.ones((2, 3), dtype=np.int64)), path)
    code, out, _ = run_cli(capsys, "group", "--edges", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["invariant_factors"] == [2, 6]
    assert payload["order"] == "12"
    assert payload["cyclic"] is False
    assert payload["spanning_trees"] == "12"
    assert payload["n_components"] == 1


def test_group_on_disconnected_graph(tmp_path, capsys):
    path = tmp_path / "two.json"
    save_graph(BipartiteGraph(2, 2, np.array([[1, 0], [0, 1]])), path)
    code, out, _ = run_cli(capsys, "group", "--edges", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["n_components"] == 2
    assert payload["spanning_trees"] is None
    assert payload["invariant_factors"] == []


def test_group_refuses_a_component_over_the_guard(tmp_path, capsys):
    guard = groups.SNF_VERTEX_GUARD
    star = tmp_path / "star.json"
    save_graph(BipartiteGraph(1, guard, np.ones((1, guard), dtype=np.int64)), star)
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "group", "--edges", str(star))
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert "guard" in err
    # More vertices than the guard in all, in components of 4 vertices each.
    k = guard // 4 + 1
    pairs = tmp_path / "pairs.json"
    blocks = np.kron(np.eye(k, dtype=np.int64), np.ones((2, 2), dtype=np.int64))
    save_graph(BipartiteGraph(2 * k, 2 * k, blocks), pairs)
    code, out, _ = run_cli(capsys, "group", "--edges", str(pairs))
    assert code == 0
    payload = json.loads(out)
    assert payload["n_components"] == k
    assert payload["invariant_factors"] == [4] * k


def test_group_missing_file(capsys, tmp_path):
    code, _, err = run_cli(capsys, "group", "--edges", str(tmp_path / "nope.json"))
    assert code == 2
    assert "error:" in err


def test_group_rejects_non_integer_graph_json(tmp_path, capsys):
    path = tmp_path / "floats.json"
    path.write_text(json.dumps({"n_left": 2.9, "n_right": 2, "edges": [[0.9, 1.5]]}))
    code, out, err = run_cli(capsys, "group", "--edges", str(path))
    assert code == 2
    assert out == ""
    assert "must be an integer" in err


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import and only one diagnostic
    # in reduction.py uses it, so the CLI must not pull it in.
    src = str(Path(sandpiles.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = "import sys, sandpiles.cli; print('scipy.stats' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.strip() == "False"


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    # Every line is pinned, so a change to a check or its oracles shows here.
    assert out.splitlines() == [
        "PASS schur-corank-preservation: 1000 instances over p in (2, 3, 5, 7), 0 corank mismatches",
        "PASS binomial-conditional-mean-identity: 3900 exact comparisons (n <= 40, 5 alphas), 0 mismatches",
        "PASS smith-form-oracles: complete 2x3 / 2x2 graphs, diag(2,3), 60 random matrices vs gcd-of-minors",
        "PASS gaussian-local-estimate-convergence: relative errors ['2.50e-03', '2.50e-04', '2.50e-05']",
        "4/4 checks passed",
    ]


def test_verify_fails_on_a_wrong_smith_form_or_tree_count(monkeypatch, capsys):
    with monkeypatch.context() as m:
        m.setattr(verify, "smith_normal_form", lambda _m: (1, 1))
        check = verify.check_smith_form_oracles()
    assert check.passed is False and "diag(2,3) Smith form (1, 1) != (1, 6)" in check.detail
    assert "Smith form (1, 1) != minors oracle" in check.detail
    monkeypatch.setattr(verify, "spanning_tree_count", lambda _g: 11)
    assert verify.check_smith_form_oracles().passed is False
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1 and "FAIL smith-form-oracles: complete 2x3 tree counts det=11" in out


def test_unknown_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate", "--bogus"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit):
        main([])
