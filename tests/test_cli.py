"""Tests for the command-line interface (exit codes and output formats)."""

from __future__ import annotations

import csv
import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import sandpiles
from sandpiles import (
    BipartiteGraph, GraphModelParams, bigraph, graph_to_json, groups, load_graph,
    sample_bipartite, save_graph, theory, verify,
)
from sandpiles.cli import build_parser, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def one_line_json(text: str):
    """The document in ``text``, which must be one line as the C encoder writes it."""
    assert text.endswith("\n") and text.count("\n") == 1
    doc = json.loads(text)
    assert text == json.dumps(doc) + "\n"
    return doc


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


def test_simulate_rejects_csv_for_sweeps(capsys, tmp_path, monkeypatch):
    def no_run(cfg):
        raise AssertionError(f"{cfg.kind} ran before --csv was refused")

    monkeypatch.setattr(sandpiles.cli, "run_experiment", no_run)
    for kind, alpha in (("q-sweep", "0.5"), ("balanced-scaling", "1")):
        code, _, err = run_cli(
            capsys,
            "simulate", "--kind", kind, "--n", "12", "--alpha", alpha,
            "--q", "0.5", "--p", "2", "--trials", "2", "--seed", "3",
            "--csv", str(tmp_path / "x.csv"),
            "--out", str(tmp_path / "x.json"),
        )
        assert code == 2
        assert err.startswith("error: --csv")
    assert not (tmp_path / "x.csv").exists() and not (tmp_path / "x.json").exists()


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


@pytest.mark.parametrize(
    "n, alpha, message",
    [
        ("100", "inf", "alpha must be a finite number"),
        ("100", "1e400", "alpha must be a finite number"),
        ("100", "-inf", "alpha must be a finite number"),
        ("100", "nan", "alpha must be a finite number"),
        ("-5", "0.5", "n must be an integer >= 0"),
        ("-5", "0.25", "n must be an integer >= 0"),
    ],
)
def test_predict_rejects_non_finite_alpha_and_negative_n(capsys, n, alpha, message):
    # "--alpha=-inf": argparse would read a separate "-inf" as an option.
    code, out, err = run_cli(capsys, "predict", "--n", n, f"--alpha={alpha}", "--p", "2")
    assert code == 2 and out == ""
    assert err.startswith("error: ") and message in err


def test_predict_with_huge_prime_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(
        capsys, "predict", "--n", "10", "--alpha", "0.5", "--p", "2305843009213693951"
    )
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["p"] == 2305843009213693951


def test_predict_at_the_guard_is_fast(capsys):
    start = time.perf_counter()
    code, out, _ = run_cli(capsys, "predict", "--n", "10000", "--alpha", "0.25", "--p", "2")
    assert time.perf_counter() - start < 2.0
    assert code == 0
    assert json.loads(out)["distribution"]["params"]["offset"] == 2500


def test_predict_refuses_n_over_the_guard(capsys):
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "predict", "--n", "1000000", "--alpha", "0.25", "--p", "2")
    assert time.perf_counter() - start < 2.0
    assert code == 2 and out == ""
    assert "guard" in err


# sha256 of the whole ``predict`` stdout, recorded before the theory passes
# started at the cut.  The edges: n = 0 and 1, alpha = 1 (an offset equal to
# n), one-term tails at p = 2**31 - 1, and n = 333 at alpha = 1/3 (critical
# for p = 3, subcritical for p = 2).
PINNED_PREDICT_OUTPUT = [
    (("0", "0.5", "2"), "21a10aed3e8a8b7a38233f9a12e36347c2943d0f2c5a90f158b4ef7fd7722136"),
    (("0", "1.0", "3"), "068d8d567a783944c1ff982f5e62f528c9e43bf1da985af64a0232ab0ef5ea4d"),
    (("1", "0.5", "2"), "7b23344f590809dc41a28bf78ff25a019a7de71320794e4ab92c291141594c22"),
    (("1", "1.0", "2"), "b04ce87de7bb7d0c306d666f720135e53489c805d30b7b94e1255ca91954a042"),
    (("3", "1.0", "2"), "96a0ebeb7ab7626abf2ddea00d353bbd4d97b31008af9ebbf69e8b25643cf674"),
    (("40", "1.0", "5"), "85ebde41e769e8597c68300e4cf1ac7ebdcf2bc2fb281f332215fb72452ef3d7"),
    (("60", "0.999", "2147483647"),
     "5d111dc602c610b288f0ee210b39e5780a24992aba0d7ca7e7264fe2175c066b"),
    (("333", "0.3333333333333333", "3"),
     "8c4db2892c799ab541d7bb7c66fa5bfc31d539cb5ebf3ff9cb95586858617816"),
    (("333", "0.3333333333333333", "2"),
     "d3c39219461a9680417306889d98533d573b2524ee62efb3f729ccc0e3f42162"),
    (("25", "0.04", "2"), "f0b06916fd6718dd6fd75dd83a76d5c1bc8ed0284a4832b5262aea00567952b4"),
    (("101", "0.7", "2147483647"),
     "e56c4299ba77b4c88fe2975e1b6a0aef19caaba6ae7a31c2623e255e5b43ba48"),
]


@pytest.mark.parametrize("args, sha256", PINNED_PREDICT_OUTPUT)
def test_predict_output_is_pinned(capsys, args, sha256):
    n, alpha, p = args
    code, out, _ = run_cli(capsys, "predict", "--n", n, "--alpha", alpha, "--p", p)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


def _leaf_types(doc) -> set[type]:
    if isinstance(doc, dict):
        return set().union(*map(_leaf_types, doc.values()))
    if isinstance(doc, (list, tuple)):
        return set().union(*map(_leaf_types, doc))
    return {type(doc)}


def test_json_payloads_hold_only_plain_python_values(capsys, monkeypatch):
    # A numpy scalar encodes like a float but is not one; every number in a
    # payload must be a plain int or float before it is encoded.
    plain = {str, int, float, bool, type(None)}
    for kind, alpha in (("prank", 0.5), ("m-corank", 0.5), ("cyclicity", 0.5),
                        ("q-sweep", 0.5), ("balanced-scaling", 1.0)):
        cfg = sandpiles.ExperimentConfig(
            kind=kind, n=12, alpha=alpha, q=0.5, p=3, trials=5, master_seed=7
        )
        assert _leaf_types(sandpiles.run_experiment(cfg).to_json()) <= plain, kind
    payloads, real_dumps = [], json.dumps

    def recording_dumps(doc):
        payloads.append(doc)
        return real_dumps(doc)

    monkeypatch.setattr(sandpiles.cli.json, "dumps", recording_dumps)
    for n, alpha, p in (("0", "0.5", "2"), ("100", "0.25", "3"), ("30", "1.0", "7")):
        code, _, _ = run_cli(capsys, "predict", "--n", n, "--alpha", alpha, "--p", p)
        assert code == 0
    assert len(payloads) == 3
    for doc in payloads:
        assert _leaf_types(doc) <= plain, doc


def _disjoint_union(g: BipartiteGraph, h: BipartiteGraph) -> BipartiteGraph:
    biadj = np.zeros((g.n_left + h.n_left, g.n_right + h.n_right), dtype=np.int64)
    biadj[: g.n_left, : g.n_right] = g.biadjacency
    biadj[g.n_left :, g.n_right :] = h.biadjacency
    return BipartiteGraph(g.n_left + h.n_left, g.n_right + h.n_right, biadj)


def _sampled(n: int, alpha: float, seed: int) -> BipartiteGraph:
    return sample_bipartite(GraphModelParams(n=n, alpha=alpha, q=0.5, seed=seed))


K23 = BipartiteGraph(2, 3, np.ones((2, 3), dtype=np.int64))

# sha256 of the whole ``group`` stdout on graphs written by ``save_graph``.
# The union is disconnected, so its ``spanning_trees`` is null; the alpha =
# 1/4 graph has 100 vertices.  The last five are connected, with 50-90
# vertices.  Their Smith routes need 0, 1, 2 and 2 CRT primes below 2**27
# besides the lifting prime (the fourth would need one prime below 2**31),
# and the last has chain modulus gcd(m, c) = 1.
PINNED_GROUP_OUTPUT = [
    pytest.param(
        lambda: K23, "e4d3bb304f7b039fa1aef6df55a1dc7e3084479a4fd919cc559fcd3634867335", id="k23"
    ),
    pytest.param(
        lambda: _disjoint_union(K23, _sampled(10, 0.5, 3)),
        "0218815f11b6c52f9e008f067c4d4421e1629224826fffb5bb2f6760ef0382b8",
        id="k23-and-sampled",
    ),
    pytest.param(
        lambda: _sampled(80, 0.25, 1),
        "96e9a92a46165e4ca722636d8b0674303dc42b4dd5aadcb654d3dd0fff4c7701",
        id="alpha-quarter-80",
    ),
    pytest.param(
        lambda: _sampled(60, 0.5, 2),
        "6ef33f333d28b24c49d5706cff90e6cfa296a08b14b3cc03be05556692428a27",
        id="alpha-half-60",
    ),
    pytest.param(
        lambda: _sampled(40, 0.75, 3),
        "448ec13697a024d1f7acd30a3b66f6c4ad338ca90ca1046fb32e830ee8703cad",
        id="alpha-three-quarters-40",
    ),
    pytest.param(
        lambda: _sampled(40, 0.25, 1),
        "eef1660b6add858dffb6f8ce33ced2dac7e1f3102497f4d7f124757705b6a10e",
        id="no-extra-prime",
    ),
    pytest.param(
        lambda: _sampled(40, 0.25, 2),
        "6c64dce04a3c840ca693fbf2217dc879f2a1e55ea2aea05010e132d3a5b69091",
        id="one-extra-prime",
    ),
    pytest.param(
        lambda: _sampled(72, 0.25, 8),
        "8a5e99bd38ddb8ee5bbd2a63f068bf1644cfb861597c52f3425aa5725f259956",
        id="two-extra-primes",
    ),
    pytest.param(
        lambda: _sampled(72, 0.25, 1),
        "bb62c98ced9d35142287173aa0767f2be4a4ed75c47cd6829f1ec569fd17fcc2",
        id="two-extra-primes-below-2-27",
    ),
    pytest.param(
        lambda: _sampled(40, 0.5, 2),
        "7a19e12234f8e715a4f66650b997fa8322669cccdea73c1c4201af03d0704e45",
        id="chain-modulus-one",
    ),
]


@pytest.mark.parametrize("make, sha256", PINNED_GROUP_OUTPUT)
def test_group_output_is_pinned(tmp_path, capsys, make, sha256):
    path = tmp_path / "graph.json"
    save_graph(make(), path)
    code, out, _ = run_cli(capsys, "group", "--edges", str(path))
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


# sha256 of ``simulate`` stdout at n = 40, q = 1/2, 10 trials and seed
# 12345, with every ``wall_time_ms`` set to 0.
PINNED_SIMULATE_OUTPUT = [
    (("prank", "0.5", "2"), "182eae2e6104eebefc1446560d75ab64e35a60cbebf8aaa41fffc9beead5a9a8"),
    (("prank", "0.5", "3"), "247bae020f8a20e543716faf39c1d3d19e1e513d4d2f4ce5bd67f062caa4fe72"),
    (("m-corank", "0.5", "3"), "8d3b1e24251984c994c934e1bef60cbdb3edcf9772835cee76e53190e039d4c4"),
    (("cyclicity", "0.5", "2"), "09132296acb6618ade977d76b31656e8c266babdf8a2abb0d71d581e03105fae"),
    (("q-sweep", "0.5", "2"), "8f096a5dce76d4c3406ba843412a7f7e6b405f5c3b52182bb4819daee1b92002"),
    (("balanced-scaling", "1", "2"), "c7baadfd3772bd9e8ee730d64929b655aaf94434c39a6599a1449a4a0e144347"),
]


@pytest.mark.parametrize("args, sha256", PINNED_SIMULATE_OUTPUT)
def test_simulate_output_is_pinned(capsys, args, sha256):
    kind, alpha, p = args
    code, out, _ = run_cli(
        capsys,
        "simulate", "--kind", kind, "--n", "40", "--alpha", alpha, "--q", "0.5",
        "--p", p, "--trials", "10", "--seed", "12345",
    )
    assert code == 0
    doc = json.loads(out, object_hook=lambda d: {**d, "wall_time_ms": 0} if "wall_time_ms" in d else d)
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == sha256


def test_one_predict_steps_at_most_n_plus_one_numerators(capsys, monkeypatch):
    # The excess steps the shorter of head and tail, the pmf only the tail:
    # at most (s + 1) + (n - s) terms together, where one full pass each
    # would be 2n + 2.  The pmf's own n - s terms are a floor.
    stepped = []
    full_pass = theory._pmf_numerators

    def counted(*args):
        for num in full_pass(*args):
            stepped.append(num)
            yield num

    monkeypatch.setattr(theory, "_pmf_numerators", counted)
    n = 1000
    for alpha in ("0.001", "0.1", "0.25", "0.5", "0.5005", "0.75", "1.0"):
        for p in ("2", "3", "5"):
            stepped.clear()
            code, out, _ = run_cli(capsys, "predict", "--n", str(n), "--alpha", alpha, "--p", p)
            assert code == 0
            tail = n - json.loads(out)["distribution"]["params"]["offset"]
            assert tail <= len(stepped) <= n + 1, (alpha, p, len(stepped))


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


def test_prime_at_or_over_two_to_the_31_is_refused_before_sampling(monkeypatch, capsys):
    def no_draw(*_args):
        raise AssertionError("sampled before the modulus was refused")

    p = "2147483659"  # the smallest prime above 2**31
    argv = ("--n", "50", "--alpha", "0.5", "--q", "0.5", "--p", p, "--trials", "1",
            "--seed", "1")
    with monkeypatch.context() as m:
        m.setattr(sandpiles.harness, "sample_bipartite", no_draw)
        m.setattr(sandpiles.reduction, "sample_bipartite_from_stream", no_draw)
        for kind in ("prank", "m-corank", "q-sweep"):
            code, out, err = run_cli(capsys, "simulate", "--kind", kind, *argv)
            assert code == 2 and out == ""
            assert f"modulus must be < 2**31, got {p}" in err
    # cyclicity never works mod p, so it keeps accepting that p.
    code, out, _ = run_cli(capsys, "simulate", "--kind", "cyclicity", *argv)
    assert code == 0
    assert json.loads(out)["config"]["p"] == int(p)


def test_group_on_explicit_graph(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k23.json"
    save_graph(BipartiteGraph(2, 3, np.ones((2, 3), dtype=np.int64)), path)
    # The group, the component count and the tree count share one search.
    searches = []
    search = bigraph._search_components
    monkeypatch.setattr(bigraph, "_search_components", lambda g: searches.append(g) or search(g))
    code, out, _ = run_cli(capsys, "group", "--edges", str(path))
    assert code == 0
    assert len(searches) == 1
    payload = json.loads(out)
    assert payload["invariant_factors"] == [2, 6]
    assert payload["order"] == "12"
    assert payload["cyclic"] is False
    assert payload["spanning_trees"] == "12"
    assert payload["n_components"] == 1


def test_group_checks_the_tree_count_against_the_order(tmp_path, capsys, monkeypatch):
    path = tmp_path / "k23.json"
    save_graph(BipartiteGraph(2, 3, np.ones((2, 3), dtype=np.int64)), path)
    monkeypatch.setattr(sandpiles.cli, "spanning_tree_count", lambda _g: 11)
    with pytest.raises(RuntimeError, match="order 12 differs from the tree count 11"):
        main(["group", "--edges", str(path)])


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


DEEP_ARRAY = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("text", [
    DEEP_ARRAY,
    '{"n_left": 1, "n_right": 1, "edges": ' + DEEP_ARRAY + "}",
], ids=["bare-array", "edges-array"])
def test_group_refuses_a_deeply_nested_graph_file(tmp_path, capsys, text):
    path = tmp_path / "deep.json"
    path.write_text(text)
    code, out, err = run_cli(capsys, "group", "--edges", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error:") and "nested too deeply" in err
    assert "Traceback" not in err


def test_group_refusal_of_a_huge_value_is_one_short_line(tmp_path, capsys):
    path = tmp_path / "dict.json"
    path.write_text(json.dumps({"n_left": 2, "n_right": 3, "edges": {str(i): i for i in range(10**5)}}))
    code, out, err = run_cli(capsys, "group", "--edges", str(path))
    assert (code, out) == (2, "")
    assert err.startswith("error: edges must be a list") and err.count("\n") == 1
    assert len(err) < 200


def test_refused_allocation_exits_two(monkeypatch, capsys, tmp_path):
    # A refused allocation is a configuration too large for this host, not a
    # failed verification, so it exits 2.  Simulated: a real multi-terabyte
    # request can be granted lazily and then exhaust memory.
    def refuse(*_args, **_kwargs):
        raise MemoryError("Unable to allocate 7.28 TiB")

    monkeypatch.setattr(sandpiles.cli, "load_graph", refuse)
    monkeypatch.setattr(sandpiles.cli, "run_experiment", refuse)
    code, out, err = run_cli(capsys, "group", "--edges", str(tmp_path / "huge.json"))
    assert (code, out) == (2, "")
    assert "error: Unable to allocate" in err
    code, out, err = run_cli(
        capsys,
        "simulate", "--kind", "prank", "--n", "1000", "--alpha", "1",
        "--q", "0.5", "--p", "2", "--trials", "1", "--seed", "1",
    )
    assert (code, out) == (2, "")
    assert "error: Unable to allocate" in err


def test_cli_import_leaves_scipy_stats_unloaded():
    # scipy.stats takes most of a second to import and no module of the
    # package uses it, so the CLI must not pull it in.  scipy.sparse takes
    # most of the CLI's import time and only connected_components uses it,
    # so neither the import nor a predict run may load it.
    src = str(Path(sandpiles.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    code = (
        "import sys, sandpiles.cli\n"
        "loaded = lambda: [m in sys.modules for m in ('scipy.stats', 'scipy.sparse')]\n"
        "after_import = loaded()\n"
        "sandpiles.cli.main(['predict', '--n', '50', '--alpha', '0.25', '--p', '2'])\n"
        "print(after_import, loaded())"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert proc.stdout.splitlines()[-1] == "[False, False] [False, False]"


def test_verify_passes(capsys):
    code, out, _ = run_cli(capsys, "verify")
    assert code == 0
    # Every line is pinned, so a change to a check or its oracles shows here.
    assert out.splitlines() == [
        "PASS schur-corank-preservation: 1000 instances over p in (2, 3, 5, 7), 0 corank mismatches",
        "PASS binomial-conditional-mean-identity: 3900 exact comparisons (n <= 40, 5 alphas), 0 mismatches",
        "PASS smith-form-oracles: complete 2x3 / 2x2 graphs, diag(2,3), 60 random matrices vs gcd-of-minors, "
        "4 seeded graphs (one disconnected) vs the plain Smith loop, tree counts of the "
        "3 connected ones vs Bareiss on the whole reduced Laplacian",
        "PASS gaussian-local-estimate-convergence: relative errors ['2.50e-03', '2.50e-04', '2.50e-05']",
        "4/4 checks passed",
    ]
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "e362c4406260821f24f3503f4d453ddbf4f4a12a5d8102c27d13cfab717da7dd"
    )


def test_verify_fails_on_a_wrong_smith_form_or_tree_count(monkeypatch, capsys):
    with monkeypatch.context() as m:
        m.setattr(verify, "smith_normal_form", lambda _m: (1, 1))
        check = verify.check_smith_form_oracles()
    assert check.passed is False and "diag(2,3) Smith form (1, 1) != (1, 6)" in check.detail
    assert "Smith form (1, 1) != minors oracle" in check.detail
    monkeypatch.setattr(verify, "spanning_tree_count", lambda _g: 11)
    check = verify.check_smith_form_oracles()
    assert check.passed is False and "seeded graph 0: spanning_tree_count 11 != Bareiss" in check.detail
    code, out, _ = run_cli(capsys, "verify")
    assert code == 1 and "FAIL smith-form-oracles: complete 2x3 tree counts det=11" in out


def test_unknown_arguments_exit_two(capsys):
    with pytest.raises(SystemExit) as exc_info:
        main(["simulate", "--bogus"])
    assert exc_info.value.code == 2
    with pytest.raises(SystemExit):
        main([])


def test_json_documents_are_written_on_one_line(tmp_path, capsys):
    graph = BipartiteGraph(2, 3, np.array([[1, 1, 0], [0, 1, 1]], dtype=np.int64))
    graph_path = tmp_path / "graph.json"
    save_graph(graph, graph_path)
    assert one_line_json(graph_path.read_text()) == graph_to_json(graph)
    assert graph_to_json(load_graph(graph_path)) == graph_to_json(graph)

    code, out, _ = run_cli(capsys, "group", "--edges", str(graph_path))
    assert code == 0 and one_line_json(out)["order"] == "1"  # a path: one tree
    code, out, _ = run_cli(capsys, "predict", "--n", "40", "--alpha", "0.25", "--p", "3")
    assert code == 0 and len(one_line_json(out)["distribution"]["pmf"]) == 31

    sim = ["simulate", "--kind", "prank", "--n", "10", "--alpha", "0.5",
           "--q", "0.4", "--p", "3", "--trials", "4", "--seed", "7"]
    code, out, _ = run_cli(capsys, *sim)
    assert code == 0
    printed = one_line_json(out)
    out_path = tmp_path / "result.json"
    code, out, _ = run_cli(capsys, *sim, "--out", str(out_path))
    assert code == 0 and out == ""
    written = one_line_json(out_path.read_text())
    assert written["config"].pop("output_path") == str(out_path)
    for doc in (printed, written):
        doc.pop("wall_time_ms")
        doc["config"].pop("output_path", None)
    assert written == printed


def test_main_reuses_one_parser_and_carries_no_argument_over(tmp_path, capsys):
    assert build_parser() is build_parser()
    code, out, _ = run_cli(capsys, "predict", "--n", "20", "--alpha", "0.25", "--p", "2")
    assert code == 0 and json.loads(out)["n"] == 20

    sim = ["simulate", "--kind", "prank", "--n", "10", "--alpha", "0.5",
           "--q", "0.4", "--p", "3", "--trials", "3"]
    with pytest.raises(SystemExit) as exc_info:
        main(sim)
    assert exc_info.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage: sandpiles simulate") and "--seed" in err

    csv_path = tmp_path / "a.csv"
    code, out, _ = run_cli(capsys, *sim, "--seed", "7", "--csv", str(csv_path))
    assert code == 0 and csv_path.exists()
    with_csv = json.loads(out)
    csv_path.unlink()
    code, out, _ = run_cli(capsys, *sim, "--seed", "7")
    assert code == 0 and not csv_path.exists()
    without_csv = json.loads(out)
    assert without_csv["config"]["master_seed"] == 7
    assert without_csv["per_trial"] == with_csv["per_trial"]
