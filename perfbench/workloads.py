"""The benchmark's workloads: inputs made from a seed, the ops, and the gate.

Every op is one call of ``sandpiles.cli.main`` (one experiment of several
trials for ``simulate`` workloads), so each workload drives the program the
way a user does.  The program receives only the generated inputs: master
seeds, graph files and (alpha, p) pairs.  ``check`` validates an op's output
outside the timed region, against invariants that hold for any seed and, for
the pinned seeds, against digests in ``expected.json``.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from sandpiles.bigraph import load_graph
from sandpiles.groups import p_rank

# Ops a run completes at least, so that p90 has ten samples beyond it.
MIN_OPS = 100


@dataclass(frozen=True)
class Spec:
    """Fixed parameters of one workload; the seed supplies everything else."""

    name: str
    command: str  # the CLI subcommand one op runs
    kind: str = ""  # simulate: experiment kind
    n: int = 0  # simulate and predict: left part size
    alpha: float = 0.0
    q: float = 0.5
    p: int = 0
    trials: int = 1  # simulate: trials (= ops) per experiment
    windows: tuple = ()  # group: (alpha, n) per graph, cycled
    pool: int = 0  # group: graphs generated per run, cycled
    grid: tuple = ()  # predict: (alpha, p) pairs, one seed-shuffled pass after another


SPECS = {
    spec.name: spec
    for spec in (
        Spec("prank-gf2", "simulate", kind="prank", n=1000, alpha=0.25, p=2, trials=10),
        Spec("mcorank-gf3", "simulate", kind="m-corank", n=200, alpha=0.25, p=3, trials=20),
        Spec(
            "group-snf",
            "group",
            windows=((0.25, 80), (0.75, 60), (0.5, 60)),
            pool=120,
        ),
        Spec(
            "predict-theory",
            "predict",
            n=1000,
            grid=tuple((a, p) for a in (0.1, 0.25, 0.5, 0.75) for p in (2, 3, 5)),
        ),
    )
}

# harness names called first and last in one trial, for per-trial latency.
TRIAL_BOUNDS = {"prank": ("sample_bipartite", "p_rank"), "m-corank": ("build_M", "corank_pipeline")}


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def payload_key(alpha: float, p: int) -> str:
    """Key of a pinned predict payload in expected.json."""
    return f"{alpha}:{p}"


def _right_size(alpha: float, n: int) -> int:
    return math.floor(Fraction(str(alpha)) * n)


def _connected(n_left: int, n_right: int, edges) -> bool:
    root = list(range(n_left + n_right))

    def find(v):
        while root[v] != v:
            root[v] = root[root[v]]
            v = root[v]
        return v

    for i, j in edges:
        root[find(i)] = find(n_left + j)
    return len({find(v) for v in range(n_left + n_right)}) == 1


class Workload:
    """One workload at one seed: unit ``i`` is the i-th call of the CLI."""

    def __init__(self, spec: Spec, seed: int, workdir: Path, expected: dict | None = None):
        self.spec = spec
        self.seed = seed
        self.workdir = Path(workdir)
        self.workdir.mkdir(parents=True, exist_ok=True)
        self.expected = expected or {}
        self._rng = random.Random(seed)
        self._inputs: list = []
        self.graphs = [self._make_graph(i) for i in range(spec.pool)]

    @property
    def ops_per_unit(self) -> int:
        return self.spec.trials if self.spec.command == "simulate" else 1

    @property
    def units_per_block(self) -> int:
        """Units that give every workload input its share: a window cycle or a grid pass."""
        return len(self.spec.windows or self.spec.grid) or 1

    @property
    def trial_bounds(self) -> tuple[str, str] | None:
        return TRIAL_BOUNDS.get(self.spec.kind)

    def _make_graph(self, i: int) -> Path:
        alpha, n = self.spec.windows[i % len(self.spec.windows)]
        n_right = _right_size(alpha, n)
        for attempt in range(100):
            rng = random.Random(f"{self.seed}:{i}:{attempt}")
            edges = [
                [a, b] for a in range(n) for b in range(n_right) if rng.random() < self.spec.q
            ]
            if _connected(n, n_right, edges):
                break
        else:
            raise RuntimeError(f"no connected graph drawn for graph {i}")
        path = self.workdir / f"graph-{i}.json"
        path.write_text(json.dumps({"n_left": n, "n_right": n_right, "edges": edges}))
        return path

    def input_of(self, i: int):
        """Seed-derived input of unit i: a master seed or an (alpha, p) pair."""
        spec = self.spec
        while len(self._inputs) <= i:
            if spec.command == "simulate":
                self._inputs.append(self._rng.getrandbits(64))
            else:
                batch = list(spec.grid)
                self._rng.shuffle(batch)
                self._inputs.extend(batch)
        return self._inputs[i]

    def out_path(self, i: int) -> Path:
        return self.workdir / f"result-{i % 2}.json"

    def argv(self, i: int, trials: int | None = None) -> list[str]:
        spec = self.spec
        if spec.command == "group":
            return ["group", "--edges", str(self.graphs[i % spec.pool])]
        if spec.command == "predict":
            alpha, p = self.input_of(i)
            return ["predict", "--n", str(spec.n), "--alpha", str(alpha), "--p", str(p)]
        return [
            "simulate", "--kind", spec.kind, "--n", str(spec.n), "--alpha", str(spec.alpha),
            "--q", str(spec.q), "--p", str(spec.p), "--trials", str(trials or spec.trials),
            "--seed", str(self.input_of(i)), "--out", str(self.out_path(i)),
        ]

    def warmup_argv(self) -> list[str]:
        """One op, as in unit 0: a single trial for simulate workloads."""
        return self.argv(0, trials=1)

    def check(self, i: int, stdout: str) -> tuple[str | None, list[str]]:
        """(digest, failures) of unit i's output; runs outside the timed region."""
        try:
            if self.spec.command == "simulate":
                return self._check_simulate(i)
            if self.spec.command == "group":
                return self._check_group(i, json.loads(stdout))
            return self._check_predict(i, json.loads(stdout))
        except (OSError, ValueError, KeyError, TypeError) as exc:
            return None, [f"unit {i}: unreadable output: {exc!r}"]

    def _pinned(self, key: int) -> str | None:
        units = self.expected.get("units", {}).get(str(self.seed), [])
        return units[key] if key < len(units) else None

    def _compare(self, key: int, got: str, failures: list[str]) -> None:
        want = self._pinned(key)
        if want is not None and want != got:
            failures.append(f"input {key}: digest {got} != pinned {want}")

    def _check_simulate(self, i: int):
        spec = self.spec
        result = json.loads(self.out_path(i).read_text())
        obs = result["per_trial"]
        failures = []
        if len(obs) != spec.trials:
            failures.append(f"unit {i}: {len(obs)} observations for {spec.trials} trials")
        if result["config"]["master_seed"] != self.input_of(i):
            failures.append(f"unit {i}: result is for another seed")
        if any(not 0 <= x <= spec.n + _right_size(spec.alpha, spec.n) for x in obs):
            failures.append(f"unit {i}: observation outside [0, N]")
        if obs and not math.isclose(result["mean"], sum(obs) / len(obs), rel_tol=1e-12, abs_tol=1e-12):
            failures.append(f"unit {i}: mean does not match per_trial")
        if result["comparison"] is None:
            failures.append(f"unit {i}: no comparison to theory")
        if spec.kind == "m-corank" and result["extras"].get("schur_all_equal") is not True:
            failures.append(f"unit {i}: Schur corank differs from the direct corank")
        got = digest(obs)
        self._compare(i, got, failures)
        return got, failures

    def _check_group(self, i: int, out: dict):
        key = i % self.spec.pool
        factors = out["invariant_factors"]
        order = int(out["order"])
        failures = []
        if out["n_components"] != 1:
            failures.append(f"graph {key}: {out['n_components']} components, drawn connected")
        if any(b % a for a, b in zip(factors, factors[1:])) or order != math.prod(factors):
            failures.append(f"graph {key}: factors {factors} are not a chain of order {order}")
        if out["spanning_trees"] is None or int(out["spanning_trees"]) != order:
            failures.append(f"graph {key}: spanning trees {out['spanning_trees']} != order {order}")
        g = load_graph(self.graphs[key])
        for p in (2, 3):
            mult = sum(1 for d in factors if d % p == 0)
            if p_rank(g, p) != mult:
                failures.append(f"graph {key}: p_rank(g, {p}) != multiplicity {mult}")
        got = digest({"factors": factors, "order": out["order"]})
        self._compare(key, got, failures)
        return got, failures

    def _check_predict(self, i: int, payload: dict):
        alpha, p = self.input_of(i)
        failures = []
        total = sum(prob for _k, prob in payload["distribution"]["pmf"])
        if abs(total - 1.0) > 1e-9:
            failures.append(f"({alpha}, {p}): pmf sums to {total}")
        cut = Fraction(1, p)
        a = Fraction(str(alpha))
        regime = "subcritical" if a < cut else "supercritical" if a > cut else "critical"
        if payload["regime"] != regime:
            failures.append(f"({alpha}, {p}): regime {payload['regime']!r}, expected {regime!r}")
        got = digest(payload)
        want = self.expected.get("payloads", {}).get(payload_key(alpha, p))
        if want is not None and want != got:
            failures.append(f"({alpha}, {p}): digest {got} != pinned {want}")
        return got, failures

    def pin_keys(self) -> range:
        """Units whose digests ``expected.json`` pins at each pinned seed."""
        if self.spec.command == "simulate":
            return range(math.ceil(MIN_OPS / self.spec.trials))
        if self.spec.command == "group":
            return range(self.spec.pool)
        return range(len(self.spec.grid))
