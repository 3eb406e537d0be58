"""One benchmark run: set-up probes, the timed closed loop, and its metrics.

Load is one process and one op at a time (a closed loop with one client).
A run keeps issuing units (calls of the CLI) until the timed region has
lasted ``seconds`` and at least ``min_ops`` ops are done.  The output gate
runs after each unit, outside the timed region.  The set-up probes are spread
over the run, between units, so that their median covers the same stretch of
machine state as the timed loop.

With tracing on, even blocks of units run under :class:`tracing.Tracer` and
odd blocks run untraced, so one run yields both the per-layer numbers and the
tracing overhead on the same mix of inputs and machine state.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import asdict, dataclass, field
from pathlib import Path

import sandpiles.cli as cli
import sandpiles.harness as harness

from tracing import Tracer
from workloads import MIN_OPS, Spec, Workload

PERFBENCH = Path(__file__).resolve().parent
ROOT = PERFBENCH.parent
SETUP_SAMPLES = 7
PROBE_TIMEOUT_S = 120
# error_rate is printed but not declared in BENCHMARK.json: it is 0 when the
# program is correct, and the result's failed/attempted carry it.
ERROR_RATE_UNIT = "ratio"


@dataclass
class RunResult:
    """Everything one run measured; ``run.py`` prints and stores it."""

    workload: str
    seed: int
    traced: bool
    setup_s: list[float] = field(default_factory=list)
    latencies_ns: list[int] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    ops: dict = field(default_factory=lambda: {"traced": 0, "untraced": 0})
    timed_ns: dict = field(default_factory=lambda: {"traced": 0, "untraced": 0})
    unit_ns: list[int] = field(default_factory=list)
    ops_per_unit: int = 1
    units_per_block: int = 1
    peak_rss_mb: float = 0.0
    layers: dict = field(default_factory=dict)

    def block_rates(self) -> list[float]:
        """Ops per second of each whole block of consecutive units."""
        size = min(self.units_per_block, len(self.unit_ns))
        return [
            size * self.ops_per_unit / (sum(self.unit_ns[k : k + size]) / 1e9)
            for k in range(0, len(self.unit_ns) - size + 1, size)
        ]

    def end_to_end(self) -> dict[str, float]:
        lat_ms = [ns / 1e6 for ns in self.latencies_ns]
        return {
            "setup_s": statistics.median(self.setup_s),
            "ops_per_s": statistics.median(self.block_rates()),
            "op_ms_p50": statistics.median(lat_ms),
            "op_ms_p90": statistics.quantiles(lat_ms, n=10)[8],
            "peak_rss_mb": self.peak_rss_mb,
            "error_rate": self.failed / self.attempted,
        }


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def setup_probe(argv: list[str]) -> float:
    """Seconds from starting a fresh interpreter until one op has finished."""
    cmd = [sys.executable, str(PERFBENCH / "probe.py"), json.dumps(argv)]
    start = time.perf_counter()
    with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
        try:
            line = proc.stdout.readline().strip()
            elapsed = time.perf_counter() - start
            proc.wait(timeout=PROBE_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    if line != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed ({line!r}, exit {proc.returncode})")
    return elapsed


class _Clock:
    """Per-op latencies; sets the tracer's op id while an op runs."""

    def __init__(self, result: RunResult, tracer: Tracer | None):
        self.result = result
        self.tracer = tracer
        self.next_op = 0
        self.unit_id = None
        self._start = 0

    def begin(self) -> None:
        if self.tracer is not None:
            self.tracer.current_op = self.next_op
        self.next_op += 1
        self._start = time.perf_counter_ns()

    def end(self) -> None:
        self.result.latencies_ns.append(time.perf_counter_ns() - self._start)
        if self.tracer is not None:
            self.tracer.current_op = self.unit_id


@contextlib.contextmanager
def _trial_hooks(bounds: tuple[str, str] | None, clock: _Clock):
    """Time each simulate trial from its first harness call to its last."""
    if bounds is None:
        yield
        return
    first, last = bounds
    orig_first, orig_last = getattr(harness, first), getattr(harness, last)

    def begin(*args, **kwargs):
        clock.begin()
        return orig_first(*args, **kwargs)

    def end(*args, **kwargs):
        try:
            return orig_last(*args, **kwargs)
        finally:
            clock.end()

    setattr(harness, first, begin)
    setattr(harness, last, end)
    try:
        yield
    finally:
        setattr(harness, first, orig_first)
        setattr(harness, last, orig_last)


def run(
    spec: Spec,
    seed: int,
    seconds: float,
    trace: bool,
    expected: dict | None,
    workdir: Path,
    min_ops: int = MIN_OPS,
    setup_samples: int = SETUP_SAMPLES,
) -> tuple[RunResult, Tracer | None]:
    if seconds <= 0 or min_ops <= 0:
        raise ValueError("seconds and min_ops must be positive")
    wl = Workload(spec, seed, workdir, expected)
    rc, _ = call_cli(wl.warmup_argv())
    if rc != 0:
        raise RuntimeError(f"warm-up op exited {rc}")
    result = RunResult(
        workload=spec.name,
        seed=seed,
        traced=trace,
        ops_per_unit=wl.ops_per_unit,
        units_per_block=wl.units_per_block,
    )

    def probe_when_due() -> None:
        """Probe j of ``setup_samples`` is due once the run is j/setup_samples done."""
        done = min(
            sum(result.timed_ns.values()) / (seconds * 1e9),
            sum(result.ops.values()) / min_ops,
        )
        due = min(setup_samples, math.floor(done * setup_samples) + 1)
        while len(result.setup_s) < due:
            result.setup_s.append(setup_probe(wl.warmup_argv()))

    tracer = Tracer() if trace else None
    clock = _Clock(result, tracer)
    per_unit = wl.ops_per_unit
    unit = 0
    block = wl.units_per_block
    # A traced run needs an untraced block too, for the overhead.
    while (
        sum(result.timed_ns.values()) < seconds * 1e9
        or sum(result.ops.values()) < min_ops
        or (tracer is not None and unit < 2 * block)
    ):
        probe_when_due()
        traced = tracer is not None and (unit // block) % 2 == 0
        side = "traced" if traced else "untraced"
        argv = wl.argv(unit)
        n_lat = len(result.latencies_ns)
        if tracer is not None:
            tracer.unit = unit
            tracer.current_op = clock.unit_id = f"u{unit}"
        with tracer.installed() if traced else contextlib.nullcontext():
            with _trial_hooks(wl.trial_bounds, clock):
                if wl.trial_bounds is None:
                    clock.begin()
                start = time.perf_counter_ns()
                try:
                    rc, out = call_cli(argv)
                except Exception:  # an op that raises is counted and the loop goes on
                    rc, out = None, traceback.format_exc(limit=3)
                elapsed = time.perf_counter_ns() - start
                if wl.trial_bounds is None:
                    clock.end()
        result.timed_ns[side] += elapsed
        result.unit_ns.append(elapsed)
        result.ops[side] += per_unit
        result.attempted += per_unit
        if rc == 0:
            got, failures = wl.check(unit, out)
            result.digests[unit] = got
        else:
            failures = [f"unit {unit}: {argv[0]} exited {rc}: {out.strip()[-300:]}"]
        if len(result.latencies_ns) - n_lat != per_unit:
            failures.append(f"unit {unit}: {len(result.latencies_ns) - n_lat} ops timed, not {per_unit}")
        if failures:
            result.failed += per_unit
            result.failures.extend(failures)
        unit += 1
    probe_when_due()
    result.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        result.layers = layer_metrics(tracer, result, math.ceil(min_ops / per_unit))
    return result, tracer


def layer_metrics(tracer: Tracer, result: RunResult, prefix_units: int) -> dict[str, float]:
    """Per-op layer timings, work counts over a fixed prefix, tracing overhead.

    Timings are divided by the number of traced ops.  Work counts sum the
    traced units among the first ``prefix_units``, which every run at a seed
    completes, so they repeat exactly across runs at that seed.
    """
    ops = result.ops["traced"]
    metrics: dict[str, float] = {}
    totals = tracer.layer_totals()
    for name in tracer.known_names():
        row = totals.get(name, {"calls": 0, "ns": 0, "self_ns": 0})
        metrics[f"{name}.calls"] = row["calls"] / ops
        metrics[f"{name}.ms"] = row["ns"] / 1e6 / ops
        metrics[f"{name}.self_ms"] = row["self_ns"] / 1e6 / ops
    counts: dict[str, int] = {}
    for unit in range(prefix_units):
        for key, value in tracer.counts.get(unit, {}).items():
            counts[key] = counts.get(key, 0) + value
    for m in declared_metrics(True):
        if m["unit"] == "count":
            metrics[m["name"]] = counts.get(m["name"], 0)
    draws = counts.get("rng.SplitMix64.next_below.draws", 0)
    accepted = counts.get("rng.SplitMix64.next_below.accepted", 0)
    metrics["rng.SplitMix64.next_below.accept_ratio"] = accepted / draws if draws else 0.0
    traced_s = result.timed_ns["traced"] / 1e9
    untraced_s = result.timed_ns["untraced"] / 1e9
    traced_rate = ops / traced_s
    untraced_rate = result.ops["untraced"] / untraced_s
    metrics["trace.ops_per_s"] = traced_rate
    metrics["trace.untraced_ops_per_s"] = untraced_rate
    metrics["trace.overhead_pct"] = (untraced_rate / traced_rate - 1.0) * 100.0
    top = sum(e - s for s, e, par in zip(tracer.start, tracer.end, tracer.parent) if par < 0)
    metrics["trace.unaccounted_pct"] = (result.timed_ns["traced"] - top) / result.timed_ns["traced"] * 100.0
    return metrics


def declared_metrics(trace: bool) -> list[dict]:
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        return json.load(fh)["per_layer" if trace else "end_to_end"]


def report(result, declared: list[dict]) -> tuple[list[str], dict]:
    """Text lines for people, and the final JSON object for programs that read the result."""
    e2e = result.end_to_end()
    values = result.layers if result.traced else e2e
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing:
        raise KeyError(f"metrics not measured: {missing}")
    units = {m["name"]: m["unit"] for m in declared_metrics(False)}
    units["error_rate"] = ERROR_RATE_UNIT
    lines = [f"workload {result.workload} seed {result.seed} trace {int(result.traced)}"]
    samples = {
        "setup_s": len(result.setup_s),
        "ops_per_s": len(result.block_rates()),
        "op_ms_p50": len(result.latencies_ns),
        "op_ms_p90": len(result.latencies_ns),
    }
    for name, value in e2e.items():
        n = f"  (n={samples[name]})" if name in samples else ""
        lines.append(f"{name:<48} {value:>14.6g} {units[name]}{n}")
    if result.traced:
        for m in declared:
            lines.append(f"{m['name']:<48} {values[m['name']]:>14.6g} {m['unit']}")
    for failure in result.failures[:20]:
        lines.append(f"FAIL {failure}")
    final = {
        "correct": result.failed == 0,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in declared},
    }
    return lines, final


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str:
    """HEAD of the checkout, read from .git without running git; else unknown."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(spec: Spec, seed: int, seconds: float) -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "cpu_model": _cpu_model(),
        "git_commit": _git_commit(),
        "workload": spec.name,
        "seed": seed,
        "seconds": seconds,
        "spec": asdict(spec),
    }
