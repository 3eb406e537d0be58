"""The sandpiles benchmark command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Builds nothing: the program is imported
from ``src/``.  Prints one line per metric (name, value, unit), a provenance
line, and last a JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics of BENCHMARK.json with ``--trace 0``,
its per-layer metrics with ``--trace 1``.  Exits 1 when any op failed the
output gate and 2 when the program or the arguments are unusable.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 1  # one of the seeds expected.json pins digests for
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sandpiles" / "__init__.py").is_file():
        print(f"error: no program to benchmark: {ROOT / 'src' / 'sandpiles'} is missing", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    for var in BLAS_THREAD_VARS:  # before numpy is first imported
        os.environ[var] = str(nproc)
    sys.path.insert(0, str(ROOT / "src"))

    import bench
    from workloads import SPECS

    if args.workload not in SPECS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(SPECS)}", file=sys.stderr)
        return 2
    spec = SPECS[args.workload]
    with open(Path(__file__).parent / "expected.json", encoding="utf-8") as fh:
        expected = json.load(fh).get(spec.name)
    out_dir = ROOT / ".bench_build" / "perfbench"
    workdir = out_dir / f"work-{spec.name}"
    result, tracer = bench.run(spec, args.seed, args.seconds, bool(args.trace), expected, workdir)
    prov = bench.provenance(spec, args.seed, args.seconds)
    lines, final = bench.report(result, bench.declared_metrics(bool(args.trace)))
    stem = f"{spec.name}-seed{args.seed}-trace{args.trace}"
    record = {
        "provenance": prov,
        "end_to_end": result.end_to_end(),
        "per_layer": result.layers,
        "samples": {
            "ops": result.ops,
            "setup_s": result.setup_s,
            "op_ms": [ns / 1e6 for ns in result.latencies_ns],
            "ops_per_s_blocks": result.block_rates(),
        },
        "digests": result.digests,
        "failures": result.failures,
        "result": final,
    }
    (out_dir / f"result-{stem}.json").write_text(json.dumps(record, indent=1))
    if tracer is not None:
        with open(out_dir / f"spans-{stem}.csv", "w", encoding="utf-8") as fh:
            fh.write("name,start_ns,end_ns,parent,op\n")
            for span in tracer.spans():
                fh.write(",".join(map(str, span)) + "\n")
    print("\n".join(lines))
    print(json.dumps({"provenance": prov}))
    print(json.dumps(final))
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
