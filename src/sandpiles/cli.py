"""Command-line interface.

Usage:
    sandpiles simulate --kind prank --n 100 --alpha 0.25 --q 0.5 --p 2 \\
        --trials 200 --seed 7 [--out result.json] [--csv trials.csv]
    sandpiles predict --n 100 --alpha 0.25 --p 2
    sandpiles group --edges graph.json
    sandpiles verify

Exit codes: 0 on success, 1 when a verification check fails, 2 for invalid
configuration, unreadable input or a refused memory allocation.

``simulate``, ``predict`` and ``group`` print one JSON document, on one line
followed by a newline; ``--out`` files and ``save_graph`` files have the same
form.  Without ``indent``, ``json.dumps`` runs CPython's C encoder, which
writes a 900-row ``predict`` pmf in under half the time of the pure-Python
encoder that ``indent`` selects.  ``python -m json.tool`` indents any of them
for reading.

``main`` parses with one parser per process (:func:`build_parser` is cached),
so a process that calls it once per op, such as a test or a benchmark loop,
builds the parser once.  ``parse_args`` returns a fresh namespace each call,
so no argument carries over from one call to the next.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from .bigraph import component_labels, load_graph
from .errors import GuardExceededError, InvalidParamsError
from .groups import sandpile_group, spanning_tree_count
from .harness import (
    EXPERIMENT_KINDS,
    SWEEP_KINDS,
    ExperimentConfig,
    run_experiment,
    write_result_json,
    write_trials_csv,
)
from .theory import expected_excess_exact, expected_rank_asymptotic, rank_pmf_theoretical
from . import verify as verify_mod

# Largest n that ``predict`` computes.  What is timed: the whole command,
# ``main(["predict", "--n", n, "--alpha", "0.25", "--p", p])`` with stdout
# sent to /dev/null, so argument parsing, the three theory calls and the JSON
# encoding and printing of the n - n/4 + 1 pmf rows.  In process on a 2-core
# host (Python 3.11), best of 3 (of 1 for the last column); the 2 * 10**4 row
# was timed with the guard raised:
#
#     n          p = 2         p = 5         p = 2**61 - 1
#     10**4      0.06 s        0.09 s         3.0-3.2 s
#     2 * 10**4  0.15-0.17 s   0.24-0.26 s   12.5-12.6 s
#
# The two passes step at most n + 1 numerators together (the excess the
# shorter side of the cut, the pmf the terms above it), each of up to
# n*log2(p) bits, so the cost still grows about as n**2 * log(p), and the
# largest primes set the limit.
PREDICT_N_GUARD = 10**4


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sandpiles",
        description=(
            "Exact sandpile groups and p-ranks of random bipartite graphs, "
            "with seeded Monte Carlo experiments against the predicted "
            "truncated-binomial rank law."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a seeded Monte Carlo experiment")
    sim.add_argument("--kind", required=True, choices=EXPERIMENT_KINDS)
    sim.add_argument("--n", required=True, type=int, help="left part size")
    sim.add_argument("--alpha", required=True, type=float, help="right/left size ratio")
    sim.add_argument("--q", required=True, type=float, help="edge probability")
    sim.add_argument("--p", required=True, type=int, help="prime for the p-rank")
    sim.add_argument("--trials", required=True, type=int)
    sim.add_argument("--seed", required=True, type=int, help="64-bit master seed")
    sim.add_argument("--out", help="write the JSON summary here instead of stdout")
    sim.add_argument("--csv", help="write per-trial (trial, seed, observation) rows")

    pred = sub.add_parser("predict", help="closed-form predictions, no simulation")
    pred.add_argument("--n", required=True, type=int)
    pred.add_argument("--alpha", required=True, type=float)
    pred.add_argument("--p", required=True, type=int)

    grp = sub.add_parser("group", help="exact sandpile group of one explicit graph")
    grp.add_argument("--edges", required=True, help="path to a graph JSON file")

    sub.add_parser("verify", help="run the built-in correctness checks")
    return parser


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig(
        kind=args.kind,
        n=args.n,
        alpha=args.alpha,
        q=args.q,
        p=args.p,
        trials=args.trials,
        master_seed=args.seed,
        output_path=args.out,
    )
    if args.csv is not None and cfg.kind in SWEEP_KINDS:
        raise InvalidParamsError(
            f"--csv is not available for kind {cfg.kind!r} (no single per-trial series)"
        )
    result = run_experiment(cfg)
    if args.csv is not None:
        write_trials_csv(result, args.csv)
    if args.out is not None:
        write_result_json(result, args.out)
    else:
        print(json.dumps(result.to_json()))
    return 0


def _cmd_predict(args) -> int:
    if args.n > PREDICT_N_GUARD:
        raise GuardExceededError(
            f"--n {args.n} exceeds the prediction guard ({PREDICT_N_GUARD}); use a smaller n"
        )
    mean, regime = expected_rank_asymptotic(args.n, args.alpha, args.p)
    payload = {
        "schema": 1,
        "n": args.n,
        "alpha": args.alpha,
        "p": args.p,
        "regime": regime,
        "asymptotic_mean": mean,
        "expected_excess_exact": expected_excess_exact(args.n, args.alpha, args.p),
        "distribution": rank_pmf_theoretical(args.n, args.alpha, args.p).to_json(),
    }
    print(json.dumps(payload))
    return 0


def _cmd_group(args) -> int:
    g = load_graph(args.edges)
    # The three steps share one component search, kept on ``g``.
    invariants = sandpile_group(g)
    n_components, _ = component_labels(g)
    trees = spanning_tree_count(g) if n_components == 1 else None
    if trees is not None and trees != invariants.order:
        raise RuntimeError(
            f"group order {invariants.order} differs from the tree count {trees}"
        )
    payload = {
        "schema": 1,
        "n_left": g.n_left,
        "n_right": g.n_right,
        "n_edges": g.n_edges,
        "n_components": n_components,
        "invariant_factors": list(invariants.factors),
        "order": str(invariants.order),
        "cyclic": invariants.is_cyclic,
        "spanning_trees": None if trees is None else str(trees),
    }
    print(json.dumps(payload))
    return 0


def _cmd_verify() -> int:
    checks = verify_mod.run_all()
    for check in checks:
        status = "PASS" if check.passed else "FAIL"
        print(f"{status} {check.name}: {check.detail}")
    failed = sum(1 for c in checks if not c.passed)
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "simulate":
            return _cmd_simulate(args)
        if args.command == "predict":
            return _cmd_predict(args)
        if args.command == "group":
            return _cmd_group(args)
        return _cmd_verify()
    except (ValueError, OSError, MemoryError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
