"""Rewrite expected.json: output digests of the workloads at the pinned seeds.

    python3 perfbench/pin.py

Run only when a change is meant to alter pinned outputs, and say why in the
change.  Every op must pass the seed-independent checks before it is pinned.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(PERFBENCH.parent / "src"))

from bench import call_cli  # noqa: E402
from workloads import SPECS, Workload, payload_key  # noqa: E402

# Seeds 1-10 and 101-110: the default seed 1, the low seeds a caller is
# likely to pass, and the seeds of the ten-run checks in CHANGES.md.
SEEDS = (*range(1, 11), *range(101, 111))


def pin_seed(spec, seed: int, workdir: Path) -> dict:
    """Digests of the units ``Workload.pin_keys`` names, at one seed."""
    wl = Workload(spec, seed, workdir)
    digests = {}
    for i in wl.pin_keys():
        rc, out = call_cli(wl.argv(i))
        got, failures = wl.check(i, out) if rc == 0 else (None, [f"exit {rc}"])
        if failures:
            raise RuntimeError(f"{spec.name} seed {seed} unit {i}: {failures}")
        digests[i] = got
    return digests


def pin(spec, seeds, workdir: Path) -> dict:
    """A workload's entry of expected.json: per-seed unit digests, or predict payloads."""
    if spec.command == "predict":  # predictions do not depend on the seed
        wl = Workload(spec, seeds[0], workdir)
        digests = pin_seed(spec, seeds[0], workdir)
        return {"payloads": {payload_key(*wl.input_of(i)): got for i, got in digests.items()}}
    units = {}
    for seed in seeds:
        digests = pin_seed(spec, seed, workdir)
        units[str(seed)] = [digests[i] for i in sorted(digests)]
    return {"units": units}


def main() -> None:
    workdir = PERFBENCH.parent / ".bench_build" / "perfbench" / "pin"
    expected = {name: pin(spec, SEEDS, workdir / name) for name, spec in SPECS.items()}
    (PERFBENCH / "expected.json").write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
