"""Set-up probe: a fresh interpreter imports sandpiles from source and runs one op.

Usage: python3 perfbench/probe.py '<CLI argv as a JSON list>'
Prints "ready" once the op has finished; the parent times it from launch.
"""

import contextlib
import io
import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import sandpiles.cli  # noqa: E402

with contextlib.redirect_stdout(io.StringIO()):
    rc = sandpiles.cli.main(json.loads(sys.argv[1]))
print("ready" if rc == 0 else f"exit {rc}", flush=True)
sys.exit(rc)
