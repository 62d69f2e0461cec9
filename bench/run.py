"""kemod benchmark entry point.

    python3 bench/run.py --workload {cjt,bundle,suite,extfield} --seed N --seconds S --trace {0,1}

Run it from the root of a kemod checkout.  Each workload runs in a worker
process of its own (bench/worker.py), which imports kemod from ./src; the
last line printed is one JSON object with the run's metrics.  The exit
code is not 0 when there is no ./src/kemod, when the worker fails, or when
it does not finish within TIMEOUT_S.
"""

from __future__ import annotations

import argparse
import subprocess
import sys
from pathlib import Path

WORKLOADS = ("cjt", "bundle", "suite", "extfield")
TIMEOUT_S = 170


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not Path("src/kemod/__init__.py").is_file():
        print("bench: no src/kemod in the current directory; run from a kemod checkout", file=sys.stderr)
        return 2
    cmd = [sys.executable, str(Path(__file__).with_name("worker.py")), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        return subprocess.run(cmd, timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        print(f"bench: {args.workload} did not finish within {TIMEOUT_S} s", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
