"""End-to-end benchmark of the epoch service: run one workload, gate it,
print its metrics.

    python3 e2ebench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The workload runs in a fresh child
interpreter (``workload.py``), one at a time, so ``peak_rss_mb`` is that
child's peak resident set alone.  ``--trace 0`` reports the end-to-end
metrics of an untraced run; ``--trace 1`` reports the per-layer split
from a traced run of the same workload and seed (see ``layers.py``).

The last line of standard output is one JSON object::

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

``failed`` is attempted minus committed requests, so ``failed_frac`` is
``failed / attempted``.  A run that fails the correctness gate reports
no metrics.  A child that outlives ``CHILD_TIMEOUT`` has hung: it is
killed and every request counts as failed.  The line before the result
holds the child's full record (gate problems, committed-log digest, the
service's own latency figures, the held-out seed).
"""

from __future__ import annotations

import argparse
import json
import resource
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("aptos-slot-sim", "aptos-slot-inproc", "epochs-inproc")
#: kill a child after this long: ~2.2x the longest run (a --trace 1
#: aptos-slot run, whose untraced and traced passes take ~75 s together on
#: a 2-core x86 box), the most a 180 s budget per run leaves
CHILD_TIMEOUT = 165.0


def _failed(attempted: int) -> dict:
    return {
        "correct": False,
        "attempted": attempted,
        "failed": attempted,
        "metrics": {},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if not (ROOT / "src" / "repro" / "service").is_dir():
        print(f"error: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    command = [
        sys.executable,
        str(HERE / "workload.py"),
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    try:
        child = subprocess.run(
            command, cwd=ROOT, capture_output=True, text=True, timeout=CHILD_TIMEOUT
        )
    except subprocess.TimeoutExpired as exc:
        # subprocess.run has killed and reaped the child
        lines = (exc.stdout or "").splitlines()
        attempted = json.loads(lines[0])["attempted"] if lines else 1
        print(f"error: run hung past {CHILD_TIMEOUT:.0f} s; killed", file=sys.stderr)
        print(json.dumps(_failed(attempted)))
        return 0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    lines = child.stdout.splitlines()
    if child.returncode != 0 or len(lines) < 2:
        sys.stderr.write(child.stderr)
        attempted = json.loads(lines[0])["attempted"] if lines else 1
        print(json.dumps(_failed(attempted)))
        return 1

    record = json.loads(lines[-1])
    print(json.dumps(record))
    for problem in record["problems"]:
        print(f"gate: {problem}", file=sys.stderr)
    metrics = record["metrics"]
    if not args.trace:
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    result = {
        "correct": record["correct"],
        "attempted": record["attempted"],
        "failed": record["attempted"] - record["committed"],
        "metrics": metrics if record["correct"] else {},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
