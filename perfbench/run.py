"""maskcompose benchmark: sampling throughput, set-up time and peak memory.

Run from the repository root:

    python3 perfbench/run.py                      # every workload, one table
    python3 perfbench/run.py --workload exact-3x3 --seed 3 --seconds 20 --trace 0

Each workload runs in its own fresh Python process (perfbench/measure.py),
one after another, with BLAS and OpenMP held to one thread. With --trace 0 a
workload reports setup_s, grids_per_s and peak_rss_mb; with --trace 1 it
reports the per-layer split. Every workload checks its outputs. The metric
names and units are those declared in BENCHMARK.json; a mismatch is an error.

The last line of stdout is one JSON object with the keys correct, attempted,
failed and metrics. For a single workload the metrics carry their declared
names; for all of them each name is prefixed with the workload's. The exit
code is 0 whenever a result is printed and 1 when a workload produced none.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
CHILD_TIMEOUT_S = 170  # a run must end within 180 s
ONE_THREAD = {v: "1" for v in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")}


def run_workload(name: str, seed: int, seconds: int, trace: int) -> dict | None:
    """Measure one workload in a child process; None when it gave no valid result."""
    cmd = [sys.executable, str(HERE / "measure.py"), "--workload", name, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **ONE_THREAD},
                              capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"{name}: no result within {CHILD_TIMEOUT_S} s", file=sys.stderr)
        return None
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        print(f"{name}: measure.py exited with code {proc.returncode}", file=sys.stderr)
        return None
    for line in lines[:-1]:
        print(line)
    result = json.loads(lines[-1])
    declared = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    reported = {k: m["unit"] for k, m in result["metrics"].items()}
    if reported != declared:
        print(f"{name}: metrics {sorted(reported.items())} differ from BENCHMARK.json "
              f"{sorted(declared.items())}", file=sys.stderr)
        return None
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        result = run_workload(name, args.seed, args.seconds, args.trace)
        if result is None:
            return 1
        results[name] = result
    if args.workload != "all":
        print(json.dumps(results[args.workload]))
        return 0

    print(f"\n{'workload':<14} {'metric':<28} {'value':>14}  unit")
    for name, result in results.items():
        for metric, m in result["metrics"].items():
            print(f"{name:<14} {metric:<28} {m['value']:>14.6g}  {m['unit']}")
        print(f"{name:<14} {'correct':<28} {str(result['correct']):>14}  "
              f"({result['failed']} of {result['attempted']} grids failed)")
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{name}.{k}": m for name, r in results.items() for k, m in r["metrics"].items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
