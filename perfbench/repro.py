"""Reproducibility self-check: two traced runs with one seed count the same.

    python3 perfbench/repro.py --seed 0

Runs `perfbench/run.py --trace 1` twice on every workload in BENCHMARK.json
and compares every per-layer metric whose unit is `count` (calls, distinct
states, steps, evaluations, aborts, buckets, runs). Times are expected to
differ and are not compared. Prints one JSON line per workload and exits 1 if any count differs
or a run fails its correctness checks.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
COUNTS = [m["name"] for m in SPEC["per_layer"] if m["unit"] == "count"]


def traced_counts(workload: str, seed: int) -> tuple[bool, dict]:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed), "--trace", "1"],
        cwd=HERE.parent, capture_output=True, text=True, check=True,
    ).stdout
    result = json.loads(out.splitlines()[-1])
    return result["correct"], {k: result["metrics"][k]["value"] for k in COUNTS}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    ok = True
    for name in (w["name"] for w in SPEC["workloads"]):
        (correct_a, a), (correct_b, b) = traced_counts(name, args.seed), traced_counts(name, args.seed)
        differ = sorted(k for k in COUNTS if a[k] != b[k])
        ok &= correct_a and correct_b and not differ
        print(json.dumps({"workload": name, "seed": args.seed, "correct": correct_a and correct_b,
                          "identical": not differ, "differ": differ, "counts": a}))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
