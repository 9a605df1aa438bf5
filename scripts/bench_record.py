"""Record one BENCH file: machine, acceptance headroom, tier-1 wall time, benchmark.

    python3 scripts/bench_record.py --json BENCH_6.json

Measures the checkout that holds this script and writes one JSON object:

- commit and dirty: `git rev-parse HEAD` of the checkout, and whether its
  worktree had uncommitted changes when the run began; both null when git
  cannot tell;
- machine: platform, CPU model and count, Python and numpy versions;
- criteria: each acceptance criterion's elapsed time, budget and
  elapsed/budget, run in this process in the order of run_acceptance();
  a ratio above HEADROOM_FLAG is flagged before it turns into a failure;
- tier1: wall time and summary line of the tier-1 pytest run;
- perfbench: the median over PERFBENCH_RUNS runs of every metric in the
  last-line JSON of `python3 perfbench/run.py`, with each run's values kept
  too.

Two BENCH files compare only when they name the same machine.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
HEADROOM_FLAG = 0.67
PERFBENCH_RUNS = 3
TIER1 = [sys.executable, "-m", "pytest", "-q", "--continue-on-collection-errors"]


def _env() -> dict:
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": f"{SRC}:{path}" if path else str(SRC)}


def revision() -> dict:
    """The commit measured and whether the worktree differs from it."""
    def git(*args) -> str:
        return subprocess.run(
            ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
        ).stdout.strip()

    try:
        return {"commit": git("rev-parse", "HEAD"), "dirty": bool(git("status", "--porcelain"))}
    except (OSError, subprocess.CalledProcessError):
        return {"commit": None, "dirty": None}


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "platform": platform.platform(),
        "cpu": cpu,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def criteria() -> list[dict]:
    sys.path.insert(0, str(SRC))
    from maskcompose.acceptance import run_acceptance

    rows = []
    for r in run_acceptance():
        ratio = r.elapsed_s / r.budget_s
        print(r.line(), flush=True)
        rows.append({
            "name": r.name,
            "passed": r.passed,
            "elapsed_s": round(r.elapsed_s, 3),
            "budget_s": r.budget_s,
            "elapsed_over_budget": round(ratio, 4),
            "flagged": ratio > HEADROOM_FLAG,
        })
    return rows


def tier1() -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(TIER1, cwd=ROOT, env=_env(), capture_output=True, text=True)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    summary = lines[-1] if lines else ""
    print(f"tier-1: {summary} ({wall:.1f} s)", flush=True)
    return {"wall_s": round(wall, 2), "exit_code": proc.returncode, "summary": summary}


def perfbench() -> dict:
    results = []
    for i in range(PERFBENCH_RUNS):
        proc = subprocess.run([sys.executable, "perfbench/run.py"], cwd=ROOT,
                              capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"perfbench run {i} exited with {proc.returncode}:\n{proc.stderr}")
        results.append(json.loads(lines[-1]))
        print(f"perfbench run {i}: correct={results[-1]['correct']}", flush=True)
    names = results[0]["metrics"]
    return {
        "runs": PERFBENCH_RUNS,
        "correct": all(r["correct"] for r in results),
        "median": {
            k: {"value": statistics.median(r["metrics"][k]["value"] for r in results),
                "unit": m["unit"]}
            for k, m in names.items()
        },
        "values": {k: [r["metrics"][k]["value"] for r in results] for k in names},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--json", required=True, type=Path, help="where to write the record")
    args = ap.parse_args(argv)

    record = {**revision(), "machine": machine(), "criteria": criteria()}
    record["headroom_flagged"] = [c["name"] for c in record["criteria"] if c["flagged"]]
    record["tier1"] = tier1()
    record["perfbench"] = perfbench()
    args.json.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {args.json}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
