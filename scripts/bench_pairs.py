"""Compare two trees on the benchmark in alternating pairs of fresh copies.

    python3 scripts/bench_pairs.py PARENT CHILD --pairs 10
    python3 scripts/bench_pairs.py HEAD~1 . --pairs 10 --workload count-3x3 --seed 1

PARENT and CHILD are each a directory (a checkout, uncommitted changes
included) or a git revision of the repository that holds this script. Each
run copies its tree into a new temporary directory, outside the repository,
and runs `python3 perfbench/run.py` there with the given workload and seed at
the declared run time. Pair i runs the parent first when i is even and the
child first when it is odd, so a slow spell of the machine does not always
fall on one tree. Nothing is written under either tree.

For every end-to-end metric of BENCHMARK.json the script prints the parent's
median and quartiles, the child's median, the change and the pairs the child
won, then a verdict against the declared bounds:

- worse: the child's median is worse than the parent's by more than the
  metric's bound;
- gain: the child won at least GAIN_SHARE of the pairs, and its median is
  better than the parent's by more than the parent's interquartile range;
- flat: neither.

It also compares the share of failed grids, and whether every round's check
lines (the PASS/FAIL lines measure.py prints) are the same strings in all
runs of both trees. The exit code is 0 when no metric is worse, no larger
share fails and the check lines match, and 1 otherwise.
"""

from __future__ import annotations

import argparse
import io
import json
import re
import shutil
import statistics
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
GAIN_SHARE = 0.9
_COPY_IGNORE = shutil.ignore_patterns(
    ".git", "__pycache__", "*.pyc", ".pytest_cache", ".hypothesis", "runs"
)
_ROUNDS = re.compile(r"^(\S+): \d+ rounds, ")
_CHECK = re.compile(r"^(?:PASS|FAIL) (round \d+): ")


@dataclass
class Row:
    """One metric's comparison: the parent's median and quartiles, the
    child's median, the relative change, pairs won and the verdict."""

    metric: str
    parent_median: float
    parent_q1: float
    parent_q3: float
    child_median: float
    change: float
    won: int
    pairs: int
    verdict: str


def compare(metric: str, parent: list[float], child: list[float], better: str,
            bound: float) -> Row:
    """The verdict on one metric from paired series; pair i is (parent[i],
    child[i]). better is "higher" or "lower"; bound is the largest relative
    change for the worse that still passes."""
    if len(parent) != len(child) or len(parent) < 2:
        raise ValueError(f"{metric}: need two equal series of at least 2 runs")
    sign = 1.0 if better == "higher" else -1.0
    q1, median, q3 = statistics.quantiles(parent, n=4, method="inclusive")
    child_median = statistics.median(child)
    change = (child_median - median) / median if median else 0.0
    won = sum(sign * (c - p) > 0 for p, c in zip(parent, child))
    if -sign * change > bound:
        verdict = "worse"
    elif won >= GAIN_SHARE * len(parent) and sign * (child_median - median) > q3 - q1:
        verdict = "gain"
    else:
        verdict = "flat"
    return Row(metric, median, q1, q3, child_median, change, won, len(parent), verdict)


def check_lines(stdout: str) -> dict[tuple[str, str], str]:
    """Each (workload, round) check line of one run.py output."""
    lines, workload = {}, None
    for line in stdout.splitlines():
        m = _ROUNDS.match(line)
        if m:
            workload = m.group(1)
            continue
        m = _CHECK.match(line)
        if m and workload is not None:
            lines.setdefault((workload, m.group(1)), []).append(line)
    return {k: "\n".join(v) for k, v in lines.items()}


def mismatched_checks(runs: list[dict[tuple[str, str], str]]) -> list[tuple[str, str]]:
    """The (workload, round) keys whose check lines differ between runs that
    reached that round."""
    seen: dict[tuple[str, str], set] = {}
    for run in runs:
        for key, text in run.items():
            seen.setdefault(key, set()).add(text)
    return sorted(key for key, texts in seen.items() if len(texts) > 1)


def _copy_tree(tree: str, dest: Path):
    """A fresh copy of a directory, or of a revision through git archive."""
    src = Path(tree)
    if src.is_dir():
        shutil.copytree(src, dest, ignore=_COPY_IGNORE)
        return
    archive = subprocess.run(["git", "archive", "--format=tar", tree], cwd=ROOT,
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(tree: str, workload: str, seed: int) -> tuple[dict, dict, str]:
    """run.py's last-line result and its check lines, from a fresh copy of tree."""
    with tempfile.TemporaryDirectory(prefix="bench_pairs_") as tmp:
        copy = Path(tmp) / "tree"
        _copy_tree(tree, copy)
        cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed)]
        proc = subprocess.run(cmd, cwd=copy, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{tree}: run.py exited with {proc.returncode}:\n{proc.stderr}")
    result = json.loads(lines[-1])
    metrics = {k: m["value"] for k, m in result["metrics"].items()}
    if workload != "all":
        metrics = {f"{workload}.{k}": v for k, v in metrics.items()}
    return result, metrics, proc.stdout


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", help="directory or git revision of the parent tree")
    ap.add_argument("child", help="directory or git revision of the changed tree")
    ap.add_argument("--pairs", type=int, required=True)
    ap.add_argument("--workload", default="all")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)
    if args.pairs < 2:
        ap.error("--pairs must be at least 2")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"]: m for m in spec["end_to_end"]}
    trees = {"parent": args.parent, "child": args.child}
    series = {"parent": {}, "child": {}}
    totals = {side: [0, 0] for side in trees}  # attempted, failed
    checks = []
    for i in range(args.pairs):
        for side in ("parent", "child") if i % 2 == 0 else ("child", "parent"):
            result, metrics, stdout = run_once(trees[side], args.workload, args.seed)
            for k, v in metrics.items():
                series[side].setdefault(k, []).append(v)
            totals[side][0] += result["attempted"]
            totals[side][1] += result["failed"]
            checks.append(check_lines(stdout))
            print(f"pair {i} {side}: correct={result['correct']} "
                  + " ".join(f"{k}={v:.6g}" for k, v in metrics.items()), flush=True)

    rows = []
    for key in series["parent"]:
        meta = declared[key.split(".", 1)[1]]
        rows.append(compare(key, series["parent"][key], series["child"][key],
                            meta["better"], meta["bound"]))
    print(f"\n{'metric':<26} {'parent median [q1, q3]':>36} {'child':>12} "
          f"{'change':>8} {'won':>6}  verdict")
    for r in rows:
        spread = f"{r.parent_median:.6g} [{r.parent_q1:.6g}, {r.parent_q3:.6g}]"
        print(f"{r.metric:<26} {spread:>36} {r.child_median:>12.6g} "
              f"{100 * r.change:>+7.2f}% {r.won:>3}/{r.pairs:<2}  {r.verdict}")
    share = {side: failed / attempted if attempted else 0.0
             for side, (attempted, failed) in totals.items()}
    print(f"failed grids: parent {totals['parent'][1]} of {totals['parent'][0]}, "
          f"child {totals['child'][1]} of {totals['child'][0]}")
    mismatched = mismatched_checks(checks)
    print(f"check lines: {len({k for run in checks for k in run})} workload rounds, "
          + ("all equal across both trees" if not mismatched
             else f"{len(mismatched)} differ: {mismatched}"))
    refused = (any(r.verdict == "worse" for r in rows) or share["child"] > share["parent"]
               or bool(mismatched))
    gains = [r.metric for r in rows if r.verdict == "gain"]
    print(f"verdict: {'REFUSE' if refused else 'OK'}; gains: {', '.join(gains) or 'none'}")
    return 1 if refused else 0


if __name__ == "__main__":
    sys.exit(main())
