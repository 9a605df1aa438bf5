"""Sweep one condition's weight and watch its satisfaction rate move.

Negative weights suppress the condition below the unconditional rate, zero
recovers it, and large positive weights saturate it. Prints a small table
plus the exact unconditional rate from enumeration.

    python scripts/weight_sweep.py --n-samples 2000 --seed 0
"""

import argparse
import sys

from maskcompose.evalharness import run_negation_eval
from maskcompose.sampler import SamplerSchedule
from maskcompose.worlds import build_scene_world, exact_conditional_model, object_at_cell


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=2, help="square grid side")
    ap.add_argument("--max-objects", type=int, default=4)
    ap.add_argument("--n-samples", type=int, default=2000, help="runs per weight")
    ap.add_argument(
        "--weights", type=float, nargs="+",
        default=[-3.0, -2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0, 3.0],
    )
    ap.add_argument("--temperature", type=float, default=1.0)
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    world = build_scene_world(
        args.grid, args.grid, n_shapes=1, n_colors=1, max_objects=args.max_objects
    )
    model = exact_conditional_model(world)
    cond = object_at_cell(0, 0)
    result = run_negation_eval(
        model, world, cond, args.n_samples,
        weights=args.weights,
        sched=SamplerSchedule(temperature=args.temperature),
        rng_seed=args.seed,
    )

    print(f"condition {cond.key()}, exact unconditional rate {result.p0_exact:.4f}")
    print(f"{'weight':>8}  {'rate':>8}  {'2sig':>8}  {'aborts':>6}")
    for w, r, s, a in zip(result.weights, result.rates, result.sigmas, result.aborts):
        bar = "#" * round(r * 40)
        print(f"{w:>8.1f}  {r:>8.4f}  {s:>8.4f}  {a:>6}  {bar}")
    soft, hard = result.monotone_violations()
    print(f"monotonicity: {hard} hard / {soft} soft adjacent violations")
    return 0


if __name__ == "__main__":
    sys.exit(main())
