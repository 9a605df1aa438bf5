"""Compose past the training distribution and draw what comes back.

Trains a count model on scenes holding at most --train-max objects, then
asks it to satisfy --n-conditions positional conditions at once, a scene
density it never saw. Composed generation places every requested object in
most runs; the same model queried with the conditions as one joint prompt
falls back to unconditional behavior and almost never does. The world is
acceptance criterion 5's, one shape in two colors with up to 4 objects, so
the composed runs can land on many satisfying support grids. Prints ASCII
grids and the paired satisfaction rates, with the distinct satisfying support
grids and each arm's off-support share.

    python scripts/ood_demo.py --runs 12 --seed 0
"""

import argparse
import sys
from dataclasses import replace

import numpy as np

from maskcompose.countmodel import fit_count_model
from maskcompose.evalharness import predicate_pool, run_ood_eval
from maskcompose.sampler import MaskedState, SamplerSchedule, run_to_completion
from maskcompose.worlds import build_scene_world


def ascii_grid(tokens, w, h, marked):
    rows = []
    for r in range(h):
        cells = []
        for c in range(w):
            tok = tokens[r * w + c]
            cells.append(str(tok) if tok else ("." if (c, r) not in marked else "_"))
        rows.append(" ".join(cells))
    return rows


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--grid", type=int, default=3)
    ap.add_argument("--train-max", type=int, default=2)
    ap.add_argument("--n-conditions", type=int, default=3)
    ap.add_argument("--n-train", type=int, default=30_000)
    ap.add_argument("--runs", type=int, default=12, help="grids to print")
    ap.add_argument("--eval-runs", type=int, default=100, help="runs per rate")
    ap.add_argument("--seed", type=int, default=0)
    args = ap.parse_args(argv)

    # acceptance criterion 5's world: one shape in two colors, up to 4 objects
    world = build_scene_world(
        args.grid, args.grid, n_shapes=1, n_colors=2,
        max_objects=max(4, args.n_conditions, args.train_max),
    )
    result = run_ood_eval(
        world, args.train_max, args.n_conditions,
        n_runs=args.eval_runs, n_train=args.n_train, rng_seed=args.seed,
    )
    conds = [
        c for c in predicate_pool(world)
        if list(c.key()) in [list(k) for k in result.condition_keys]
    ]
    marked = {(c.payload[0], c.payload[1]) for c in conds}
    print(
        f"trained on <= {args.train_max} objects; composing {len(conds)} "
        f"conditions: {[c.key() for c in conds]}"
    )
    print(
        f"composed rate {result.composed_rate:.2f} "
        f"({result.composed_distinct_in_support} distinct satisfying support grids, "
        f"off-support {result.composed_off_support:.2f}, {result.composed_aborts} aborts) vs "
        f"joint-prompt baseline {result.baseline_rate:.2f} "
        f"(off-support {result.baseline_off_support:.2f}, {result.baseline_aborts} aborts) "
        f"over {result.n_runs} runs\n"
    )

    model = fit_count_model(
        world, args.n_train, rng_seed=args.seed,
        training_max_objects=args.train_max,
    )
    sched = SamplerSchedule()
    weights = [1.0] * len(conds)
    legend = "(digit: object token, . empty, _ requested but empty)"
    print(f"composed samples {legend}:")
    blocks = []
    for i in range(args.runs):
        tokens, _ = run_to_completion(
            MaskedState.fully_masked(world.length), model, conds, weights,
            replace(sched, rng_seed=args.seed * 1000 + i),
        )
        ok = bool(world.check_conditions(tokens, conds).all())
        rows = ascii_grid(tokens, world.grid_w, world.grid_h, marked)
        blocks.append(rows + ["ok" if ok else "miss"])
    width = max(len(r) for b in blocks for r in b) + 3
    per_row = max(1, 72 // width)
    for start in range(0, len(blocks), per_row):
        group = blocks[start : start + per_row]
        for line in range(len(group[0])):
            print("".join(b[line].ljust(width) for b in group))
        print()
    return 0


if __name__ == "__main__":
    sys.exit(main())
