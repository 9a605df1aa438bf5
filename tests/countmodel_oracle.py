"""Reference count model: the per-sample loop fit and the dict lookup.

The package's CountModel freezes its counts into sorted integer codes and
fits with np.unique over whole chunks of samples. This module keeps the
direct formulation, one Python dict entry per bucket and one loop iteration
per training sample, so tests can check the fast path against it bit for
bit. The training-pair loops are the direct forms of the worlds'
sample_training_pairs and draw the same random stream.
"""

from __future__ import annotations

import numpy as np

from maskcompose.countmodel import neighbor_lists
from maskcompose.sampler import MASK
from maskcompose.worlds import (
    EMPTY_TOKEN,
    UNCONDITIONAL_KEY,
    FactorizedWorld,
    SceneWorld,
    cell_table,
    cond_key,
    object_at_cell,
)


def scene_training_pairs(world: SceneWorld, rng, n):
    grids = world.prior_sample(rng, n)
    conds = []
    for g in grids:
        occupied = np.flatnonzero(g != EMPTY_TOKEN)
        if occupied.size == 0:
            conds.append(None)
            continue
        idx = int(occupied[rng.integers(occupied.size)])
        conds.append(object_at_cell(idx % world.grid_w, idx // world.grid_w))
    return grids, conds


def factorized_training_pairs(world: FactorizedWorld, rng, n):
    names = sorted(world.table_conditions)
    if not names:
        return world.prior_sample(rng, n), [None] * n
    which = rng.integers(len(names), size=n)
    grids = np.empty((n, world.length), dtype=np.int16)
    u = rng.random((n, world.length))
    cums = {
        name: np.cumsum(world.conditional_tables(cell_table(name)), axis=1) for name in names
    }
    for i in range(n):
        cum = cums[names[which[i]]]
        for p in range(world.length):
            grids[i, p] = min(
                int(np.searchsorted(cum[p], u[i, p], side="right")), world.vocab_size - 1
            )
    return grids, [cell_table(names[w]) for w in which]


def training_pairs(world, rng, n):
    if isinstance(world, SceneWorld):
        return scene_training_pairs(world, rng, n)
    return factorized_training_pairs(world, rng, n)


def signature(neighbors, tokens, pos) -> tuple[int, ...]:
    return tuple(sorted(int(tokens[q]) for q in neighbors[pos] if tokens[q] != MASK))


def observe(counts: dict, neighbors, vocab_size, view, grid, key):
    """Record every masked position of `view` with its true token."""
    for p in np.flatnonzero(view == MASK):
        bucket_key = (int(p), signature(neighbors, view, int(p)), key)
        bucket = counts.get(bucket_key)
        if bucket is None:
            bucket = np.zeros(vocab_size, dtype=np.int64)
            counts[bucket_key] = bucket
        bucket[int(grid[p])] += 1


def fit_counts(
    world, n_samples, dropout_prob=0.1, rng_seed=0, training_max_objects=None
) -> dict:
    train_world = world
    if training_max_objects is not None:
        train_world = world.restrict(training_max_objects)
    neighbors = neighbor_lists(world.grid_w, world.grid_h)
    counts = {}
    rng = np.random.default_rng(rng_seed)
    grids, conds = training_pairs(train_world, rng, n_samples)
    drop = rng.random(n_samples) < dropout_prob
    rates = rng.random(n_samples)
    mask_draws = rng.random((n_samples, world.length))
    for i in range(n_samples):
        maskbits = mask_draws[i] < rates[i]
        if not maskbits.any():
            continue
        cond = None if drop[i] else conds[i]
        view = grids[i].copy()
        view[maskbits] = MASK
        observe(counts, neighbors, world.vocab_size, view, grids[i], cond_key(cond))
    return counts


def bucket(counts: dict, pos: int, sig: tuple, key: tuple):
    """The first populated bucket of the backoff chain and its level, or (None, None)."""
    chain = (
        (pos, sig, key),
        (pos, (), key),
        (pos, sig, UNCONDITIONAL_KEY),
        (pos, (), UNCONDITIONAL_KEY),
    )
    for level, cand in enumerate(chain):
        found = counts.get(cand)
        if found is not None and found.sum() > 0:
            return found, level
    return None, None


def predict(counts: dict, neighbors, vocab_size, alpha, tokens, condition=None) -> dict:
    key = cond_key(condition)
    out = {}
    with np.errstate(divide="ignore"):
        for p in np.flatnonzero(tokens == MASK):
            p = int(p)
            found, _ = bucket(counts, p, signature(neighbors, tokens, p), key)
            if found is None:
                found = np.zeros(vocab_size, dtype=np.int64)
            total = float(found.sum())
            denom = total + vocab_size * alpha
            if denom == 0.0:  # alpha 0 and nothing observed: fall to uniform
                probs = np.full(vocab_size, 1.0 / vocab_size)
            else:
                probs = (found + alpha) / denom
            out[p] = np.log(probs)
    return out
