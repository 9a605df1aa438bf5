"""Count-based conditional model trained on randomly masked grid views.

The model is a table of Laplace-smoothed token counts. Every bucket is keyed
by (position, local context signature, condition key): the signature is the
sorted multiset of unmasked tokens in the position's Chebyshev-radius-1
neighborhood, so the model generalizes across mask patterns that reveal the
same local evidence. Training draws (grid, condition) pairs from a world,
drops the condition with a fixed probability so the same table also carries
an unconditional branch, masks each position with a per-sample random rate
and records the true token of every masked position under its visible
context.

At query time an unpopulated bucket backs off along a fixed chain: first
drop the signature but keep the condition, then drop the condition but keep
the signature, then drop both. Keeping the condition ahead of the context
means an expert asked about an unfamiliar neighborhood still answers from
its conditional marginals instead of going silent, which is what lets
composed prompts reach scenes denser than anything in training. A tuple of
conditions is keyed as one opaque joint prompt; a model trained only on
single conditions has no buckets for that key at any level, so joint
prompts fall through to the unconditional branch.

A model is frozen at construction. Each bucket key becomes one integer code
(condition id, position, signature rank), the populated buckets become a
sorted code array with one precomputed log-probability row each, and a query
looks up all masked positions and all four backoff levels with one
np.searchsorted. The codes of a state's masked positions are kept for the
next query, since the sampler asks about each state once per expert.
Fitting counts the codes of all masked training positions with np.unique,
FIT_CHUNK samples at a time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import StateSpaceTooLarge
from .sampler import MASK, MaskedState
from .worlds import UNCONDITIONAL_KEY, WorldJoint, cond_key

WINDOW_RADIUS = 1

DEFAULT_ALPHA = 0.5
DEFAULT_DROPOUT = 0.1

# Training samples counted per np.unique pass. The fit's temporaries grow with
# it; at 1024 they stay well under the memory the training draws take.
FIT_CHUNK = 1024

# Backoff levels: 0 full key, 1 signature dropped, 2 condition dropped,
# 3 both dropped; NO_BUCKET when no populated bucket answers.
NO_BUCKET = 4

# Which backoff levels keep the signature.
_KEEPS_SIGNATURE = np.array([[1], [0], [1], [0]])

# Ends the lookup's code array, so a search never runs off its end. Every
# (bucket code, token) pair stays below it.
_CODE_END = np.iinfo(np.int64).max


def neighbor_lists(grid_w: int, grid_h: int, radius: int = WINDOW_RADIUS) -> list[np.ndarray]:
    """Flat indices within Chebyshev distance radius of each position."""
    out = []
    for row in range(grid_h):
        for col in range(grid_w):
            nbrs = [
                r * grid_w + c
                for r in range(max(0, row - radius), min(grid_h, row + radius + 1))
                for c in range(max(0, col - radius), min(grid_w, col + radius + 1))
                if (r, c) != (row, col)
            ]
            out.append(np.array(nbrs, dtype=np.int64))
    return out


class _KeyCodes:
    """Integer codes of bucket keys for one geometry, vocabulary and number of
    condition ids.

    A signature is padded to the widest neighborhood (width n) with absent
    slots. As symbols (absent 0, token t as t + 1) sorted ascending,
    s_0 <= ... <= s_{n-1}, it gets the combinatorial-number-system rank
    sum_i C(s_i + i, i + 1): a bijection from multisets of n symbols onto
    [0, C(K + n, n)) in which the empty signature ranks 0. A bucket
    (condition id c, position p, signature rank r) has the code
    (c * L + p) * C(K + n, n) + r, and a training record appends its token
    as code * K + token. Construction refuses a key space beyond int64.
    """

    def __init__(self, grid_w: int, grid_h: int, vocab_size: int, n_conds: int):
        neighbors = neighbor_lists(grid_w, grid_h)
        self.length = len(neighbors)
        width = max(len(nb) for nb in neighbors)
        self.n_sigs = math.comb(vocab_size + width, width)
        if n_conds * self.length * self.n_sigs * vocab_size >= _CODE_END:
            raise StateSpaceTooLarge(
                f"count-model keys for {vocab_size} tokens, {self.length} positions and "
                f"{n_conds} condition keys do not fit in 64 bits"
            )
        # a short neighborhood is padded with its own position, which is
        # masked whenever its signature is asked for
        self.index = np.empty((self.length, width), dtype=np.intp)
        for p, nb in enumerate(neighbors):
            self.index[p, : len(nb)] = nb
            self.index[p, len(nb) :] = p
        self.width = width
        # digit values C(b, i + 1) at [b, i] for b < K + width
        self.ranks = np.array(
            [math.comb(b, i + 1) for b in range(vocab_size + width) for i in range(width)],
            dtype=np.int64,
        ).reshape(vocab_size + width, width)
        # digit i of token t sits at flat index (t + 1 + i) * width + i
        self._offsets = (1 + np.arange(width)) * width + np.arange(width)
        self.position_codes = np.arange(self.length) * self.n_sigs

    def signature_ranks(self, nbr_tokens: np.ndarray) -> np.ndarray:
        """Ranks of (..., width) neighbor tokens, MASK for absent, any order."""
        index = np.multiply(np.sort(nbr_tokens, axis=-1), self.width, dtype=np.intp)
        index += self._offsets
        return self.ranks.take(index).sum(axis=-1)

    def codes(self, cond_ids, positions, nbr_tokens: np.ndarray) -> np.ndarray:
        return (cond_ids * self.length + positions) * self.n_sigs + self.signature_ranks(nbr_tokens)

    def decode(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Condition ids, positions and (n, width) sorted signature tokens,
        MASK for absent, of bucket codes."""
        rest, r = np.divmod(codes, self.n_sigs)
        cond_ids, positions = np.divmod(rest, self.length)
        sig = np.empty((codes.size, self.width), dtype=np.int64)
        for i in reversed(range(self.width)):  # greedy: the largest digit first
            b = np.searchsorted(self.ranks[:, i], r, side="right") - 1
            r = r - self.ranks[b, i]
            sig[:, i] = b - i - 1
        return cond_ids, positions, sig


@dataclass(frozen=True, eq=False)
class CountModel:
    """Frozen Laplace-smoothed bucket counts.

    counts maps (pos, signature, condition key) to a length-K count row; the
    model keeps a read-only copy, and `counts` reads that copy back. predict
    hands out read-only rows of one table, shared between calls.
    """

    grid_w: int
    grid_h: int
    vocab_size: int
    alpha: float = DEFAULT_ALPHA
    dropout_prob: float = DEFAULT_DROPOUT
    counts: Mapping = field(default_factory=dict)
    n_samples: int = 0
    rng_seed: int = 0

    def __post_init__(self):
        if self.alpha < 0.0:
            raise ValueError("alpha must be >= 0")
        if not (0.0 <= self.dropout_prob <= 1.0):
            raise ValueError("dropout_prob must lie in [0, 1]")
        k = self.vocab_size
        keys = list(self.counts)
        rows = np.zeros((0, k), dtype=np.int64)
        if keys:
            rows = np.array([self.counts[key] for key in keys], dtype=np.int64)
        if rows.shape != (len(keys), k) or (rows < 0).any():
            raise ValueError(f"every bucket needs {k} non-negative counts")
        cond_ids = {UNCONDITIONAL_KEY: 0}
        for key in keys:
            cond_ids.setdefault(key[2], len(cond_ids))
        codec = _KeyCodes(self.grid_w, self.grid_h, k, len(cond_ids))
        sigs = np.full((len(keys), codec.width), MASK, dtype=np.int64)
        for i, (pos, sig, _) in enumerate(keys):
            if not 0 <= pos < codec.length:
                raise ValueError(f"bucket {keys[i]!r}: position outside the grid")
            if len(sig) > codec.width or list(sig) != sorted(sig) or any(not 0 <= t < k for t in sig):
                raise ValueError(f"bucket {keys[i]!r}: signature is not a sorted set of neighbor tokens")
            sigs[i, codec.width - len(sig) :] = sig
        codes = codec.codes(
            np.array([cond_ids[key[2]] for key in keys], dtype=np.int64),
            np.array([key[0] for key in keys], dtype=np.int64),
            sigs,
        )
        rows.flags.writeable = False
        object.__setattr__(self, "counts", MappingProxyType(dict(zip(keys, rows))))
        object.__setattr__(self, "_codec", codec)
        # per condition key, the code offset of each backoff level; an unknown
        # condition gets a negative offset, which no bucket code has
        span = codec.length * codec.n_sigs
        object.__setattr__(self, "_level_offsets", {
            key: np.array([[c * span], [c * span], [0], [0]]) for key, c in cond_ids.items()
        })
        object.__setattr__(self, "_unknown_offsets", np.array([[-span], [-span], [0], [0]]))

        # zero-sum buckets never answer a lookup
        order = np.argsort(codes)
        order = order[rows[order].sum(axis=1) > 0]
        live = rows[order]
        denom = live.sum(axis=1).astype(np.float64) + k * self.alpha
        empty = 0.0 + k * self.alpha
        with np.errstate(divide="ignore"):
            logp = np.log((live + self.alpha) / denom[:, None])
            if empty == 0.0:  # alpha 0 and nothing observed: fall to uniform
                miss = np.log(np.full(k, 1.0 / k))
            else:
                miss = np.log((np.zeros(k, dtype=np.int64) + self.alpha) / empty)
        table = np.vstack([logp, miss])
        lookup = np.append(codes[order], _CODE_END)
        table.flags.writeable = lookup.flags.writeable = False
        # one read-only row view per bucket, the smoothed empty row last
        object.__setattr__(self, "_logp_rows", list(table))
        object.__setattr__(self, "_lookup_codes", lookup)
        # a hit at backoff level l in row r ranks l * n + r, so the least rank
        # is the first level that answers; a miss ranks as the empty row at
        # level NO_BUCKET
        object.__setattr__(self, "_level_ranks", np.arange(4)[:, None] * lookup.size)
        object.__setattr__(self, "_miss_rank", NO_BUCKET * lookup.size + lookup.size - 1)
        object.__setattr__(self, "_last", (None, None))

    @property
    def length(self) -> int:
        return self.grid_w * self.grid_h

    def _state_codes(self, tokens: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Masked positions (M,) and their bucket codes at every backoff
        level without the condition's offset (4, M). The sampler asks about
        one state n + 1 times in a row, so the last state's are kept."""
        key = tokens.tobytes()
        last = self._last  # one read: another thread may replace it
        if last[0] == key:
            return last[1]
        codec = self._codec
        masked = (tokens == MASK).nonzero()[0]
        sig = codec.signature_ranks(tokens[codec.index[masked]])
        codes = (masked, codec.position_codes[masked] + _KEEPS_SIGNATURE * sig)
        object.__setattr__(self, "_last", (key, codes))
        return codes

    def _lookup(self, tokens: np.ndarray, key: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masked positions, the log-prob table row answering each and the
        backoff level it came from (NO_BUCKET for the smoothed empty row)."""
        masked, base = self._state_codes(tokens)
        want = self._level_offsets.get(key, self._unknown_offsets) + base
        found = self._lookup_codes.searchsorted(want)
        hit = self._lookup_codes.take(found) == want
        first = np.where(hit, found + self._level_ranks, self._miss_rank).min(axis=0)
        level, rows = np.divmod(first, len(self._lookup_codes))
        return masked, rows, level

    def predict(self, state: MaskedState, condition=None) -> dict[int, np.ndarray]:
        masked, rows, _ = self._lookup(state.tokens, cond_key(condition))
        return dict(zip(masked.tolist(), map(self._logp_rows.__getitem__, rows.tolist())))

    def n_buckets(self) -> int:
        return len(self.counts)


def _condition_ids(conds: list, drop: np.ndarray) -> tuple[list, np.ndarray]:
    """Distinct condition keys, the unconditional one first, and each
    sample's index into them; a dropped condition is unconditional."""
    distinct = {id(c): c for c in conds}  # worlds hand out shared specs
    ids = {UNCONDITIONAL_KEY: 0}
    of = {i: ids.setdefault(cond_key(c), len(ids)) for i, c in distinct.items()}
    out = np.array([of[id(c)] for c in conds], dtype=np.int64)
    out[drop] = 0
    return list(ids), out


def fit_count_model(
    world: WorldJoint,
    n_samples: int,
    alpha: float = DEFAULT_ALPHA,
    dropout_prob: float = DEFAULT_DROPOUT,
    rng_seed: int = 0,
    training_max_objects: int | None = None,
) -> CountModel:
    """Train a CountModel on masked views of world samples.

    training_max_objects restricts the scene budget of the training
    distribution only (the model can still be asked to generate denser
    grids); it requires a world with a restrict method.
    """
    train_world = world
    if training_max_objects is not None:
        train_world = world.restrict(training_max_objects)
    k = world.vocab_size
    rng = np.random.default_rng(rng_seed)
    grids, conds = train_world.sample_training_pairs(rng, n_samples)
    drop = rng.random(n_samples) < dropout_prob
    rates = rng.random(n_samples)
    mask_draws = rng.random((n_samples, world.length))
    cond_keys, cond_ids = _condition_ids(conds, drop)
    codec = _KeyCodes(world.grid_w, world.grid_h, k, len(cond_keys))

    # (bucket code * K + true token) of every masked position, merged into
    # the distinct ones seen so far chunk by chunk
    found = totals = np.zeros(0, dtype=np.int64)
    for lo in range(0, n_samples, FIT_CHUNK):
        hi = min(lo + FIT_CHUNK, n_samples)
        maskbits = mask_draws[lo:hi] < rates[lo:hi, None]
        views = np.where(maskbits, MASK, grids[lo:hi])
        rows, pos = np.nonzero(maskbits)
        bucket = codec.codes(cond_ids[lo + rows], pos, views[rows[:, None], codec.index[pos]])
        merged, inverse = np.unique(
            np.concatenate((found, bucket * k + grids[lo + rows, pos])), return_inverse=True
        )
        counted = np.bincount(inverse[found.size :], minlength=merged.size)
        counted[inverse[: found.size]] += totals
        found, totals = merged, counted

    codes, token = np.divmod(found, k)
    codes, bucket = np.unique(codes, return_inverse=True)
    table = np.zeros((codes.size, k), dtype=np.int64)
    table[bucket, token] = totals
    ids, positions, sigs = codec.decode(codes)
    keys = [
        (p, tuple(t for t in sig if t != MASK), cond_keys[c])
        for c, p, sig in zip(ids.tolist(), positions.tolist(), sigs.tolist())
    ]
    return CountModel(
        grid_w=world.grid_w,
        grid_h=world.grid_h,
        vocab_size=k,
        alpha=alpha,
        dropout_prob=dropout_prob,
        counts=dict(zip(keys, table)),
        n_samples=n_samples,
        rng_seed=rng_seed,
    )
