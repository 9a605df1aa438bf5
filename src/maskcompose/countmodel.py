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
(condition id, position, signature rank), and the populated buckets become
one precomputed log-probability row each. The backoff chain is resolved
then, once: a column is a distinct (position, signature) of a live bucket, a
fallback for a signature no bucket has at that position, or a token's point
mass, and a row is a condition id or any key the model never saw. Each
(row, column) holds the table row that answers it and its backoff level,
and the answers are joined once into one (rows, columns, K) array. Every
slot's column comes from one gather of its neighbors' tokens, one sort and
one np.searchsorted of the codes. Columns do not depend on the condition.
The last state's columns are kept, which answers the 2nd to (n + 1)th
queries of one sampler visit; a visit's first query looks them up by the
state's bytes in a two-generation memo of COLUMNS_MEMO_CAP_BYTES, so later
visits to the same state by any run, arm or round compute them once. A
query is one take: its condition's answers at the state's columns.
Fitting counts the codes of all masked training positions with np.unique,
FIT_CHUNK samples at a time, drawing each chunk's masks as it goes; a
sample is one grid row and one condition index, never a Python object.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping

import numpy as np

from .errors import StateSpaceTooLarge, ValidationError
from .memo import Memo
from .sampler import MASK
from .worlds import UNCONDITIONAL_KEY, SceneWorld, WorldJoint, cond_key

WINDOW_RADIUS = 1

DEFAULT_ALPHA = 0.5
DEFAULT_DROPOUT = 0.1

# Training samples counted per np.unique pass. The fit's temporaries grow with
# it; at 1024 they stay well under the memory the training draws take.
FIT_CHUNK = 1024

# Backoff levels: 0 full key, 1 signature dropped, 2 condition dropped,
# 3 both dropped; NO_BUCKET when no populated bucket answers.
NO_BUCKET = 4

# The columns memo: a state's (L,) columns as int32 bytes, keyed by the
# state's bytes. An entry is charged both byte strings plus a fixed cost that
# bounds their two object headers, 66 bytes, and its dict slot, at most 54
# bytes in a dict of a generation's size. A round of count-3x3 visits
# 18 000 states, about 4 900 of them distinct. At 1 MiB, about 6 000
# entries of a 3x3 grid, the memo leaves 6 900-7 700 states a round to
# compute, and the workload's peak memory moves by less than 1%. A larger
# cap computes fewer, but pays in peak memory, whose bound is 3%: on a
# 2-core Xeon, 2 MiB gave count-3x3 +10-14% grids/s for +1.5-3.3% peak RSS
# over two series, and 3 MiB +16% for +3.5%, too close to the bound to take.
# A hit is decoded with np.frombuffer: an ndarray value would take 184 bytes
# of a 3x3 grid's columns, against 69 as bytes.
COLUMNS_MEMO_CAP_BYTES = 1 << 20
_COLUMNS_ENTRY_BYTES = 120


def _columns_charge(key: bytes, value: bytes) -> int:
    return _COLUMNS_ENTRY_BYTES + len(key) + len(value)


# Ends the sorted bucket and column code arrays, so a search never runs off
# their end. Every (bucket code, token) pair stays below it.
_CODE_END = np.iinfo(np.int64).max


def neighbor_lists(grid_w: int, grid_h: int) -> list[np.ndarray]:
    """Flat indices within Chebyshev distance WINDOW_RADIUS of each position."""
    out = []
    for row in range(grid_h):
        for col in range(grid_w):
            nbrs = [
                r * grid_w + c
                for r in range(max(0, row - WINDOW_RADIUS), min(grid_h, row + WINDOW_RADIUS + 1))
                for c in range(max(0, col - WINDOW_RADIUS), min(grid_w, col + WINDOW_RADIUS + 1))
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
        # masked whenever its signature is used
        self.index = np.empty((self.length, width), dtype=np.intp)
        for p, nb in enumerate(neighbors):
            self.index[p, : len(nb)] = nb
            self.index[p, len(nb) :] = p
        self.width = width
        # digit values C(b, i + 1) at [i, b] for b < K + width
        self.ranks = np.array(
            [[math.comb(b, i + 1) for b in range(vocab_size + width)] for i in range(width)],
            dtype=np.int64,
        )
        # digit i of token t sits at flat index t + offsets[i] = i * (K + width) + t + 1 + i
        self.offsets = np.arange(width) * (vocab_size + width + 1) + 1
        self.position_codes = np.arange(self.length) * self.n_sigs

    def signature_ranks(self, nbr_tokens: np.ndarray) -> np.ndarray:
        """Ranks of (..., width) neighbor tokens, MASK for absent, any order."""
        return self.sorted_ranks(np.sort(nbr_tokens, axis=-1))

    def sorted_ranks(self, nbr_tokens: np.ndarray) -> np.ndarray:
        """Ranks of (..., width) neighbor tokens sorted along the last axis."""
        return self.ranks.take(nbr_tokens + self.offsets).sum(axis=-1)

    def codes(self, cond_ids, positions, nbr_tokens: np.ndarray) -> np.ndarray:
        return (cond_ids * self.length + positions) * self.n_sigs + self.signature_ranks(nbr_tokens)

    def decode(self, codes: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Condition ids, positions and (n, width) sorted signature tokens,
        MASK for absent, of bucket codes."""
        rest, r = np.divmod(codes, self.n_sigs)
        cond_ids, positions = np.divmod(rest, self.length)
        sig = np.empty((codes.size, self.width), dtype=np.int64)
        for i in reversed(range(self.width)):  # greedy: the largest digit first
            b = np.searchsorted(self.ranks[i], r, side="right") - 1
            r = r - self.ranks[i, b]
            sig[:, i] = b - i - 1
        return cond_ids, positions, sig


@dataclass(frozen=True, eq=False)
class CountModel:
    """Frozen Laplace-smoothed bucket counts.

    counts maps (pos, signature, condition key) to a length-K count row; the
    model keeps a read-only copy, and `counts` reads that copy back. predict
    answers a read-only (L, K) array gathered in one take from the prejoined
    answers: the condition's (columns, K) answers at the state's (L,)
    columns. The resolved backoff table and its levels, from which the
    answers are joined, stay for _lookup.
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
        ids = np.array([cond_ids.setdefault(key[2], len(cond_ids)) for key in keys], dtype=np.int64)
        lengths = np.array([len(key[1]) for key in keys], dtype=np.int64)
        codec = _KeyCodes(self.grid_w, self.grid_h, k, len(cond_ids))
        try:
            positions = np.array([key[0] for key in keys], dtype=np.int64)
            tokens = np.fromiter(
                itertools.chain.from_iterable(key[1] for key in keys),
                dtype=np.int64, count=int(lengths.sum()),
            )
        except OverflowError:
            raise ValueError("a bucket key holds an integer beyond 64 bits") from None
        bad = (positions < 0) | (positions >= codec.length)
        if bad.any():
            raise ValueError(f"bucket {keys[bad.argmax()]!r}: position outside the grid")
        # a signature sits right-aligned in its row; the slots left of it pad
        # with MASK, which sorts below every token
        bad = lengths > codec.width
        sigs = np.full((len(keys), codec.width), MASK, dtype=np.int64)
        if not bad.any():
            filled = np.arange(codec.width) >= codec.width - lengths[:, None]
            sigs[filled] = tokens
            bad = (np.diff(sigs, axis=1) < 0).any(axis=1)
            bad |= (filled & ((sigs < 0) | (sigs >= k))).any(axis=1)
        if bad.any():
            raise ValueError(
                f"bucket {keys[bad.argmax()]!r}: signature is not a sorted set of neighbor tokens"
            )
        codes = codec.codes(ids, positions, sigs)
        rows.flags.writeable = False
        object.__setattr__(self, "counts", MappingProxyType(dict(zip(keys, rows))))
        object.__setattr__(self, "_codec", codec)

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
        # one row per bucket, the smoothed empty row, then the point masses
        table = np.vstack([logp, miss, np.where(np.eye(k, dtype=bool), 0.0, -np.inf)])
        table.flags.writeable = False
        object.__setattr__(self, "_table", table)

        # columns: each distinct (position, signature rank) of a live bucket,
        # then one fallback per position for a signature no bucket has, then
        # one point mass per token; rows: each condition id, then an unseen key
        lookup = np.append(codes[order], _CODE_END)
        span = codec.length * codec.n_sigs
        distinct = np.sort(lookup[:-1] % span)
        distinct = distinct[np.diff(distinct, prepend=-1) != 0]
        sig_codes = np.concatenate((distinct, codec.position_codes))
        keeps_sig = np.arange(sig_codes.size) < distinct.size
        pos_codes = sig_codes - sig_codes % codec.n_sigs
        row_codes = np.append(np.arange(len(cond_ids)) * span, -span)[:, None]
        # the backoff chain, level by level: (condition offset, column code,
        # whether a fallback column may hit); the last level goes first, so an
        # earlier one that hits overwrites it
        chain = [(row_codes, sig_codes, keeps_sig), (row_codes, pos_codes, True),
                 (0, sig_codes, keeps_sig), (0, pos_codes, True)]
        n_cols = sig_codes.size
        resolved = np.full((row_codes.size, n_cols + k), live.shape[0])
        # a point column answers with its token's point-mass row
        resolved[:, n_cols:] = live.shape[0] + 1 + np.arange(k)
        levels = np.full((row_codes.size, n_cols), NO_BUCKET)
        for level in reversed(range(4)):
            offset, col_codes, may_hit = chain[level]
            want = col_codes + offset
            at = lookup.searchsorted(want)
            hit = (lookup.take(at) == want) & may_hit
            np.copyto(resolved[:, :n_cols], at, where=hit)
            np.copyto(levels, level, where=hit)
        # each (row, column)'s answer, joined once: a query gathers its rows
        answers = table[resolved]
        resolved.flags.writeable = levels.flags.writeable = answers.flags.writeable = False
        object.__setattr__(self, "_rows", cond_ids)
        object.__setattr__(self, "_resolved", resolved)
        object.__setattr__(self, "_levels", levels)
        object.__setattr__(self, "_answers", answers)
        object.__setattr__(self, "_col_codes", np.append(distinct, _CODE_END))
        # per (position p, token t or MASK) at p * (K + 1) + t + 1: the code a
        # slot's signature rank is added to, and the column it takes when that
        # sum is no column. A masked slot adds its position code and falls back
        # to its position's column; a fixed slot's sum is negative, so it never
        # is a column, and it takes its token's point mass.
        length, n_found = codec.length, distinct.size
        slot_codes = np.empty((length, k + 1), dtype=np.int64)
        slot_codes[:, 0] = codec.position_codes
        slot_codes[:, 1:] = -codec.n_sigs
        slot_misses = np.empty((length, k + 1), dtype=np.intp)
        slot_misses[:, 0] = n_found + np.arange(length)
        slot_misses[:, 1:] = n_found + length + np.arange(k)
        object.__setattr__(self, "_slot_base", np.arange(length) * (k + 1) + 1)
        object.__setattr__(self, "_slot_codes", slot_codes.ravel())
        object.__setattr__(self, "_slot_misses", slot_misses.ravel())
        object.__setattr__(self, "_columns", Memo(COLUMNS_MEMO_CAP_BYTES, _columns_charge))
        object.__setattr__(self, "_last", (None, None))

    @property
    def length(self) -> int:
        return self.grid_w * self.grid_h

    def _state_columns(self, tokens: np.ndarray) -> np.ndarray:
        """Each position's column (L,), read-only: a masked one's (position,
        signature) column or its position's fallback, a fixed one's point
        mass. Every slot's code comes from one gather, one sort and one
        searchsorted, with no list of masked slots: a fixed slot's code is
        negative, never a column, and one np.where sends it to its point
        column. Columns do not depend on the condition. The sampler asks
        about one state n + 1 times in a row, so the last state's columns
        are kept; a state's first query looks in the memo, which holds
        columns by the state's bytes, as int32 bytes, for later visits."""
        key = tokens.tobytes()
        last = self._last
        if last[0] == key:
            return last[1]
        hit = self._columns.get(key)
        if hit is not None:
            cols = np.frombuffer(hit, dtype=np.int32)
        else:
            codec = self._codec
            nbrs = tokens.take(codec.index)
            nbrs.sort()
            want = codec.sorted_ranks(nbrs)
            slot = tokens + self._slot_base
            want += self._slot_codes.take(slot)
            at = self._col_codes.searchsorted(want)
            cols = np.where(self._col_codes.take(at) == want, at, self._slot_misses.take(slot))
            cols.flags.writeable = False
            self._columns.put(key, cols.astype(np.int32).tobytes())
        object.__setattr__(self, "_last", (key, cols))
        return cols

    def _lookup(self, tokens: np.ndarray, key: tuple) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Masked positions, the table row answering every position, and the
        backoff level that answered each masked one (NO_BUCKET: the empty row)."""
        cols = self._state_columns(tokens)
        masked = (tokens == MASK).nonzero()[0]
        row = self._rows.get(key, len(self._rows))
        return masked, self._resolved[row].take(cols), self._levels[row].take(cols[masked])

    def predict(self, tokens: np.ndarray, condition=None) -> np.ndarray:
        cols = self._state_columns(tokens)
        row = self._rows.get(cond_key(condition), len(self._rows))
        out = self._answers[row].take(cols, axis=0)
        out.setflags(write=False)  # half the cost of setting out.flags.writeable
        return out

    def n_buckets(self) -> int:
        return len(self.counts)


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
    grids); it requires a scene world, the kind with an object budget.
    """
    train_world = world
    if training_max_objects is not None:
        if not isinstance(world, SceneWorld):
            raise ValidationError(
                f"training_max_objects needs a scene world; a {world.params()['kind']} "
                "world has no object budget"
            )
        train_world = world.restrict(training_max_objects)
    k, length = world.vocab_size, world.length
    rng = np.random.default_rng(rng_seed)
    grids, specs, index = train_world.sample_training_pairs(rng, n_samples)
    drop = rng.random(n_samples) < dropout_prob
    rates = rng.random(n_samples)
    # condition id 0 is unconditional: a sample without a condition (index
    # -1) or with its condition dropped
    cond_ids = np.where(drop, 0, index + 1)
    cond_keys = [UNCONDITIONAL_KEY] + [cond_key(c) for c in specs]
    codec = _KeyCodes(world.grid_w, world.grid_h, k, len(cond_keys))

    # (bucket code * K + true token) of every masked position, merged into
    # the distinct ones seen so far chunk by chunk. Each chunk draws its own
    # mask uniforms: row after row, the same doubles as one (n, L) draw,
    # since nothing is drawn after them.
    found = totals = np.zeros(0, dtype=np.int64)
    for lo in range(0, n_samples, FIT_CHUNK):
        hi = min(lo + FIT_CHUNK, n_samples)
        maskbits = rng.random((hi - lo, length)) < rates[lo:hi, None]
        chunk = grids[lo:hi].ravel()
        views = np.where(maskbits.ravel(), MASK, chunk)
        rows, pos = np.nonzero(maskbits)
        start = rows * length  # where each masked position's row starts in the flat chunk
        nbrs = views.take(codec.index[pos] + start[:, None])
        bucket = codec.codes(cond_ids[lo + rows], pos, nbrs)
        merged, inverse = np.unique(
            np.concatenate((found, bucket * k + chunk.take(start + pos))), return_inverse=True
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
