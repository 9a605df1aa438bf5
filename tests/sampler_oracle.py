"""Reference sampler step: compose, select and draw with no cached CDF.

The package's composed_step keeps in the memo each composed vector's CDF, as
a tuple of Python floats, and its max, ranks by the max, draws each token
with one bisect_right on that CDF and writes the draws into one copy of the
tokens. This module keeps the earlier formulation: the memo holds the
composed log vector alone, ranking takes the max of that array, every draw
recomputes np.exp(logp).cumsum() and takes one searchsorted on it, and the
successor grid is built with with_fixed, which refuses to overwrite a fixed
slot. A run's draws follow the
package's contract: one row of uniforms, slot p's token drawn at the row's
p-th entry, and in random order L order keys after them whose stable argsort
is the order. Tests check the fast path against it token for token and
counter for counter.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from maskcompose.compose import compose_logits, normalize_logits
from maskcompose.errors import ShapeMismatch
from maskcompose.memo import Memo
from maskcompose.sampler import (
    MASK,
    MODE_AUTOREGRESSIVE,
    MODE_MASKED,
    ORDER_MAX_CONFIDENCE,
    RunStats,
    SamplerSchedule,
)

_MEMO_CAP_BYTES = 1 << 21


def with_fixed(tokens: np.ndarray, positions: Sequence[int], values: Sequence[int]) -> np.ndarray:
    """A successor grid: a copy of tokens with the given slots fixed.

    Refuses to overwrite a slot that is already fixed: unmasked slots never
    change (the absorbing property).
    """
    tokens = tokens.copy()
    for p, v in zip(positions, values):
        if tokens[p] != MASK:
            raise ValueError(f"slot {p} is already fixed; unmasked slots never change")
        tokens[p] = v
    return tokens


def draw_run(
    sched: SamplerSchedule, length: int, rng: np.random.Generator
) -> tuple[list[int] | None, np.ndarray]:
    """One run's (order, uniforms) from one row of rng.random: L uniforms,
    then, in masked random order only, L order keys."""
    keyed = sched.mode == MODE_MASKED and sched.order_policy != ORDER_MAX_CONFIDENCE
    row = rng.random(2 * length if keyed else length)
    if sched.mode == MODE_AUTOREGRESSIVE:
        order = list(range(length))
    elif keyed:
        order = [int(p) for p in np.argsort(row[length:], kind="stable")]
    else:
        order = None
    return order, row[:length]


def sample_token(logp: np.ndarray, u: float) -> int:
    """Inverse-CDF draw from a log-probability vector at the uniform u."""
    cum = np.exp(logp).cumsum()
    idx = int(cum.searchsorted(u * cum[-1], side="right"))
    return min(idx, logp.size - 1)


def _composed_charge(key: tuple, out: np.ndarray) -> int:
    return 256 + out.nbytes + sum(len(v) + 64 for v in key[3::2])


memo = Memo(_MEMO_CAP_BYTES, _composed_charge)


def composed(
    uncond: np.ndarray,
    conds: Sequence[np.ndarray],
    weights: tuple,
    temperature: float,
) -> np.ndarray:
    """compose_logits at one position, then the temperature, through the memo."""
    key = [temperature, weights, uncond.dtype, uncond.tobytes()]
    for c in conds:
        key += (c.dtype, c.tobytes())
    key = tuple(key)
    out = memo.get(key)
    if out is not None:
        return out
    out = compose_logits(uncond, conds, weights)
    if temperature != 1.0:
        out = normalize_logits(out / temperature)
    out.flags.writeable = False
    memo.put(key, out)
    return out


def select_positions(
    masked: list[int],
    sched: SamplerSchedule,
    order: Sequence[int] | None,
    composed_all: dict[int, np.ndarray] | None,
) -> list[int]:
    """The positions to fix this step, ascending, out of the masked ones."""
    if sched.mode == MODE_AUTOREGRESSIVE:
        return [masked[0]]
    take = min(sched.tokens_per_step, len(masked))
    if sched.order_policy == ORDER_MAX_CONFIDENCE:
        ranked = sorted(masked, key=lambda p: -composed_all[p].max())
        return sorted(ranked[:take])
    open_slots = set(masked)
    picked = []
    for p in order:
        if p in open_slots:
            picked.append(int(p))
            if len(picked) == take:
                break
    return sorted(picked)


def composed_step(
    tokens: np.ndarray,
    model,
    conds: Sequence,
    weights: Sequence[float],
    sched: SamplerSchedule,
    order: Sequence[int] | None,
    uniforms: Sequence[float],
    stats: RunStats,
) -> np.ndarray:
    """Advance one step of a run: query, compose, select, and draw each
    selected slot p at uniforms[p]."""
    if len(conds) != len(weights):
        raise ShapeMismatch(f"{len(conds)} conditions vs {len(weights)} weights")
    masked = [p for p, v in enumerate(tokens.tolist()) if v == MASK]

    uncond = model.predict(tokens, None)
    stats.evaluations += 1
    per_cond = []
    for c in conds:
        per_cond.append(model.predict(tokens, c))
        stats.evaluations += 1

    weights = tuple(float(w) for w in weights)
    temperature = sched.temperature

    def composed_at(pos: int) -> np.ndarray:
        return composed(uncond[pos], [d[pos] for d in per_cond], weights, temperature)

    composed_all = None
    if sched.mode == MODE_MASKED and sched.order_policy == ORDER_MAX_CONFIDENCE:
        composed_all = {p: composed_at(p) for p in masked}
    selected = select_positions(masked, sched, order, composed_all)

    values = []
    for pos in selected:
        dist = composed_all[pos] if composed_all is not None else composed_at(pos)
        values.append(sample_token(dist, uniforms[pos]))
    new_tokens = with_fixed(tokens, selected, values)
    stats.steps += 1
    return new_tokens
