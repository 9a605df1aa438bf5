"""Reference sampler step: compose, select and draw with no cached CDF.

The package's composed_step keeps each composed vector's CDF in the memo
next to the vector, draws each token with one searchsorted on that CDF and
writes the draws into one copy of the tokens. This module keeps the earlier
formulation: the memo holds the composed log vector alone, every draw
recomputes np.exp(logp).cumsum(), and the successor state is built with
MaskedState.with_fixed. Tests check the fast path against it token for
token, counter for counter and generator state for generator state.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from maskcompose.compose import compose_logits, normalize_logits
from maskcompose.errors import NoMaskedSlots, ShapeMismatch
from maskcompose.memo import Memo
from maskcompose.sampler import (
    MASK,
    MODE_AUTOREGRESSIVE,
    MODE_MASKED,
    ORDER_MAX_CONFIDENCE,
    MaskedState,
    RunStats,
    SamplerSchedule,
)

_MEMO_CAP_BYTES = 1 << 21


def sample_token(logp: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw from a log-probability vector."""
    cum = np.exp(logp).cumsum()
    u = rng.random() * cum[-1]
    idx = int(cum.searchsorted(u, side="right"))
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
    state: MaskedState,
    model,
    conds: Sequence,
    weights: Sequence[float],
    sched: SamplerSchedule,
    rng: np.random.Generator,
    order: Sequence[int] | None,
    stats: RunStats,
) -> MaskedState:
    """Advance one step of a run: query, compose, select, draw."""
    if len(conds) != len(weights):
        raise ShapeMismatch(f"{len(conds)} conditions vs {len(weights)} weights")
    masked = [p for p, v in enumerate(state.tokens.tolist()) if v == MASK]
    if not masked:
        raise NoMaskedSlots("state has no masked slots left")

    uncond = model.predict(state, None)
    stats.evaluations += 1
    per_cond = []
    for c in conds:
        per_cond.append(model.predict(state, c))
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
    for pos in selected:  # ascending position order fixes rng consumption
        dist = composed_all[pos] if composed_all is not None else composed_at(pos)
        values.append(sample_token(dist, rng))
    new_state = state.with_fixed(selected, values)
    stats.steps += 1
    return new_state
