"""Iterative token-grid generation under composed conditioning.

Every run starts from an all-MASK grid and fixes one or more positions per
step, never revisiting them (absorbing property). The modes differ only in the
unmasking order, fixed before the first step; autoregressive is left to right,
one token per step. At every step the backing model is queried once without a
condition and once per condition, the per-position distributions are composed
in log space, the schedule temperature is applied and tokens are drawn for the
selected positions. The grid goes from step to step, and to the model, as a
plain (L,) int16 array; MaskedState only names the all-MASK grid a run starts
from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Protocol, Sequence

import numpy as np

from .compose import DEFAULT_TEMPERATURE, compose_logits, normalize_logits
from .errors import NonPositiveTemperature, ShapeMismatch
from .memo import Memo

MASK = -1

MODE_MASKED = "masked"
MODE_AUTOREGRESSIVE = "autoregressive"
ORDER_RANDOM = "random_fixed_seed"
ORDER_MAX_CONFIDENCE = "max_confidence"


@dataclass(frozen=True)
class MaskedState:
    """The all-MASK grid a run starts from; steps work on plain token arrays."""

    tokens: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.tokens, dtype=np.int16)
        object.__setattr__(self, "tokens", arr)

    @classmethod
    def fully_masked(cls, length: int) -> "MaskedState":
        return cls(np.full(length, MASK, dtype=np.int16))


@dataclass(frozen=True)
class SamplerSchedule:
    """How a run unmasks its grid; the run's seed is an argument of the run.

    A run finishes in exactly ceil(L / tokens_per_step) steps. Autoregressive
    mode requires tokens_per_step = 1 and ignores order_policy in favor of
    the left-to-right order.
    """

    mode: str = MODE_MASKED
    tokens_per_step: int = 1
    order_policy: str = ORDER_RANDOM
    temperature: float = DEFAULT_TEMPERATURE

    def __post_init__(self):
        if self.mode not in (MODE_MASKED, MODE_AUTOREGRESSIVE):
            raise ValueError(f"unknown mode {self.mode!r}")
        if self.order_policy not in (ORDER_RANDOM, ORDER_MAX_CONFIDENCE):
            raise ValueError(f"unknown order_policy {self.order_policy!r}")
        if self.tokens_per_step < 1:
            raise ValueError("tokens_per_step must be >= 1")
        if self.mode == MODE_AUTOREGRESSIVE and self.tokens_per_step != 1:
            raise ValueError("autoregressive mode forces tokens_per_step = 1")
        if not (self.temperature > 0.0) or not math.isfinite(self.temperature):
            raise NonPositiveTemperature(f"temperature must be > 0, got {self.temperature}")


class ConditionalModel(Protocol):
    """Per-position predictor over K tokens for partially unmasked grids.

    predict(tokens, condition) takes one (L,) int16 grid, MASK at the unfixed
    slots, and returns one read-only (L, K) float64 array of log-probabilities.
    The model must not write to tokens. Row p of a masked position is its
    distribution given the fixed slots, and the sampler reads no other; the
    package's models put the point mass on its token (0 there, -inf
    elsewhere) at a fixed one. condition = None asks for the unconditional
    distribution.
    """

    vocab_size: int

    def predict(self, tokens: np.ndarray, condition=None) -> np.ndarray: ...


@dataclass
class RunStats:
    steps: int = 0
    evaluations: int = 0


def count_evaluations(sched: SamplerSchedule, length: int, n_conditions: int) -> int:
    """Model evaluations for a full run: ceil(L / tokens_per_step) * (n + 1)."""
    return math.ceil(length / sched.tokens_per_step) * (n_conditions + 1)


def sample_token(cdf: np.ndarray, rng: np.random.Generator) -> int:
    """Inverse-CDF draw: one searchsorted of a uniform scaled to the total mass.

    cdf is the float64 running sum of a composed vector's probabilities,
    np.exp(logp).cumsum(), as the composed-vector memo holds it; the draw
    stays in float64 so that rounding cannot shift mass between tokens.
    rng.random() < 1 keeps the scaled uniform below the total; the clip to
    K - 1 guards the index all the same.
    """
    idx = int(cdf.searchsorted(rng.random() * cdf[-1], side="right"))
    return min(idx, cdf.size - 1)


# Composed vectors, temperature applied, keyed by the content of their inputs:
# temperature, weights and each expert vector's dtype and bytes. Each entry is
# one read-only (2, K) float64 array: row 0 is the composed log vector, which
# ranks positions by confidence, and row 1 its CDF, np.exp(row 0).cumsum(),
# which a draw searches. So a hit recomputes neither. One array rather than a
# pair of them keeps one object header per entry.
# Experts hand back the same few vectors run after run (20 000 masked fidelity
# runs on the 2x2 world compose 8 distinct inputs), so most steps find their
# entry here. An entry is charged its array's bytes, both rows, plus a fixed
# cost per entry and per expert vector, an upper bound on what its key, dict
# slot and object headers take; the two-generation memo keeps the entries
# that keep being asked for within _MEMO_CAP_BYTES. Being
# keyed by content, one memo can serve every caller in the process without
# changing a result. The cap is sized so that one generation, half of it,
# holds the largest working set measured (distinct entries, charged bytes):
# - count-3x3 of the benchmark, a composed and a joint error eval of 1000
#   grids each: 2 738 entries, 1.37 MiB a round; 3 862 and 1.94 MiB over 40
#   rounds on different seeds;
# - criterion 4, 10 000 grids an arm on the same world: 3 636, 1.82 MiB;
# - exact-3x3: 244, 0.15 MiB; fidelity-2x2: 19, 0.008 MiB.
# At 2 MiB a generation held 1 MiB, so count-3x3 composed about 1.5k of its
# vectors again whenever a round was rerun.
_MEMO_CAP_BYTES = 1 << 22
_MEMO_ENTRY_BYTES = 256
_MEMO_VECTOR_BYTES = 64


def _composed_charge(key: tuple, entry: np.ndarray) -> int:
    vectors = key[3::2]  # the key ends in (dtype, bytes) pairs, one per vector
    return _MEMO_ENTRY_BYTES + entry.nbytes + sum(len(v) + _MEMO_VECTOR_BYTES for v in vectors)


_memo = Memo(_MEMO_CAP_BYTES, _composed_charge)


def _composed(
    uncond: np.ndarray,
    conds: Sequence[np.ndarray],
    weights: tuple,
    temperature: float,
) -> np.ndarray:
    """compose_logits at one position, then the temperature, through the memo.

    Returns a read-only (2, K) float64 array: row 0 is the composed log
    vector v with the temperature applied, row 1 its CDF np.exp(v).cumsum().
    """
    key = [temperature, weights, uncond.dtype, uncond.tobytes()]
    for c in conds:
        key += (c.dtype, c.tobytes())
    key = tuple(key)
    entry = _memo.get(key)
    if entry is not None:
        return entry
    logp = compose_logits(uncond, conds, weights)
    if temperature != 1.0:
        logp = normalize_logits(logp / temperature)
    entry = np.array((logp, np.exp(logp).cumsum()))
    entry.flags.writeable = False
    _memo.put(key, entry)
    return entry


def _select_positions(
    n_open: int,
    take: int,
    order: Sequence[int] | None,
    composed: dict[int, np.ndarray] | None,
) -> list[int]:
    """The first `take` of the n_open open slots in the run's order, ascending.

    A run that starts fully masked fixes its order front to back, so the
    open slots are its last n_open; the state must come from such a run.

    order None ranks the keys of composed, the masked positions, by the max
    of row 0 of each memo entry, highest first; the keys ascend and sorted
    is stable, so ties go to the lower index. composed is read only then.
    """
    if order is None:
        ranked = sorted(composed, key=lambda p: -composed[p][0].max())
        return sorted(ranked[:take])
    done = len(order) - n_open
    return sorted(order[done : done + take])


def composed_step(
    tokens: np.ndarray,
    model: ConditionalModel,
    conds: Sequence,
    weights: tuple[float, ...],
    sched: SamplerSchedule,
    rng: np.random.Generator,
    order: Sequence[int] | None,
    stats: RunStats,
) -> np.ndarray:
    """Advance one step of a run: query, compose, select, draw.

    tokens is the run's (L,) int16 grid and is not written to; the step
    returns a fresh array, a copy of it with the selected masked slots
    drawn, so no fixed slot is overwritten. weights is a tuple of floats,
    one per condition, as run_to_completion passes it. The model is
    evaluated once unconditionally and once per condition, regardless of how
    many positions get fixed. rng is the run's generator; order is the run's
    unmasking order, which needs only the count of open slots, or None for
    max-confidence order, which lists and composes every masked position to
    rank them; stats is the run's counter. Composed vectors and their CDFs
    come from a memo keyed by the content of the expert vectors, weights and
    temperature, so equal inputs give the same read-only entry; each
    selected position takes one sample_token draw from its CDF, ascending.
    """
    values = tokens.tolist()
    n_open = values.count(MASK)

    uncond = model.predict(tokens, None)
    per_cond = [model.predict(tokens, c) for c in conds]
    stats.evaluations += 1 + len(per_cond)

    temperature = sched.temperature
    composed = None
    if order is None:
        composed = {
            p: _composed(uncond[p], [d[p] for d in per_cond], weights, temperature)
            for p, v in enumerate(values) if v == MASK
        }
    take = min(sched.tokens_per_step, n_open)
    selected = _select_positions(n_open, take, order, composed)

    tokens = tokens.copy()
    for pos in selected:  # ascending position order fixes rng consumption
        if composed is not None:
            entry = composed[pos]
        else:
            entry = _composed(uncond[pos], [d[pos] for d in per_cond], weights, temperature)
        tokens[pos] = sample_token(entry[1], rng)
    stats.steps += 1
    return tokens


def run_to_completion(
    initial: MaskedState,
    model: ConditionalModel,
    conds: Sequence,
    weights: Sequence[float],
    sched: SamplerSchedule,
    rng_seed: int | np.random.Generator = 0,
) -> tuple[np.ndarray, RunStats]:
    """Run composed_step ceil(L / tokens_per_step) times from a fully masked
    initial state, which fixes every slot; return the last step's tokens.

    The run is a function of (initial, model, conds, weights, sched) and of
    rng_seed: an int seeds a fresh generator, and a Generator is drawn from
    in place, from the state it is in. initial is left as it was. The order
    is fixed before the first step: left to right with no draw in
    autoregressive mode, one permutation drawn up front in random order, and
    None, a ranking at every step, in max-confidence order.
    """
    tokens = initial.tokens
    length = tokens.size
    if tokens.tolist().count(MASK) != length:
        raise ValueError("run_to_completion expects a fully masked initial state")
    if len(conds) != len(weights):
        raise ShapeMismatch(f"{len(conds)} conditions vs {len(weights)} weights")
    weights = tuple(map(float, weights))  # hashable, for the memo key
    rng = np.random.default_rng(rng_seed)
    if sched.mode == MODE_AUTOREGRESSIVE:
        order = list(range(length))
    elif sched.order_policy == ORDER_RANDOM:
        order = rng.permutation(length).tolist()
    else:
        order = None
    stats = RunStats()
    for _ in range(math.ceil(length / sched.tokens_per_step)):
        tokens = composed_step(tokens, model, conds, weights, sched, rng, order, stats)
    return tokens, stats
