"""Iterative token-grid generation under composed conditioning.

Two modes share one loop. Masked mode starts from an all-MASK grid and fixes
one or more positions per step, never revisiting them (absorbing property).
Autoregressive mode fixes exactly one position per step, left to right. At
every step the backing model is queried once without a condition and once per
condition, the per-position distributions are composed in log space, the
schedule temperature is applied and tokens are drawn for the selected
positions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Protocol, Sequence

import numpy as np

from .compose import DEFAULT_TEMPERATURE, compose_logits, normalize_logits
from .errors import NoMaskedSlots, NonPositiveTemperature, ShapeMismatch
from .memo import Memo

MASK = -1

MODE_MASKED = "masked"
MODE_AUTOREGRESSIVE = "autoregressive"
ORDER_RANDOM = "random_fixed_seed"
ORDER_MAX_CONFIDENCE = "max_confidence"


@dataclass(frozen=True)
class MaskedState:
    """A length-L token grid where unfixed slots hold the MASK sentinel."""

    tokens: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.tokens, dtype=np.int16)
        object.__setattr__(self, "tokens", arr)

    @classmethod
    def fully_masked(cls, length: int) -> "MaskedState":
        return cls(np.full(length, MASK, dtype=np.int16))

    @property
    def length(self) -> int:
        return int(self.tokens.size)

    def masked_positions(self) -> np.ndarray:
        return np.flatnonzero(self.tokens == MASK)

    def is_complete(self) -> bool:
        # a list scan beats an array comparison plus reduction at these lengths
        return MASK not in self.tokens.tolist()

    def key(self) -> bytes:
        return self.tokens.tobytes()

    def with_fixed(self, positions: Sequence[int], values: Sequence[int]) -> "MaskedState":
        """Return a successor state; refuses to overwrite an unmasked slot."""
        tokens = self.tokens.copy()
        for p, v in zip(positions, values):
            if tokens[p] != MASK:
                raise ValueError(f"slot {p} is already fixed; unmasked slots never change")
            tokens[p] = v
        return MaskedState(tokens)


@dataclass(frozen=True)
class SamplerSchedule:
    """How a run unmasks its grid.

    Masked mode finishes in exactly ceil(L / tokens_per_step) steps.
    Autoregressive mode requires tokens_per_step = 1 and ignores order_policy
    in favor of fixed left-to-right order.
    """

    mode: str = MODE_MASKED
    tokens_per_step: int = 1
    order_policy: str = ORDER_RANDOM
    rng_seed: int = 0
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

    predict(state, condition) returns one normalized log-probability vector
    for every currently masked position of `state`. condition = None asks for
    the unconditional distribution.
    """

    vocab_size: int

    def predict(self, state: MaskedState, condition=None) -> Mapping[int, np.ndarray]: ...


@dataclass
class RunStats:
    steps: int = 0
    evaluations: int = 0


def count_evaluations(sched: SamplerSchedule, length: int, n_conditions: int) -> int:
    """Model evaluations for a full run: steps times (n + 1)."""
    if sched.mode == MODE_AUTOREGRESSIVE:
        steps = length
    else:
        steps = math.ceil(length / sched.tokens_per_step)
    return steps * (n_conditions + 1)


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
# changing a result. The cap is sized to the largest working set measured:
# criterion 4's count model composes about 3.4k distinct vectors, and a
# 256 KiB cap missed on 7.6k of its 18k steps a round. On the benchmark's
# count-3x3 world a composed and a joint error eval of 1000 grids each compose
# 2.7k distinct vectors, charged 1.36 MiB with their CDFs (1.32 MiB without),
# more than one generation holds, so some age out and are composed again.
_MEMO_CAP_BYTES = 1 << 21
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
    masked: list[int],
    sched: SamplerSchedule,
    order: Sequence[int] | None,
    composed: dict[int, np.ndarray] | None,
) -> list[int]:
    """The positions to fix this step, ascending, out of the masked ones.

    composed maps each masked position to its memo entry (row 0 the log
    vector, row 1 the CDF) in max-confidence mode and is not read otherwise.
    """
    if sched.mode == MODE_AUTOREGRESSIVE:
        return [masked[0]]
    take = min(sched.tokens_per_step, len(masked))
    if sched.order_policy == ORDER_MAX_CONFIDENCE:
        # highest composed max-probability first; masked ascends and sorted
        # is stable, so ties go to the lower index
        ranked = sorted(masked, key=lambda p: -composed[p][0].max())
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
    model: ConditionalModel,
    conds: Sequence,
    weights: Sequence[float],
    sched: SamplerSchedule,
    rng: np.random.Generator,
    order: Sequence[int] | None,
    stats: RunStats,
) -> MaskedState:
    """Advance one step of a run: query, compose, select, draw.

    The model is evaluated once unconditionally and once per condition,
    regardless of how many positions get fixed. rng is the run's generator;
    order is the run's unmasking permutation in masked random-order mode and
    is not read otherwise; stats is the run's counter. Composed vectors and
    their CDFs come from a memo keyed by the content of the expert vectors,
    weights and temperature, so equal inputs give the same read-only entry;
    each selected position takes one sample_token draw from its CDF, in
    ascending position order. The draws go into one copy of the tokens: the
    selected positions are masked ones, so no fixed slot is overwritten.
    """
    if len(conds) != len(weights):
        raise ShapeMismatch(f"{len(conds)} conditions vs {len(weights)} weights")
    masked = [p for p, v in enumerate(state.tokens.tolist()) if v == MASK]
    if not masked:
        raise NoMaskedSlots("state has no masked slots left")

    uncond = model.predict(state, None)
    per_cond = [model.predict(state, c) for c in conds]
    stats.evaluations += 1 + len(per_cond)

    weights = tuple(map(float, weights))  # hashable, for the memo key
    temperature = sched.temperature
    composed = None
    if sched.mode == MODE_MASKED and sched.order_policy == ORDER_MAX_CONFIDENCE:
        composed = {
            p: _composed(uncond[p], [d[p] for d in per_cond], weights, temperature)
            for p in masked
        }
    selected = _select_positions(masked, sched, order, composed)

    tokens = state.tokens.copy()
    for pos in selected:  # ascending position order fixes rng consumption
        if composed is not None:
            entry = composed[pos]
        else:
            entry = _composed(uncond[pos], [d[pos] for d in per_cond], weights, temperature)
        tokens[pos] = sample_token(entry[1], rng)
    stats.steps += 1
    return MaskedState(tokens)


def run_to_completion(
    initial: MaskedState,
    model: ConditionalModel,
    conds: Sequence,
    weights: Sequence[float],
    sched: SamplerSchedule,
) -> tuple[np.ndarray, RunStats]:
    """Drive composed_step until every slot is fixed.

    The whole run is a pure function of (initial, model, conds, weights,
    sched): a fresh generator is seeded from sched.rng_seed and, in masked
    random-order mode, one permutation drawn up front fixes the unmasking
    order for the entire run.
    """
    if initial.tokens.tolist().count(MASK) != initial.length:
        raise ValueError("run_to_completion expects a fully masked initial state")
    rng = np.random.default_rng(sched.rng_seed)
    order = None
    if sched.mode == MODE_MASKED and sched.order_policy == ORDER_RANDOM:
        order = rng.permutation(initial.length).tolist()
    stats = RunStats()
    state = initial
    while not state.is_complete():
        state = composed_step(state, model, conds, weights, sched, rng, order, stats)
    return state.tokens.copy(), stats
