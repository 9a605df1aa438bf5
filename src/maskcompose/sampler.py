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

A run's randomness is one row of uniforms drawn before its first step (see
draw_runs): slot p's token is the inverse-CDF draw at the row's p-th uniform,
whichever step fixes p, and in random order the row's last L entries are the
keys whose stable argsort is the run's order. So a run is a function of its
row, and a step draws nothing from a generator.
"""

from __future__ import annotations

import math
from bisect import bisect_right
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
    """How a run unmasks its grid; the run's draws are arguments of the run.

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


def sample_token(cdf: Sequence[float], u: float) -> int:
    """Inverse-CDF draw: one bisect_right of the uniform u in [0, 1) scaled
    to the total mass.

    cdf is the running sum of a composed vector's probabilities,
    np.exp(logp).cumsum(), as a sequence of Python floats, the form the
    composed-vector memo holds it in. bisect_right makes the float64
    comparisons np.searchsorted(cdf, u * cdf[-1], side="right") makes, on the
    same doubles, so rounding cannot shift mass between tokens and a zero-mass
    token, a flat step, is never drawn. u < 1 keeps the scaled uniform below
    the total; the clip to K - 1 guards the index all the same.
    """
    return min(bisect_right(cdf, u * cdf[-1]), len(cdf) - 1)


def draw_runs(
    sched: SamplerSchedule, length: int, rng: np.random.Generator, n: int
) -> tuple[list, list[list[float]]]:
    """The unmasking orders and draw uniforms of n runs, from one float64
    block rng.random((n, width)).

    Row i is run i's: its first L entries are the uniforms, slot p's at
    column p. In random order L order keys follow, so width is 2L, and the
    run's order is the stable argsort of its keys; otherwise width is L, the
    order is left to right in autoregressive mode and None, a ranking at
    every step, in max-confidence order. Drawing a + b rows in two calls
    gives the same doubles as one call of a + b rows, so a caller may draw an
    arm in chunks. Returns the n orders and the n rows of uniforms as lists.
    """
    random_order = sched.mode == MODE_MASKED and sched.order_policy == ORDER_RANDOM
    block = rng.random((n, 2 * length if random_order else length))
    uniforms = block[:, :length].tolist()
    if random_order:
        orders = block[:, length:].argsort(axis=1, kind="stable").tolist()
    elif sched.mode == MODE_AUTOREGRESSIVE:
        orders = [list(range(length))] * n
    else:
        orders = [None] * n
    return orders, uniforms


# Composed vectors, temperature applied, keyed by the content of their inputs:
# temperature, weights and each expert vector's dtype and bytes. Each entry is
# draw-ready: the pair (cdf, peak), where cdf is the vector's CDF
# np.exp(v).cumsum() as a tuple of Python floats, which a draw bisects, and
# peak is v.max() as a float, which ranks positions by confidence. So a hit
# recomputes neither, and a step calls no numpy method on an entry: a draw
# from a 3-entry CDF, clip included, took 0.35 us as a bisect of the tuple
# and 1.5 us as a searchsorted of the same doubles as an array (2-core Xeon).
# Experts hand back the same few vectors run after run (20 000 masked fidelity
# runs on the 2x2 world compose 8 distinct inputs), so most steps find their
# entry here. An entry is charged _MEMO_FLOAT_BYTES per CDF float, the float
# and its tuple slot, plus a fixed cost per entry and per expert vector, an
# upper bound on what its key, dict slot and the other object headers take;
# the two-generation memo keeps the entries that keep being asked for within
# _MEMO_CAP_BYTES. Being keyed by content, one memo can serve every caller in
# the process without changing a result. Working sets measured (distinct
# entries, charged bytes):
# - count-3x3 of the benchmark, a composed and a joint error eval of 1000
#   grids each: 2 770 entries, 1.47 MiB a round; 3 885 and 2.07 MiB over 40
#   rounds on different seeds;
# - criterion 4, 10 000 grids an arm on the same world: 3 632, 1.93 MiB;
# - exact-3x3: 241, 0.17 MiB; fidelity-2x2: 19, 0.009 MiB.
# One generation, half the cap, holds each of them but the 40-round set,
# which is 3% over it: over those rounds the memo rotates, and 19 of the
# 3 904 vectors composed were ones composed before.
# At 2 MiB a generation held 1 MiB, so count-3x3 composed about 1.5k of its
# vectors again whenever a round was rerun.
_MEMO_CAP_BYTES = 1 << 22
_MEMO_ENTRY_BYTES = 256
_MEMO_VECTOR_BYTES = 64
_MEMO_FLOAT_BYTES = 32


def _composed_charge(key: tuple, entry: tuple) -> int:
    vectors = key[3::2]  # the key ends in (dtype, bytes) pairs, one per vector
    return (_MEMO_ENTRY_BYTES + _MEMO_FLOAT_BYTES * len(entry[0])
            + sum(len(v) + _MEMO_VECTOR_BYTES for v in vectors))


_memo = Memo(_MEMO_CAP_BYTES, _composed_charge)


def _composed(
    uncond: np.ndarray,
    conds: Sequence[np.ndarray],
    weights: tuple,
    temperature: float,
) -> tuple[tuple[float, ...], float]:
    """compose_logits at one position, then the temperature, through the memo.

    Returns the draw-ready entry (cdf, peak) of the composed log vector v,
    temperature applied: cdf is np.exp(v).cumsum() as a tuple of K Python
    floats, which sample_token bisects, and peak is v.max() as a float, which
    ranks the position in max-confidence order. Both are immutable.
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
    entry = (tuple(np.exp(logp).cumsum().tolist()), float(logp.max()))
    _memo.put(key, entry)
    return entry


def _select_positions(
    n_open: int,
    take: int,
    order: Sequence[int] | None,
    composed: dict[int, tuple] | None,
) -> list[int]:
    """The first `take` of the n_open open slots in the run's order, ascending.

    A run that starts fully masked fixes its order front to back, so the
    open slots are its last n_open; the state must come from such a run.

    order None ranks the keys of composed, the masked positions, by the peak
    of each memo entry (cdf, peak), highest first; the keys ascend and sorted
    is stable, so ties go to the lower index. composed is read only then.
    """
    if order is None:
        ranked = sorted(composed, key=lambda p: -composed[p][1])
        return sorted(ranked[:take])
    done = len(order) - n_open
    return sorted(order[done : done + take])


def composed_step(
    tokens: np.ndarray,
    model: ConditionalModel,
    conds: Sequence,
    weights: tuple[float, ...],
    sched: SamplerSchedule,
    order: Sequence[int] | None,
    uniforms: Sequence[float],
    stats: RunStats,
) -> np.ndarray:
    """Advance one step of a run: query, compose, select, draw.

    tokens is the run's (L,) int16 grid and is not written to; the step
    returns a fresh array, a copy of it with the selected masked slots
    drawn, so no fixed slot is overwritten. weights is a tuple of floats,
    one per condition, as run_to_completion passes it. The model is
    evaluated once unconditionally and once per condition, regardless of how
    many positions get fixed. order is the run's unmasking order, which
    needs only the count of open slots, or None for max-confidence order,
    which lists and composes every masked position to rank them; uniforms
    is the run's row of L draw uniforms; stats is the run's counter.
    Each position's draw-ready entry, its composed vector's CDF and peak,
    comes from a memo keyed by the content of the expert vectors, weights
    and temperature, so equal inputs give the same immutable entry; each
    selected position p takes one sample_token draw from its CDF at
    uniforms[p].
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
    for pos in selected:
        if composed is not None:
            entry = composed[pos]
        else:
            entry = _composed(uncond[pos], [d[pos] for d in per_cond], weights, temperature)
        tokens[pos] = sample_token(entry[0], uniforms[pos])
    stats.steps += 1
    return tokens


def run_to_completion(
    initial: MaskedState,
    model: ConditionalModel,
    conds: Sequence,
    weights: Sequence[float],
    sched: SamplerSchedule,
    order: Sequence[int] | None,
    uniforms: Sequence[float],
) -> tuple[np.ndarray, RunStats]:
    """Run composed_step ceil(L / tokens_per_step) times from a fully masked
    initial state, which fixes every slot; return the last step's tokens.

    The run is a function of (initial, model, conds, weights, sched) and of
    its row of draw_runs: its order and its L uniforms, slot p's token being
    the inverse-CDF draw at uniforms[p]. evalharness.sample_arm is its one
    caller in the package. initial is left as it was. order is None exactly
    in max-confidence order, which ranks the masked positions at every step.
    """
    tokens = initial.tokens
    length = tokens.size
    if tokens.tolist().count(MASK) != length:
        raise ValueError("run_to_completion expects a fully masked initial state")
    if len(conds) != len(weights):
        raise ShapeMismatch(f"{len(conds)} conditions vs {len(weights)} weights")
    weights = tuple(map(float, weights))  # hashable, for the memo key
    stats = RunStats()
    for _ in range(math.ceil(length / sched.tokens_per_step)):
        tokens = composed_step(tokens, model, conds, weights, sched, order, uniforms, stats)
    return tokens, stats
