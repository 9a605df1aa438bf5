"""Evaluation protocol: error rates, OOD composition, negation, benchmarks.

Every evaluation drives the composed sampler on an enumerable world, scores
outputs with the world's own predicates and reports binomial two-sigma
bounds. Distributional quality is measured as mean per-position total
variation between token histograms (the desk-scale stand-in for a learned
image distance). Evaluation counts are checked against the exact law
steps * (n + 1) on every run; a mismatch is an error, never a statistic.

Every caller samples through one loop, sample_arm: the suites here, the
sample command and the eval-count-law criterion. An arm draws its runs'
uniforms and order keys up front, one row per run, as one float64 block
from the arm's one generator, and run i is a function of row i. Under its
abort policy a run that ends in AllMassZero gives no grid, stays in its
arm's run count and adds to no hit or distinct count: an error where
conditions are scored, mass off the support in a joint TV. Each result
reports its aborts per arm.

Condition sets come from one list: every satisfiable k-subset of the pool,
those some support state satisfies. The error suite draws a run count for
every listed set at once and samples each drawn set as one arm; the ood
suite draws its one set from the same list. Both draw uniformly among the
satisfiable sets.

Reports serialize as line-delimited JSON records plus a fixed-width text
table. Wall-clock fields are measurement noise by nature and are the only
fields excluded from determinism comparisons.
"""

from __future__ import annotations

import itertools
import json
import math
import time
from dataclasses import asdict, dataclass, field, replace
from typing import ClassVar, Sequence

import numpy as np

from .errors import AllMassZero, EmptyIntersection, ValidationError
from .sampler import (
    MaskedState,
    SamplerSchedule,
    count_evaluations,
    draw_runs,
    run_to_completion,
)
from .worlds import JointPrompt, WorldJoint, cond_key, object_at_cell

TIMING_FIELDS = ("wall_time_per_sample", "wall_per_run")

# bools held at once while the satisfiable sets are listed
_COVER_CHUNK = 1 << 24
# runs whose draws sample_arm holds at once as Python lists; chunking bounds
# that memory whatever the arm's run count
_DRAW_ROWS = 256


def two_sigma_bound(p: float, n: int) -> float:
    """Binomial two-sigma half-width for an empirical rate."""
    if n <= 0:
        raise ValidationError("two_sigma_bound needs n >= 1")
    return 2.0 * math.sqrt(p * (1.0 - p) / n)


def _histograms(samples: np.ndarray, vocab_size: int) -> np.ndarray:
    samples = np.asarray(samples)
    if samples.ndim != 2 or samples.shape[0] == 0:
        raise ValidationError("need a nonempty (n, L) sample array")
    out = np.zeros((samples.shape[1], vocab_size))
    for p in range(samples.shape[1]):
        out[p] = np.bincount(samples[:, p], minlength=vocab_size)
    return out / samples.shape[0]


def tv_to_marginals(samples: np.ndarray, marginals: np.ndarray) -> float:
    """Mean per-position TV between sample histograms and target marginals."""
    marginals = np.asarray(marginals)
    hist = _histograms(samples, marginals.shape[1])
    return float(0.5 * np.abs(hist - marginals).sum(axis=1).mean())


def joint_tv(
    samples: np.ndarray, grids: np.ndarray, probs: np.ndarray, aborts: int = 0
) -> float:
    """Exact total variation between the empirical distribution over whole
    grids and an enumerated distribution (mass off the support included).

    grids are distinct. Each of the `aborts` runs that gave no grid is mass
    off the support.
    """
    samples = np.asarray(samples, dtype=np.int16)
    probs = np.asarray(probs, dtype=np.float64)
    n = samples.shape[0] + aborts
    keys, counts = np.unique(_row_keys(samples), return_counts=True)
    support = _row_keys(grids)
    # the count of each support grid among the samples, 0 where it is absent
    at = np.searchsorted(keys, support)
    found = at < keys.size
    found[found] = keys[at[found]] == support[found]
    hits = counts[at[found]]
    freq = np.zeros(support.size)
    freq[found] = hits / n
    off = n - int(hits.sum())  # runs off the support, aborted ones included
    return 0.5 * (float(np.abs(freq - probs).sum()) + off / n)


def predicate_pool(world: WorldJoint) -> list:
    """Cell-occupancy conditions, checkable on every world kind."""
    return [
        object_at_cell(c, r)
        for r in range(world.grid_h)
        for c in range(world.grid_w)
    ]


def _json_native(value):
    """Tuples become lists at any depth, as json.loads gives them back."""
    if isinstance(value, (list, tuple)):
        return [_json_native(v) for v in value]
    return value


class _Record:
    """A result dataclass whose record is its type tag plus every field."""

    record_type: ClassVar[str]

    def to_record(self) -> dict:
        fields = {k: _json_native(v) for k, v in asdict(self).items()}
        return {"type": self.record_type, **fields}


@dataclass
class EvalReport(_Record):
    record_type: ClassVar[str] = "eval_report"

    label: str
    n_components: int
    n_samples: int
    error_rate: float
    two_sigma: float
    tv_distance: float
    evaluations_per_sample: int
    wall_time_per_sample: float
    aborts: int = 0

    def __post_init__(self):
        expect = two_sigma_bound(self.error_rate, self.n_samples)
        if abs(self.two_sigma - expect) > 1e-12:
            raise ValidationError("two_sigma must equal 2*sqrt(p(1-p)/n)")


def record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def strip_timing(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


def format_table(reports: Sequence[EvalReport]) -> str:
    header = (
        f"{'label':<28}{'n':>7}{'comp':>6}{'err':>9}{'2sig':>9}{'tv':>9}{'evals':>7}{'aborts':>8}"
    )
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.label:<28}{r.n_samples:>7}{r.n_components:>6}"
            f"{r.error_rate:>9.4f}{r.two_sigma:>9.4f}{r.tv_distance:>9.4f}"
            f"{r.evaluations_per_sample:>7}{r.aborts:>8}"
        )
    return "\n".join(lines)


def sample_arm(
    model, length: int, conds: Sequence, weights: Sequence[float],
    sched: SamplerSchedule, rng: np.random.Generator, n: int,
) -> tuple[np.ndarray, int]:
    """Sample n grids from the rows of one block of uniforms; check the
    evaluation-count law on every run.

    The block is rng.random((n, width)), drawn in chunks of at most
    _DRAW_ROWS rows, which gives the same doubles; row i holds run i's
    uniforms and, in random order, its order keys (sampler.draw_runs). So
    the arm takes exactly n * width doubles from rng, whether or not its runs
    abort, and run i is a function of row i. Every caller in the package
    samples through here, one run_to_completion call per grid; nothing else
    calls run_to_completion.
    The runs share one frozen initial state: a step copies the tokens before
    it writes. A run that aborts with AllMassZero gives no grid. Returns the
    completed grids in run order as an (n - aborts, L) int16 block, and the
    aborts. n < 1 raises ValidationError.
    """
    if n < 1:
        raise ValidationError(f"sampling needs at least one run, got {n}")
    expect = count_evaluations(sched, length, len(conds))
    initial = MaskedState.fully_masked(length)
    block = np.empty((n, length), dtype=np.int16)
    kept = 0
    for lo in range(0, n, _DRAW_ROWS):
        for order, uniforms in zip(*draw_runs(sched, length, rng, min(_DRAW_ROWS, n - lo))):
            try:
                tokens, stats = run_to_completion(
                    initial, model, conds, weights, sched, order, uniforms
                )
            except AllMassZero:
                continue
            if stats.evaluations != expect:
                raise ValidationError(
                    f"evaluation-count law violated: measured {stats.evaluations}, "
                    f"law gives {expect}"
                )
            block[kept] = tokens
            kept += 1
    return block[:kept], n - kept


def _row_keys(grids: np.ndarray) -> np.ndarray:
    """One opaque scalar per row of (N, L) token grids or other small ints,
    equal exactly when the rows are; np.unique and np.isin compare them."""
    grids = np.ascontiguousarray(grids, dtype=np.int16)
    return grids.view(np.dtype((np.void, grids.itemsize * grids.shape[1]))).ravel()


def _hits(world: WorldJoint, grids: np.ndarray, conds: Sequence) -> int:
    """How many of the (N, L) grids satisfy every condition."""
    return int(world.check_conditions(grids, conds).all(axis=0).sum())


def _satisfiable_sets(world: WorldJoint, pool: Sequence, k: int) -> list[tuple]:
    """Every k-subset of the pool that some support state satisfies, in
    itertools.combinations order: one distinct row of the (S, P) matrix of
    which state can hold which condition is true on all its members."""
    pool = list(pool)
    if not pool:
        raise ValidationError("condition pool is empty")
    if k > len(pool):
        raise ValidationError(
            f"cannot draw {k} distinct conditions from a pool of {len(pool)}"
        )
    holds = np.column_stack([np.isfinite(world.condition_loglik(c)) for c in pool])
    _, first = np.unique(_row_keys(holds), return_index=True)
    holds = holds[first]
    # (C, k), one row per subset; C >= 1 as k <= len(pool)
    combos = np.array(list(itertools.combinations(range(len(pool)), k)), dtype=np.intp)
    chunk = max(1, _COVER_CHUNK // max(1, holds.shape[0] * k))
    ok = np.concatenate([
        holds[:, combos[lo:lo + chunk]].all(axis=2).any(axis=0)
        for lo in range(0, len(combos), chunk)
    ])
    if not ok.any():
        raise EmptyIntersection(
            f"no {k}-condition subset of the {len(pool)}-condition pool is satisfiable"
        )
    return [tuple(pool[i] for i in combo) for combo in combos[ok]]


def run_error_eval(
    model,
    world: WorldJoint,
    n_components: int,
    n_samples: int,
    sched: SamplerSchedule = SamplerSchedule(),
    rng_seed: int = 0,
    joint_prompt: bool = False,
    pool: Sequence | None = None,
    label: str = "",
) -> EvalReport:
    """Sample satisfiable condition sets, generate, score every condition.

    Sets are drawn uniformly among the pool's satisfiable n_components-sets:
    one multinomial draw gives every set its run count, and each set with
    runs is sampled as one arm. The draw and the arms share one generator.
    A run errs if any condition of its set is unsatisfied or if it aborts.
    joint_prompt=True asks each set as one opaque JointPrompt, the
    non-composed baseline; it changes the per-sample evaluation count from
    (n+1) to 2 model queries per step.
    """
    if n_samples < 1:
        raise ValidationError(f"error eval needs at least one sample, got {n_samples}")
    t0 = time.perf_counter()
    sets = _satisfiable_sets(
        world, pool if pool is not None else predicate_pool(world), n_components
    )
    rng = np.random.default_rng(rng_seed)
    counts = rng.multinomial(n_samples, np.full(len(sets), 1.0 / len(sets)))
    length = world.length
    joint = joint_prompt and n_components > 0
    blocks = []
    mixture = np.zeros((length, world.vocab_size))
    errors = 0
    for conds, n in zip(sets, counts):
        if not n:
            continue
        run_conds = [JointPrompt(conds)] if joint else conds
        grids, _ = sample_arm(model, length, run_conds, [1.0] * len(run_conds), sched, rng, int(n))
        if conds:
            errors += len(grids) - _hits(world, grids, conds)
        mixture += len(grids) * world.enumerate_posterior(conds).marginals()
        blocks.append(grids)
    elapsed = time.perf_counter() - t0

    completed = np.concatenate(blocks)
    kept = len(completed)
    aborts = n_samples - kept
    p = (errors + aborts) / n_samples
    tv = tv_to_marginals(completed, mixture / kept) if kept else 1.0
    return EvalReport(
        label=label or ("joint_prompt" if joint_prompt else "composed"),
        n_components=n_components,
        n_samples=n_samples,
        error_rate=p,
        two_sigma=two_sigma_bound(p, n_samples),
        tv_distance=tv,
        evaluations_per_sample=count_evaluations(sched, length, 1 if joint else n_components),
        wall_time_per_sample=elapsed / n_samples,
        aborts=aborts,
    )


@dataclass
class OodResult(_Record):
    record_type: ClassVar[str] = "ood_result"

    train_max_objects: int
    test_n_conditions: int
    n_runs: int
    condition_keys: list
    composed_rate: float
    composed_two_sigma: float
    composed_distinct: int
    composed_aborts: int
    baseline_rate: float
    baseline_two_sigma: float
    baseline_distinct: int
    baseline_aborts: int
    # per arm: distinct grids that lie in the support and satisfy every
    # condition, and the share of runs whose grid lies off the support
    composed_distinct_in_support: int
    composed_off_support: float
    baseline_distinct_in_support: int
    baseline_off_support: float


def run_ood_eval(
    model,
    world: WorldJoint,
    train_max_objects: int,
    test_n_conditions: int,
    n_runs: int = 100,
    sched: SamplerSchedule = SamplerSchedule(),
    rng_seed: int = 0,
) -> OodResult:
    """Compose more conditions than any training scene had objects.

    The caller fits the model on the world restricted to scenes of at most
    train_max_objects objects; the suite records that budget. Composed
    generation (weight 1 per condition) is paired against the
    joint-prompt baseline on the same condition set, drawn uniformly among
    the satisfiable test_n_conditions-subsets of the cell pool. Both arms
    draw their block from one generator state, so run i of each arm has the
    same row of uniforms and order keys. A grid off the world's support
    (more objects than its budget) can still satisfy the set, so each arm
    also reports its off-support share and its distinct grids that lie in
    the support and satisfy the set.
    """
    if test_n_conditions <= train_max_objects:
        raise ValidationError(
            "out-of-distribution test needs test_n_conditions > train_max_objects"
        )
    if n_runs < 1:
        raise ValidationError(f"ood eval needs at least one run per arm, got {n_runs}")
    sets = _satisfiable_sets(world, predicate_pool(world), test_n_conditions)
    conds = list(sets[np.random.default_rng(rng_seed).integers(len(sets))])
    support = _row_keys(world.support()[0])
    arms = {}
    for arm, run_conds in (("composed", conds), ("baseline", [JointPrompt(conds)])):
        grids, aborts = sample_arm(
            model, world.length, run_conds, [1.0] * len(run_conds), sched,
            np.random.default_rng(rng_seed + 1), n_runs,
        )
        rows = _row_keys(grids)
        hit = world.check_conditions(grids, conds).all(axis=0)
        in_support = np.isin(rows, support)
        rate = int(hit.sum()) / n_runs
        arms.update({
            f"{arm}_rate": rate,
            f"{arm}_two_sigma": two_sigma_bound(rate, n_runs),
            f"{arm}_distinct": np.unique(rows).size,
            f"{arm}_aborts": aborts,
            f"{arm}_distinct_in_support": np.unique(rows[hit & in_support]).size,
            f"{arm}_off_support": int((~in_support).sum()) / n_runs,
        })
    return OodResult(
        train_max_objects=train_max_objects,
        test_n_conditions=test_n_conditions,
        n_runs=n_runs,
        condition_keys=[cond_key(c) for c in conds],
        **arms,
    )


@dataclass
class NegationResult(_Record):
    record_type: ClassVar[str] = "negation_result"

    condition_key: tuple
    n_samples: int
    p0_exact: float
    p0_measured: float
    weights: tuple
    rates: tuple
    sigmas: tuple = field(default=())
    aborts: tuple = field(default=())  # per weight
    p0_aborts: int = 0  # of the dedicated p0 arm; 0 when the w = 0 arm gives p0

    def rate_at(self, w: float) -> float:
        return self.rates[self.weights.index(w)]

    def monotone_violations(self) -> tuple[int, int]:
        """(soft, hard) adjacent decreases; hard ones exceed the pair's
        combined two-sigma allowance."""
        soft = hard = 0
        for i in range(len(self.rates) - 1):
            drop = self.rates[i] - self.rates[i + 1]
            if drop <= 0:
                continue
            allowance = math.hypot(self.sigmas[i], self.sigmas[i + 1])
            if drop > allowance:
                hard += 1
            else:
                soft += 1
        return soft, hard


def run_negation_eval(
    model,
    world: WorldJoint,
    cond,
    n_samples: int,
    weights: Sequence[float] = (-3.0, -1.0, 0.0, 1.0, 3.0),
    sched: SamplerSchedule = SamplerSchedule(),
    rng_seed: int = 0,
) -> NegationResult:
    """Measure condition satisfaction across a weight sweep.

    The exact unconditional satisfaction probability comes from enumeration;
    the measured p0 is the w = 0 arm of the sweep when present, otherwise a
    dedicated unconditional arm. Headroom precondition: p0 in (0.05, 0.95).
    """
    grids, logp = world.support()
    sat = world.predicate(grids, cond)
    p0_exact = float(np.exp(logp[sat]).sum())
    if not (0.05 < p0_exact < 0.95):
        raise ValidationError(
            f"condition has unconditional rate {p0_exact:.3f}; need headroom in (0.05, 0.95)"
        )
    weights = tuple(float(w) for w in weights)
    rng = np.random.default_rng(rng_seed)
    rates, aborts = [], []
    for w in weights:
        grids, arm_aborts = sample_arm(model, world.length, [cond], [w], sched, rng, n_samples)
        rates.append(_hits(world, grids, [cond]) / n_samples)
        aborts.append(arm_aborts)
    if 0.0 in weights:
        p0_measured, p0_aborts = rates[weights.index(0.0)], 0
    else:
        grids, p0_aborts = sample_arm(model, world.length, [], [], sched, rng, n_samples)
        p0_measured = _hits(world, grids, [cond]) / n_samples
    return NegationResult(
        condition_key=cond_key(cond),
        n_samples=n_samples,
        p0_exact=p0_exact,
        p0_measured=p0_measured,
        weights=weights,
        rates=tuple(rates),
        sigmas=tuple(two_sigma_bound(r, n_samples) for r in rates),
        aborts=tuple(aborts),
        p0_aborts=p0_aborts,
    )


@dataclass
class BenchRow(_Record):
    record_type: ClassVar[str] = "bench_row"

    mode: str
    tokens_per_step: int
    n_conditions: int
    length: int
    steps: int
    evaluations: int
    n_runs: int
    wall_per_run: float
    aborts: int = 0


def run_bench(
    model,
    world: WorldJoint,
    tokens_per_step_grid: Sequence[int] = (1, 3, 9),
    n_conditions_grid: Sequence[int] = (0, 1, 2),
    n_runs: int = 5,
    sched: SamplerSchedule = SamplerSchedule(),
    rng_seed: int = 0,
) -> list[BenchRow]:
    """Timing and exact evaluation counts over a schedule grid; an aborted
    run is timed like a completed one."""
    pool = predicate_pool(world)
    for n in n_conditions_grid:
        if n > len(pool):
            raise ValidationError(
                f"cannot draw {n} distinct conditions from a pool of {len(pool)}"
            )
    try:
        run_scheds = [replace(sched, tokens_per_step=int(s)) for s in tokens_per_step_grid]
    except ValueError as exc:
        raise ValidationError(f"bench schedule: {exc}") from None
    rng = np.random.default_rng(rng_seed)
    rows = []
    for run_sched in run_scheds:
        for n in n_conditions_grid:
            conds = [pool[int(i)] for i in rng.choice(len(pool), size=n, replace=False)]
            t0 = time.perf_counter()
            _, aborts = sample_arm(model, world.length, conds, [1.0] * n, run_sched, rng, n_runs)
            elapsed = time.perf_counter() - t0
            # sample_arm checked every run's evaluations against the law, and
            # a run makes n + 1 evaluations per step
            evaluations = count_evaluations(run_sched, world.length, n)
            rows.append(
                BenchRow(
                    mode=run_sched.mode,
                    tokens_per_step=run_sched.tokens_per_step,
                    n_conditions=n,
                    length=world.length,
                    steps=evaluations // (n + 1),
                    evaluations=evaluations,
                    n_runs=n_runs,
                    wall_per_run=elapsed / n_runs,
                    aborts=aborts,
                )
            )
    return rows


def fidelity_tv(
    world: WorldJoint,
    cond,
    n_samples: int,
    sched: SamplerSchedule = SamplerSchedule(temperature=1.0),
    rng_seed: int = 0,
    *,
    model,
) -> float:
    """Joint TV between sampler output and the enumerated conditional law;
    aborted runs count as mass off the support."""
    conds = [cond] if cond is not None else []
    post = world.enumerate_posterior(conds)
    samples, aborts = sample_arm(
        model, world.length, conds, [1.0] * len(conds), sched,
        np.random.default_rng(rng_seed), n_samples,
    )
    return joint_tv(samples, post.grids, post.probs, aborts)
