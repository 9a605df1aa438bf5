"""Evaluation protocol: error rates, OOD composition, negation, benchmarks.

Every evaluation drives the composed sampler on an enumerable world, scores
outputs with the world's own predicates and reports binomial two-sigma
bounds. Distributional quality is measured as mean per-position total
variation between token histograms (the desk-scale stand-in for a learned
image distance). Evaluation counts are checked against the exact law
steps * (n + 1) on every run; a mismatch is an error, never a statistic.

Reports serialize as line-delimited JSON records plus a fixed-width text
table. Wall-clock fields are measurement noise by nature and are the only
fields excluded from determinism comparisons.
"""

from __future__ import annotations

import json
import math
import time
from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from .countmodel import fit_count_model
from .errors import AllMassZero, EmptyIntersection, ValidationError
from .sampler import (
    MaskedState,
    SamplerSchedule,
    count_evaluations,
    reseeded,
    run_to_completion,
)
from .worlds import WorldJoint, cond_key, exact_conditional_model, object_at_cell

TIMING_FIELDS = ("wall_time_per_sample", "wall_per_run", "wall_per_image")

_SEED_BOUND = 2**63 - 1


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


def joint_tv(samples: np.ndarray, grids: np.ndarray, probs: np.ndarray) -> float:
    """Exact total variation between the empirical distribution over whole
    grids and an enumerated distribution (mass off the support included)."""
    samples = np.asarray(samples, dtype=np.int16)
    n = samples.shape[0]
    freq: dict[bytes, float] = {}
    for row in samples:
        key = row.tobytes()
        freq[key] = freq.get(key, 0.0) + 1.0 / n
    tv = 0.0
    for g, p in zip(np.asarray(grids, dtype=np.int16), probs):
        tv += abs(freq.pop(g.tobytes(), 0.0) - float(p))
    tv += sum(freq.values())  # empirical mass that fell outside the support
    return 0.5 * tv


def predicate_pool(world: WorldJoint) -> list:
    """Cell-occupancy conditions, checkable on every world kind."""
    return [
        object_at_cell(c, r)
        for r in range(world.grid_h)
        for c in range(world.grid_w)
    ]


@dataclass
class EvalReport:
    label: str
    n_components: int
    n_samples: int
    error_rate: float
    two_sigma: float
    tv_distance: float
    evaluations_per_sample: int
    wall_time_per_sample: float

    def __post_init__(self):
        expect = two_sigma_bound(self.error_rate, self.n_samples)
        if abs(self.two_sigma - expect) > 1e-12:
            raise ValidationError("two_sigma must equal 2*sqrt(p(1-p)/n)")

    def to_record(self) -> dict:
        return {
            "type": "eval_report",
            "label": self.label,
            "n_components": self.n_components,
            "n_samples": self.n_samples,
            "error_rate": self.error_rate,
            "two_sigma": self.two_sigma,
            "tv_distance": self.tv_distance,
            "evaluations_per_sample": self.evaluations_per_sample,
            "wall_time_per_sample": self.wall_time_per_sample,
        }


def record_line(record: dict) -> str:
    return json.dumps(record, sort_keys=True)


def strip_timing(record: dict) -> dict:
    return {k: v for k, v in record.items() if k not in TIMING_FIELDS}


def format_table(reports: Sequence[EvalReport]) -> str:
    header = f"{'label':<28}{'n':>7}{'comp':>6}{'err':>9}{'2sig':>9}{'tv':>9}{'evals':>7}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.label:<28}{r.n_samples:>7}{r.n_components:>6}"
            f"{r.error_rate:>9.4f}{r.two_sigma:>9.4f}{r.tv_distance:>9.4f}"
            f"{r.evaluations_per_sample:>7}"
        )
    return "\n".join(lines)


class _ConditionSetSampler:
    """Rejection sampler for mutually satisfiable condition sets; caches the
    satisfiability verdict and the exact posterior marginals per set."""

    def __init__(self, world: WorldJoint, pool: Sequence, max_retries: int = 200):
        if not pool:
            raise ValidationError("condition pool is empty")
        self.world = world
        self.pool = list(pool)
        self.max_retries = max_retries
        self._verdict: dict[tuple, bool] = {}
        self._marginals: dict[tuple, np.ndarray] = {}

    def _key(self, conds) -> tuple:
        return tuple(sorted(cond_key(c) for c in conds))

    def draw(self, n_components: int, rng: np.random.Generator) -> list:
        if n_components > len(self.pool):
            raise ValidationError(
                f"cannot draw {n_components} distinct conditions from a pool of {len(self.pool)}"
            )
        if n_components == 0:
            return []
        for _ in range(self.max_retries):
            idx = rng.choice(len(self.pool), size=n_components, replace=False)
            conds = [self.pool[int(i)] for i in sorted(idx)]
            key = self._key(conds)
            verdict = self._verdict.get(key)
            if verdict is None:
                try:
                    post = self.world.enumerate_posterior(conds)
                    self._marginals[key] = post.marginals()
                    verdict = True
                except EmptyIntersection:
                    verdict = False
                self._verdict[key] = verdict
            if verdict:
                return conds
        raise EmptyIntersection(
            f"no satisfiable {n_components}-condition set found in {self.max_retries} draws"
        )

    def marginals(self, conds) -> np.ndarray:
        return self._marginals[self._key(conds)]


def _sample(
    model, length: int, conds: Sequence, weights: Sequence[float],
    sched: SamplerSchedule, rng: np.random.Generator,
) -> np.ndarray:
    """Sample one grid under a seed drawn from rng; check the evaluation-count law.

    Every suite samples through here, one run_to_completion call per grid.
    AllMassZero from the run propagates to the caller.
    """
    seed = int(rng.integers(_SEED_BOUND))
    tokens, stats = run_to_completion(
        MaskedState.fully_masked(length), model, conds, weights, reseeded(sched, seed)
    )
    expect = count_evaluations(sched, length, len(conds))
    if stats.evaluations != expect:
        raise ValidationError(
            f"evaluation-count law violated: measured {stats.evaluations}, "
            f"law gives {expect}"
        )
    return tokens


def run_error_eval(
    model,
    world: WorldJoint,
    n_components: int,
    n_samples: int,
    weight: float = 1.0,
    sched: SamplerSchedule | None = None,
    rng_seed: int = 0,
    joint_prompt: bool = False,
    pool: Sequence | None = None,
    label: str = "",
    max_retries: int = 200,
) -> EvalReport:
    """Sample satisfiable condition sets, generate, score every condition.

    A run errs if any condition of its set is unsatisfied (or generation
    aborts because the composition painted itself into a zero-mass corner).
    joint_prompt=True concatenates each set into one opaque condition, the
    non-composed baseline; it changes the per-sample evaluation count from
    (n+1) to 2 model queries per step.
    """
    if sched is None:
        sched = SamplerSchedule()
    sampler = _ConditionSetSampler(world, pool if pool is not None else predicate_pool(world), max_retries)
    rng = np.random.default_rng(rng_seed)
    length = world.length
    n_for_law = 1 if joint_prompt and n_components > 0 else n_components
    completed = []
    mixture = np.zeros((length, world.vocab_size))
    errors = 0
    t0 = time.perf_counter()
    for _ in range(n_samples):
        conds = sampler.draw(n_components, rng)
        if joint_prompt and n_components > 0:
            run_conds, run_weights = [tuple(conds)], [weight]
        else:
            run_conds, run_weights = list(conds), [weight] * n_components
        try:
            tokens = _sample(model, length, run_conds, run_weights, sched, rng)
        except AllMassZero:
            errors += 1
            continue
        if conds and not world.check_conditions(tokens, conds).all():
            errors += 1
        completed.append(tokens)
        mixture += sampler.marginals(conds) if conds else world.prior_marginals()
    elapsed = time.perf_counter() - t0

    p = errors / n_samples
    tv = (
        tv_to_marginals(np.stack(completed), mixture / len(completed))
        if completed
        else 1.0
    )
    return EvalReport(
        label=label or ("joint_prompt" if joint_prompt else "composed"),
        n_components=n_components,
        n_samples=n_samples,
        error_rate=p,
        two_sigma=two_sigma_bound(p, n_samples),
        tv_distance=tv,
        evaluations_per_sample=count_evaluations(sched, length, n_for_law),
        wall_time_per_sample=elapsed / n_samples,
    )


@dataclass
class OodResult:
    train_max_objects: int
    test_n_conditions: int
    n_runs: int
    condition_keys: list
    composed_rate: float
    composed_two_sigma: float
    composed_distinct: int
    baseline_rate: float
    baseline_two_sigma: float
    baseline_distinct: int

    @property
    def separation(self) -> float:
        return self.composed_rate - self.baseline_rate

    def to_record(self) -> dict:
        return {
            "type": "ood_result",
            "train_max_objects": self.train_max_objects,
            "test_n_conditions": self.test_n_conditions,
            "n_runs": self.n_runs,
            "condition_keys": [list(k) for k in self.condition_keys],
            "composed_rate": self.composed_rate,
            "composed_two_sigma": self.composed_two_sigma,
            "composed_distinct": self.composed_distinct,
            "baseline_rate": self.baseline_rate,
            "baseline_two_sigma": self.baseline_two_sigma,
            "baseline_distinct": self.baseline_distinct,
        }


def _satisfaction_arm(world, model, run_conds, weights, check_conds, sched, rng, n_runs):
    hits, outputs = 0, set()
    for _ in range(n_runs):
        try:
            tokens = _sample(model, world.length, run_conds, weights, sched, rng)
        except AllMassZero:
            continue
        if world.check_conditions(tokens, check_conds).all():
            hits += 1
        outputs.add(tokens.tobytes())
    return hits / n_runs, len(outputs)


def run_ood_eval(
    model,
    world: WorldJoint,
    train_max_objects: int,
    test_n_conditions: int,
    n_runs: int = 100,
    n_train: int = 30_000,
    weight: float = 1.0,
    sched: SamplerSchedule | None = None,
    rng_seed: int = 0,
    alpha: float = 0.5,
    dropout_prob: float = 0.1,
) -> OodResult:
    """Compose more conditions than any training scene had objects.

    model=None fits a CountModel on the world restricted to scenes of at
    most train_max_objects objects; a caller-supplied model must already
    honor that restriction. Composed generation (one weight per condition)
    is paired against the joint-prompt baseline on the same condition set
    and the same run seeds.
    """
    if test_n_conditions <= train_max_objects:
        raise ValidationError(
            "out-of-distribution test needs test_n_conditions > train_max_objects"
        )
    if sched is None:
        sched = SamplerSchedule()
    if model is None:
        model = fit_count_model(
            world, n_train, alpha=alpha, dropout_prob=dropout_prob,
            rng_seed=rng_seed, training_max_objects=train_max_objects,
        )
    rng = np.random.default_rng(rng_seed)
    sampler = _ConditionSetSampler(world, predicate_pool(world))
    conds = sampler.draw(test_n_conditions, rng)

    composed_rate, composed_distinct = _satisfaction_arm(
        world, model, list(conds), [weight] * len(conds), list(conds), sched,
        np.random.default_rng(rng_seed + 1), n_runs,
    )
    baseline_rate, baseline_distinct = _satisfaction_arm(
        world, model, [tuple(conds)], [weight], list(conds), sched,
        np.random.default_rng(rng_seed + 1), n_runs,
    )
    return OodResult(
        train_max_objects=train_max_objects,
        test_n_conditions=test_n_conditions,
        n_runs=n_runs,
        condition_keys=[cond_key(c) for c in conds],
        composed_rate=composed_rate,
        composed_two_sigma=two_sigma_bound(composed_rate, n_runs),
        composed_distinct=composed_distinct,
        baseline_rate=baseline_rate,
        baseline_two_sigma=two_sigma_bound(baseline_rate, n_runs),
        baseline_distinct=baseline_distinct,
    )


@dataclass
class NegationResult:
    condition_key: tuple
    n_samples: int
    p0_exact: float
    p0_measured: float
    weights: tuple
    rates: tuple
    sigmas: tuple = field(default=())

    def rate_at(self, w: float) -> float:
        return self.rates[self.weights.index(w)]

    def sigma_at(self, w: float) -> float:
        return self.sigmas[self.weights.index(w)]

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

    def to_record(self) -> dict:
        return {
            "type": "negation_result",
            "condition_key": list(self.condition_key),
            "n_samples": self.n_samples,
            "p0_exact": self.p0_exact,
            "p0_measured": self.p0_measured,
            "weights": list(self.weights),
            "rates": list(self.rates),
            "sigmas": list(self.sigmas),
        }


def run_negation_eval(
    model,
    world: WorldJoint,
    cond,
    n_samples: int,
    weights: Sequence[float] = (-3.0, -1.0, 0.0, 1.0, 3.0),
    sched: SamplerSchedule | None = None,
    rng_seed: int = 0,
) -> NegationResult:
    """Measure condition satisfaction across a weight sweep.

    The exact unconditional satisfaction probability comes from enumeration;
    the measured p0 is the w = 0 arm of the sweep when present, otherwise a
    dedicated unconditional run. Headroom precondition: p0 in (0.05, 0.95).
    """
    if sched is None:
        sched = SamplerSchedule()
    grids, logp = world.support()
    sat = world.predicate(grids, cond)
    p0_exact = float(np.exp(logp[sat]).sum())
    if not (0.05 < p0_exact < 0.95):
        raise ValidationError(
            f"condition has unconditional rate {p0_exact:.3f}; need headroom in (0.05, 0.95)"
        )
    rng = np.random.default_rng(rng_seed)
    rates, sigmas = [], []
    for w in weights:
        hits = 0
        for _ in range(n_samples):
            tokens = _sample(model, world.length, [cond], [float(w)], sched, rng)
            hits += int(world.check_conditions(tokens, [cond])[0])
        rates.append(hits / n_samples)
        sigmas.append(two_sigma_bound(hits / n_samples, n_samples))
    if 0.0 in [float(w) for w in weights]:
        p0_measured = rates[[float(w) for w in weights].index(0.0)]
    else:
        hits = 0
        for _ in range(n_samples):
            tokens = _sample(model, world.length, [], [], sched, rng)
            hits += int(world.check_conditions(tokens, [cond])[0])
        p0_measured = hits / n_samples
    return NegationResult(
        condition_key=cond_key(cond),
        n_samples=n_samples,
        p0_exact=p0_exact,
        p0_measured=p0_measured,
        weights=tuple(float(w) for w in weights),
        rates=tuple(rates),
        sigmas=tuple(sigmas),
    )


@dataclass
class BenchRow:
    mode: str
    tokens_per_step: int
    n_conditions: int
    length: int
    steps: int
    evaluations: int
    n_runs: int
    wall_per_run: float

    def to_record(self) -> dict:
        return {
            "type": "bench_row",
            "mode": self.mode,
            "tokens_per_step": self.tokens_per_step,
            "n_conditions": self.n_conditions,
            "length": self.length,
            "steps": self.steps,
            "evaluations": self.evaluations,
            "n_runs": self.n_runs,
            "wall_per_run": self.wall_per_run,
        }


def run_bench(
    model,
    world: WorldJoint,
    tokens_per_step_grid: Sequence[int] = (1, 3, 9),
    n_conditions_grid: Sequence[int] = (0, 1, 2),
    n_runs: int = 5,
    sched: SamplerSchedule | None = None,
    rng_seed: int = 0,
    pool: Sequence | None = None,
) -> list[BenchRow]:
    """Timing and exact evaluation counts over a schedule grid."""
    if sched is None:
        sched = SamplerSchedule()
    pool = list(pool) if pool is not None else predicate_pool(world)
    rng = np.random.default_rng(rng_seed)
    rows = []
    for s in tokens_per_step_grid:
        for n in n_conditions_grid:
            conds = [pool[int(i)] for i in rng.choice(len(pool), size=n, replace=False)]
            run_sched = replace(sched, tokens_per_step=int(s))
            t0 = time.perf_counter()
            for _ in range(n_runs):
                _sample(model, world.length, conds, [1.0] * n, run_sched, rng)
            elapsed = time.perf_counter() - t0
            # _sample checked every run's evaluations against the law, and a
            # run makes n + 1 evaluations per step
            evaluations = count_evaluations(run_sched, world.length, n)
            rows.append(
                BenchRow(
                    mode=run_sched.mode,
                    tokens_per_step=int(s),
                    n_conditions=n,
                    length=world.length,
                    steps=evaluations // (n + 1),
                    evaluations=evaluations,
                    n_runs=n_runs,
                    wall_per_run=elapsed / n_runs,
                )
            )
    return rows


def run_batch_bench(
    model_factory: Callable[[], object],
    world: WorldJoint,
    conds: Sequence,
    batch_sizes: Sequence[int] = (1, 25),
    sched: SamplerSchedule | None = None,
    rng_seed: int = 0,
    repeats: int = 3,
) -> list[dict]:
    """Per-image wall time at different batch sizes, cold model per batch.

    Larger batches amortize whatever the model caches across runs; the
    reported per-image time is the best of `repeats` measurements.
    """
    if sched is None:
        sched = SamplerSchedule()
    out = []
    for b in batch_sizes:
        best = math.inf
        for r in range(repeats):
            model = model_factory()
            rng = np.random.default_rng(rng_seed + r)
            t0 = time.perf_counter()
            for _ in range(b):
                _sample(model, world.length, list(conds), [1.0] * len(conds), sched, rng)
            best = min(best, (time.perf_counter() - t0) / b)
        out.append({"type": "batch_bench", "batch_size": int(b), "wall_per_image": best})
    return out


def fidelity_tv(
    world: WorldJoint,
    cond,
    n_samples: int,
    sched: SamplerSchedule | None = None,
    rng_seed: int = 0,
    model=None,
) -> float:
    """Joint TV between sampler output and the enumerated conditional law."""
    if sched is None:
        sched = SamplerSchedule(temperature=1.0)
    if model is None:
        model = exact_conditional_model(world)
    post = world.enumerate_posterior([cond] if cond is not None else [])
    rng = np.random.default_rng(rng_seed)
    samples = np.empty((n_samples, world.length), dtype=np.int16)
    conds = [cond] if cond is not None else []
    weights = [1.0] * len(conds)
    for i in range(n_samples):
        samples[i] = _sample(model, world.length, conds, weights, sched, rng)
    return joint_tv(samples, post.grids, post.probs)
