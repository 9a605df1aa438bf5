"""Executable acceptance suite: nine verifiable claims about this package.

Each criterion is a standalone function returning a CriterionResult with a
pass flag, the measured numbers in its detail string, and the wall-clock
budget it must finish within. run_acceptance() executes all nine in order.
The suite is what `maskcompose eval --suite acceptance` and the acceptance
test module run; nothing here depends on test infrastructure.
"""

from __future__ import annotations

import hashlib
import math
import os
import tempfile
import time
from dataclasses import dataclass

import numpy as np

from .compose import compose_logits
from .errors import MaskComposeError
from .evalharness import fidelity_tv, run_error_eval, run_negation_eval, run_ood_eval, sample_arm
from .codec import decode, encode, learn_codebook, quantize_oracle, quantize_patch
from .countmodel import fit_count_model
from .sampler import MODE_AUTOREGRESSIVE, MaskedState, SamplerSchedule, count_evaluations
from .worlds import (
    build_random_factorized_world,
    build_scene_world,
    cell_table,
    exact_conditional_model,
    object_at_cell,
)


@dataclass
class CriterionResult:
    name: str
    passed: bool
    budget_s: float
    elapsed_s: float
    detail: str

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        return (
            f"{verdict} {self.name}: {self.detail} "
            f"[{self.elapsed_s:.1f}s of {self.budget_s:.0f}s budget]"
        )

    def to_record(self) -> dict:
        # elapsed deliberately left out so report files stay byte-stable
        return {
            "type": "criterion",
            "name": self.name,
            "passed": self.passed,
            "detail": self.detail,
        }


def _timed(name: str, budget_s: float, fn) -> CriterionResult:
    t0 = time.perf_counter()
    try:
        passed, detail = fn()
    except MaskComposeError as exc:
        passed, detail = False, f"raised {type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if elapsed > budget_s:
        passed = False
        detail += f"; exceeded {budget_s:.0f}s budget"
    return CriterionResult(name, passed, budget_s, elapsed, detail)


def criterion_poe_exactness() -> CriterionResult:
    """Composed marginals equal brute-force posterior on a factorized world."""

    def body():
        world = build_random_factorized_world(
            3, 3, 5, n_conditions=2, cells_per_condition=2, seed=11
        )
        model = exact_conditional_model(world)
        tokens = MaskedState.fully_masked(world.length).tokens
        c0, c1 = cell_table("c0"), cell_table("c1")
        uncond = model.predict(tokens, None)
        d0 = model.predict(tokens, c0)
        d1 = model.predict(tokens, c1)
        post = world.enumerate_posterior([c0, c1]).marginals()
        worst = 0.0
        for p in range(world.length):
            out = np.exp(compose_logits(uncond[p], [d0[p], d1[p]], [1.0, 1.0]))
            worst = max(worst, float(np.abs(out - post[p]).max()))
        return worst < 1e-10, f"worst |composed - posterior| {worst:.2e} (tol 1e-10, L=9 K=5)"

    return _timed("poe-exactness", 10.0, body)


def criterion_shift_invariance() -> CriterionResult:
    """Adding constants to any input log-vector never moves the output."""

    def body():
        rng = np.random.default_rng(0)
        worst = 0.0
        for _ in range(1000):
            k = int(rng.integers(2, 9))
            n = int(rng.integers(1, 4))
            u = rng.normal(0.0, 3.0, k)
            conds = [rng.normal(0.0, 3.0, k) for _ in range(n)]
            weights = list(rng.uniform(-2.0, 2.0, n))
            base = compose_logits(u, conds, weights)
            shifted = compose_logits(
                u + rng.normal(0.0, 50.0),
                [c + rng.normal(0.0, 50.0) for c in conds],
                weights,
            )
            worst = max(worst, float(np.abs(base - shifted).max()))
        return worst < 1e-12, f"worst shift drift {worst:.2e} over 1000 trials (tol 1e-12)"

    return _timed("shift-invariance", 1.0, body)


def criterion_sampler_fidelity() -> CriterionResult:
    """Masked and autoregressive sampling reproduce the enumerated law.

    With at most two objects the conditioned law is not the product of its
    marginals, so a model that ignores the fixed slots fails here."""

    def body():
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2)
        model = exact_conditional_model(world)
        cond = object_at_cell(0, 0)
        n = 100_000
        tv_masked = fidelity_tv(
            world, cond, n, sched=SamplerSchedule(temperature=1.0), model=model
        )
        tv_ar = fidelity_tv(
            world, cond, n,
            sched=SamplerSchedule(mode=MODE_AUTOREGRESSIVE, temperature=1.0),
            model=model,
        )
        ok = tv_masked <= 0.03 and tv_ar <= 0.03
        return ok, (
            f"joint TV masked {tv_masked:.4f}, autoregressive {tv_ar:.4f} "
            f"(tol 0.03 at {n} samples, L=4 K=3 S=33)"
        )

    return _timed("sampler-fidelity", 60.0, body)


def criterion_composition_beats_joint() -> CriterionResult:
    """Composed conditioning beats the joint-prompt baseline with margin."""

    def body():
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=2)
        model = fit_count_model(world, 30_000, rng_seed=0)
        n = 10_000
        composed = run_error_eval(model, world, 2, n, rng_seed=0, label="composed")
        baseline = run_error_eval(
            model, world, 2, n, rng_seed=0, joint_prompt=True, label="joint"
        )
        aborts = composed.aborts + baseline.aborts
        ok = (
            composed.error_rate + composed.two_sigma < baseline.error_rate - baseline.two_sigma
            and aborts == 0
        )
        return ok, (
            f"composed {composed.error_rate:.4f}+{composed.two_sigma:.4f} vs "
            f"joint {baseline.error_rate:.4f}-{baseline.two_sigma:.4f} "
            f"(2 conditions, {n} samples); aborts {composed.aborts}/{baseline.aborts} (need 0)"
        )

    return _timed("composition-beats-joint", 300.0, body)


def criterion_ood_composition() -> CriterionResult:
    """More composed conditions than any training scene had objects.

    The world allows 4 objects of 2 colors, so the 3-condition set has over
    a hundred satisfying support grids, and only distinct satisfying grids
    in the support count towards diversity: a grid with more objects than
    the budget satisfies the set too, but no scene of the world is it.
    """

    def body():
        world = build_scene_world(3, 3, n_shapes=1, n_colors=2, max_objects=4)
        model = fit_count_model(world, 30_000, rng_seed=0, training_max_objects=2)
        result = run_ood_eval(
            model, world, train_max_objects=2, test_n_conditions=3, n_runs=100, rng_seed=0
        )
        sep = result.composed_rate - result.baseline_rate
        ok = (
            sep >= result.composed_two_sigma
            and sep >= result.baseline_two_sigma
            and result.composed_distinct_in_support >= 10
            and result.composed_aborts + result.baseline_aborts == 0
        )
        return ok, (
            f"composed {result.composed_rate:.2f} vs baseline "
            f"{result.baseline_rate:.2f} (2sig {result.composed_two_sigma:.3f}/"
            f"{result.baseline_two_sigma:.3f}), {result.composed_distinct_in_support} "
            f"distinct satisfying support grids of {result.n_runs} runs (need >= 10); "
            f"off-support {result.composed_off_support:.2f}/{result.baseline_off_support:.2f}; "
            f"aborts {result.composed_aborts}/{result.baseline_aborts} (need 0)"
        )

    return _timed("ood-composition", 300.0, body)


def criterion_negation() -> CriterionResult:
    """Negative weight suppresses a condition; rate grows with weight."""

    def body():
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        model = exact_conditional_model(world)
        cond = object_at_cell(0, 0)
        result = run_negation_eval(
            model, world, cond, 3000,
            weights=(-3.0, -1.0, 0.0, 1.0, 3.0),
            sched=SamplerSchedule(temperature=1.0), rng_seed=0,
        )
        soft, hard = result.monotone_violations()
        neg_rate = result.rate_at(-1.0)
        aborts = sum(result.aborts) + result.p0_aborts
        ok = neg_rate <= result.p0_exact / 2.0 and hard == 0 and soft <= 1 and aborts == 0
        rates = ", ".join(f"{w:+g}: {r:.3f}" for w, r in zip(result.weights, result.rates))
        return ok, (
            f"rate(w=-1) {neg_rate:.4f} <= p0/2 {result.p0_exact / 2:.4f}; "
            f"sweep [{rates}]; {hard} hard / {soft} soft monotonicity violations; "
            f"{aborts} aborts (need 0)"
        )

    return _timed("negation", 120.0, body)


class _UniformStub:
    """Minimal conditional model: uniform everywhere, any condition. Counts
    its own predict calls."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size
        self._logp = np.full(vocab_size, -math.log(vocab_size))
        self.calls = 0

    def predict(self, tokens, condition=None):
        self.calls += 1
        return np.broadcast_to(self._logp, (tokens.size, self.vocab_size))


def criterion_eval_count_law() -> CriterionResult:
    """Model evaluations are exactly ceil(L/s) * (n+1), no measurement noise:
    sample_arm checks the run's own count, and the model's call count must
    agree."""

    def body():
        checked = 0
        for length in (1, 4, 9, 12):
            for n in (0, 1, 2, 3):
                conds = [object_at_cell(0, 0)] * n
                scheds = [SamplerSchedule(tokens_per_step=s, temperature=1.0)
                          for s in (1, 2, 3, 5, 9)]
                scheds.append(SamplerSchedule(mode=MODE_AUTOREGRESSIVE, temperature=1.0))
                for sched in scheds:
                    model = _UniformStub(2)
                    sample_arm(
                        model, length, conds, [1.0] * n, sched, np.random.default_rng(0), 1
                    )
                    expect = math.ceil(length / sched.tokens_per_step) * (n + 1)
                    law = count_evaluations(sched, length, n)
                    if (model.calls, law) != (expect,) * 2:
                        return False, (
                            f"{sched.mode} L={length} s={sched.tokens_per_step} n={n}: "
                            f"{model.calls} model calls, "
                            f"count_evaluations {law}, law says {expect}"
                        )
                    checked += 1
        return True, f"exact over {checked} (L, s, n) grid points, masked and autoregressive"

    return _timed("eval-count-law", 1.0, body)


def criterion_vq_codec() -> CriterionResult:
    """Quantizer matches its oracle; roundtrips are bit-exact; k-means descends."""

    def body():
        rng = np.random.default_rng(7)
        dim = 2 * 2 * 3
        patches = rng.random((10_000, dim))
        cb = learn_codebook(
            patches[:2000], n_entries=32, iters=10, rng_seed=0,
            patch_h=2, patch_w=2, channels=3,
        )
        for i in range(patches.shape[0]):
            if quantize_patch(patches[i], cb) != quantize_oracle(patches[i], cb):
                return False, f"oracle mismatch on patch {i}"
        hist = np.array(cb.objective_history)
        if (np.diff(hist) > 1e-12).any():
            return False, "k-means objective increased between iterations"
        tokens = rng.integers(0, 32, size=(3, 5))
        img = decode(tokens, cb)
        if not np.array_equal(encode(img, cb), tokens):
            return False, "encode(decode(tokens)) is not the identity"
        if not np.array_equal(decode(encode(img, cb), cb), img):
            return False, "decode . encode is not idempotent on decoded images"
        return True, (
            f"oracle agreement on 10000 patches; fixed point and idempotence "
            f"bit-exact; objective fell {hist[0]:.4g} -> {hist[-1]:.4g} "
            f"over {hist.size} assignments"
        )

    return _timed("vq-codec", 30.0, body)


_DETERMINISM_CONFIG = """\
world.grid_w = 2
world.grid_h = 2
world.n_shapes = 1
world.n_colors = 1
world.max_objects = 2
model.n_samples = 500
sample.n_runs = 4
sample.render = true
eval.n_samples = 50
eval.n_components = 1
codebook.n_entries = 4
codebook.patch = 2
codebook.cell_px = 2
codebook.n_images = 6
codebook.iters = 3
bench.n_runs = 1
bench.tokens_per_step_grid = 1 2
bench.n_conditions_grid = 0 1
"""


def _digest_tree(root: str) -> dict:
    out = {}
    for name in sorted(os.listdir(root)):
        path = os.path.join(root, name)
        if os.path.isfile(path):
            with open(path, "rb") as fh:
                out[name] = hashlib.sha256(fh.read()).hexdigest()
    return out


def criterion_cli_determinism() -> CriterionResult:
    """Every command rerun with the same config and seed rewrites identical bytes."""

    def body():
        from .cli import main

        commands = ["build-world", "fit-model", "learn-codebook", "sample", "eval", "bench"]
        with tempfile.TemporaryDirectory() as tmp:
            cfg_path = os.path.join(tmp, "run.cfg")
            with open(cfg_path, "w", encoding="utf-8") as fh:
                fh.write(_DETERMINISM_CONFIG)
            out = os.path.join(tmp, "run")
            for cmd in commands:
                code = main([cmd, "--config", cfg_path, "--out", out, "--seed", "3"])
                if code != 0:
                    return False, f"first {cmd} exited {code}"
            first = _digest_tree(out)
            for cmd in commands:
                code = main([cmd, "--config", cfg_path, "--out", out, "--seed", "3"])
                if code != 0:
                    return False, f"second {cmd} exited {code}"
            second = _digest_tree(out)
        if first != second:
            changed = sorted(k for k in first if second.get(k) != first[k])
            return False, f"files changed between reruns: {', '.join(changed)}"
        return True, (
            f"{len(first)} files byte-identical across reruns of "
            f"{len(commands)} commands"
        )

    return _timed("cli-determinism", 120.0, body)


ALL_CRITERIA = (
    criterion_poe_exactness,
    criterion_shift_invariance,
    criterion_sampler_fidelity,
    criterion_composition_beats_joint,
    criterion_ood_composition,
    criterion_negation,
    criterion_eval_count_law,
    criterion_vq_codec,
    criterion_cli_determinism,
)


def run_acceptance() -> list[CriterionResult]:
    return [fn() for fn in ALL_CRITERIA]
