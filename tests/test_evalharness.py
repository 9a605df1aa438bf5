"""Evaluation harness: metrics, reports, directional comparisons, benches."""

import json
import math
from dataclasses import replace

import numpy as np
import pytest

from maskcompose import evalharness
from maskcompose.errors import ValidationError
from maskcompose.countmodel import fit_count_model
from maskcompose.evalharness import (
    BenchRow,
    EvalReport,
    NegationResult,
    fidelity_tv,
    format_table,
    joint_tv,
    predicate_pool,
    record_line,
    run_bench,
    run_error_eval,
    run_negation_eval,
    run_ood_eval,
    strip_timing,
    tv_to_marginals,
    two_sigma_bound,
)
from maskcompose.sampler import SamplerSchedule
from maskcompose.worlds import (
    build_factorized_world,
    build_random_factorized_world,
    build_scene_world,
    exact_conditional_model,
    object_at_cell,
)


class TestMetrics:
    def test_two_sigma_formula(self):
        assert two_sigma_bound(0.5, 100) == pytest.approx(2 * math.sqrt(0.25 / 100))
        assert two_sigma_bound(0.0, 10) == 0.0

    def test_tv_to_marginals_hand_value(self):
        samples = np.array([[0], [0], [1], [1]])
        # empirical [0.5, 0.5] vs target [0.75, 0.25]: TV = 0.25
        assert tv_to_marginals(samples, np.array([[0.75, 0.25]])) == pytest.approx(0.25)

    def test_joint_tv_counts_off_support_mass(self):
        grids = np.array([[0, 0], [1, 1]], dtype=np.int16)
        probs = np.array([0.5, 0.5])
        samples = np.array([[0, 0], [0, 1]], dtype=np.int16)
        # empirical: half on [0,0] (matches), half off-support; TV = 0.5
        assert joint_tv(samples, grids, probs) == pytest.approx(0.5)

    def test_sampler_matches_marginals_at_moderate_n(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2)
        model = exact_conditional_model(world)
        cond = object_at_cell(0, 0)
        sched = SamplerSchedule(temperature=1.0)
        rng = np.random.default_rng(1)
        from maskcompose.sampler import MaskedState, run_to_completion

        samples = np.stack([
            run_to_completion(
                MaskedState.fully_masked(4), model, [cond], [1.0],
                replace(sched, rng_seed=int(rng.integers(2**63 - 1))),
            )[0]
            for _ in range(5000)
        ])
        marg = world.enumerate_posterior([cond]).marginals()
        assert tv_to_marginals(samples, marg) <= 0.03


class TestReports:
    def test_report_validates_two_sigma(self):
        with pytest.raises(ValidationError):
            EvalReport("x", 1, 100, 0.5, 0.2, 0.0, 8, 0.0)

    def test_record_and_strip_timing(self):
        r = EvalReport("x", 1, 100, 0.5, two_sigma_bound(0.5, 100), 0.01, 8, 0.123)
        rec = r.to_record()
        assert rec["type"] == "eval_report"
        stripped = strip_timing(rec)
        assert "wall_time_per_sample" not in stripped
        assert stripped["error_rate"] == 0.5
        line = record_line(rec)
        assert json.loads(line) == rec
        assert line == record_line(json.loads(line))  # canonical ordering

    def test_format_table_lists_each_report(self):
        r = EvalReport("arm-a", 2, 50, 0.1, two_sigma_bound(0.1, 50), 0.0, 27, 0.0)
        text = format_table([r])
        assert "arm-a" in text
        assert "0.1000" in text


class TestErrorEval:
    def test_weights_off_reduces_to_prior_rate(self):
        # under the uniform 16-scene prior a cell is empty with rate one half
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        model = exact_conditional_model(world)
        report = run_error_eval(
            model, world, n_components=1, n_samples=800, weight=0.0,
            sched=SamplerSchedule(temperature=1.0), rng_seed=5,
        )
        assert abs(report.error_rate - 0.5) <= report.two_sigma + 0.05

    def test_exact_model_single_condition_near_zero_error(self):
        world = build_random_factorized_world(2, 2, 3, n_conditions=0, seed=2)
        model = exact_conditional_model(world)
        report = run_error_eval(
            model, world, n_components=1, n_samples=400,
            sched=SamplerSchedule(temperature=1.0), rng_seed=0,
        )
        assert report.error_rate <= two_sigma_bound(0.01, 400) + 0.01
        assert report.evaluations_per_sample == 8
        assert report.tv_distance < 0.1

    def test_composed_beats_joint_prompt_directionally(self):
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=3)
        model = fit_count_model(world, 20_000, rng_seed=0)
        composed = run_error_eval(
            model, world, n_components=2, n_samples=400, rng_seed=7,
        )
        baseline = run_error_eval(
            model, world, n_components=2, n_samples=400, rng_seed=7, joint_prompt=True,
        )
        assert composed.error_rate < baseline.error_rate
        assert composed.evaluations_per_sample == 27
        assert baseline.evaluations_per_sample == 18

    def test_deterministic_reports_modulo_timing(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        model = exact_conditional_model(world)
        a = run_error_eval(model, world, 1, 100, rng_seed=3)
        b = run_error_eval(model, world, 1, 100, rng_seed=3)
        assert strip_timing(a.to_record()) == strip_timing(b.to_record())

    def test_estimator_stays_within_three_sigma(self):
        """Known satisfaction probability one half: the measured rate lands
        inside three sigma in almost every seeded trial."""
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        model = exact_conditional_model(world)
        n = 200
        bad = 0
        for seed in range(60):
            r = run_error_eval(
                model, world, 1, n, weight=0.0,
                sched=SamplerSchedule(temperature=1.0), rng_seed=seed,
            )
            if abs(r.error_rate - 0.5) > 3 * math.sqrt(0.25 / n):
                bad += 1
        assert bad <= 3

    def test_zero_components_uses_prior(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        model = exact_conditional_model(world)
        r = run_error_eval(model, world, 0, 50, rng_seed=0)
        assert r.error_rate == 0.0
        assert r.evaluations_per_sample == 4


class TestOodEval:
    def test_requires_more_conditions_than_training_budget(self):
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=3)
        with pytest.raises(ValidationError):
            run_ood_eval(None, world, train_max_objects=2, test_n_conditions=2)

    def test_composed_exceeds_baseline_and_is_diverse(self):
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=3)
        result = run_ood_eval(
            None, world, train_max_objects=2, test_n_conditions=3,
            n_runs=60, n_train=15_000, rng_seed=1,
        )
        assert result.composed_rate > result.baseline_rate
        assert result.composed_distinct > 1
        rec = result.to_record()
        assert rec["type"] == "ood_result"
        assert len(rec["condition_keys"]) == 3


class TestNegationEval:
    def make_world(self):
        return build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)

    def test_headroom_precondition(self):
        world = build_factorized_world(
            2, 1, 2, {}, prior_tables=np.array([[0.01, 0.99], [0.5, 0.5]])
        )
        model = exact_conditional_model(world)
        with pytest.raises(ValidationError):
            run_negation_eval(model, world, object_at_cell(0, 0), 50)

    def test_sweep_shape_and_suppression(self):
        world = self.make_world()
        model = exact_conditional_model(world)
        result = run_negation_eval(
            model, world, object_at_cell(1, 1), 300,
            sched=SamplerSchedule(temperature=1.0), rng_seed=2,
        )
        assert result.p0_exact == pytest.approx(0.5)
        assert result.rate_at(-1.0) <= result.p0_measured / 2
        assert abs(result.rate_at(0.0) - result.p0_exact) <= result.sigma_at(0.0) + 0.02
        assert result.rate_at(3.0) >= result.rate_at(-3.0)
        soft, hard = result.monotone_violations()
        assert hard == 0
        assert soft <= 1

    def test_violation_counter(self):
        r = NegationResult(
            condition_key=("x",), n_samples=100, p0_exact=0.5, p0_measured=0.5,
            weights=(-1.0, 0.0, 1.0), rates=(0.5, 0.2, 0.9),
            sigmas=(0.01, 0.01, 0.01),
        )
        soft, hard = r.monotone_violations()
        assert (soft, hard) == (0, 1)
        r2 = NegationResult(
            condition_key=("x",), n_samples=100, p0_exact=0.5, p0_measured=0.5,
            weights=(-1.0, 0.0, 1.0), rates=(0.21, 0.2, 0.9),
            sigmas=(0.05, 0.05, 0.05),
        )
        assert r2.monotone_violations() == (1, 0)

    def test_record_fields(self):
        world = self.make_world()
        model = exact_conditional_model(world)
        result = run_negation_eval(model, world, object_at_cell(0, 0), 50, rng_seed=0)
        rec = result.to_record()
        assert rec["weights"] == [-3.0, -1.0, 0.0, 1.0, 3.0]
        assert len(rec["rates"]) == 5


class TestBench:
    def test_evaluation_counts_exact_over_grid(self):
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=2)
        model = exact_conditional_model(world)
        rows = run_bench(
            model, world, tokens_per_step_grid=(1, 2, 3, 9),
            n_conditions_grid=(0, 1, 2), n_runs=2, rng_seed=0,
        )
        for row in rows:
            steps = math.ceil(9 / row.tokens_per_step)
            assert row.steps == steps
            assert row.evaluations == steps * (row.n_conditions + 1)

    def test_scaling_ratios(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        model = exact_conditional_model(world)
        rows = {
            (r.tokens_per_step, r.n_conditions): r
            for r in run_bench(model, world, (1, 2), (1, 2), n_runs=1, rng_seed=1)
        }
        # doubling tokens_per_step: ceil(4/1)=4 vs ceil(4/2)=2 steps
        assert rows[(1, 1)].steps == 2 * rows[(2, 1)].steps
        # n 1 -> 2 multiplies evaluations by 3/2 at fixed steps
        assert rows[(1, 2)].evaluations * 2 == rows[(1, 1)].evaluations * 3

    def test_bench_row_record(self):
        row = BenchRow("masked", 3, 1, 9, 3, 6, 5, 0.001)
        rec = row.to_record()
        assert rec["type"] == "bench_row"
        assert rec["evaluations"] == 6


class TestFidelity:
    def test_masked_sampler_tracks_enumerated_law(self):
        # 54 posterior states at 4000 draws put the expected multinomial TV
        # near 0.046; the bound leaves ~2x headroom over sampling noise
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=4)
        tv = fidelity_tv(world, object_at_cell(0, 1), 4000, rng_seed=3)
        assert tv <= 0.09

    def test_autoregressive_tracks_enumerated_law(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=4)
        sched = SamplerSchedule(mode="autoregressive", temperature=1.0)
        tv = fidelity_tv(world, object_at_cell(1, 0), 4000, sched=sched, rng_seed=4)
        assert tv <= 0.09

    def test_unconditional_fidelity(self):
        world = build_scene_world(2, 1, n_shapes=1, n_colors=2, max_objects=2)
        tv = fidelity_tv(world, None, 4000, rng_seed=5)
        assert tv <= 0.05


class TestEvaluationCountLaw:
    """Every suite checks each run's evaluations against steps * (n + 1)."""

    @pytest.fixture
    def miscount(self, monkeypatch):
        """Make the runs whose conditions pass `which` report one extra evaluation."""
        real = evalharness.run_to_completion

        def install(which=lambda conds: True):
            def run(initial, model, conds, weights, sched):
                tokens, stats = real(initial, model, conds, weights, sched)
                if which(conds):
                    stats.evaluations += 1
                return tokens, stats

            monkeypatch.setattr(evalharness, "run_to_completion", run)

        return install

    @pytest.fixture
    def setup(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        return world, exact_conditional_model(world)

    @pytest.mark.parametrize(
        "suite",
        [
            lambda w, m: fidelity_tv(w, object_at_cell(0, 0), 3, model=m),
            lambda w, m: run_error_eval(m, w, 1, 3),
            lambda w, m: run_ood_eval(m, w, train_max_objects=1, test_n_conditions=2, n_runs=3),
            lambda w, m: run_negation_eval(m, w, object_at_cell(1, 1), 3, weights=(0.0, 1.0)),
            lambda w, m: run_bench(m, w, (1,), (1,), n_runs=1),
        ],
        ids=["fidelity", "error", "ood", "negation", "bench"],
    )
    def test_every_suite_rejects_a_miscounted_run(self, miscount, setup, suite):
        miscount()
        with pytest.raises(ValidationError, match="evaluation-count law"):
            suite(*setup)

    def test_negation_checks_its_unconditional_arm(self, miscount, setup):
        world, model = setup
        miscount(which=lambda conds: not conds)
        # with w = 0 in the sweep, p0 comes from that arm and no run is unconditional
        run_negation_eval(model, world, object_at_cell(1, 1), 3, weights=(0.0, 1.0))
        with pytest.raises(ValidationError, match="evaluation-count law"):
            run_negation_eval(model, world, object_at_cell(1, 1), 3, weights=(1.0,))
