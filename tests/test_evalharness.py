"""Evaluation harness: metrics, reports, directional comparisons, benches."""

import ast
import itertools
import json
import math
from pathlib import Path

import numpy as np
import pytest

import maskcompose
from maskcompose import evalharness
from maskcompose.errors import AllMassZero, EmptyIntersection, ValidationError
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
from maskcompose.sampler import (
    ORDER_MAX_CONFIDENCE,
    MaskedState,
    SamplerSchedule,
    draw_runs,
    run_to_completion,
)
from maskcompose.worlds import (
    ConditionSpec,
    JointPrompt,
    attribute_present,
    build_factorized_world,
    build_random_factorized_world,
    build_scene_world,
    cond_key,
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

    def test_joint_tv_puts_aborted_runs_off_the_support(self):
        grids = np.array([[0, 0], [1, 1]], dtype=np.int16)
        probs = np.array([0.5, 0.5])
        samples = np.array([[0, 0], [0, 0]], dtype=np.int16)
        # four runs: two on [0,0], matching its mass, and two that gave no grid
        assert joint_tv(samples, grids, probs, aborts=2) == pytest.approx(0.5)
        assert joint_tv(samples[:0], grids, probs, aborts=3) == 1.0

    def test_sampler_matches_marginals_at_moderate_n(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2)
        model = exact_conditional_model(world)
        cond = object_at_cell(0, 0)
        sched = SamplerSchedule(temperature=1.0)
        rng = np.random.default_rng(1)

        def one_run(seed):
            (order,), (uniforms,) = draw_runs(sched, 4, np.random.default_rng(seed), 1)
            initial = MaskedState.fully_masked(4)
            return run_to_completion(initial, model, [cond], [1.0], sched, order, uniforms)[0]

        samples = np.stack([one_run(int(rng.integers(2**63 - 1))) for _ in range(5000)])
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


class _Unconditional:
    """The exact model's unconditional answer to every query: at weight 1
    each condition's log-ratio is zero, so composing it samples the prior."""

    def __init__(self, world):
        self._model = exact_conditional_model(world)
        self.vocab_size = world.vocab_size

    def predict(self, tokens, condition=None):
        return self._model.predict(tokens)


class TestErrorEval:
    def test_weights_off_reduces_to_prior_rate(self):
        # under the uniform 16-scene prior a cell is empty with rate one half,
        # and one of two cells with rate three quarters: a run errs unless
        # every condition of its set holds
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        model = _Unconditional(world)
        for n_components, prior_error in ((1, 0.5), (2, 0.75)):
            report = run_error_eval(
                model, world, n_components=n_components, n_samples=800,
                sched=SamplerSchedule(temperature=1.0), rng_seed=5,
            )
            assert abs(report.error_rate - prior_error) <= report.two_sigma + 0.05

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

    def test_joint_arms_ask_one_joint_prompt_per_set(self):
        """The error suite's joint arm and the ood suite's baseline hand the
        model a JointPrompt: one object per condition set, whose key is the
        plain tuple's."""
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=2)
        model = exact_conditional_model(world)
        asked = []

        class Recorder:
            vocab_size = model.vocab_size

            def predict(self, tokens, condition=None):
                if condition is not None and not isinstance(condition, ConditionSpec):
                    asked.append(condition)
                return model.predict(tokens, condition)

        for suite in (
            lambda: run_error_eval(Recorder(), world, 2, 30, rng_seed=1, joint_prompt=True),
            lambda: run_ood_eval(Recorder(), world, train_max_objects=1, test_n_conditions=2,
                                 n_runs=5),
        ):
            asked.clear()
            suite()
            assert asked and all(type(c) is JointPrompt and len(c) == 2 for c in asked)
            by_key = {}
            for c in asked:
                assert by_key.setdefault(c.key(), c) is c
                assert c.key() == cond_key(tuple(c))

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
        model = _Unconditional(world)
        n = 200
        bad = 0
        for seed in range(60):
            r = run_error_eval(
                model, world, 1, n,
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


    @pytest.mark.parametrize("seed", range(5))
    def test_finds_the_few_satisfiable_sets_of_a_large_pool(self, seed):
        # one object of 200 colors on two cells: of the pool's 20 100 pairs
        # only the 200 (color i, cell 0) pairs are satisfiable
        world = build_scene_world(2, 1, n_shapes=1, n_colors=200, max_objects=1)
        pool = [attribute_present("color", i) for i in range(200)] + [object_at_cell(0, 0)]
        report = run_error_eval(
            exact_conditional_model(world), world, 2, 50, rng_seed=seed, pool=pool,
        )
        assert (report.error_rate, report.aborts) == (0.0, 0)

    def test_one_arm_per_drawn_set(self, monkeypatch):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        pool = predicate_pool(world)
        sets = evalharness._satisfiable_sets(world, pool, 2)
        calls = []
        real = evalharness.sample_arm

        def spy(model, length, conds, weights, sched, rng, n):
            calls.append((tuple(conds), n))
            return real(model, length, conds, weights, sched, rng, n)

        monkeypatch.setattr(evalharness, "sample_arm", spy)
        run_error_eval(exact_conditional_model(world), world, 2, 30, rng_seed=4)
        counts = np.random.default_rng(4).multinomial(30, np.full(len(sets), 1 / len(sets)))
        drawn = [(s, int(c)) for s, c in zip(sets, counts) if c]
        assert calls == drawn
        assert sum(n for _, n in calls) == 30


class TestSatisfiableSets:
    """The listed k-subsets are exactly those the posterior accepts."""

    # one object of two shapes and two colors on four cells: two cells, two
    # shapes or two colors together are unsatisfiable
    WORLD = build_scene_world(2, 2, n_shapes=2, n_colors=2, max_objects=1)
    POOL = [object_at_cell(0, 0), attribute_present("shape", 0), object_at_cell(1, 1),
            attribute_present("color", 1), attribute_present("shape", 1), object_at_cell(1, 0)]

    def brute_force(self, k):
        out = []
        for subset in itertools.combinations(self.POOL, k):
            try:
                self.WORLD.enumerate_posterior(list(subset))
            except EmptyIntersection:
                continue
            out.append(subset)
        return out

    @pytest.mark.parametrize("k", range(4))
    def test_equals_a_brute_force_list(self, k):
        listed = evalharness._satisfiable_sets(self.WORLD, self.POOL, k)
        assert listed == self.brute_force(k)
        assert 0 < len(listed) <= math.comb(len(self.POOL), k)

    def test_some_subsets_are_unsatisfiable(self):
        assert len(self.brute_force(2)) < math.comb(len(self.POOL), 2)
        assert len(self.brute_force(3)) < math.comb(len(self.POOL), 3)

    def test_no_satisfiable_subset_is_an_empty_intersection(self):
        cells = [c for c in self.POOL if c.kind == "object_at_cell"]
        with pytest.raises(EmptyIntersection):
            evalharness._satisfiable_sets(self.WORLD, cells, 2)

    @pytest.mark.parametrize("pool, k", [([], 0), ([], 1), (POOL, len(POOL) + 1)])
    def test_empty_pool_or_too_many_conditions_is_a_validation_error(self, pool, k):
        with pytest.raises(ValidationError):
            evalharness._satisfiable_sets(self.WORLD, pool, k)


class TestOodEval:
    def test_requires_more_conditions_than_training_budget(self):
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=3)
        with pytest.raises(ValidationError):
            run_ood_eval(exact_conditional_model(world), world, train_max_objects=2,
                         test_n_conditions=2)

    def test_composed_exceeds_baseline_and_is_diverse(self):
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=3)
        model = fit_count_model(world, 15_000, rng_seed=1, training_max_objects=2)
        result = run_ood_eval(
            model, world, train_max_objects=2, test_n_conditions=3, n_runs=60, rng_seed=1
        )
        assert result.composed_rate > result.baseline_rate
        assert result.composed_distinct > 1
        rec = result.to_record()
        assert rec["type"] == "ood_result"
        assert len(rec["condition_keys"]) == 3
        assert 1 <= result.composed_distinct_in_support <= result.composed_distinct
        assert 0.0 <= result.composed_off_support <= 1.0

    @pytest.mark.parametrize(
        "token, rate, off_support",
        [
            # all four cells full: the grid satisfies any set of cell
            # conditions but holds more objects than the budget of two
            (1, 1.0, 1.0),
            # all four cells empty: a support grid that satisfies no condition
            (0, 0.0, 0.0),
        ],
    )
    def test_only_satisfying_support_grids_count_as_distinct_in_support(
        self, token, rate, off_support
    ):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        result = run_ood_eval(
            _FillsEveryCell(token), world, train_max_objects=1, test_n_conditions=2, n_runs=10
        )
        assert (result.composed_rate, result.composed_distinct) == (rate, 1)
        assert (result.composed_distinct_in_support, result.composed_off_support) == (0, off_support)
        assert (result.baseline_distinct_in_support, result.baseline_off_support) == (0, off_support)
        rec = result.to_record()
        assert (rec["composed_distinct_in_support"], rec["composed_off_support"]) == (0, off_support)


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
        assert abs(result.rate_at(0.0) - result.p0_exact) <= result.sigmas[result.weights.index(0.0)] + 0.02
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
        model = exact_conditional_model(world)
        tv = fidelity_tv(world, object_at_cell(0, 1), 4000, rng_seed=3, model=model)
        assert tv <= 0.09

    def test_autoregressive_tracks_enumerated_law(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=4)
        sched = SamplerSchedule(mode="autoregressive", temperature=1.0)
        model = exact_conditional_model(world)
        tv = fidelity_tv(world, object_at_cell(1, 0), 4000, sched=sched, rng_seed=4, model=model)
        assert tv <= 0.09

    def test_unconditional_fidelity(self):
        world = build_scene_world(2, 1, n_shapes=1, n_colors=2, max_objects=2)
        tv = fidelity_tv(world, None, 4000, rng_seed=5, model=exact_conditional_model(world))
        assert tv <= 0.05


class TestArmGenerator:
    """An arm draws its runs' uniforms and order keys up front, as one
    rng.random((n, width)) block, and run i is a function of row i."""

    N = 300  # more than one chunk of rows

    @pytest.fixture(scope="class")
    def case(self):
        """(model, length, conds, weights, sched) of an arm in which some runs
        abort: max-confidence order draws three tokens at once from
        per-position marginals, which can leave this world's support."""
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=3)
        sched = SamplerSchedule(
            tokens_per_step=3, order_policy=ORDER_MAX_CONFIDENCE, temperature=1.0
        )
        return exact_conditional_model(world), world.length, [object_at_cell(0, 0)], [1.0], sched

    @staticmethod
    def schedules(case):
        """The case's own schedule (width L) and random order (width 2L)."""
        sched = case[4]
        return {"max_confidence": (sched, case[1]),
                "random": (SamplerSchedule(tokens_per_step=3, temperature=1.0), 2 * case[1])}

    @pytest.mark.parametrize("order", ["max_confidence", "random"])
    def test_an_arm_consumes_exactly_its_block(self, case, order):
        model, length, conds, weights, _ = case
        sched, width = self.schedules(case)[order]
        rng = np.random.default_rng(0)
        _, aborts = evalharness.sample_arm(model, length, conds, weights, sched, rng, self.N)
        fresh = np.random.default_rng(0)
        fresh.random((self.N, width))
        assert rng.bit_generator.state == fresh.bit_generator.state
        if order == "max_confidence":
            assert aborts > 0

    @pytest.mark.parametrize("order", ["max_confidence", "random"])
    def test_each_run_is_a_function_of_its_row(self, case, order):
        model, length, conds, weights, _ = case
        sched, width = self.schedules(case)[order]
        block, aborts = evalharness.sample_arm(
            model, length, conds, weights, sched, np.random.default_rng(0), self.N
        )
        rows = np.random.default_rng(0).random((self.N, width))
        initial = MaskedState.fully_masked(length)
        grids, hand_aborts = [], 0
        for row in rows:
            if width == 2 * length:
                run_order = np.argsort(row[length:], kind="stable").tolist()
            else:
                run_order = None
            try:
                tokens, _ = run_to_completion(
                    initial, model, conds, weights, sched, run_order, row[:length].tolist()
                )
                grids.append(tokens.tolist())
            except AllMassZero:
                hand_aborts += 1
        assert aborts == hand_aborts
        assert block.tolist() == grids
        if order == "max_confidence":
            assert aborts > 0


class TestEvaluationCountLaw:
    """Every suite checks each run's evaluations against steps * (n + 1)."""

    @pytest.fixture
    def miscount(self, monkeypatch):
        """Make the runs whose conditions pass `which` report one extra evaluation."""
        real = evalharness.run_to_completion

        def install(which=lambda conds: True):
            def run(initial, model, conds, weights, sched, order, uniforms):
                tokens, stats = real(initial, model, conds, weights, sched, order, uniforms)
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


class TestZeroRuns:
    """A suite asked for zero runs refuses with a ValidationError before it
    lists condition sets or samples."""

    @pytest.mark.parametrize(
        "suite",
        [
            lambda w, m: fidelity_tv(w, object_at_cell(0, 0), 0, model=m),
            lambda w, m: run_error_eval(m, w, 1, 0),
            lambda w, m: run_ood_eval(m, w, train_max_objects=1, test_n_conditions=2, n_runs=0),
            lambda w, m: run_negation_eval(m, w, object_at_cell(1, 1), 0, weights=(0.0, 1.0)),
            lambda w, m: run_bench(m, w, (1,), (1,), n_runs=0),
        ],
        ids=["fidelity", "error", "ood", "negation", "bench"],
    )
    def test_every_suite_rejects_zero_runs(self, suite, monkeypatch):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)

        def refuse(*args, **kwargs):
            raise AssertionError("reached before the run count was checked")

        for name in ("_satisfiable_sets", "run_to_completion"):
            monkeypatch.setattr(evalharness, name, refuse)
        with pytest.raises(ValidationError, match="at least one"):
            suite(world, exact_conditional_model(world))


class _AlwaysAborts:
    """A model left with no support for any state: every run aborts."""

    def __init__(self, vocab_size: int):
        self.vocab_size = vocab_size

    def predict(self, tokens, condition=None):
        raise AllMassZero("no support state agrees with the unmasked slots")


class _FillsEveryCell:
    """A model of two tokens that puts every masked cell's mass on one; it
    answers one read-only (L, K) array with that row at every position."""

    def __init__(self, token: int):
        with np.errstate(divide="ignore"):
            self.logp = np.log(np.eye(2)[token])

    def predict(self, tokens, condition=None):
        return np.broadcast_to(self.logp, (tokens.size, 2))


class TestAbortPolicy:
    """An aborted run gives no grid, stays in its arm's run count and adds to
    no hit or distinct count; no suite ends on it."""

    @pytest.fixture
    def world(self):
        return build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)

    def test_negation_sweep_completes_off_the_support(self):
        # two tokens drawn at once from per-position marginals leave the
        # support of this world in some runs at every weight
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=3)
        model = exact_conditional_model(world)
        sched = SamplerSchedule(tokens_per_step=2)
        result = run_negation_eval(model, world, object_at_cell(0, 0), 300, sched=sched)
        assert len(result.aborts) == len(result.weights) == 5
        assert all(0 < a < 300 for a in result.aborts)
        assert result.p0_aborts == 0  # the w = 0 arm gives p0
        assert result.p0_measured == result.rate_at(0.0)
        assert result.to_record()["aborts"] == list(result.aborts)
        alone = run_negation_eval(
            model, world, object_at_cell(0, 0), 300, weights=(-1.0,), sched=sched
        )
        assert alone.aborts[0] > 0
        assert alone.p0_aborts > 0  # the dedicated unconditional arm

    def test_fidelity_puts_every_aborted_run_off_the_support(self, world):
        model = _AlwaysAborts(world.vocab_size)
        assert fidelity_tv(world, object_at_cell(0, 0), 20, model=model) == 1.0

    def test_error_suite_counts_every_aborted_run_as_an_error(self, world):
        report = run_error_eval(_AlwaysAborts(world.vocab_size), world, 1, 20)
        assert (report.error_rate, report.aborts, report.tv_distance) == (1.0, 20, 1.0)
        assert report.to_record()["aborts"] == 20

    def test_ood_arms_score_no_aborted_run(self, world):
        model = _AlwaysAborts(world.vocab_size)
        result = run_ood_eval(model, world, train_max_objects=1, test_n_conditions=2, n_runs=10)
        assert (result.composed_rate, result.composed_distinct, result.composed_aborts) == (0, 0, 10)
        assert (result.baseline_rate, result.baseline_distinct, result.baseline_aborts) == (0, 0, 10)
        assert (result.composed_distinct_in_support, result.composed_off_support) == (0, 0.0)
        assert (result.baseline_distinct_in_support, result.baseline_off_support) == (0, 0.0)

    def test_negation_and_bench_count_every_aborted_run(self, world):
        model = _AlwaysAborts(world.vocab_size)
        result = run_negation_eval(model, world, object_at_cell(0, 0), 10, weights=(-1.0, 1.0))
        assert (result.rates, result.aborts, result.p0_aborts) == ((0.0, 0.0), (10, 10), 10)
        rows = run_bench(model, world, (1, 2), (0, 1), n_runs=3)
        assert [r.aborts for r in rows] == [3] * 4


class _RunCallers(ast.NodeVisitor):
    """The enclosing function, dotted, of every call to run_to_completion."""

    def __init__(self):
        self.scope, self.callers = [], []

    def visit_FunctionDef(self, node):
        self.scope.append(node.name)
        self.generic_visit(node)
        self.scope.pop()

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_Call(self, node):
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name == "run_to_completion":
            self.callers.append(".".join(self.scope))
        self.generic_visit(node)


class TestOneSamplingLoop:
    """Every caller in the package and its scripts samples through
    evalharness.sample_arm, the one caller of run_to_completion."""

    def test_only_sample_arm_calls_run_to_completion(self):
        root = Path(__file__).resolve().parents[1]
        files = sorted((root / "src" / "maskcompose").glob("*.py"))
        files += sorted((root / "scripts").glob("*.py"))
        assert len(files) > 10
        callers = []
        for path in files:
            visitor = _RunCallers()
            visitor.visit(ast.parse(path.read_text(encoding="utf-8"), str(path)))
            callers += [(path.stem, scope) for scope in visitor.callers]
        assert callers == [("evalharness", "sample_arm")]

    def test_the_package_exports_the_loop(self):
        assert maskcompose.sample_arm is evalharness.sample_arm
        assert "run_to_completion" not in maskcompose.__all__
