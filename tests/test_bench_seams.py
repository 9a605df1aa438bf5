"""The seams the benchmark's tracer relies on, checked with that tracer.

perfbench/tracing.py swaps module globals of maskcompose.sampler and
maskcompose.evalharness for counted wrappers and hands the suites a model
proxy that counts every predict call. Its evaluation-count check holds only
while every suite samples through evalharness.run_to_completion, one call per
grid, each step makes n + 1 predict calls, and selection and draws go through
sampler._select_positions and sampler.sample_token. Its model spans,
worlds.predict and countmodel.predict, count only while both models answer
through a method of that name. The tracer is loaded from its file and used as
it is.
"""

import importlib.util
from pathlib import Path

import pytest

from maskcompose import sampler
from maskcompose.countmodel import fit_count_model
from maskcompose.evalharness import fidelity_tv, run_error_eval
from maskcompose.sampler import MODE_AUTOREGRESSIVE, ORDER_MAX_CONFIDENCE, SamplerSchedule
from maskcompose.worlds import build_scene_world, exact_conditional_model, object_at_cell

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracing = load_tracing()

# the fidelity-2x2 workload's world: S=81, L=4, K=3
WORLD = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=4)
SCHEDULES = {
    "random": SamplerSchedule(temperature=1.0),
    "autoregressive": SamplerSchedule(mode=MODE_AUTOREGRESSIVE, temperature=1.0),
    "max-confidence-s3": SamplerSchedule(
        tokens_per_step=3, order_policy=ORDER_MAX_CONFIDENCE, temperature=1.0
    ),
}
N_FIDELITY, N_ERROR = 50, 30
COUNT_MODEL = fit_count_model(WORLD, 2000, rng_seed=0)
# the exact-3x3 workload's world: S=5989, L=9, K=5
WORLD_3X3 = build_scene_world(3, 3, n_shapes=2, n_colors=2, max_objects=3)
# the count-3x3 workload's world: L=9, K=2
WORLD_COUNT_3X3 = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=2)


def traced_suites(sched):
    """fidelity_tv and a composed and a joint run_error_eval under the tracer."""
    tracer = tracing.Tracer({g.tobytes() for g in WORLD.support()[0]})
    with tracer.patched():
        model = tracer.model(exact_conditional_model(WORLD))
        fidelity_tv(WORLD, object_at_cell(0, 0), N_FIDELITY, sched=sched, rng_seed=1,
                    model=model)
        run_error_eval(model, WORLD, 2, N_ERROR, sched=sched, rng_seed=2)
        run_error_eval(model, WORLD, 2, N_ERROR, sched=sched, rng_seed=3, joint_prompt=True)
    return tracer


def traced_count_suites(sched):
    """A composed and a joint run_error_eval of the count model under the
    tracer. A count model's grids may leave the support, so none is given."""
    tracer = tracing.Tracer()
    with tracer.patched():
        model = tracer.model(COUNT_MODEL)
        run_error_eval(model, WORLD, 2, N_ERROR, sched=sched, rng_seed=2)
        run_error_eval(model, WORLD, 2, N_ERROR, sched=sched, rng_seed=3, joint_prompt=True)
    return tracer


@pytest.mark.parametrize("order", sorted(SCHEDULES))
def test_tracer_sees_the_evaluation_count_law(order):
    tracer = traced_suites(SCHEDULES[order])
    assert tracer.calls["sampler.run"] == N_FIDELITY + 2 * N_ERROR
    assert tracer.law_violations == []
    assert tracer.off_support == []
    assert tracer.model_calls == tracer.law_evaluations > 0
    assert tracer.calls["worlds.predict"] == tracer.law_evaluations
    # every run fixes each of the L slots with one draw, and every step
    # selects once
    assert tracer.calls["sampler.draw"] == tracer.calls["sampler.run"] * WORLD.length
    assert tracer.calls["sampler.select"] == tracer.calls["sampler.step"] > 0


@pytest.mark.parametrize("order", sorted(SCHEDULES))
def test_tracer_counts_every_count_model_call(order):
    tracer = traced_count_suites(SCHEDULES[order])
    assert tracer.calls["sampler.run"] == 2 * N_ERROR
    assert tracer.law_violations == []
    assert tracer.calls["countmodel.predict"] == tracer.law_evaluations > 0


def test_tracer_counts_every_exact_model_call_on_the_3x3_world():
    """Composed runs on the exact-3x3 workload's world, where most states
    narrow the rows of the state before them."""
    n = 20
    tracer = tracing.Tracer({g.tobytes() for g in WORLD_3X3.support()[0]})
    with tracer.patched():
        model = tracer.model(exact_conditional_model(WORLD_3X3))
        run_error_eval(model, WORLD_3X3, 2, n, rng_seed=4)
    assert tracer.calls["sampler.run"] == n
    assert tracer.law_violations == []
    assert tracer.off_support == []
    assert tracer.calls["worlds.predict"] == tracer.law_evaluations > 0


def test_tracer_counts_every_count_model_call_on_the_3x3_world():
    """Composed and joint runs of the count-3x3 workload's model, whose
    queries answer from the resolved backoff table."""
    n = 20
    model = fit_count_model(WORLD_COUNT_3X3, 30_000, rng_seed=0)
    tracer = tracing.Tracer()
    with tracer.patched():
        traced = tracer.model(model)
        run_error_eval(traced, WORLD_COUNT_3X3, 2, n, rng_seed=5)
        run_error_eval(traced, WORLD_COUNT_3X3, 2, n, rng_seed=6, joint_prompt=True)
    assert tracer.calls["sampler.run"] == 2 * n
    assert tracer.law_violations == []
    assert tracer.calls["countmodel.predict"] == tracer.law_evaluations > 0


def test_an_extra_predict_per_step_breaks_the_trace(monkeypatch):
    real = sampler.composed_step

    def one_extra_call(tokens, model, *args):
        model.predict(tokens, None)
        return real(tokens, model, *args)

    monkeypatch.setattr(sampler, "composed_step", one_extra_call)
    tracer = traced_suites(SCHEDULES["random"])
    runs = tracer.calls["sampler.run"]
    assert runs == N_FIDELITY + 2 * N_ERROR
    assert len(tracer.law_violations) == runs
    assert tracer.model_calls > tracer.law_evaluations
