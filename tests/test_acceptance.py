"""Acceptance gate: each claim the package makes, verified at its stated
tolerance and budget. One pass/fail line prints per criterion."""

from dataclasses import replace

import numpy as np
import pytest

from maskcompose import acceptance, sampler
from maskcompose.acceptance import (
    criterion_cli_determinism,
    criterion_composition_beats_joint,
    criterion_eval_count_law,
    criterion_negation,
    criterion_ood_composition,
    criterion_poe_exactness,
    criterion_sampler_fidelity,
    criterion_shift_invariance,
    criterion_vq_codec,
)
from maskcompose.evalharness import EvalReport, two_sigma_bound
from maskcompose.sampler import MASK


def check(result):
    print(result.line())
    assert result.passed, result.line()


def test_criterion_1_poe_exactness():
    check(criterion_poe_exactness())


def test_criterion_2_shift_invariance():
    check(criterion_shift_invariance())


def test_criterion_3_sampler_fidelity():
    check(criterion_sampler_fidelity())


def test_criterion_4_composition_beats_joint():
    check(criterion_composition_beats_joint())


def test_criterion_5_ood_composition():
    check(criterion_ood_composition())


def test_criterion_6_negation():
    check(criterion_negation())


def test_criterion_7_eval_count_law():
    check(criterion_eval_count_law())


def test_criterion_8_vq_codec():
    check(criterion_vq_codec())


def test_criterion_9_cli_determinism():
    check(criterion_cli_determinism())


def test_criterion_7_counts_the_model_calls(monkeypatch):
    """A step that makes one extra unconditional predict per step, which its
    own RunStats does not count, fails the criterion."""
    real = sampler.composed_step

    def one_extra_call(tokens, model, *args):
        model.predict(tokens, None)
        return real(tokens, model, *args)

    monkeypatch.setattr(sampler, "composed_step", one_extra_call)
    result = criterion_eval_count_law()
    assert not result.passed, result.line()
    assert "model calls" in result.detail


class _BlindModel:
    """Answers every state as if it were fully masked: it ignores the fixed slots."""

    def __init__(self, model):
        self.model = model
        self.vocab_size = model.vocab_size

    def predict(self, tokens, condition=None):
        return self.model.predict(np.full_like(tokens, MASK), condition)


def test_criterion_3_fails_a_model_that_ignores_the_fixed_slots(monkeypatch):
    # the blind model reads about 0.42 joint TV; 5 000 runs per arm show it
    real_model, real_tv = acceptance.exact_conditional_model, acceptance.fidelity_tv
    monkeypatch.setattr(acceptance, "exact_conditional_model",
                        lambda world: _BlindModel(real_model(world)))
    monkeypatch.setattr(acceptance, "fidelity_tv",
                        lambda world, cond, n, **kw: real_tv(world, cond, min(n, 5_000), **kw))
    result = criterion_sampler_fidelity()
    assert not result.passed, result.line()
    assert "joint TV masked" in result.detail


def _error_eval_one_composed_abort(model, world, n_components, n_samples, joint_prompt=False,
                                   **kwargs):
    """Criterion 4's rates with a wide margin, and one aborted composed run."""
    p = 0.98 if joint_prompt else 0.02
    return EvalReport("arm", n_components, n_samples, p, two_sigma_bound(p, n_samples),
                      0.0, 27, 0.0, aborts=0 if joint_prompt else 1)


_ood, _negation = acceptance.run_ood_eval, acceptance.run_negation_eval


@pytest.mark.parametrize(
    "criterion, suite, stand_in, shown",
    [
        (criterion_composition_beats_joint, "run_error_eval", _error_eval_one_composed_abort,
         "aborts 1/0 (need 0)"),
        (criterion_ood_composition, "run_ood_eval",
         lambda *a, **k: replace(_ood(*a, **k), baseline_aborts=1), "aborts 0/1 (need 0)"),
        (criterion_negation, "run_negation_eval",
         lambda *a, **k: replace(_negation(*a, **k), aborts=(0, 1, 0, 0, 0)),
         "1 aborts (need 0)"),
    ],
    ids=["4", "5", "6"],
)
def test_criteria_4_to_6_fail_on_any_abort(monkeypatch, criterion, suite, stand_in, shown):
    # an aborted run adds no hit, so it could flatter a rate that passes
    monkeypatch.setattr(acceptance, suite, stand_in)
    result = criterion()
    assert not result.passed
    assert shown in result.detail


def test_criterion_5_counts_only_satisfying_support_grids(monkeypatch):
    # the arm's distinct grids stay many; only those in the support that
    # satisfy the set count towards the 10
    monkeypatch.setattr(
        acceptance, "run_ood_eval",
        lambda *a, **k: replace(_ood(*a, **k), composed_distinct=100, composed_distinct_in_support=9),
    )
    result = criterion_ood_composition()
    assert not result.passed
    assert "9 distinct satisfying support grids of 100 runs (need >= 10)" in result.detail
    assert "off-support" in result.detail
