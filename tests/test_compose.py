import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskcompose.compose import compose_logits, normalize_logits
from maskcompose.config import parse_config_text
from maskcompose.errors import (
    AllMassZero,
    NonPositiveTemperature,
    ShapeMismatch,
    ValidationError,
)
from maskcompose.sampler import SamplerSchedule


def vec(values):
    return np.asarray(values, dtype=np.float64)


def logp(values):
    with np.errstate(divide="ignore"):
        return np.log(vec(values))


def logsumexp(x):
    m = float(np.max(x))
    return m + math.log(float(np.sum(np.exp(x - m))))


def poe_oracle(uncond_probs, cond_probs_list):
    """Unit-weight product of experts in exact rational arithmetic.

    q(x) is proportional to p(x) * prod_i p(x|c_i) / p(x), computed with
    Fractions and only converted to float at the end.
    """
    k = len(uncond_probs)
    weights = []
    for j in range(k):
        q = Fraction(uncond_probs[j])
        for cond in cond_probs_list:
            q = q * Fraction(cond[j]) / Fraction(uncond_probs[j])
        weights.append(q)
    total = sum(weights)
    return np.array([float(wj / total) for wj in weights])


finite_logits = st.lists(
    st.floats(min_value=-20.0, max_value=20.0, allow_nan=False),
    min_size=1,
    max_size=16,
)


class TestNormalize:
    def test_uniform(self):
        out = normalize_logits(vec([0.0, 0.0, 0.0, 0.0]))
        assert np.allclose(out, math.log(0.25))

    def test_overflow_safe_symmetry(self):
        out = normalize_logits(vec([1000.0, 1000.0]))
        assert np.allclose(out, math.log(0.5))

    def test_quarter_three_quarters(self):
        # logsumexp([0, ln 3]) = ln 4, so the result is [ln 1/4, ln 3/4]
        out = normalize_logits(vec([0.0, math.log(3.0)]))
        assert np.allclose(out, [math.log(0.25), math.log(0.75)], atol=1e-15)

    def test_all_neg_inf_raises(self):
        with pytest.raises(AllMassZero):
            normalize_logits(vec([-math.inf, -math.inf]))

    def test_nan_raises(self):
        with pytest.raises(AllMassZero):
            normalize_logits(vec([0.0, math.nan]))

    def test_empty_raises(self):
        with pytest.raises(ShapeMismatch):
            compose_logits(vec([]), [], [])

    @given(finite_logits)
    def test_sums_to_one_and_preserves_argmax(self, logits):
        out = normalize_logits(vec(logits))
        assert abs(logsumexp(out)) < 1e-12
        # the input argmax stays maximal (ties may be absorbed by rounding)
        assert out[int(np.argmax(np.asarray(logits)))] == np.max(out)

    @given(finite_logits)
    def test_idempotent(self, logits):
        once = normalize_logits(vec(logits))
        twice = normalize_logits(once)
        assert np.allclose(once, twice, atol=1e-12)


class TestCompose:
    def test_uniform_prior_cancels(self):
        uncond = normalize_logits(np.zeros(4))
        cond = logp([0.5, 0.5, 0.0, 0.0])
        p = np.exp(compose_logits(uncond, [cond], [1.0]))
        assert np.allclose(p[:2], 0.5, atol=1e-12)
        assert np.all(p[2:] <= math.exp(-30.0))

    def test_support_intersection(self):
        uncond = normalize_logits(np.zeros(4))
        c1 = logp([0.5, 0.5, 0.0, 0.0])
        c2 = logp([0.5, 0.0, 0.5, 0.0])
        p = np.exp(compose_logits(uncond, [c1, c2], [1.0, 1.0]))
        assert p[0] > 1.0 - 1e-10
        assert np.all(p[1:] < 1e-10)

    def test_weight_two_rational_oracle(self):
        # q proportional to u * (c/u)^2 with u = [1/2, 1/2], c = [4/5, 1/5]:
        # exact rationals give [16/17, 1/17].
        expected = [
            float(Fraction(16, 17)),
            float(Fraction(1, 17)),
        ]
        uncond = normalize_logits(vec([math.log(0.5), math.log(0.5)]))
        cond = normalize_logits(vec([math.log(0.8), math.log(0.2)]))
        p = np.exp(compose_logits(uncond, [cond], [2.0]))
        assert np.allclose(p, expected, atol=1e-12)
        assert np.allclose(p, [0.64 / 0.68, 0.04 / 0.68], atol=1e-12)

    def test_no_conditions_returns_normalized_uncond(self):
        out = compose_logits(vec([1.0, 2.0, 0.5]), [], [])
        assert np.allclose(out, normalize_logits(vec([1.0, 2.0, 0.5])))

    def test_shape_mismatch(self):
        with pytest.raises(ShapeMismatch):
            compose_logits(np.zeros(3), [np.zeros(4)], [1.0])
        with pytest.raises(ShapeMismatch):
            compose_logits(np.zeros(3), [np.zeros(3)], [1.0, 1.0])

    @given(
        st.integers(min_value=2, max_value=16),
        st.integers(min_value=0, max_value=4),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=60)
    def test_poe_oracle_equivalence(self, k, n, rnd):
        # Unit weights must agree with the exact-rational product of experts.
        def draw_probs():
            raw = [Fraction(rnd.randint(1, 1000), 1000) for _ in range(k)]
            total = sum(raw)
            return [x / total for x in raw]

        uncond = draw_probs()
        conds = [draw_probs() for _ in range(n)]
        expected = poe_oracle(uncond, conds)
        out = compose_logits(
            np.log(np.array([float(x) for x in uncond])),
            [np.log(np.array([float(x) for x in c])) for c in conds],
            [1.0] * n,
        )
        assert np.allclose(np.exp(out), expected, atol=1e-10)

    @given(
        st.lists(st.floats(min_value=-8.0, max_value=8.0), min_size=2, max_size=8),
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-50.0, max_value=50.0),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=200)
    def test_shift_invariance(self, logits, shift_u, shift_c, w):
        # Adding any constant to either input must not move the output.
        u = vec(logits)
        c = vec(logits[::-1])
        base = compose_logits(u, [c], [w])
        shifted = compose_logits(u + shift_u, [c + shift_c], [w])
        assert np.allclose(base, shifted, atol=1e-12)

    @given(
        st.lists(st.floats(min_value=-8.0, max_value=8.0), min_size=2, max_size=8),
        st.floats(min_value=-3.0, max_value=3.0),
    )
    @settings(max_examples=100)
    def test_reduction_to_guidance_form(self, logits, w):
        # n = 1: u + w (c - u) == (1 - w) u + w c before normalization.
        u = np.asarray(logits, dtype=np.float64)
        c = np.asarray(logits[::-1], dtype=np.float64)
        out = compose_logits(u, [c], [w])
        un = np.maximum(normalize_logits(u), -30.0)
        cn = np.maximum(normalize_logits(c), -30.0)
        guided = normalize_logits((1.0 - w) * un + w * cn)
        assert np.allclose(out, guided, atol=1e-12)

    def test_negation_suppresses_likely_categories(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            k = int(rng.integers(2, 9))
            cond_p = rng.dirichlet(np.ones(k))
            uncond = normalize_logits(np.zeros(k))
            p = np.exp(compose_logits(uncond, [np.log(cond_p)], [-1.0]))
            above = cond_p > 1.0 / k
            assert np.all(p[above] < 1.0 / k)

    def test_deterministic_and_pure(self):
        u = np.array([0.3, -1.2, 0.9])
        c = np.array([-0.5, 0.1, 0.2])
        a = compose_logits(u, [c], [1.7])
        b = compose_logits(u, [c], [1.7])
        assert np.array_equal(a, b)
        # inputs are untouched
        assert np.array_equal(u, [0.3, -1.2, 0.9])

    def test_negative_weight_on_zero_probability_is_bounded(self):
        uncond = normalize_logits(np.zeros(3))
        cond = logp([1.0, 0.0, 0.0])  # -inf entries
        out = compose_logits(uncond, [cond], [-1.0])
        assert np.all(np.isfinite(out))
        # the zero-probability categories win after negation
        assert np.exp(out)[0] < 1e-10


class TestApplyTemperature:
    """Temperature as the sampler applies it to a composed vector:
    normalize_logits(x / T). SamplerSchedule rejects a T that is not finite
    and positive (tests/test_sampler.py)."""

    def test_identity_at_one(self):
        d = normalize_logits(vec([0.2, -0.4, 1.3]))
        out = normalize_logits(d / 1.0)
        assert np.allclose(out, d, atol=1e-12)

    def test_limit_to_argmax(self):
        d = normalize_logits(vec([math.log(0.75), math.log(0.25)]))
        out = normalize_logits(d / 1e-9)
        assert np.allclose(np.exp(out), [1.0, 0.0], atol=1e-12)

    def test_half_temperature_squares(self):
        # (3/4)^2 / ((3/4)^2 + (1/4)^2) = 9/10
        d = normalize_logits(vec([math.log(0.75), math.log(0.25)]))
        out = normalize_logits(d / 0.5)
        assert np.allclose(np.exp(out), [0.9, 0.1], atol=1e-12)

    @given(finite_logits, st.floats(min_value=0.05, max_value=20.0))
    @settings(max_examples=100)
    def test_argmax_preserved(self, logits, temp):
        d = normalize_logits(vec(logits))
        out = normalize_logits(d / temp)
        assert out[int(np.argmax(d))] == np.max(out)

    def test_rejects_bad_temperature(self):
        for t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(NonPositiveTemperature):
                SamplerSchedule(temperature=t)


class TestConfig:
    """The run configuration carries the temperature the sampler applies."""

    def test_rejects_bad_temperature(self):
        with pytest.raises(ValidationError, match="schedule.temperature"):
            parse_config_text("schedule.temperature = 0.0")


def test_compose_logits_rejects_2d():
    with pytest.raises(ShapeMismatch):
        compose_logits(np.zeros((2, 2)), [], [])
