"""Weighted composition on a factorized world samples its exact tilted law.

A factorized world's condition likelihood is soft and a product over the
condition's cells. So composing the prior and conditional experts per
position with weight w is exact there: the sampler's grids follow

    p_w(x) = p(x) * P(c | x)^w / Z

for every w, negative ones included. tilted_law computes p_w by enumeration.
The sampler's joint TV to p_w must stay within a tolerance fixed from the
null distribution, the TV of RUNS samples of p_w itself, and samples drawn at
one weight must fail the check against another weight's law.
"""

import numpy as np
import pytest

from maskcompose.evalharness import _sample_arm, joint_tv
from maskcompose.sampler import SamplerSchedule
from maskcompose.worlds import build_random_factorized_world, cell_table, exact_conditional_model

RUNS = 20_000
WEIGHTS = (-1.0, 0.5, 2.0)
# The tolerance is the NULL_QUANTILE quantile of NULL_DRAWS null TVs.
NULL_DRAWS = 2_000
NULL_QUANTILE = 0.999
SCHEDULE = SamplerSchedule(temperature=1.0)


def tilted_law(world, conds, weights) -> tuple[np.ndarray, np.ndarray]:
    """(grids, probs) of p(x) * prod_i P(c_i | x)^w_i over world.support(),
    normalized."""
    grids, logp = world.support()
    logw = logp.astype(np.float64, copy=True)
    for cond, w in zip(conds, weights):
        logw += w * world.condition_loglik(cond)
    p = np.exp(logw - logw.max())
    return grids, p / p.sum()


def null_tolerance(probs: np.ndarray, n: int, rng: np.random.Generator) -> float:
    """The NULL_QUANTILE quantile of the TV between n samples of probs and probs."""
    counts = rng.multinomial(n, probs, size=NULL_DRAWS)
    tvs = 0.5 * np.abs(counts / n - probs).sum(axis=1)
    return float(np.quantile(tvs, NULL_QUANTILE))


@pytest.fixture(scope="module")
def world():
    return build_random_factorized_world(2, 2, 3, n_conditions=1, cells_per_condition=2, seed=11)


@pytest.fixture(scope="module")
def laws(world):
    """weight -> (grids, probs, tolerance); the tolerances come from null
    samples of each law alone, never from the sampler."""
    rng = np.random.default_rng(0)
    out = {}
    for w in WEIGHTS:
        grids, probs = tilted_law(world, [cell_table("c0")], [w])
        out[w] = grids, probs, null_tolerance(probs, RUNS, rng)
    return out


@pytest.fixture(scope="module")
def arms(world):
    """weight -> (grids sampled through _sample_arm, aborted runs)."""
    model = exact_conditional_model(world)
    return {
        w: _sample_arm(model, world.length, [cell_table("c0")], [w], SCHEDULE,
                       np.random.default_rng(i), RUNS)
        for i, w in enumerate(WEIGHTS)
    }


class TestTiltedLaw:
    def test_weight_one_is_the_posterior_and_zero_the_prior(self, world):
        cond = cell_table("c0")
        grids, probs = tilted_law(world, [cond], [1.0])
        post = world.enumerate_posterior([cond])
        assert np.array_equal(grids, post.grids)
        np.testing.assert_allclose(probs, post.probs, rtol=1e-12, atol=1e-15)
        _, prior = tilted_law(world, [cond], [0.0])
        np.testing.assert_allclose(prior, np.exp(world.support()[1]), rtol=1e-12, atol=1e-15)

    def test_laws_lie_far_apart_against_their_tolerances(self, laws):
        for a in WEIGHTS:
            for b in WEIGHTS:
                if a != b:
                    tv = 0.5 * np.abs(laws[a][1] - laws[b][1]).sum()
                    assert tv > 4 * max(laws[a][2], laws[b][2]), (a, b)


class TestSamplerFollowsTiltedLaw:
    @pytest.mark.parametrize("weight", WEIGHTS)
    def test_joint_tv_within_null_tolerance(self, laws, arms, weight):
        grids, probs, tol = laws[weight]
        samples, aborts = arms[weight]
        assert aborts == 0
        assert joint_tv(samples, grids, probs) <= tol

    def test_swapped_weights_fail(self, laws, arms):
        """Samples drawn at one weight fail the check against every other
        weight's law, so the check sees a weight's size, not only its sign."""
        for drawn in WEIGHTS:
            samples, aborts = arms[drawn]
            for target in WEIGHTS:
                if target != drawn:
                    grids, probs, tol = laws[target]
                    assert joint_tv(samples, grids, probs, aborts) > tol, (drawn, target)
