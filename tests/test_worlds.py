"""World enumeration, posterior oracles and the exact conditional model."""

import itertools
import sys
import tracemalloc

import countmodel_oracle as oracle
import numpy as np
import pytest
import scene_oracle
from hypothesis import given, settings
from hypothesis import strategies as st

from maskcompose.errors import (
    AllMassZero,
    EmptyIntersection,
    InvalidTable,
    StateSpaceTooLarge,
    ValidationError,
)
from exact_oracle import ExactOracle
from maskcompose.sampler import MASK, MaskedState, SamplerSchedule, run_to_completion
from maskcompose.worlds import (
    EXACT_MEMO_CAP_BYTES,
    VOCAB_CAP,
    ConditionSpec,
    attribute_present,
    build_factorized_world,
    build_random_factorized_world,
    build_scene_world,
    cell_table,
    cond_key,
    exact_conditional_model,
    object_at_cell,
    relation,
    render_tokens_to_image,
)


class TestConditionKeys:
    def test_unconditional_key(self):
        assert cond_key(None) == ("unconditional",)

    def test_single_spec_key(self):
        assert cond_key(object_at_cell(2, 1)) == ("object_at_cell", 2, 1)

    def test_joint_key_is_order_independent(self):
        a, b = object_at_cell(0, 0), object_at_cell(1, 1)
        assert cond_key((a, b)) == cond_key((b, a))
        assert cond_key((a, b))[0] == "joint"

    def test_relation_constructor_validates(self):
        with pytest.raises(ValueError):
            relation("right_of", ("shape", 0), ("shape", 1))
        with pytest.raises(ValueError):
            attribute_present("size", 0)


class TestSceneRendering:
    def test_token_code(self):
        # token = 1 + shape * n_colors + color
        spec = scene_oracle.SceneSpec(2, 2, (((0, 0), 1, 2), ((1, 1), 0, 0)), max_objects=2)
        tokens = scene_oracle.render_scene(spec, n_colors=3)
        assert tokens[0] == 1 + 1 * 3 + 2 == 6
        assert tokens[3] == 1
        assert tokens[1] == tokens[2] == 0

    def test_scene_validation(self):
        with pytest.raises(ValueError):
            scene_oracle.SceneSpec(2, 2, (((0, 0), 0, 0), ((0, 0), 1, 0)), max_objects=2)
        with pytest.raises(ValueError):
            scene_oracle.SceneSpec(2, 2, (((2, 0), 0, 0),), max_objects=1)
        with pytest.raises(ValueError):
            scene_oracle.SceneSpec(2, 2, (((0, 0), 0, 0), ((1, 0), 0, 0)), max_objects=1)

    def test_rendering_is_injective_over_support(self):
        world = build_scene_world(2, 2, n_shapes=2, n_colors=2, max_objects=2)
        grids, _ = world.support()
        assert np.unique(grids, axis=0).shape[0] == grids.shape[0]


class TestSceneWorldSupport:
    def test_support_size_saturated(self):
        # max_objects >= L makes every cell an independent (K-1)+1 way choice
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=4)
        grids, logp = world.support()
        assert grids.shape == (81, 4)
        assert np.allclose(logp, -np.log(81))

    def test_support_size_budgeted(self):
        # sum_m C(9, m) * 4^m for m = 0..3 is 1 + 36 + 576 + 5376
        world = build_scene_world(3, 3, n_shapes=2, n_colors=2, max_objects=3)
        grids, _ = world.support()
        assert grids.shape == (5989, 9)

    def test_restrict_shrinks_support(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        small = world.restrict(1)
        assert small.support()[0].shape[0] == 5
        assert small.vocab_size == world.vocab_size

    def test_cap_enforced(self):
        with pytest.raises(StateSpaceTooLarge):
            build_scene_world(5, 5, n_shapes=3, n_colors=3, max_objects=25)

    def test_vocabulary_fits_int16_tokens(self):
        # one shape and VOCAB_CAP - 1 colors give the largest vocabulary allowed
        world = build_scene_world(1, 1, n_shapes=1, n_colors=VOCAB_CAP - 1, max_objects=1)
        assert world.vocab_size == VOCAB_CAP == 32768
        grids, _ = world.support()
        assert grids.min() == 0 and grids.max() == VOCAB_CAP - 1
        assert world.prior_marginals().shape == (1, VOCAB_CAP)
        for n_colors in (VOCAB_CAP, 40_000):
            with pytest.raises(StateSpaceTooLarge, match=f"vocabulary of {n_colors + 1} tokens"):
                build_scene_world(1, 1, n_shapes=1, n_colors=n_colors, max_objects=1)


class TestSceneWorldPosterior:
    def test_single_cell_condition_marginals(self):
        # 16 uniform binary grids; conditioning on cell (0,0) occupied leaves
        # 8 grids, pins position 0 and leaves the rest at one half
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        post = world.enumerate_posterior([object_at_cell(0, 0)])
        assert post.grids.shape == (8, 4)
        assert np.allclose(post.probs, 1 / 8)
        marg = post.marginals()
        assert np.allclose(marg[0], [0.0, 1.0])
        for p in (1, 2, 3):
            assert np.allclose(marg[p], [0.5, 0.5])

    def test_two_cell_conditions(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        post = world.enumerate_posterior([object_at_cell(0, 0), object_at_cell(1, 1)])
        assert post.grids.shape == (4, 4)
        marg = post.marginals()
        assert np.allclose(marg[0], [0.0, 1.0])
        assert np.allclose(marg[3], [0.0, 1.0])
        assert np.allclose(marg[1], [0.5, 0.5])

    def test_empty_intersection(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=1)
        with pytest.raises(EmptyIntersection):
            world.enumerate_posterior([object_at_cell(0, 0), object_at_cell(1, 1)])

    def test_attribute_condition(self):
        # 9 uniform scenes (empty + 4 cells x 2 shapes); shape 0 present in 4
        world = build_scene_world(2, 2, n_shapes=2, n_colors=1, max_objects=1)
        post = world.enumerate_posterior([attribute_present("shape", 0)])
        assert post.grids.shape == (4, 4)
        assert np.allclose(post.probs, 1 / 4)
        assert all((g == 1).sum() == 1 for g in post.grids)

    def test_relation_condition(self):
        # 1x2 strip, two shapes, one color, at most two objects: exactly one
        # scene has a shape-0 object strictly left of a shape-1 object
        world = build_scene_world(2, 1, n_shapes=2, n_colors=1, max_objects=2, relational=True)
        cond = relation("left_of", ("shape", 0), ("shape", 1))
        post = world.enumerate_posterior([cond])
        assert post.grids.shape == (1, 2)
        assert list(post.grids[0]) == [1, 2]
        with pytest.raises(EmptyIntersection):
            world.enumerate_posterior([relation("above", ("shape", 0), ("shape", 1))])

    def test_relation_needs_relational_world(self):
        world = build_scene_world(2, 1, n_shapes=2, n_colors=1, max_objects=2)
        with pytest.raises(ValidationError, match="relational scene world"):
            world.enumerate_posterior([relation("left_of", ("shape", 0), ("shape", 1))])

    def test_prior_marginals_normalize(self):
        world = build_scene_world(3, 3, n_shapes=2, n_colors=2, max_objects=3)
        marg = world.prior_marginals()
        assert marg.shape == (9, 5)
        assert np.allclose(marg.sum(axis=1), 1.0)
        # all cells are exchangeable under the uniform scene prior
        assert np.allclose(marg, marg[0])
        # the shared weighted-bincount helper over contiguous columns gives the
        # bytes of one bincount per strided support column
        post = world.enumerate_posterior([])
        strided = np.stack([
            np.bincount(post.grids[:, p], weights=post.probs, minlength=world.vocab_size)
            for p in range(world.length)
        ])
        assert marg.tobytes() == strided.tobytes()

    def test_check_conditions_bitmap(self):
        world = build_scene_world(2, 2, n_shapes=2, n_colors=1, max_objects=2)
        grid = np.array([1, 0, 0, 2], dtype=np.int16)
        bits = world.check_conditions(
            grid,
            [
                object_at_cell(0, 0),
                object_at_cell(1, 0),
                attribute_present("shape", 1),
                attribute_present("shape", 0),
            ],
        )
        assert list(bits) == [True, False, True, True]

    def test_check_conditions_rejects_masked_grid(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        with pytest.raises(ValueError):
            world.check_conditions(np.array([MASK, 0, 0, 0]), [object_at_cell(0, 0)])


SCENE_WORLDS = {
    "1x1": (1, 1, 2, 2, 1, False),
    "2x2": (2, 2, 2, 1, 2, False),
    "3x1-relational": (3, 1, 2, 1, 3, True),
    "2x3-relational": (2, 3, 2, 2, 3, True),
    "3x3": (3, 3, 2, 1, 3, False),
    "2x2-saturated": (2, 2, 1, 2, 6, False),  # max_objects >= L
}


def _checked_conditions(world) -> list:
    """The world's pool, every attribute (one id past the last included) and,
    on relational worlds, a relation between an attribute and itself."""
    attrs = [("shape", i) for i in range(world.n_shapes + 1)]
    attrs += [("color", i) for i in range(world.n_colors + 1)]
    conds = world.condition_pool() + [attribute_present(k, i) for k, i in attrs]
    if world.relational:
        conds += [relation(rel, ("shape", 0), ("shape", 0)) for rel in ("left_of", "above")]
    return conds


class TestSceneOracleEquivalence:
    """The array-built support and the batched predicates against the
    scene-by-scene reference in tests/scene_oracle.py, byte for byte."""

    @pytest.fixture(params=sorted(SCENE_WORLDS))
    def world(self, request):
        return build_scene_world(*SCENE_WORLDS[request.param])

    def test_support_rows_and_log_priors(self, world):
        grids, logp = world.support()
        want_grids, want_logp = scene_oracle.support(world)
        assert len(grids) == world.n_states == len(want_grids)
        assert grids.dtype == want_grids.dtype and grids.tobytes() == want_grids.tobytes()
        want_logp = want_logp - np.logaddexp.reduce(want_logp)
        assert logp.tobytes() == want_logp.tobytes()

    def test_condition_columns(self, world):
        grids, _ = world.support()
        for cond in _checked_conditions(world):
            want = scene_oracle.satisfaction_column(world, grids, cond)
            assert world.predicate(grids, cond).tobytes() == want.tobytes(), cond
            loglik = np.where(want, 0.0, -np.inf)
            assert world.condition_loglik(cond).tobytes() == loglik.tobytes(), cond

    def test_check_conditions_on_single_grids(self, world):
        grids, _ = world.support()
        conds = _checked_conditions(world)
        for grid in grids[:: max(1, len(grids) // 150)]:
            want = [scene_oracle.satisfies(world, grid, c) for c in conds]
            assert world.check_conditions(grid, conds).tolist() == want, grid.tolist()

    def test_support_build_memory_is_bounded(self):
        world = build_scene_world(4, 4, n_shapes=2, n_colors=2, max_objects=4)
        tracemalloc.start()
        try:
            grids, logp = world.support()
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(grids) == world.n_states == 503_745
        assert peak <= 3 * (grids.nbytes + logp.nbytes)

    def test_unevaluable_conditions_are_validation_errors(self):
        scene = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        factorized = build_random_factorized_world(2, 2, 3, n_conditions=1, seed=0)
        grids = scene.support()[0]
        cases = [
            (scene, cell_table("c0"), "scene worlds"),
            (scene, object_at_cell(2, 0), "outside the 2x2 grid"),
            (factorized, cell_table("c0"), "factorized worlds"),
            (factorized, attribute_present("shape", 0), "factorized worlds"),
            (factorized, object_at_cell(0, 2), "outside the 2x2 grid"),
        ]
        for world, cond, message in cases:
            with pytest.raises(ValidationError, match=message):
                world.predicate(grids, cond)
        with pytest.raises(ValidationError, match="unknown table condition"):
            factorized.condition_loglik(cell_table("c9"))
        # the factorized world's one predicate: a non-empty cell
        assert factorized.predicate(grids, object_at_cell(1, 0)).tolist() == (
            grids[:, 1] != 0
        ).tolist()


class TestSceneTrainingPairs:
    def test_pairs_are_satisfied_and_deterministic(self):
        world = build_scene_world(2, 2, n_shapes=2, n_colors=1, max_objects=2)
        grids, conds = world.sample_training_pairs(np.random.default_rng(7), 200)
        again, conds2 = world.sample_training_pairs(np.random.default_rng(7), 200)
        assert np.array_equal(grids, again)
        assert conds == conds2
        for g, c in zip(grids, conds):
            if c is None:
                assert (g == 0).all()
            else:
                assert world.check_conditions(g, [c]).all()

    @pytest.mark.parametrize("seed", [0, 7, 99])
    @pytest.mark.parametrize("max_objects", [0, 1, 3])
    def test_pairs_and_stream_match_the_per_scene_loop(self, seed, max_objects):
        world = build_scene_world(3, 2, n_shapes=2, n_colors=1, max_objects=max_objects)
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        grids, conds = world.sample_training_pairs(rng, 500)
        loop_grids, loop_conds = oracle.scene_training_pairs(world, loop_rng, 500)
        assert np.array_equal(grids, loop_grids)
        assert conds == loop_conds
        assert rng.random() == loop_rng.random()

    def test_condition_pool_contents(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2, relational=True)
        pool = world.condition_pool()
        kinds = {c.kind for c in pool}
        assert kinds == {"object_at_cell", "relation"}
        assert sum(c.kind == "object_at_cell" for c in pool) == 4
        # 2 attrs (shape 0, color 0) -> 2 ordered pairs x 2 relations
        assert sum(c.kind == "relation" for c in pool) == 4


class TestFactorizedWorld:
    def test_prior_marginals_match_tables(self):
        prior = np.array([[0.2, 0.8], [0.6, 0.4], [0.5, 0.5]])
        world = build_factorized_world(3, 1, 2, {}, prior_tables=prior)
        assert np.allclose(world.prior_marginals(), prior, atol=1e-12)

    def test_closed_form_single_condition(self):
        # table ratio [1.8, 0.2] gives kappa = 1/1.8; Bayes returns the table
        world = build_factorized_world(
            2, 1, 2, {"a": {0: [0.9, 0.1]}}
        )
        post = world.enumerate_posterior([cell_table("a")])
        assert np.allclose(post.marginals(), [[0.9, 0.1], [0.5, 0.5]], atol=1e-12)
        assert np.allclose(world.conditional_tables(cell_table("a")), [[0.9, 0.1], [0.5, 0.5]])

    def test_likelihood_is_bounded_by_one(self):
        world = build_random_factorized_world(2, 2, 3, n_conditions=2, seed=3)
        for cond in world.condition_pool():
            loglik = world.condition_loglik(cond)
            assert loglik.max() <= 1e-12
            # the bound is tight: the maximizing state attains likelihood one
            assert abs(loglik.max()) <= 1e-9

    def test_disjoint_conditions_compose_to_product_tables(self):
        world = build_random_factorized_world(
            2, 2, 3, n_conditions=2, cells_per_condition=2, seed=11
        )
        conds = world.condition_pool()
        post = world.enumerate_posterior(conds)
        assert np.allclose(post.marginals(), world.conditional_tables(conds), atol=1e-12)

    def test_table_validation(self):
        with pytest.raises(InvalidTable):
            build_factorized_world(2, 1, 2, {"a": {0: [0.9, 0.2]}})
        with pytest.raises(InvalidTable):
            build_factorized_world(2, 1, 2, {}, prior_tables=np.array([[1.0, 0.0], [0.5, 0.5]]))
        with pytest.raises(InvalidTable):
            build_factorized_world(2, 1, 2, {"a": {}})
        with pytest.raises(InvalidTable):
            build_random_factorized_world(2, 1, 2, n_conditions=3, cells_per_condition=1)
        for cell in (2, -1, (0, 1)):  # outside the 2x1 grid
            with pytest.raises(InvalidTable, match="outside"):
                build_factorized_world(2, 1, 2, {"a": {cell: [0.5, 0.5]}})

    def test_cap_enforced(self):
        with pytest.raises(StateSpaceTooLarge):
            build_factorized_world(4, 4, 6, {})

    def test_vocabulary_fits_int16_tokens(self):
        world = build_factorized_world(1, 1, VOCAB_CAP, {})
        grids, _ = world.support()
        assert grids.min() == 0 and grids.max() == VOCAB_CAP - 1
        assert np.allclose(world.prior_marginals(), 1.0 / VOCAB_CAP)
        for vocab_size in (VOCAB_CAP + 1, 40_000):
            with pytest.raises(StateSpaceTooLarge, match=f"vocabulary of {vocab_size} tokens"):
                build_factorized_world(1, 1, vocab_size, {})

    def test_training_pairs_follow_condition_tables(self):
        world = build_factorized_world(
            2, 1, 2, {"a": {0: [0.95, 0.05]}, "b": {1: [0.1, 0.9]}}
        )
        grids, conds = world.sample_training_pairs(np.random.default_rng(0), 4000)
        sel = np.array([c == cell_table("a") for c in conds])
        assert 0.4 < sel.mean() < 0.6
        assert abs((grids[sel, 0] == 0).mean() - 0.95) < 0.03
        assert abs((grids[~sel, 1] == 1).mean() - 0.9) < 0.03

    @pytest.mark.parametrize("seed", [0, 5, 31])
    def test_training_pairs_match_the_per_position_loop(self, seed):
        world = build_random_factorized_world(2, 2, 5, n_conditions=3, seed=seed)
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        grids, conds = world.sample_training_pairs(rng, 2000)
        loop_grids, loop_conds = oracle.factorized_training_pairs(world, loop_rng, 2000)
        assert np.array_equal(grids, loop_grids)
        assert conds == loop_conds
        assert rng.random() == loop_rng.random()

    @given(seed=st.integers(0, 10_000))
    @settings(max_examples=25, deadline=None)
    def test_enumeration_agrees_with_closed_form(self, seed):
        """Brute-force Bayes and the product-measure formula are the same law."""
        world = build_random_factorized_world(
            3, 1, 3, n_conditions=2, cells_per_condition=1, seed=seed
        )
        for cond in world.condition_pool():
            enumerated = world.enumerate_posterior([cond]).marginals()
            closed = world.conditional_tables(cond)
            assert np.allclose(enumerated, closed, atol=1e-10)


class TestExactConditionalModel:
    def test_fully_masked_matches_posterior_marginals(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2)
        model = exact_conditional_model(world)
        cond = object_at_cell(1, 0)
        out = model.predict(MaskedState.fully_masked(4), cond)
        marg = world.enumerate_posterior([cond]).marginals()
        for p, logp in out.items():
            assert np.allclose(np.exp(logp), marg[p], atol=1e-12)

    def test_partial_state_hand_case(self):
        # uniform 16-grid world; fixing slot 0 to occupied leaves slot 3 at
        # one half unconditionally and at one under the cell-(1,1) condition
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        model = exact_conditional_model(world)
        state = MaskedState.fully_masked(4).with_fixed([0], [1])
        uncond = model.predict(state, None)
        assert set(uncond) == {1, 2, 3}
        assert np.allclose(np.exp(uncond[3]), [0.5, 0.5])
        conded = model.predict(state, object_at_cell(1, 1))
        assert np.allclose(np.exp(conded[3]), [0.0, 1.0])

    def test_joint_condition_tuple(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        model = exact_conditional_model(world)
        pair = (object_at_cell(0, 0), object_at_cell(1, 1))
        out = model.predict(MaskedState.fully_masked(4), pair)
        assert np.allclose(np.exp(out[0]), [0.0, 1.0])
        assert np.allclose(np.exp(out[3]), [0.0, 1.0])
        assert np.allclose(np.exp(out[1]), [0.5, 0.5])

    def test_incompatible_condition_abstains_by_default(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        model = exact_conditional_model(world)
        state = MaskedState.fully_masked(4).with_fixed([0], [0])
        out = model.predict(state, object_at_cell(0, 0))
        uncond = model.predict(state, None)
        for p in uncond:
            assert np.allclose(out[p], uncond[p])

    def test_no_compatible_support_state_is_named_as_the_cause(self):
        """Two tokens drawn in one step from per-position marginals can leave
        the support together; the unconditional query then has nothing to
        marginalize over, and the error says so instead of blaming a condition."""
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=3)
        model = exact_conditional_model(world)
        sched = SamplerSchedule(tokens_per_step=2, rng_seed=15)
        with pytest.raises(AllMassZero, match="no support state agrees with the unmasked slots"):
            run_to_completion(MaskedState.fully_masked(9), model, [], [], sched)
        crowded = MaskedState(np.array([1, 1, 1, 1, MASK, MASK, MASK, MASK, MASK], dtype=np.int16))
        for cond in (None, object_at_cell(2, 2)):
            with pytest.raises(AllMassZero, match="no support state agrees"):
                model.predict(crowded, cond)

    def test_memoization_returns_same_object(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        model = exact_conditional_model(world)
        state = MaskedState.fully_masked(4)
        assert model.predict(state, None) is model.predict(state, None)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None)
    def test_chain_rule_consistency(self, seed):
        """Marginal of slot 0 times conditional of slot 1 recovers the joint
        pair marginal from enumeration."""
        world = build_scene_world(2, 1, n_shapes=1, n_colors=2, max_objects=2)
        model = exact_conditional_model(world)
        rng = np.random.default_rng(seed)
        post = world.enumerate_posterior([])
        first = np.exp(model.predict(MaskedState.fully_masked(2), None)[0])
        v0 = int(rng.integers(world.vocab_size))
        if first[v0] == 0.0:
            return
        state = MaskedState.fully_masked(2).with_fixed([0], [v0])
        second = np.exp(model.predict(state, None)[1])
        for v1 in range(world.vocab_size):
            joint = float(
                post.probs[(post.grids[:, 0] == v0) & (post.grids[:, 1] == v1)].sum()
            )
            assert abs(first[v0] * second[v1] - joint) < 1e-12


def _answer(model, query, condition):
    """predict's output, or the type and message of the AllMassZero it raised."""
    try:
        return model.predict(query, condition)
    except AllMassZero as exc:
        return (type(exc), str(exc))


def _same_answer(got, want) -> bool:
    if isinstance(want, tuple):
        return got == want
    return (
        isinstance(got, dict)
        and got.keys() == want.keys()
        and all(got[p].tobytes() == want[p].tobytes() for p in want)
    )


def _oracle_worlds():
    relational = build_scene_world(3, 1, n_shapes=2, n_colors=1, max_objects=3, relational=True)
    factorized = build_random_factorized_world(2, 2, 3, n_conditions=2, seed=5)
    return {
        "scene-2x2": (
            build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=3),
            [object_at_cell(0, 0), object_at_cell(1, 1)],
        ),
        "scene-3x1": (
            relational,
            [relation("left_of", ("shape", 0), ("shape", 1)), object_at_cell(2, 0)],
        ),
        "factorized-2x2": (factorized, [cell_table("c0"), cell_table("c1")]),
    }


ORACLE_WORLDS = _oracle_worlds()


class TestExactOracleEquivalence:
    """The compiled exact model against the boolean-mask oracle, bit for bit."""

    @pytest.mark.parametrize("world_name", sorted(ORACLE_WORLDS))
    @given(seed=st.integers(0, 2**16), repeat=st.integers(1, 3))
    @settings(max_examples=4, deadline=None)
    def test_predict_matches_oracle_on_every_partial_state(self, world_name, seed, repeat):
        world, conds = ORACLE_WORLDS[world_name]
        oracle_model = ExactOracle(world)
        warm = exact_conditional_model(world)
        # no condition, one condition and a joint prompt of both
        queries = [None, conds[0], tuple(conds)]
        states = [
            np.array(v, dtype=np.int16)
            for v in itertools.product(range(MASK, world.vocab_size), repeat=world.length)
        ]
        # each state is asked `repeat` times in a row per condition, the
        # sampler's pattern; the shuffle interleaves states between runs
        rng = np.random.default_rng(seed)
        order = [(s, q) for s in range(len(states)) for q in range(len(queries))]
        order = [order[i] for i in rng.permutation(len(order)) for _ in range(repeat)]
        first = {}
        for s, q in order:
            state, condition = MaskedState(states[s]), queries[q]
            got = _answer(warm, state, condition)
            want = _answer(oracle_model, states[s], condition)
            assert _same_answer(got, want), (states[s].tolist(), condition)
            if (s, q) in first:
                # a memo hit hands back the object the miss computed
                earlier = first[(s, q)]
                assert got is earlier if isinstance(got, dict) else got == earlier
            first[(s, q)] = got
            # a cold model computes the same answer from nothing
            cold = _answer(exact_conditional_model(world), state, condition)
            assert _same_answer(cold, got)


    def test_reregistered_condition_is_read_again(self):
        world = build_random_factorized_world(2, 2, 3, n_conditions=1, seed=2)
        model = exact_conditional_model(world)
        asked = MaskedState.fully_masked(4)
        before = model.predict(asked, cell_table("c0"))
        cell = sorted(world.table_conditions["c0"])[0]
        assert not np.allclose(np.exp(before[cell]), [0.2, 0.3, 0.5])
        world.add_condition("c0", {cell: [0.2, 0.3, 0.5]})
        # a state asked before the re-registration and one asked only after
        fresh = MaskedState.fully_masked(4).with_fixed([(cell + 1) % 4], [1])
        for state in (asked, fresh, asked):
            got = model.predict(state, cell_table("c0"))
            want = ExactOracle(world).predict(state.tokens, cell_table("c0"))
            assert _same_answer(got, want), state.tokens.tolist()
            assert np.allclose(np.exp(got[cell]), [0.2, 0.3, 0.5])


class TestExactMemoBound:
    @staticmethod
    def live_bytes(memo) -> int:
        """Bytes the memo's dicts, keys and answers hold, each object once."""
        seen = set()

        def size(obj) -> int:
            if id(obj) in seen:
                return 0
            seen.add(id(obj))
            n = sys.getsizeof(obj)
            if isinstance(obj, tuple):
                n += sum(size(x) for x in obj)
            elif isinstance(obj, dict):
                n += sum(size(k) + size(v) for k, v in obj.items())
            elif isinstance(obj, np.ndarray) and obj.base is not None:
                n += size(obj.base)
            return n

        return size(memo._new) + size(memo._old)

    def test_memo_stays_under_its_cap(self):
        world = build_scene_world(3, 3, n_shapes=2, n_colors=2, max_objects=3)
        model = exact_conditional_model(world)
        grids, _ = world.support()
        rng = np.random.default_rng(0)
        conds = [None, object_at_cell(0, 0), (object_at_cell(0, 0), object_at_cell(2, 2))]
        asked = set()
        for _ in range(12_000):
            tokens = grids[rng.integers(len(grids))].copy()
            tokens[rng.permutation(9)[: rng.integers(1, 10)]] = MASK
            condition = conds[rng.integers(len(conds))]
            asked.add((tokens.tobytes(), cond_key(condition)))
            model.predict(MaskedState(tokens), condition)
        memo = model.memo
        assert len(asked) > 8000
        assert 0 < len(memo) < len(asked)  # entries were dropped on the way
        # each charge bounds what its entry holds, so the memo holds no more
        # than it is charged for
        live = self.live_bytes(memo)
        assert live <= memo.charged_bytes <= EXACT_MEMO_CAP_BYTES


class TestRendering:
    def test_image_shape_and_range(self):
        world = build_scene_world(3, 2, n_shapes=2, n_colors=2, max_objects=3)
        tokens = np.array([0, 1, 2, 3, 4, 0])
        img = render_tokens_to_image(world, tokens, cell_px=5)
        assert img.shape == (10, 15, 3)
        assert img.min() >= 0.0 and img.max() <= 1.0

    def test_distinct_tokens_render_distinct_patches(self):
        world = build_scene_world(2, 2, n_shapes=2, n_colors=2, max_objects=4)
        patches = []
        for tok in range(world.vocab_size):
            img = render_tokens_to_image(world, np.array([tok, 0, 0, 0]), cell_px=4)
            patches.append(img[:4, :4].tobytes())
        assert len(set(patches)) == world.vocab_size
