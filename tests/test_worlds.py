"""World enumeration, posterior oracles and the exact conditional model."""

import copy
import dataclasses
import itertools
import pickle
import sys
import tracemalloc

import countmodel_oracle as oracle
import numpy as np
import pytest
import scene_oracle
from answer_contract import assert_answer, oracle_answer
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
from maskcompose.sampler import (
    MASK,
    MaskedState,
    SamplerSchedule,
    draw_runs,
    run_to_completion,
)
from maskcompose.worlds import (
    EXACT_MEMO_CAP_BYTES,
    VOCAB_CAP,
    ConditionSpec,
    JointPrompt,
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

    @pytest.mark.parametrize("spec", [
        object_at_cell(2, 1),
        attribute_present("color", 1),
        relation("left_of", ("shape", 0), ("color", 1)),
        cell_table("c0"),
        ConditionSpec("object_at_cell", [0, 1]),  # a list payload keys as a tuple
    ])
    def test_spec_key_is_kept_outside_the_fields(self, spec):
        """key() is computed once, at construction; equality, hashing, repr
        and asdict see only kind and payload, and copies keep the key."""
        key = (spec.kind,) + tuple(spec.payload)
        assert spec.key() == key and spec.key() is spec.key()
        assert dataclasses.asdict(spec) == {"kind": spec.kind, "payload": spec.payload}
        assert repr(spec) == f"ConditionSpec(kind={spec.kind!r}, payload={spec.payload!r})"
        twin = ConditionSpec(spec.kind, spec.payload)
        assert twin == spec and twin.key() == key
        if isinstance(spec.payload, tuple):
            assert hash(twin) == hash(spec) == hash((spec.kind, spec.payload))
        for clone in (dataclasses.replace(spec), copy.deepcopy(spec),
                      pickle.loads(pickle.dumps(spec))):
            assert clone == spec and clone.key() == key
        moved = dataclasses.replace(spec, payload=(7,))
        assert moved.key() == (spec.kind, 7)

    @pytest.mark.parametrize("specs", [
        (object_at_cell(0, 0), object_at_cell(1, 1)),
        (relation("above", ("shape", 1), ("color", 0)), cell_table("c0"),
         attribute_present("color", 1)),
        (object_at_cell(2, 1),),
        (),
    ])
    def test_joint_prompt_keeps_its_key(self, specs):
        """A joint prompt's key is computed once, at construction, and equals
        cond_key of the plain tuple in every order; the prompt equals, hashes
        and pickles as that tuple, and copies keep the key."""
        key = ("joint",) + tuple(sorted(spec.key() for spec in specs))
        prompt = JointPrompt(specs)
        assert prompt.key() == key and prompt.key() is prompt.key() is cond_key(prompt)
        for order in itertools.permutations(specs):
            assert cond_key(order) == key and JointPrompt(order).key() == key
        assert prompt == specs and hash(prompt) == hash(specs)
        for clone in (copy.deepcopy(prompt), pickle.loads(pickle.dumps(prompt))):
            assert type(clone) is JointPrompt and clone == prompt and clone.key() == key

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
        assert world.enumerate_posterior([]).marginals().shape == (1, VOCAB_CAP)
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
        marg = world.enumerate_posterior([]).marginals()
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


def expanded_training_pairs(world, rng, n):
    """A world's training pairs with one condition (or None) per sample, the
    form the per-sample loops in countmodel_oracle return."""
    grids, specs, index = world.sample_training_pairs(rng, n)
    assert index.shape == (n,) and index.dtype.kind == "i"
    assert len(set(specs)) == len(specs)
    used, first = np.unique(index[index >= 0], return_index=True)
    assert used.tolist() == list(range(len(specs)))
    assert (np.diff(first) > 0).all()  # spec j first turns up after specs 0 .. j-1
    return grids, [None if i < 0 else specs[i] for i in index.tolist()]


class TestSceneTrainingPairs:
    def test_pairs_are_satisfied_and_deterministic(self):
        world = build_scene_world(2, 2, n_shapes=2, n_colors=1, max_objects=2)
        grids, conds = expanded_training_pairs(world, np.random.default_rng(7), 200)
        again, conds2 = expanded_training_pairs(world, np.random.default_rng(7), 200)
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
        grids, conds = expanded_training_pairs(world, rng, 500)
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
        assert np.allclose(world.enumerate_posterior([]).marginals(), prior, atol=1e-12)

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
        assert np.allclose(world.enumerate_posterior([]).marginals(), 1.0 / VOCAB_CAP)
        for vocab_size in (VOCAB_CAP + 1, 40_000):
            with pytest.raises(StateSpaceTooLarge, match=f"vocabulary of {vocab_size} tokens"):
                build_factorized_world(1, 1, vocab_size, {})

    def test_training_pairs_follow_condition_tables(self):
        world = build_factorized_world(
            2, 1, 2, {"a": {0: [0.95, 0.05]}, "b": {1: [0.1, 0.9]}}
        )
        grids, conds = expanded_training_pairs(world, np.random.default_rng(0), 4000)
        sel = np.array([c == cell_table("a") for c in conds])
        assert 0.4 < sel.mean() < 0.6
        assert abs((grids[sel, 0] == 0).mean() - 0.95) < 0.03
        assert abs((grids[~sel, 1] == 1).mean() - 0.9) < 0.03

    @pytest.mark.parametrize("seed", [0, 5, 31])
    def test_training_pairs_match_the_per_position_loop(self, seed):
        world = build_random_factorized_world(2, 2, 5, n_conditions=3, seed=seed)
        rng, loop_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        grids, conds = expanded_training_pairs(world, rng, 2000)
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
        out = model.predict(MaskedState.fully_masked(4).tokens, cond)
        marg = world.enumerate_posterior([cond]).marginals()
        for p, logp in enumerate(out):
            assert np.allclose(np.exp(logp), marg[p], atol=1e-12)

    def test_partial_state_hand_case(self):
        # uniform 16-grid world; fixing slot 0 to occupied leaves slot 3 at
        # one half unconditionally and at one under the cell-(1,1) condition
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        model = exact_conditional_model(world)
        tokens = np.array([1, MASK, MASK, MASK], dtype=np.int16)
        uncond = model.predict(tokens, None)
        assert uncond.shape == (4, 2)
        assert np.array_equal(np.exp(uncond[0]), [0.0, 1.0])  # the fixed slot
        assert np.allclose(np.exp(uncond[3]), [0.5, 0.5])
        conded = model.predict(tokens, object_at_cell(1, 1))
        assert np.allclose(np.exp(conded[3]), [0.0, 1.0])

    def test_joint_condition_tuple(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        model = exact_conditional_model(world)
        pair = (object_at_cell(0, 0), object_at_cell(1, 1))
        out = model.predict(MaskedState.fully_masked(4).tokens, pair)
        assert np.allclose(np.exp(out[0]), [0.0, 1.0])
        assert np.allclose(np.exp(out[3]), [0.0, 1.0])
        assert np.allclose(np.exp(out[1]), [0.5, 0.5])

    def test_incompatible_condition_abstains_by_default(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        model = exact_conditional_model(world)
        tokens = np.array([0, MASK, MASK, MASK], dtype=np.int16)
        out = model.predict(tokens, object_at_cell(0, 0))
        uncond = model.predict(tokens, None)
        for p in np.flatnonzero(tokens == MASK):
            assert np.allclose(out[p], uncond[p])

    def test_no_compatible_support_state_is_named_as_the_cause(self):
        """Two tokens drawn in one step from per-position marginals can leave
        the support together; the unconditional query then has nothing to
        marginalize over, and the error says so instead of blaming a condition."""
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=3)
        model = exact_conditional_model(world)
        sched = SamplerSchedule(tokens_per_step=2)
        # about one run in thirty leaves the support (93 of 3 000 rows at this
        # seed); every one that does says why
        orders, rows = draw_runs(sched, 9, np.random.default_rng(15), 300)
        aborts = 0
        for order, uniforms in zip(orders, rows):
            try:
                run_to_completion(MaskedState.fully_masked(9), model, [], [], sched, order, uniforms)
            except AllMassZero as exc:
                assert "no support state agrees with the unmasked slots" in str(exc)
                aborts += 1
        assert aborts > 0
        crowded = np.array([1, 1, 1, 1, MASK, MASK, MASK, MASK, MASK], dtype=np.int16)
        for cond in (None, object_at_cell(2, 2)):
            with pytest.raises(AllMassZero, match="no support state agrees"):
                model.predict(crowded, cond)

    def test_memoization_returns_same_object(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        model = exact_conditional_model(world)
        tokens = MaskedState.fully_masked(4).tokens
        assert model.predict(tokens, None) is model.predict(tokens, None)

    @given(seed=st.integers(0, 5_000))
    @settings(max_examples=20, deadline=None)
    def test_chain_rule_consistency(self, seed):
        """Marginal of slot 0 times conditional of slot 1 recovers the joint
        pair marginal from enumeration."""
        world = build_scene_world(2, 1, n_shapes=1, n_colors=2, max_objects=2)
        model = exact_conditional_model(world)
        rng = np.random.default_rng(seed)
        post = world.enumerate_posterior([])
        first = np.exp(model.predict(MaskedState.fully_masked(2).tokens, None)[0])
        v0 = int(rng.integers(world.vocab_size))
        if first[v0] == 0.0:
            return
        tokens = np.array([v0, MASK], dtype=np.int16)
        second = np.exp(model.predict(tokens, None)[1])
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
    """Both raised the same error, or both answered the same (L, K) bytes."""
    if isinstance(want, tuple):
        return got == want
    return (
        isinstance(got, np.ndarray)
        and got.shape == want.shape
        and got.tobytes() == want.tobytes()
    )


def _oracle_worlds():
    relational = build_scene_world(3, 1, n_shapes=2, n_colors=1, max_objects=3, relational=True)
    factorized = build_random_factorized_world(2, 2, 3, n_conditions=2, seed=5)
    return {
        "scene-2x2": (
            build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=3),
            [object_at_cell(0, 0), object_at_cell(1, 1)],
        ),
        # three objects already leave no compatible row while a slot is masked
        "scene-2x2-sparse": (
            build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2),
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
            condition = queries[q]
            got = _answer(warm, states[s], condition)
            want = _answer(oracle_model, states[s], condition)
            if isinstance(want, dict):
                want = oracle_answer(states[s], want, world.vocab_size)
            assert _same_answer(got, want), (states[s].tolist(), condition)
            if (s, q) in first:
                # a memo hit hands back the object the miss computed
                earlier = first[(s, q)]
                assert got is earlier if isinstance(got, np.ndarray) else got == earlier
            first[(s, q)] = got
            # a cold model computes the same answer from nothing
            cold = _answer(exact_conditional_model(world), states[s], condition)
            assert _same_answer(cold, got)


    def test_reregistering_a_condition_raises(self):
        world = build_random_factorized_world(2, 2, 3, n_conditions=1, seed=2)
        tokens = MaskedState.fully_masked(4).tokens
        before = exact_conditional_model(world).predict(tokens, cell_table("c0"))
        cell = sorted(world.table_conditions["c0"])[0]
        with pytest.raises(InvalidTable, match="'c0' is already registered"):
            world.add_condition("c0", {cell: [0.2, 0.3, 0.5]})
        # the refused tables left the condition as it was
        after = exact_conditional_model(world).predict(tokens, cell_table("c0"))
        assert _same_answer(before, after)


def _fresh_conditions(conds):
    """None, each condition alone, then joint prompts that repeat one
    condition once more each round: no two of them share a memo key."""
    yield None
    yield from conds
    for n in itertools.count(1):
        for c in conds:
            yield (c,) * n


class TestExactNarrowingChains:
    """One warm model asked a chain of states, each answer against the oracle
    bit for bit. A chain extends, repeats, changes, re-masks and replaces
    states, and extends a state that no support row agrees with, so the
    model narrows both the last state's rows and the full support. Each
    query has a condition of its own, so no answer comes from the memo."""

    OPS = ("extend", "repeat", "change", "remask", "unrelated", "dead-end")

    @pytest.mark.parametrize("world_name", sorted(ORACLE_WORLDS))
    @given(data=st.data())
    @settings(max_examples=30, deadline=None)
    def test_chain_answers_match_oracle(self, world_name, data):
        world, conds = ORACLE_WORLDS[world_name]
        model, oracle_model = exact_conditional_model(world), ExactOracle(world)
        length, k = world.length, world.vocab_size

        def slots(tokens, masked, n_max):
            where = np.flatnonzero((tokens == MASK) == masked).tolist()
            n = data.draw(st.integers(min(1, len(where)), min(n_max, len(where))))
            return data.draw(st.lists(st.sampled_from(where), min_size=n, max_size=n,
                                      unique=True)) if n else []

        def extend(tokens):
            out = tokens.copy()
            for p in slots(tokens, True, 2):
                out[p] = data.draw(st.integers(0, k - 1))
            return out

        def change(tokens):
            out = tokens.copy()
            for p in slots(tokens, False, 1):
                out[p] = (out[p] + data.draw(st.integers(1, k - 1))) % k
            return out

        def remask(tokens):
            out = tokens.copy()
            out[slots(tokens, False, 1)] = MASK
            return out

        def chain_step(op, tokens):
            """The states an op asks about, in order."""
            if op == "extend":
                return [extend(tokens)]
            if op == "repeat":
                return [tokens]
            if op == "unrelated":
                return [np.array(data.draw(st.lists(st.integers(MASK, k - 1), min_size=length,
                                                    max_size=length)), dtype=np.int16)]
            if op == "dead-end":
                # all but one slot hold objects, then the last one is fixed too
                crowd = np.full(length, MASK, dtype=np.int16)
                for p in data.draw(st.permutations(range(length)))[: length - 1]:
                    crowd[p] = data.draw(st.integers(1, k - 1))
                return [crowd, extend(crowd)]
            # change or remask: a fully masked state gets some slots fixed first
            first = [extend(tokens)] if (tokens == MASK).all() else []
            return first + [(change if op == "change" else remask)((first or [tokens])[0])]

        ops = list(data.draw(st.permutations(self.OPS)))
        ops += data.draw(st.lists(st.sampled_from(self.OPS), max_size=6))
        tokens = np.full(length, MASK, dtype=np.int16)
        fresh = _fresh_conditions(conds)
        asked = [tokens]
        for op in ops:
            for tokens in chain_step(op, tokens):
                asked.append(tokens)
        for tokens in asked:
            condition = next(fresh)
            got = _answer(model, tokens, condition)
            want = _answer(oracle_model, tokens, condition)
            if isinstance(want, dict):
                want = oracle_answer(tokens, want, world.vocab_size)
            assert _same_answer(got, want), (tokens.tolist(), condition)


class TestExactAnswerContract:
    """predict answers one read-only (L, K) float64 array: the oracle's
    vector at every masked position, the point mass on the token at every
    fixed one. The states are support grids with some slots masked, so some
    support state always agrees with them."""

    @given(world_name=st.sampled_from(sorted(ORACLE_WORLDS)), data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_answer_is_an_array_of_oracle_rows_and_point_masses(self, world_name, data):
        world, conds = ORACLE_WORLDS[world_name]
        model, oracle_model = exact_conditional_model(world), ExactOracle(world)
        grids = world.support()[0]
        for _ in range(3):
            grid = grids[data.draw(st.integers(0, len(grids) - 1))]
            hidden = data.draw(st.lists(st.booleans(), min_size=world.length,
                                        max_size=world.length))
            tokens = np.where(hidden, MASK, grid).astype(np.int16)
            for condition in (None, conds[0], tuple(conds)):
                want = oracle_model.predict(tokens, condition)
                got = model.predict(tokens, condition)
                assert_answer(got, tokens, want, world.vocab_size)


def _certain(world, tokens, condition) -> bool:
    """Some support state agrees with the fixed slots, and every condition's
    likelihood is exactly one on each of those states."""
    grids = world.support()[0]
    fixed = tokens != MASK
    sel = (grids[:, fixed] == tokens[fixed]).all(axis=1)
    conds = (condition,) if isinstance(condition, ConditionSpec) else condition
    return bool(sel.any()) and all(
        (np.exp(world.condition_loglik(c))[sel] == 1.0).all() for c in conds
    )


class TestExactDecidedConditions:
    """A condition that the fixed slots make certain answers with the state's
    unconditional array, the same object, and that array is still the
    oracle's answer bit for bit."""

    @staticmethod
    def check_state(model, oracle_model, world, tokens, condition) -> bool:
        """Check one query against the oracle; True when it was certain."""
        got = model.predict(tokens, condition)
        want = oracle_answer(tokens, oracle_model.predict(tokens, condition), world.vocab_size)
        assert _same_answer(got, want), (tokens.tolist(), condition)
        certain = _certain(world, tokens, condition)
        assert (got is model.predict(tokens, None)) == certain, (tokens.tolist(), condition)
        # the memo holds the answer under the condition's key too
        assert model.memo.get((tokens.tobytes(), cond_key(condition))) is got
        return certain

    @staticmethod
    def states(world):
        for v in itertools.product(range(MASK, world.vocab_size), repeat=world.length):
            yield np.array(v, dtype=np.int16)

    @pytest.mark.parametrize("world_name", sorted(ORACLE_WORLDS))
    def test_certain_condition_answers_with_the_unconditional_array(self, world_name):
        world, conds = ORACLE_WORLDS[world_name]
        model, oracle_model = exact_conditional_model(world), ExactOracle(world)
        certain = {conds[0]: 0, tuple(conds): 0}
        for tokens in self.states(world):
            for condition in certain:
                # a certain query has a compatible support state, so the
                # oracle answers it
                if not _certain(world, tokens, condition):
                    continue
                assert self.check_state(model, oracle_model, world, tokens, condition)
                certain[condition] += 1
        # a single condition and a joint prompt are each certain somewhere
        assert all(certain.values()), certain

    def test_a_likelihood_one_ulp_below_one_is_not_certain(self):
        """Cells 0 and 3 each have a condition whose likelihood is 1.0 on one
        token and the largest double below 1.0 on the other: only the first
        token makes it certain, so a tolerance in the test shows here."""
        below = np.nextafter(0.5, 0.0)
        prior = np.array([[0.5, 0.5], [0.3, 0.7], [0.6, 0.4], [0.5, 0.5]])
        world = build_factorized_world(
            2, 2, 2, {"a": {0: [0.5, below]}, "b": {3: [0.5, below]}}, prior_tables=prior
        )
        a, b = cell_table("a"), cell_table("b")
        for cond in (a, b):
            lik = np.exp(world.condition_loglik(cond))
            assert set(lik.tolist()) == {1.0, float(np.nextafter(1.0, 0.0))}
        model, oracle_model = exact_conditional_model(world), ExactOracle(world)
        certain = {a: 0, (a, b): 0}
        for tokens in self.states(world):
            for condition in certain:
                certain[condition] += self.check_state(model, oracle_model, world, tokens, condition)
        # token 0 at cell 0, and at cell 3 for the joint prompt; the other
        # cells masked or fixed either way
        assert certain == {a: 27, (a, b): 9}


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
            model.predict(tokens, condition)
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
