"""Count model: signatures, smoothing, fallback and convergence to truth."""

import dataclasses
import itertools
import sys

import countmodel_oracle as oracle
import numpy as np
import pytest
from answer_contract import assert_answer, masked_rows
from hypothesis import given, settings
from hypothesis import strategies as st

from maskcompose import countmodel
from maskcompose.countmodel import (
    FIT_CHUNK,
    NO_BUCKET,
    CountModel,
    _KeyCodes,
    fit_count_model,
    neighbor_lists,
)
from maskcompose.errors import StateSpaceTooLarge
from maskcompose.evalharness import run_error_eval
from maskcompose.sampler import MASK, MaskedState
from maskcompose.worlds import (
    UNCONDITIONAL_KEY,
    ConditionSpec,
    attribute_present,
    build_random_factorized_world,
    build_scene_world,
    cell_table,
    cond_key,
    object_at_cell,
)


def tv(p, q):
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


class TestNeighborhoods:
    def test_center_has_eight_neighbors(self):
        nbrs = neighbor_lists(3, 3)
        assert sorted(nbrs[4]) == [0, 1, 2, 3, 5, 6, 7, 8]

    def test_corner_has_three(self):
        nbrs = neighbor_lists(3, 3)
        assert sorted(nbrs[0]) == [1, 3, 4]

    def test_strip_neighbors(self):
        nbrs = neighbor_lists(4, 1)
        assert sorted(nbrs[1]) == [0, 2]
        assert sorted(nbrs[0]) == [1]


class TestSignatures:
    def test_sorted_multiset_of_visible_neighbors(self):
        neighbors = neighbor_lists(2, 2)
        tokens = np.array([MASK, 3, 2, MASK], dtype=np.int16)
        assert oracle.signature(neighbors, tokens, 0) == (2, 3)
        assert oracle.signature(neighbors, tokens, 3) == (2, 3)

    def test_all_masked_gives_empty_signature(self):
        tokens = np.full(4, MASK, dtype=np.int16)
        assert oracle.signature(neighbor_lists(2, 2), tokens, 2) == ()

    def test_signature_is_permutation_invariant(self):
        neighbors = neighbor_lists(3, 1)
        a = np.array([3, MASK, 1], dtype=np.int16)
        b = np.array([1, MASK, 3], dtype=np.int16)
        assert oracle.signature(neighbors, a, 1) == oracle.signature(neighbors, b, 1) == (1, 3)


class TestPrediction:
    def test_empty_model_is_uniform(self):
        model = CountModel(grid_w=2, grid_h=1, vocab_size=3)
        out = model.predict(MaskedState.fully_masked(2).tokens)
        for logp in out:
            assert np.allclose(np.exp(logp), 1 / 3)

    def test_laplace_smoothing_values(self):
        # counts [2, 0] with alpha one half: (2.5/3, 0.5/3)
        model = CountModel(
            grid_w=1, grid_h=1, vocab_size=2, alpha=0.5,
            counts={(0, (), cond_key(None)): np.array([2, 0], dtype=np.int64)},
        )
        out = model.predict(MaskedState.fully_masked(1).tokens)
        assert np.allclose(np.exp(out[0]), [2.5 / 3.0, 0.5 / 3.0])

    def test_alpha_zero_keeps_exact_frequencies(self):
        model = CountModel(
            grid_w=1, grid_h=1, vocab_size=2, alpha=0.0,
            counts={(0, (), cond_key(None)): np.array([3, 1], dtype=np.int64)},
        )
        out = model.predict(MaskedState.fully_masked(1).tokens)
        assert np.allclose(np.exp(out[0]), [0.75, 0.25])

    def test_unseen_condition_falls_back_to_unconditional(self):
        model = CountModel(
            grid_w=1, grid_h=1, vocab_size=2,
            counts={(0, (), cond_key(None)): np.array([5, 1], dtype=np.int64)},
        )
        plain = model.predict(MaskedState.fully_masked(1).tokens, None)
        fancy = model.predict(MaskedState.fully_masked(1).tokens, object_at_cell(0, 0))
        assert np.allclose(plain[0], fancy[0])

    def test_validation(self):
        with pytest.raises(ValueError):
            CountModel(grid_w=1, grid_h=1, vocab_size=2, alpha=-1.0)
        with pytest.raises(ValueError):
            CountModel(grid_w=1, grid_h=1, vocab_size=2, dropout_prob=1.5)


class TestFitting:
    def test_deterministic_under_seed(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2)
        a = fit_count_model(world, 500, rng_seed=9)
        b = fit_count_model(world, 500, rng_seed=9)
        assert a.counts.keys() == b.counts.keys()
        for key in a.counts:
            assert np.array_equal(a.counts[key], b.counts[key])

    def test_different_seeds_differ(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2)
        a = fit_count_model(world, 500, rng_seed=0)
        b = fit_count_model(world, 500, rng_seed=1)
        diff = a.counts.keys() != b.counts.keys() or any(
            not np.array_equal(a.counts[k], b.counts[k]) for k in a.counts
        )
        assert diff

    def test_trains_only_single_condition_keys(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        model = fit_count_model(world, 2000, rng_seed=4)
        kinds = {key[2][0] for key in model.counts}
        assert kinds <= {"unconditional", "object_at_cell"}
        assert "joint" not in kinds

    def test_full_dropout_makes_conditional_equal_unconditional(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        model = fit_count_model(world, 2000, dropout_prob=1.0, rng_seed=2)
        tokens = MaskedState.fully_masked(4).tokens
        uncond = model.predict(tokens, None)
        conded = model.predict(tokens, object_at_cell(0, 0))
        for p in range(tokens.size):
            assert np.allclose(uncond[p], conded[p])

    def test_conditional_branch_shifts_toward_condition(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        model = fit_count_model(world, 20_000, rng_seed=0)
        tokens = MaskedState.fully_masked(4).tokens
        uncond = np.exp(model.predict(tokens, None)[0])
        conded = np.exp(model.predict(tokens, object_at_cell(0, 0))[0])
        assert conded[1] > uncond[1] + 0.2

    def test_training_max_objects_restricts_density(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=4)
        model = fit_count_model(world, 20_000, rng_seed=1, training_max_objects=1)
        # under the restricted prior an all-masked cell is empty w.p. 4/5
        probs = np.exp(model.predict(MaskedState.fully_masked(4).tokens, None)[0])
        assert probs[0] > 0.7

    def test_converges_to_factorized_tables(self):
        """Conditional branches approach the true per-position tables."""
        world = build_random_factorized_world(
            2, 2, 4, n_conditions=2, cells_per_condition=1, seed=5
        )
        model = fit_count_model(world, 100_000, rng_seed=0)
        tokens = MaskedState.fully_masked(4).tokens
        for name in ("c0", "c1"):
            cond = cell_table(name)
            truth = world.conditional_tables(cond)
            learned = model.predict(tokens, cond)
            for p in range(4):
                assert tv(np.exp(learned[p]), truth[p]) <= 0.05

    def test_joint_prompt_unseen_behaves_unconditionally(self):
        world = build_scene_world(2, 2, n_shapes=1, n_colors=1, max_objects=2)
        model = fit_count_model(world, 5000, rng_seed=3)
        tokens = MaskedState.fully_masked(4).tokens
        pair = (object_at_cell(0, 0), object_at_cell(1, 1))
        joint = model.predict(tokens, pair)
        plain = model.predict(tokens, None)
        for p in range(tokens.size):
            assert np.allclose(joint[p], plain[p])


class TestFrozenTables:
    def test_counts_and_fields_are_read_only(self):
        key = (0, (), cond_key(None))
        source = {key: np.array([2, 1], dtype=np.int64)}
        model = CountModel(grid_w=2, grid_h=1, vocab_size=2, counts=source)
        source[key][0] = 7  # the model holds its own copy
        assert model.counts[key].tolist() == [2, 1]
        with pytest.raises(TypeError):
            model.counts[key] = np.array([0, 1])
        with pytest.raises(ValueError):
            model.counts[key][0] = 5
        with pytest.raises(dataclasses.FrozenInstanceError):
            model.alpha = 1.0

    @pytest.mark.parametrize(
        "key, row",
        [
            ((4, (), ("unconditional",)), [1, 1]),  # position outside the 2x2 grid
            ((0, (1, 0), ("unconditional",)), [1, 1]),  # unsorted signature
            ((0, (2,), ("unconditional",)), [1, 1]),  # token outside the vocabulary
            ((0, (0, 0, 1, 1), ("unconditional",)), [1, 1]),  # wider than any neighborhood
            ((0, (), ("unconditional",)), [1, 1, 1]),  # wrong row length
            ((0, (), ("unconditional",)), [1, -1]),  # negative count
            ((-1, (), ("unconditional",)), [1, 1]),  # negative position
            ((0, (-1,), ("unconditional",)), [1, 1]),  # a token equal to the MASK pad
            ((0, (2**64,), ("unconditional",)), [1, 1]),  # a token beyond int64
        ],
    )
    def test_rejects_malformed_buckets(self, key, row):
        # every neighborhood of the 2x2 grid has 3 cells
        with pytest.raises(ValueError):
            CountModel(grid_w=2, grid_h=2, vocab_size=2, counts={key: np.array(row)})

    def test_zero_sum_bucket_never_answers(self):
        cond = object_at_cell(0, 0)
        model = CountModel(
            grid_w=1, grid_h=1, vocab_size=2,
            counts={
                (0, (), cond_key(cond)): np.zeros(2, dtype=np.int64),
                (0, (), cond_key(None)): np.array([1, 3], dtype=np.int64),
            },
        )
        tokens = MaskedState.fully_masked(1).tokens
        assert model.predict(tokens, cond)[0].tobytes() == model.predict(tokens)[0].tobytes()
        _, level = model._lookup(tokens, cond_key(cond))
        assert level.tolist() == [2]
        empty = CountModel(grid_w=1, grid_h=1, vocab_size=2)
        assert empty._lookup(tokens, cond_key(None))[1].tolist() == [NO_BUCKET]

    def test_key_space_beyond_int64_is_refused(self):
        with pytest.raises(StateSpaceTooLarge):
            CountModel(grid_w=3, grid_h=3, vocab_size=10**6)


# Small worlds whose every partial state can be enumerated, with one trained
# condition, a joint prompt and a condition the model never saw.
ORACLE_WORLDS = {
    "scene 2x2": (
        lambda: build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2),
        [object_at_cell(0, 0), (object_at_cell(0, 0), object_at_cell(1, 1)),
         attribute_present("shape", 0)],
    ),
    "scene 3x1": (
        lambda: build_scene_world(3, 1, n_shapes=1, n_colors=2, max_objects=3),
        [object_at_cell(1, 0), (object_at_cell(0, 0), object_at_cell(2, 0)),
         attribute_present("color", 1)],
    ),
    "scene 1x1": (
        lambda: build_scene_world(1, 1, n_shapes=2, n_colors=1, max_objects=1),
        [object_at_cell(0, 0), (object_at_cell(0, 0),), attribute_present("shape", 1)],
    ),
    "factorized 2x2": (
        lambda: build_random_factorized_world(2, 2, 3, n_conditions=2, seed=1),
        [cell_table("c0"), (cell_table("c0"), cell_table("c1")), cell_table("unseen")],
    ),
}


# Sampled tests also take a 3x3 world, whose 4^9 partial states are too many
# to enumerate. Its centre has 8 neighbors, its edges 5 and its corners 3,
# padded with their own position; every grid of the world lies in the
# support, so training sees neighborhoods as dense as the sampled states.
SAMPLED_WORLDS = {
    **ORACLE_WORLDS,
    "scene 3x3": (
        lambda: build_scene_world(3, 3, n_shapes=1, n_colors=2, max_objects=9),
        [object_at_cell(1, 1), (object_at_cell(0, 0), object_at_cell(2, 2)),
         attribute_present("color", 1)],
    ),
}


class TestOracleEquivalence:
    """The frozen tables against the loop fit and the dict lookup."""

    @given(
        world_name=st.sampled_from(sorted(ORACLE_WORLDS)),
        n_samples=st.integers(0, 400),
        seed=st.integers(0, 2**16),
        dropout_prob=st.sampled_from([0.0, 0.1, 1.0]),
        alpha=st.sampled_from([0.0, 0.5]),
    )
    @settings(max_examples=25, deadline=None)
    def test_predict_matches_dict_lookup_on_every_partial_state(
        self, world_name, n_samples, seed, dropout_prob, alpha
    ):
        build, conds = ORACLE_WORLDS[world_name]
        world = build()
        model = fit_count_model(
            world, n_samples, alpha=alpha, dropout_prob=dropout_prob, rng_seed=seed
        )
        counts = dict(model.counts)
        neighbors = neighbor_lists(world.grid_w, world.grid_h)
        for values in itertools.product(range(MASK, world.vocab_size), repeat=world.length):
            tokens = np.array(values, dtype=np.int16)
            for cond in [None] + conds:
                got = model.predict(tokens, cond)
                want = oracle.predict(counts, neighbors, world.vocab_size, alpha, tokens, cond)
                assert masked_rows(got, tokens) == {p: v.tobytes() for p, v in want.items()}, (
                    values, cond
                )
                masked, level = model._lookup(tokens, cond_key(cond))
                expected = [
                    oracle.bucket(
                        counts, p, oracle.signature(neighbors, tokens, p), cond_key(cond)
                    )[1]
                    for p in masked.tolist()
                ]
                assert level.tolist() == [NO_BUCKET if v is None else v for v in expected]

    @pytest.mark.parametrize(
        "world, kwargs",
        [
            (build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2), dict(rng_seed=0)),
            (build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2), dict(rng_seed=7)),
            (build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=2), dict(rng_seed=123)),
            (build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=2),
             dict(rng_seed=1, dropout_prob=0.0)),
            (build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=2),
             dict(rng_seed=2, dropout_prob=1.0)),
            (build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=3),
             dict(rng_seed=3, training_max_objects=1)),
            (build_random_factorized_world(2, 2, 4, n_conditions=2, seed=5), dict(rng_seed=4)),
            # 41 tokens: a count vector over the vocabulary in base 9 would not fit
            # in 64 bits; the multiset ranks must
            (build_scene_world(3, 3, n_shapes=4, n_colors=10, max_objects=1), dict(rng_seed=5)),
        ],
    )
    @pytest.mark.parametrize("n_samples", [100, FIT_CHUNK, 2 * FIT_CHUNK + 37])
    def test_fit_counts_match_loop_fit(self, world, kwargs, n_samples):
        model = fit_count_model(world, n_samples, **kwargs)
        expected = oracle.fit_counts(world, n_samples, **kwargs)
        assert model.counts.keys() == expected.keys()
        for key, row in expected.items():
            assert model.counts[key].dtype == np.int64
            assert np.array_equal(model.counts[key], row), key


class TestUnseenConditionRow:
    """A condition key the model never saw, a joint prompt or an untrained
    condition, answers along the unconditional chain: the same masked rows,
    each from the level two further down."""

    @given(
        world_name=st.sampled_from(sorted(ORACLE_WORLDS)),
        n_samples=st.integers(0, 400),
        seed=st.integers(0, 2**16),
        dropout_prob=st.sampled_from([0.0, 0.1, 1.0]),
    )
    @settings(max_examples=25, deadline=None)
    def test_unseen_keys_answer_as_unconditional_two_levels_down(
        self, world_name, n_samples, seed, dropout_prob
    ):
        build, conds = ORACLE_WORLDS[world_name]
        world = build()
        model = fit_count_model(world, n_samples, dropout_prob=dropout_prob, rng_seed=seed)
        unseen = conds[1:]  # the joint prompt and the untrained condition
        assert not {key[2] for key in model.counts} & {cond_key(c) for c in unseen}
        for values in itertools.product(range(MASK, world.vocab_size), repeat=world.length):
            tokens = np.array(values, dtype=np.int16)
            plain = masked_rows(model.predict(tokens), tokens)
            base = model._lookup(tokens, UNCONDITIONAL_KEY)[1].tolist()
            want = [v if v == NO_BUCKET else v + 2 for v in base]
            for cond in unseen:
                assert masked_rows(model.predict(tokens, cond), tokens) == plain, (values, cond)
                assert model._lookup(tokens, cond_key(cond))[1].tolist() == want, (values, cond)


class TestAnswerContract:
    """predict answers one read-only (L, K) float64 array: the dict lookup's
    vector at every masked position, the point mass on the token at every
    fixed one."""

    @given(
        world_name=st.sampled_from(sorted(SAMPLED_WORLDS)),
        seed=st.integers(0, 2**16),
        data=st.data(),
    )
    @settings(max_examples=40, deadline=None)
    def test_answer_is_an_array_of_oracle_rows_and_point_masses(self, world_name, seed, data):
        build, conds = SAMPLED_WORLDS[world_name]
        world = build()
        model = fit_count_model(world, 300, rng_seed=seed)
        counts = dict(model.counts)
        neighbors = neighbor_lists(world.grid_w, world.grid_h)
        symbols = st.integers(MASK, world.vocab_size - 1)
        for _ in range(3):
            values = data.draw(st.lists(symbols, min_size=world.length, max_size=world.length))
            tokens = np.array(values, dtype=np.int16)
            for cond in [None] + conds:
                got = model.predict(tokens, cond)
                want = oracle.predict(
                    counts, neighbors, world.vocab_size, model.alpha, tokens, cond
                )
                assert_answer(got, tokens, want, world.vocab_size)

    @pytest.mark.parametrize("world_name", sorted(SAMPLED_WORLDS))
    def test_answers_are_the_resolved_rows_joined_once(self, world_name):
        build, _ = SAMPLED_WORLDS[world_name]
        world = build()
        for model in (fit_count_model(world, 300, rng_seed=0),
                      CountModel(grid_w=world.grid_w, grid_h=world.grid_h,
                                 vocab_size=world.vocab_size)):
            # one (columns, K) table per condition key, then the unseen
            # keys' one: the columns with a backoff level, then one
            # point-mass column per token, all views of one joined array
            n_rows, n_cols = model._levels.shape
            k = world.vocab_size
            tables = [*model._tables.values(), model._unseen]
            assert len(tables) == n_rows
            assert {t.base is model._unseen.base for t in tables} == {True}
            for table in tables:
                assert table.shape == (n_cols + k, k)
                assert table.dtype == np.float64
                assert not table.flags.writeable


class TestColumnsMemo:
    """A state's columns, kept for the rest of its visit and memoized by its
    bytes across later visits, change no answer: bytes and backoff levels
    match the dict lookup and a cold model, also after the memo rotates or
    when it holds nothing."""

    @pytest.mark.parametrize("world_name", sorted(ORACLE_WORLDS))
    @pytest.mark.parametrize("entries", [0, 1])
    @given(seed=st.integers(0, 2**16), repeat=st.integers(1, 3))
    @settings(max_examples=4, deadline=None)
    def test_interleaved_states_match_oracle_and_cold_model(
        self, world_name, entries, seed, repeat
    ):
        build, conds = ORACLE_WORLDS[world_name]
        world = build()
        model = fit_count_model(world, 300, rng_seed=seed)
        # a generation holds `entries` states: with none, only the last state
        # is kept; with one, a revisit finds its state's columns in the
        # current generation, in the old one, or dropped. An entry holds
        # the state's int16 tokens and its columns at the stored width.
        width = model._col_dtype.itemsize
        charge = countmodel._columns_charge(b"s" * 2 * world.length, b"c" * width * world.length)
        cap = charge + 2 * entries * charge
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(countmodel, "COLUMNS_MEMO_CAP_BYTES", cap)
            model = dataclasses.replace(model)
        counts = dict(model.counts)
        neighbors = neighbor_lists(world.grid_w, world.grid_h)
        # no condition, one condition, a joint prompt and an unseen key
        queries = [None] + conds
        states = [
            np.array(v, dtype=np.int16)
            for v in itertools.product(range(MASK, world.vocab_size), repeat=world.length)
        ]
        pairs = [(s, q) for q in range(len(queries)) for s in range(len(states))]
        want, levels = {}, {}
        for s, q in pairs:
            tokens, cond = states[s], queries[q]
            key = cond_key(cond)
            answer = oracle.predict(counts, neighbors, world.vocab_size, model.alpha, tokens, cond)
            want[(s, q)] = {p: v.tobytes() for p, v in answer.items()}
            found = [oracle.bucket(counts, p, oracle.signature(neighbors, tokens, p), key)[1]
                     for p in answer]
            levels[(s, q)] = [NO_BUCKET if v is None else v for v in found]
        # a cold model is asked state by state within each query, so no two
        # calls in a row share a state and every answer is computed afresh
        cold = dataclasses.replace(model)
        for s, q in pairs:
            got = cold.predict(states[s], queries[q])
            assert masked_rows(got, states[s]) == want[(s, q)], (s, q)
        for s, q in pairs:
            assert cold._lookup(states[s], cond_key(queries[q]))[1].tolist() == levels[(s, q)]
        # every state is visited twice in shuffled order, and after each
        # visit the state before it is visited again: the last state is
        # another one, and the memo may hold it. A visit asks each query
        # `repeat` times in a row, the queries in shuffled order, which is
        # the sampler's pattern of n + 1 queries per state; each query after
        # the first hands over the state's bytes in a new array.
        rng = np.random.default_rng(seed)
        order = rng.permutation(np.repeat(np.arange(len(states)), 2)).tolist()
        visits = [order[0]] + [s for pair in zip(order[1:], order) for s in pair]
        for s in visits:
            tokens = states[s]
            for q in rng.permutation(len(queries)).tolist():
                for _ in range(repeat):
                    got = model.predict(tokens, queries[q])
                    assert masked_rows(got, states[s]) == want[(s, q)], (s, q)
                    level = model._lookup(tokens, cond_key(queries[q]))[1]
                    assert level.tolist() == levels[(s, q)], (s, q)
                    tokens = tokens.copy()
        memo = model._columns
        assert memo.cap_bytes == cap and memo.charged_bytes <= cap
        assert len(memo) <= 2 * entries < len(states)

    def test_a_visit_finds_its_columns_once(self):
        """The n + 1 queries of one visit compute or decode the state's
        columns once: a first visit computes them, a revisit after another
        state decodes them from the memo, and the other n queries of either
        reuse the last state's columns, which are read-only."""
        build, conds = ORACLE_WORLDS["scene 2x2"]
        world = build()
        model = fit_count_model(world, 300, rng_seed=0)
        counted = {"computed": 0, "decoded": 0}
        codec, memo = model._codec, model._columns

        def computed(nbrs):
            counted["computed"] += 1
            return _KeyCodes.sorted_ranks(codec, nbrs)

        class Spy:
            def get(self, key):
                hit = memo.get(key)
                counted["decoded"] += hit is not None
                return hit

            def put(self, key, value):
                memo.put(key, value)

        codec.sorted_ranks = computed
        object.__setattr__(model, "_columns", Spy())
        first = np.array([MASK, 0, MASK, 1], dtype=np.int16)
        other = np.array([MASK] * 4, dtype=np.int16)
        for state, found in ((first, "computed"), (other, "computed"), (first, "decoded")):
            before = dict(counted)
            for cond in [None] + conds:
                answer = model.predict(state.copy(), cond)
                assert not model._last[1].flags.writeable
                assert model._last[0] == state.tobytes()
                assert answer.tobytes() == dataclasses.replace(model).predict(state, cond).tobytes()
            assert {k: counted[k] - before[k] for k in counted} == {
                k: int(k == found) for k in counted
            }

    def test_wide_columns_keep_wide_entries(self):
        """A model of more columns than a byte can index stores each state's
        columns as two-byte entries, and a revisit decodes the columns it
        computed, point columns above 255 included."""
        world = build_scene_world(3, 3, n_shapes=2, n_colors=2, max_objects=9)
        k = world.vocab_size
        rng = np.random.default_rng(0)
        # 300 distinct (position, signature) buckets: each its own column
        counts = {}
        while len(counts) < 300:
            p = int(rng.integers(world.length))
            n_nbrs = len(neighbor_lists(3, 3)[p])
            sig = tuple(sorted(rng.integers(k, size=rng.integers(n_nbrs + 1)).tolist()))
            counts[(p, sig, UNCONDITIONAL_KEY)] = rng.integers(1, 5, size=k)
        model = CountModel(3, 3, k, counts=counts)
        assert model._col_dtype == np.uint16
        states = rng.integers(MASK, k, size=(40, world.length)).astype(np.int16)
        fresh = [dataclasses.replace(model)._state_columns(s).copy() for s in states]
        assert max(c.max() for c in fresh) > 255
        for s in states:
            model._state_columns(s)
        assert {len(v) for _, v in model._columns.items()} == {2 * world.length}
        # each state after another one: its columns come from the memo
        for s, want in zip(states, fresh):
            model._state_columns(np.full(world.length, MASK, dtype=np.int16))
            got = model._state_columns(s)
            assert got.dtype == np.intp and not got.flags.writeable
            assert np.array_equal(got, want)

    def test_narrow_columns_keep_one_byte_entries(self):
        build, conds = ORACLE_WORLDS["scene 2x2"]
        model = fit_count_model(build(), 300, rng_seed=0)
        assert model._col_dtype == np.uint8
        model._state_columns(np.array([MASK, 0, MASK, 1], dtype=np.int16))
        ((key, value),) = model._columns.items()
        assert len(key) == 2 * 4 and len(value) == 4

    @pytest.fixture(scope="class")
    def evaluated(self):
        """A model's columns memo on count-3x3's world after four of its
        rounds, each a composed and a joint error eval of 1 000 runs. They
        visit 8 304 distinct states, more than the 7 133 entries of one-byte
        columns that one generation holds, so the memo has rotated (it did
        after three rounds, at 7 686)."""
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=2)
        model = fit_count_model(world, 30_000, rng_seed=0)
        for seed, joint in itertools.product(range(4), (False, True)):
            run_error_eval(model, world, 2, 1_000, rng_seed=seed, joint_prompt=joint)
        return model._columns

    def test_charged_bytes_stay_under_the_cap(self, evaluated):
        assert evaluated.cap_bytes == countmodel.COLUMNS_MEMO_CAP_BYTES
        # more than one generation's worth: the memo has rotated
        assert evaluated.cap_bytes // 2 < evaluated.charged_bytes <= evaluated.cap_bytes

    def test_each_charge_covers_its_key_and_value(self, evaluated):
        held = evaluated.items()
        assert held
        for key, value in held:
            assert countmodel._columns_charge(key, value) >= sys.getsizeof(key) + sys.getsizeof(value)


class TestBackoffLevels:
    def test_composed_experts_keep_their_condition_and_joint_prompts_drop_it(self):
        """The out-of-distribution mechanism on criterion 4's world: a single
        trained condition answers with its own buckets (level 0 or 1), an
        unseen joint prompt only from the unconditional ones (level 2 or 3)."""
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=2)
        model = fit_count_model(world, 30_000, rng_seed=0)
        queries = []

        class Recorder:
            vocab_size = model.vocab_size

            def predict(self, tokens, condition=None):
                queries.append((tokens, condition))
                return model.predict(tokens, condition)

        for joint in (False, True):
            run_error_eval(Recorder(), world, 2, 100, rng_seed=0, joint_prompt=joint)
        levels = {"single": set(), "joint": set()}
        for tokens, cond in queries:
            if cond is not None:
                kind = "single" if isinstance(cond, ConditionSpec) else "joint"
                levels[kind].update(model._lookup(tokens, cond_key(cond))[1].tolist())
        assert levels["single"] == {0, 1}
        assert levels["joint"] == {2, 3}
