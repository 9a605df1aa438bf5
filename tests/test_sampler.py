"""Sampler loop: schedule arithmetic, absorbing property, determinism."""

import functools
import math
import sys
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import sampler_oracle as oracle
from maskcompose import sampler
from maskcompose.compose import compose_logits, normalize_logits
from maskcompose.countmodel import fit_count_model
from maskcompose.errors import AllMassZero, NonPositiveTemperature, ShapeMismatch
from maskcompose.evalharness import run_error_eval
from maskcompose.memo import Memo
from maskcompose.sampler import (
    MASK,
    MODE_AUTOREGRESSIVE,
    MODE_MASKED,
    ORDER_MAX_CONFIDENCE,
    ORDER_RANDOM,
    MaskedState,
    RunStats,
    SamplerSchedule,
    composed_step,
    count_evaluations,
    run_to_completion,
    sample_token,
)
from maskcompose.worlds import (
    build_random_factorized_world,
    build_scene_world,
    cell_table,
    exact_conditional_model,
    object_at_cell,
)


class TableModel:
    """Fixed per-position tables; conditions swap in alternate rows.

    Ignores the partial context entirely, which makes every sampler-level
    property checkable in closed form. Also counts its own predict calls so
    tests can cross-check the sampler's evaluation accounting.
    """

    def __init__(self, tables, cond_tables=None):
        self.tables = np.asarray(tables, dtype=np.float64)
        self.vocab_size = self.tables.shape[1]
        self.cond_tables = cond_tables or {}
        self.calls = 0

    def predict(self, tokens, condition=None):
        self.calls += 1
        tables = self.cond_tables.get(condition, self.tables)
        with np.errstate(divide="ignore"):
            out = np.log(tables)
        out.flags.writeable = False
        return out


# the memo lookup as the package defines it, for spies to call through
COMPOSED = sampler._composed


def uniform_model(length, k):
    return TableModel(np.full((length, k), 1.0 / k))


def masked(length):
    """The all-MASK (L,) int16 grid a run starts from."""
    return MaskedState.fully_masked(length).tokens


def step(tokens, model, conds, weights, sched, order=None):
    """One composed_step with a fresh generator and counter; weights become
    the float tuple run_to_completion hands every step."""
    return composed_step(
        tokens, model, conds, tuple(map(float, weights)), sched, np.random.default_rng(0),
        order, RunStats(),
    )


class TestMaskedState:
    """The all-MASK start of a run, and the oracle's successor grids built
    from it with with_fixed."""

    def test_fully_masked(self):
        s = MaskedState.fully_masked(5)
        assert s.tokens.dtype == np.int16
        assert s.tokens.tolist() == [MASK] * 5

    def test_with_fixed_steps_time_and_preserves_original(self):
        s = masked(3)
        s2 = oracle.with_fixed(s, [1], [7])
        assert list(s2) == [MASK, 7, MASK]
        assert list(s) == [MASK, MASK, MASK]

    def test_refuses_to_overwrite(self):
        s = oracle.with_fixed(masked(2), [0], [3])
        with pytest.raises(ValueError):
            oracle.with_fixed(s, [0], [1])


class TestScheduleValidation:
    def test_ar_forces_single_token_steps(self):
        with pytest.raises(ValueError):
            SamplerSchedule(mode=MODE_AUTOREGRESSIVE, tokens_per_step=2)

    def test_rejects_bad_mode_and_policy(self):
        with pytest.raises(ValueError):
            SamplerSchedule(mode="diffusion")
        with pytest.raises(ValueError):
            SamplerSchedule(order_policy="entropy")

    def test_rejects_nonpositive_temperature(self):
        for t in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(NonPositiveTemperature):
                SamplerSchedule(temperature=t)

    def test_defaults(self):
        s = SamplerSchedule()
        assert s.mode == MODE_MASKED
        assert s.tokens_per_step == 1
        assert s.order_policy == ORDER_RANDOM
        assert s.temperature == 0.9


class TestEvaluationCount:
    # frozen by hand from steps * (n + 1), steps = ceil(L / tokens_per_step)
    def test_one_per_step_nine_slots_two_conditions(self):
        sched = SamplerSchedule(tokens_per_step=1)
        assert count_evaluations(sched, length=9, n_conditions=2) == 27

    def test_all_at_once_nine_slots_two_conditions(self):
        sched = SamplerSchedule(tokens_per_step=9)
        assert count_evaluations(sched, length=9, n_conditions=2) == 3

    def test_partial_steps_round_up(self):
        sched = SamplerSchedule(tokens_per_step=4)
        assert count_evaluations(sched, length=9, n_conditions=0) == 3

    def test_autoregressive_is_length_steps(self):
        sched = SamplerSchedule(mode=MODE_AUTOREGRESSIVE)
        assert count_evaluations(sched, length=9, n_conditions=2) == 27

    @given(
        tokens_per_step=st.integers(1, 12),
        length=st.integers(1, 30),
        n=st.integers(0, 5),
    )
    def test_matches_actual_run(self, tokens_per_step, length, n):
        sched = SamplerSchedule(tokens_per_step=tokens_per_step)
        model = uniform_model(length, 3)
        conds = [f"c{i}" for i in range(n)]
        tokens, stats = run_to_completion(
            MaskedState.fully_masked(length), model, conds, [1.0] * n, sched, 3
        )
        assert stats.evaluations == count_evaluations(sched, length, n)
        assert stats.evaluations == model.calls
        assert stats.steps == math.ceil(length / tokens_per_step)
        assert not (tokens == MASK).any()


class TestRunLoop:
    def test_single_step_when_tokens_per_step_covers_grid(self):
        model = uniform_model(4, 2)
        sched = SamplerSchedule(tokens_per_step=4)
        tokens, stats = run_to_completion(
            MaskedState.fully_masked(4), model, ["a"], [1.0], sched, 1
        )
        assert stats.steps == 1
        assert stats.evaluations == 2
        assert tokens.shape == (4,)

    def test_autoregressive_fixes_left_to_right(self):
        model = uniform_model(9, 2)
        sched = SamplerSchedule(mode=MODE_AUTOREGRESSIVE)
        tokens = masked(9)
        for i in range(9):
            tokens = step(tokens, model, [], [], sched, order=list(range(9)))
            fixed = np.flatnonzero(tokens != MASK)
            assert list(fixed) == list(range(i + 1))
        assert not (tokens == MASK).any()

    def test_requires_fully_masked_initial(self):
        partial = MaskedState(oracle.with_fixed(masked(3), [0], [1]))
        with pytest.raises(ValueError):
            run_to_completion(partial, uniform_model(3, 2), [], [], SamplerSchedule())

    def test_mismatched_weights_raise(self):
        model = uniform_model(2, 2)
        with pytest.raises(ShapeMismatch):
            run_to_completion(MaskedState.fully_masked(2), model, ["a"], [], SamplerSchedule())
        assert model.calls == 0  # refused before the first step

    def test_determinism_same_seed_same_tokens(self):
        model = TableModel(np.array([[0.7, 0.2, 0.1]] * 6))
        sched = SamplerSchedule(tokens_per_step=2)
        a, _ = run_to_completion(MaskedState.fully_masked(6), model, [], [], sched, 42)
        b, _ = run_to_completion(MaskedState.fully_masked(6), model, [], [], sched, 42)
        assert np.array_equal(a, b)

    def test_different_seeds_eventually_differ(self):
        model = uniform_model(8, 4)
        outs = set()
        for seed in range(6):
            tokens, _ = run_to_completion(
                MaskedState.fully_masked(8), model, [], [],
                SamplerSchedule(tokens_per_step=2), seed,
            )
            outs.add(tokens.tobytes())
        assert len(outs) > 1

    @given(
        length=st.integers(1, 16),
        tokens_per_step=st.integers(1, 5),
        seed=st.integers(0, 10_000),
        policy=st.sampled_from([ORDER_RANDOM, ORDER_MAX_CONFIDENCE]),
    )
    @settings(max_examples=60, deadline=None)
    def test_absorbing_and_exact_schedule(self, length, tokens_per_step, seed, policy):
        """Unmasked slots never change; step t fixes exactly min(s, remaining)."""
        rng = np.random.default_rng(seed)
        tables = rng.dirichlet(np.ones(3), size=length)
        model = TableModel(tables)
        sched = SamplerSchedule(tokens_per_step=tokens_per_step, order_policy=policy)
        run_rng = np.random.default_rng(seed)
        order = run_rng.permutation(length) if policy == ORDER_RANDOM else None
        tokens = masked(length)
        stats = RunStats()
        while (tokens == MASK).any():
            remaining = int((tokens == MASK).sum())
            given, prev = tokens, tokens.copy()
            tokens = composed_step(given, model, [], (), sched, run_rng, order, stats)
            # the step leaves its input as it was and answers a fresh array
            assert np.array_equal(given, prev) and not np.shares_memory(tokens, given)
            was_fixed = prev != MASK
            assert np.array_equal(tokens[was_fixed], prev[was_fixed])
            newly = int((tokens != MASK).sum() - was_fixed.sum())
            assert newly == min(tokens_per_step, remaining)
        assert stats.steps == math.ceil(length / tokens_per_step)


class TestArrayContract:
    """The grid reaches the model as a plain (L,) int16 array, once per
    expert per step, and the run leaves its initial state all MASK."""

    @pytest.mark.parametrize("sched", [
        SamplerSchedule(tokens_per_step=2),
        SamplerSchedule(mode=MODE_AUTOREGRESSIVE),
        SamplerSchedule(tokens_per_step=2, order_policy=ORDER_MAX_CONFIDENCE),
    ], ids=["random", "autoregressive", "max_confidence"])
    def test_model_sees_only_int16_grids(self, sched):
        length, conds = 5, ["a", "b"]
        tables = np.random.default_rng(0).dirichlet(np.ones(3), size=length)
        seen = []

        class Recorder(TableModel):
            def predict(self, tokens, condition=None):
                seen.append(tokens)
                return super().predict(tokens, condition)

        initial = MaskedState.fully_masked(length)
        tokens, stats = run_to_completion(
            initial, Recorder(tables, {"a": tables[::-1]}), conds, [1.0, -0.5], sched, 3
        )
        assert len(seen) == math.ceil(length / sched.tokens_per_step) * (len(conds) + 1)
        assert len(seen) == stats.evaluations
        for t in seen + [tokens]:
            assert type(t) is np.ndarray and t.shape == (length,) and t.dtype == np.int16
        assert not (tokens == MASK).any()
        assert initial.tokens.tolist() == [MASK] * length


class TestSampling:
    def test_sample_token_respects_point_mass(self):
        rng = np.random.default_rng(0)
        logp = np.log(np.array([0.0, 1.0, 0.0]) + 1e-300)
        logp[1] = 0.0
        cdf = np.exp(logp).cumsum()
        for _ in range(50):
            assert sample_token(cdf, rng) == 1

    @pytest.mark.parametrize("cdf, u, token", [
        ([0.0, 0.25, 1.0, 1.0], 0.0, 1),  # a leading zero-mass token is skipped
        ([0.0, 0.25, 1.0, 1.0], np.nextafter(1.0, 0.0), 2),  # so is a trailing one
        ([0.0, 0.75, 3.0], np.nextafter(1.0, 0.0), 2),  # an unnormalized total
    ])
    def test_sample_token_edges_of_the_unit_interval(self, cdf, u, token):
        class FixedUniform:
            def random(self):
                return u

        assert sample_token(np.array(cdf), FixedUniform()) == token

    def test_sample_token_frequencies_within_four_sigma(self):
        """2e5 draws from a fixed CDF, one token of mass 1e-12: every token's
        rate lies within 4 sigma of its probability."""
        p = np.array([0.5, 1e-12, 0.3, 0.15, 0.05])
        cdf = np.exp(np.log(p)).cumsum()
        probs = np.diff(cdf, prepend=0.0) / cdf[-1]
        rng = np.random.default_rng(2024)
        n = 200_000
        counts = np.bincount([sample_token(cdf, rng) for _ in range(n)], minlength=p.size)
        assert counts.size == p.size
        sigma = np.sqrt(probs * (1.0 - probs) / n)
        assert np.all(np.abs(counts / n - probs) <= 4.0 * sigma), counts

    def test_uniform_binary_frequency(self):
        """L = 1, K = 2 uniform model: token 1 rate 0.5 +/- 0.01 over 1e4 runs."""
        model = uniform_model(1, 2)
        hits = 0
        n = 10_000
        for seed in range(n):
            tokens, _ = run_to_completion(
                MaskedState.fully_masked(1), model, [], [],
                SamplerSchedule(temperature=1.0), seed,
            )
            hits += int(tokens[0] == 1)
        assert abs(hits / n - 0.5) <= 0.01

    def test_temperature_sharpens_empirically(self):
        """Lower temperature concentrates picks on the modal token."""
        tables = np.array([[0.6, 0.4]])
        hot = TableModel(tables)
        rates = {}
        for temp in (1.0, 0.25):
            wins = 0
            for seed in range(2_000):
                tokens, _ = run_to_completion(
                    MaskedState.fully_masked(1), hot, [], [],
                    SamplerSchedule(temperature=temp), seed,
                )
                wins += int(tokens[0] == 0)
            rates[temp] = wins / 2_000
        assert rates[0.25] > rates[1.0] > 0.55

    def test_max_confidence_order_prefers_peaked_positions(self):
        # position 1 is near-deterministic, position 0 near-uniform
        tables = np.array([[0.5, 0.5], [0.99, 0.01]])
        model = TableModel(tables)
        sched = SamplerSchedule(order_policy=ORDER_MAX_CONFIDENCE, temperature=1.0)
        tokens = step(masked(2), model, [], [], sched)
        assert tokens[1] != MASK
        assert tokens[0] == MASK

    def test_max_confidence_tie_breaks_low_index(self):
        tables = np.array([[0.5, 0.5]] * 3)
        model = TableModel(tables)
        sched = SamplerSchedule(order_policy=ORDER_MAX_CONFIDENCE)
        tokens = step(masked(3), model, [], [], sched)
        assert tokens[0] != MASK

    def test_condition_tables_shift_samples(self):
        """A strongly weighted condition overrides the unconditional table."""
        base = np.array([[0.9, 0.1]])
        cond = {"flip": np.array([[0.05, 0.95]])}
        model = TableModel(base, cond_tables=cond)
        ones = 0
        for seed in range(500):
            tokens, _ = run_to_completion(
                MaskedState.fully_masked(1), model, ["flip"], [2.0],
                SamplerSchedule(temperature=1.0), seed,
            )
            ones += int(tokens[0] == 1)
        assert ones / 500 > 0.9


class TestSelectPositions:
    """_select_positions(n_open, take, order, composed) on the states a run
    passes through."""

    @given(data=st.data(), length=st.integers(1, 9))
    def test_known_order_takes_the_first_open_slots_of_the_order(self, data, length):
        order = data.draw(st.permutations(range(length)))
        n_open = data.draw(st.integers(1, length))
        take = data.draw(st.integers(1, n_open))
        # a run fixes its order front to back: the open slots are its last n_open
        open_slots = set(order[length - n_open:])
        expect = sorted([p for p in order if p in open_slots][:take])
        assert sampler._select_positions(n_open, take, order, None) == expect

    @given(data=st.data(), length=st.integers(1, 9))
    def test_max_confidence_takes_the_most_confident_ties_to_the_lower_index(
        self, data, length
    ):
        masked_slots = sorted(data.draw(st.sets(st.integers(0, length - 1), min_size=1)))
        take = data.draw(st.integers(1, len(masked_slots)))
        # three levels of confidence, so that most draws have ties
        peaks = data.draw(st.lists(st.sampled_from([0.5, 0.7, 0.9]),
                                   min_size=len(masked_slots), max_size=len(masked_slots)))
        composed = {}
        for p, peak in zip(masked_slots, peaks):
            logp = np.log([peak, 1.0 - peak])
            composed[p] = np.array((logp, np.exp(logp).cumsum()))
        expect = sorted(sorted(masked_slots, key=lambda p: (-composed[p][0].max(), p))[:take])
        assert sampler._select_positions(len(masked_slots), take, None, composed) == expect

    def test_max_confidence_ties_go_to_the_lower_index(self):
        logp = np.log([0.5, 0.5])
        flat = np.array((logp, np.exp(logp).cumsum()))
        composed = {1: flat, 3: flat, 4: flat, 6: flat}
        assert sampler._select_positions(4, 2, None, composed) == [1, 3]


class TestComposedMemo:
    """composed_step memoizes composed vectors by the content of their inputs."""

    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        cold = Memo(sampler._MEMO_CAP_BYTES, sampler._composed_charge)
        monkeypatch.setattr(sampler, "_memo", cold)

    @staticmethod
    def drawn_from(monkeypatch, uncond, cond, weight, temperature):
        """The memo entry composed_step draws one position's token from:
        row 0 the composed vector, row 1 the CDF handed to sample_token."""
        entries, cdfs = [], []

        def spy_composed(*args):
            entries.append(COMPOSED(*args))
            return entries[-1]

        def spy_draw(cdf, rng):
            cdfs.append(cdf)
            return sample_token(cdf, rng)

        monkeypatch.setattr(sampler, "_composed", spy_composed)
        monkeypatch.setattr(sampler, "sample_token", spy_draw)
        model = TableModel([uncond], cond_tables={"c": np.array([cond])})
        step(
            masked(1), model, ["c"], [weight],
            SamplerSchedule(temperature=temperature), order=[0],
        )
        (entry,), (cdf,) = entries, cdfs
        assert entry.shape == (2, len(uncond))
        assert np.shares_memory(cdf, entry) and np.array_equal(cdf, entry[1])
        return entry

    def test_warm_memo_gives_cold_tokens(self):
        tables = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4], [0.7, 0.2, 0.1]])
        model = TableModel(tables, cond_tables={"c": tables[::-1]})
        for policy in (ORDER_RANDOM, ORDER_MAX_CONFIDENCE):
            for temp in (1.0, 0.9):
                runs = []
                for _ in range(2):  # the first pass fills the memo, the second reads it
                    runs.append([
                        run_to_completion(
                            MaskedState.fully_masked(4), model, ["c"], [-0.5],
                            SamplerSchedule(order_policy=policy, temperature=temp), seed,
                        )[0].tolist()
                        for seed in range(20)
                    ])
                assert runs[0] == runs[1]
        assert sampler._memo

    def test_each_input_change_misses(self, monkeypatch):
        base = dict(uncond=[0.5, 0.3, 0.2], cond=[0.001, 0.299, 0.7], weight=1.5,
                    temperature=0.9)
        variants = [
            {},
            {"uncond": [0.5, 0.25, 0.2]},
            {"cond": [0.001, 0.3, 0.7]},
            {"weight": 1.25},
            {"temperature": 0.8},
        ]
        got = []
        for change in variants:
            a = {**base, **change}
            with np.errstate(divide="ignore"):
                u, c = np.log(a["uncond"]), np.log(a["cond"])
            expect = compose_logits(u, [c], [a["weight"]])
            if a["temperature"] != 1.0:
                expect = normalize_logits(expect / a["temperature"])
            entry = self.drawn_from(monkeypatch, **a)
            assert np.array_equal(entry[0], expect), change
            assert np.array_equal(entry[1], np.exp(expect).cumsum()), change
            got.append(entry)
        # every variant composes to a different vector, so a stale hit would show
        assert len({v[0].tobytes() for v in got}) == len(variants)
        assert len({v[1].tobytes() for v in got}) == len(variants)
        again = self.drawn_from(monkeypatch, **base)
        assert again is got[0]  # a hit hands back the stored entry

    def test_returned_vector_is_read_only(self, monkeypatch):
        entry = self.drawn_from(monkeypatch, [0.5, 0.5], [0.2, 0.8], 1.0, 1.0)
        assert not entry.flags.writeable
        for row in (entry[0], entry[1]):  # the composed vector and its CDF
            assert not row.flags.writeable
            with pytest.raises(ValueError):
                row[0] = 0.0

    def test_stays_under_byte_cap(self, monkeypatch):
        self.check_byte_cap(monkeypatch, 5)

    def test_stays_under_byte_cap_with_long_vectors(self, monkeypatch):
        # here the entry's array outweighs the fixed costs, so a charge that
        # left out a row would let the memo hold more than the cap
        self.check_byte_cap(monkeypatch, 64)

    def check_byte_cap(self, monkeypatch, k):
        rng = np.random.default_rng(0)
        # twice as many distinct entries as the cap holds, whatever the cap
        vector = (np.dtype(np.float64), np.zeros(k).tobytes())
        charge = sampler._composed_charge((1.0, (1.0,)) + vector * 2, np.zeros((2, k)))
        n = 2 * (sampler._MEMO_CAP_BYTES // charge)
        for _ in range(n):
            self.drawn_from(monkeypatch, rng.dirichlet(np.ones(k)), rng.dirichlet(np.ones(k)),
                            1.0, 1.0)
        memo = sampler._memo
        assert 0 < len(memo) < n
        assert memo.charged_bytes <= sampler._MEMO_CAP_BYTES
        # what the entries really take: dicts, keys, their bytes, and each
        # entry's array, whose size counts both rows, vector and CDF
        assert all(out.shape == (2, k) and out.base is None for _, out in memo.items())
        held = sys.getsizeof(memo._new) + sys.getsizeof(memo._old) + sum(
            sys.getsizeof(key) + sum(sys.getsizeof(x) for x in key if isinstance(x, bytes))
            + sys.getsizeof(out)
            for key, out in memo.items()
        )
        assert held <= sampler._MEMO_CAP_BYTES


class TestComposedWorkingSet:
    def test_rerun_of_a_count_round_composes_nothing(self, monkeypatch):
        """One generation of the memo holds the count-3x3 benchmark's working
        set: a composed and a joint error eval, run a second time with the
        same seed, find every composed vector in the memo. 408 grids an arm
        is the fewest whose vectors outgrew a 1 MiB generation."""
        world = build_scene_world(3, 3, n_shapes=1, n_colors=1, max_objects=2)
        model = fit_count_model(world, 30_000, rng_seed=0)
        pool = [object_at_cell(c, r) for r in range(3) for c in range(3)]
        composed = []

        def spy(*args):
            composed.append(args)
            return compose_logits(*args)

        monkeypatch.setattr(sampler, "compose_logits", spy)
        passes = []
        with fresh_memos():
            for _ in range(2):
                composed.clear()
                for joint in (False, True):
                    run_error_eval(model, world, 2, 408, rng_seed=0, pool=pool,
                                   joint_prompt=joint)
                passes.append(len(composed))
        assert passes[0] > 1000
        assert passes[1] == 0


@functools.cache
def oracle_models():
    """name -> (model, its two conditions): exact and count models on a soft
    factorized world, and the exact model on a scene world of hard predicates."""
    factorized = build_random_factorized_world(2, 2, 3, n_conditions=2, seed=5)
    scene = build_scene_world(2, 2, n_shapes=1, n_colors=2, max_objects=4)
    soft = [cell_table("c0"), cell_table("c1")]
    hard = [object_at_cell(0, 0), object_at_cell(1, 1)]
    return {
        "factorized-exact": (exact_conditional_model(factorized), soft),
        "factorized-count": (fit_count_model(factorized, 2000, rng_seed=1), soft),
        "scene-exact": (exact_conditional_model(scene), hard),
    }


@contextmanager
def fresh_memos():
    """Empty composed-vector memos for the package and the oracle."""
    saved = sampler._memo, oracle.memo
    sampler._memo = Memo(sampler._MEMO_CAP_BYTES, sampler._composed_charge)
    oracle.memo = Memo(oracle._MEMO_CAP_BYTES, oracle._composed_charge)
    try:
        yield
    finally:
        sampler._memo, oracle.memo = saved


def run_order(sched, length, rng):
    """The unmasking order run_to_completion fixes before the first step."""
    if sched.mode == MODE_AUTOREGRESSIVE:
        return list(range(length))
    if sched.order_policy == ORDER_RANDOM:
        return rng.permutation(length).tolist()
    return None


def lockstep_run(model, conds, weights, sched, length, seed):
    """Run composed_step and the oracle's step side by side from one seed and
    check, after every step, equal tokens, RunStats and generator state.

    composed_step gets the order run_to_completion fixes; the oracle selects
    by mode as it always did. Returns the tokens and the final generator
    state, or None when both abort at the same step.
    """
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    order = run_order(sched, length, rngs[0])
    oracle_order = None
    if sched.mode == MODE_MASKED and sched.order_policy == ORDER_RANDOM:
        oracle_order = rngs[1].permutation(length).tolist()
        assert order == oracle_order
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    states = [masked(length)] * 2
    stats = [RunStats(), RunStats()]
    steppers = ((composed_step, order), (oracle.composed_step, oracle_order))
    weights = tuple(map(float, weights))
    while (states[1] == MASK).any():
        outcomes = []
        for i, (stepper, stepper_order) in enumerate(steppers):
            try:
                states[i] = stepper(states[i], model, conds, weights, sched, rngs[i],
                                    stepper_order, stats[i])
                outcomes.append(None)
            except AllMassZero:
                outcomes.append(AllMassZero)
        assert outcomes[0] is outcomes[1]
        if outcomes[0] is not None:
            return None
        assert states[0].dtype == states[1].dtype
        assert states[0].tolist() == states[1].tolist()
        assert stats[0] == stats[1]
        assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    assert not (states[0] == MASK).any()
    return states[0].tolist(), rngs[0].bit_generator.state


def oracle_case(model_name, prompt, order, tokens_per_step, temperature):
    """(model, conds, weights, sched) for one drawn example; order is a
    policy or MODE_AUTOREGRESSIVE."""
    model, (a, b) = oracle_models()[model_name]
    conds, weights = {
        "+1": ([a], [1.0]),
        "-1": ([a], [-1.0]),
        "2,-0.5": ([a, b], [2.0, -0.5]),
        "joint": ([(a, b)], [1.0]),
    }[prompt]
    if order == MODE_AUTOREGRESSIVE:
        sched = SamplerSchedule(mode=MODE_AUTOREGRESSIVE, temperature=temperature)
    else:
        sched = SamplerSchedule(tokens_per_step=tokens_per_step, order_policy=order,
                                temperature=temperature)
    return model, conds, weights, sched


ORACLE_CASES = dict(
    model_name=st.sampled_from(["factorized-exact", "factorized-count", "scene-exact"]),
    prompt=st.sampled_from(["+1", "-1", "2,-0.5", "joint"]),
    order=st.sampled_from([ORDER_RANDOM, ORDER_MAX_CONFIDENCE, MODE_AUTOREGRESSIVE]),
    tokens_per_step=st.integers(1, 3),
    temperature=st.sampled_from([1.0, 0.9]),
    seed=st.integers(0, 2**32 - 1),
)


class TestStepMatchesOracle:
    """composed_step draws from the memo's cached CDF and writes one copy of
    the tokens; the oracle recomputes the CDF per draw and uses with_fixed.
    Both must agree step for step."""

    @given(warm=st.booleans(), **ORACLE_CASES)
    @settings(max_examples=120, deadline=None)
    def test_tokens_stats_and_stream_match(
        self, model_name, prompt, order, tokens_per_step, temperature, warm, seed
    ):
        model, conds, weights, sched = oracle_case(
            model_name, prompt, order, tokens_per_step, temperature
        )
        with fresh_memos():
            runs = [lockstep_run(model, conds, weights, sched, 4, seed)]
            if warm:  # the first run filled both memos; this one reads them
                assert sampler._memo and oracle.memo
                runs.append(lockstep_run(model, conds, weights, sched, 4, seed))
        assert runs[0] == runs[-1]

    @given(**ORACLE_CASES)
    @settings(max_examples=60, deadline=None)
    def test_whole_run_matches(self, model_name, prompt, order, tokens_per_step, temperature,
                               seed):
        """run_to_completion(..., sched, seed) gives the oracle's tokens and
        final generator state, and draws only the random order's permutation
        before its first step: nothing in autoregressive order."""
        model, conds, weights, sched = oracle_case(
            model_name, prompt, order, tokens_per_step, temperature
        )
        first_step, step_rngs = [], set()

        def spy(tokens, model, conds, weights, sched, rng, order, stats):
            if not first_step:
                first_step.append((rng, rng.bit_generator.state))
            step_rngs.add(id(rng))
            return composed_step(tokens, model, conds, weights, sched, rng, order, stats)

        with fresh_memos():
            expect = lockstep_run(model, conds, weights, sched, 4, seed)
            saved, sampler.composed_step = sampler.composed_step, spy
            try:
                got = run_to_completion(
                    MaskedState.fully_masked(4), model, conds, weights, sched, seed
                )
            except AllMassZero:
                got = None
            finally:
                sampler.composed_step = saved
        fresh = np.random.default_rng(seed)
        if order == ORDER_RANDOM:
            fresh.permutation(4)
        (rng, state_at_first_step), = first_step
        assert state_at_first_step == fresh.bit_generator.state
        assert step_rngs == {id(rng)}  # one generator for the whole run
        if expect is None:
            assert got is None
        else:
            tokens, stats = got
            assert (tokens.tolist(), rng.bit_generator.state) == expect
            assert stats.steps == math.ceil(4 / sched.tokens_per_step)
