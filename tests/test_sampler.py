"""Sampler loop: schedule arithmetic, absorbing property, determinism."""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from maskcompose import sampler
from maskcompose.compose import compose_logits, normalize_logits
from maskcompose.errors import NoMaskedSlots, NonPositiveTemperature, ShapeMismatch
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

    def predict(self, state, condition=None):
        self.calls += 1
        tables = self.cond_tables.get(condition, self.tables)
        with np.errstate(divide="ignore"):
            return {
                int(p): np.log(tables[int(p)])
                for p in state.masked_positions()
            }


def uniform_model(length, k):
    return TableModel(np.full((length, k), 1.0 / k))


def step(state, model, conds, weights, sched, order=None):
    """One composed_step with a fresh generator and counter."""
    return composed_step(
        state, model, conds, weights, sched, np.random.default_rng(0), order, RunStats()
    )


class TestMaskedState:
    def test_fully_masked(self):
        s = MaskedState.fully_masked(5)
        assert s.length == 5
        assert not s.is_complete()
        assert list(s.masked_positions()) == [0, 1, 2, 3, 4]

    def test_with_fixed_steps_time_and_preserves_original(self):
        s = MaskedState.fully_masked(3)
        s2 = s.with_fixed([1], [7])
        assert list(s2.tokens) == [MASK, 7, MASK]
        assert list(s.tokens) == [MASK, MASK, MASK]

    def test_refuses_to_overwrite(self):
        s = MaskedState.fully_masked(2).with_fixed([0], [3])
        with pytest.raises(ValueError):
            s.with_fixed([0], [1])

    def test_key_distinguishes_states(self):
        a = MaskedState.fully_masked(2).with_fixed([0], [1])
        b = MaskedState.fully_masked(2).with_fixed([0], [2])
        assert a.key() != b.key()


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
        sched = SamplerSchedule(tokens_per_step=tokens_per_step, rng_seed=3)
        model = uniform_model(length, 3)
        conds = [f"c{i}" for i in range(n)]
        tokens, stats = run_to_completion(
            MaskedState.fully_masked(length), model, conds, [1.0] * n, sched
        )
        assert stats.evaluations == count_evaluations(sched, length, n)
        assert stats.evaluations == model.calls
        assert stats.steps == math.ceil(length / tokens_per_step)
        assert not (tokens == MASK).any()


class TestRunLoop:
    def test_single_step_when_tokens_per_step_covers_grid(self):
        model = uniform_model(4, 2)
        sched = SamplerSchedule(tokens_per_step=4, rng_seed=1)
        tokens, stats = run_to_completion(
            MaskedState.fully_masked(4), model, ["a"], [1.0], sched
        )
        assert stats.steps == 1
        assert stats.evaluations == 2
        assert tokens.shape == (4,)

    def test_autoregressive_fixes_left_to_right(self):
        model = uniform_model(9, 2)
        sched = SamplerSchedule(mode=MODE_AUTOREGRESSIVE, rng_seed=5)
        state = MaskedState.fully_masked(9)
        for i in range(9):
            state = step(state, model, [], [], sched)
            fixed = np.flatnonzero(state.tokens != MASK)
            assert list(fixed) == list(range(i + 1))
        assert state.is_complete()

    def test_requires_fully_masked_initial(self):
        partial = MaskedState.fully_masked(3).with_fixed([0], [1])
        with pytest.raises(ValueError):
            run_to_completion(partial, uniform_model(3, 2), [], [], SamplerSchedule())

    def test_step_on_complete_state_raises(self):
        state = MaskedState.fully_masked(1).with_fixed([0], [0])
        with pytest.raises(NoMaskedSlots):
            step(state, uniform_model(1, 2), [], [], SamplerSchedule())

    def test_mismatched_weights_raise(self):
        with pytest.raises(ShapeMismatch):
            step(MaskedState.fully_masked(2), uniform_model(2, 2), ["a"], [], SamplerSchedule())

    def test_determinism_same_seed_same_tokens(self):
        model = TableModel(np.array([[0.7, 0.2, 0.1]] * 6))
        sched = SamplerSchedule(tokens_per_step=2, rng_seed=42)
        a, _ = run_to_completion(MaskedState.fully_masked(6), model, [], [], sched)
        b, _ = run_to_completion(MaskedState.fully_masked(6), model, [], [], sched)
        assert np.array_equal(a, b)

    def test_different_seeds_eventually_differ(self):
        model = uniform_model(8, 4)
        outs = set()
        for seed in range(6):
            tokens, _ = run_to_completion(
                MaskedState.fully_masked(8), model, [], [],
                SamplerSchedule(tokens_per_step=2, rng_seed=seed),
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
        sched = SamplerSchedule(
            tokens_per_step=tokens_per_step, order_policy=policy, rng_seed=seed
        )
        run_rng = np.random.default_rng(seed)
        order = run_rng.permutation(length) if policy == ORDER_RANDOM else None
        state = MaskedState.fully_masked(length)
        stats = RunStats()
        while not state.is_complete():
            remaining = state.masked_positions().size
            prev = state.tokens.copy()
            state = composed_step(state, model, [], [], sched, run_rng, order, stats)
            was_fixed = prev != MASK
            assert np.array_equal(state.tokens[was_fixed], prev[was_fixed])
            newly = int((state.tokens != MASK).sum() - was_fixed.sum())
            assert newly == min(tokens_per_step, remaining)
        assert stats.steps == math.ceil(length / tokens_per_step)


class TestSampling:
    def test_sample_token_respects_point_mass(self):
        rng = np.random.default_rng(0)
        logp = np.log(np.array([0.0, 1.0, 0.0]) + 1e-300)
        logp[1] = 0.0
        for _ in range(50):
            assert sample_token(logp, rng) == 1

    def test_uniform_binary_frequency(self):
        """L = 1, K = 2 uniform model: token 1 rate 0.5 +/- 0.01 over 1e4 runs."""
        model = uniform_model(1, 2)
        hits = 0
        n = 10_000
        for seed in range(n):
            tokens, _ = run_to_completion(
                MaskedState.fully_masked(1), model, [], [],
                SamplerSchedule(rng_seed=seed, temperature=1.0),
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
                    SamplerSchedule(rng_seed=seed, temperature=temp),
                )
                wins += int(tokens[0] == 0)
            rates[temp] = wins / 2_000
        assert rates[0.25] > rates[1.0] > 0.55

    def test_max_confidence_order_prefers_peaked_positions(self):
        # position 1 is near-deterministic, position 0 near-uniform
        tables = np.array([[0.5, 0.5], [0.99, 0.01]])
        model = TableModel(tables)
        sched = SamplerSchedule(order_policy=ORDER_MAX_CONFIDENCE, temperature=1.0)
        state = step(MaskedState.fully_masked(2), model, [], [], sched)
        assert state.tokens[1] != MASK
        assert state.tokens[0] == MASK

    def test_max_confidence_tie_breaks_low_index(self):
        tables = np.array([[0.5, 0.5]] * 3)
        model = TableModel(tables)
        sched = SamplerSchedule(order_policy=ORDER_MAX_CONFIDENCE)
        state = step(MaskedState.fully_masked(3), model, [], [], sched)
        assert state.tokens[0] != MASK

    def test_condition_tables_shift_samples(self):
        """A strongly weighted condition overrides the unconditional table."""
        base = np.array([[0.9, 0.1]])
        cond = {"flip": np.array([[0.05, 0.95]])}
        model = TableModel(base, cond_tables=cond)
        ones = 0
        for seed in range(500):
            tokens, _ = run_to_completion(
                MaskedState.fully_masked(1), model, ["flip"], [2.0],
                SamplerSchedule(rng_seed=seed, temperature=1.0),
            )
            ones += int(tokens[0] == 1)
        assert ones / 500 > 0.9


class TestComposedMemo:
    """composed_step memoizes composed vectors by the content of their inputs."""

    @pytest.fixture(autouse=True)
    def cold_memo(self, monkeypatch):
        cold = Memo(sampler._MEMO_CAP_BYTES, sampler._composed_charge)
        monkeypatch.setattr(sampler, "_memo", cold)

    @staticmethod
    def drawn_from(monkeypatch, uncond, cond, weight, temperature):
        """The vector composed_step hands to sample_token for one position."""
        seen = []
        monkeypatch.setattr(
            sampler, "sample_token", lambda logp, rng: seen.append(logp) or sample_token(logp, rng)
        )
        model = TableModel([uncond], cond_tables={"c": np.array([cond])})
        step(
            MaskedState.fully_masked(1), model, ["c"], [weight],
            SamplerSchedule(temperature=temperature), order=[0],
        )
        return seen[0]

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
                            SamplerSchedule(order_policy=policy, rng_seed=seed, temperature=temp),
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
            out = self.drawn_from(monkeypatch, **a)
            assert np.array_equal(out, expect), change
            got.append(out)
        # every variant composes to a different vector, so a stale hit would show
        assert len({v.tobytes() for v in got}) == len(variants)
        assert np.array_equal(self.drawn_from(monkeypatch, **base), got[0])

    def test_returned_vector_is_read_only(self, monkeypatch):
        out = self.drawn_from(monkeypatch, [0.5, 0.5], [0.2, 0.8], 1.0, 1.0)
        assert not out.flags.writeable
        with pytest.raises(ValueError):
            out[0] = 0.0

    def test_stays_under_byte_cap(self, monkeypatch):
        rng = np.random.default_rng(0)
        # twice as many distinct entries as the cap holds, whatever the cap
        vector = (np.dtype(np.float64), np.zeros(5).tobytes())
        charge = sampler._composed_charge((1.0, (1.0,)) + vector * 2, np.zeros(5))
        n = 2 * (sampler._MEMO_CAP_BYTES // charge)
        for _ in range(n):
            self.drawn_from(monkeypatch, rng.dirichlet(np.ones(5)), rng.dirichlet(np.ones(5)),
                            1.0, 1.0)
        memo = sampler._memo
        assert 0 < len(memo) < n
        assert memo.charged_bytes <= sampler._MEMO_CAP_BYTES
        # what the entries really take: dicts, keys, their bytes and the vectors
        held = sys.getsizeof(memo._new) + sys.getsizeof(memo._old) + sum(
            sys.getsizeof(key) + sum(sys.getsizeof(x) for x in key if isinstance(x, bytes))
            + sys.getsizeof(out)
            for key, out in memo.items()
        )
        assert held <= sampler._MEMO_CAP_BYTES
