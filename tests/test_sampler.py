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
    draw_runs,
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


def entry_of(logp):
    """The memo entry _composed keeps for the composed log vector logp: its
    CDF np.exp(logp).cumsum() as a tuple of floats, and its peak as a float."""
    logp = np.asarray(logp, dtype=np.float64)
    return tuple(np.exp(logp).cumsum().tolist()), float(logp.max())


def entry_bytes(entry):
    """The bytes an entry holds: the pair, the CDF tuple and every float."""
    cdf, peak = entry
    return (sys.getsizeof(entry) + sys.getsizeof(cdf) + sum(map(sys.getsizeof, cdf))
            + sys.getsizeof(peak))


def uniform_model(length, k):
    return TableModel(np.full((length, k), 1.0 / k))


def masked(length):
    """The all-MASK (L,) int16 grid a run starts from."""
    return MaskedState.fully_masked(length).tokens


def step(tokens, model, conds, weights, sched, order=None):
    """One composed_step with uniforms from a fresh generator and a fresh
    counter; weights become the float tuple run_to_completion hands every
    step."""
    return composed_step(
        tokens, model, conds, tuple(map(float, weights)), sched, order,
        np.random.default_rng(0).random(tokens.size).tolist(), RunStats(),
    )


def run(model, length, conds, weights, sched, rng):
    """run_to_completion on the one row draw_runs(sched, length, rng, 1) draws."""
    (order,), (uniforms,) = draw_runs(sched, length, rng, 1)
    return run_to_completion(
        MaskedState.fully_masked(length), model, conds, weights, sched, order, uniforms
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
        tokens, stats = run(model, length, conds, [1.0] * n, sched, np.random.default_rng(3))
        assert stats.evaluations == count_evaluations(sched, length, n)
        assert stats.evaluations == model.calls
        assert stats.steps == math.ceil(length / tokens_per_step)
        assert not (tokens == MASK).any()


class TestRunLoop:
    def test_single_step_when_tokens_per_step_covers_grid(self):
        model = uniform_model(4, 2)
        sched = SamplerSchedule(tokens_per_step=4)
        tokens, stats = run(model, 4, ["a"], [1.0], sched, np.random.default_rng(1))
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
        (order,), (uniforms,) = draw_runs(SamplerSchedule(), 3, np.random.default_rng(0), 1)
        with pytest.raises(ValueError):
            run_to_completion(
                partial, uniform_model(3, 2), [], [], SamplerSchedule(), order, uniforms
            )

    def test_mismatched_weights_raise(self):
        model = uniform_model(2, 2)
        with pytest.raises(ShapeMismatch):
            run(model, 2, ["a"], [], SamplerSchedule(), np.random.default_rng(0))
        assert model.calls == 0  # refused before the first step

    def test_determinism_same_seed_same_tokens(self):
        model = TableModel(np.array([[0.7, 0.2, 0.1]] * 6))
        sched = SamplerSchedule(tokens_per_step=2)
        a, _ = run(model, 6, [], [], sched, np.random.default_rng(42))
        b, _ = run(model, 6, [], [], sched, np.random.default_rng(42))
        assert np.array_equal(a, b)

    def test_different_seeds_eventually_differ(self):
        model = uniform_model(8, 4)
        outs = set()
        for seed in range(6):
            tokens, _ = run(
                model, 8, [], [], SamplerSchedule(tokens_per_step=2), np.random.default_rng(seed)
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
        (order,), (uniforms,) = draw_runs(sched, length, np.random.default_rng(seed), 1)
        tokens = masked(length)
        stats = RunStats()
        while (tokens == MASK).any():
            remaining = int((tokens == MASK).sum())
            given, prev = tokens, tokens.copy()
            tokens = composed_step(given, model, [], (), sched, order, uniforms, stats)
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
        (order,), (uniforms,) = draw_runs(sched, length, np.random.default_rng(3), 1)
        tokens, stats = run_to_completion(
            initial, Recorder(tables, {"a": tables[::-1]}), conds, [1.0, -0.5], sched,
            order, uniforms,
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
        cdf = entry_of(logp)[0]
        for u in rng.random(50).tolist():
            assert sample_token(cdf, u) == 1

    @pytest.mark.parametrize("cdf, u, token", [
        ((0.0, 0.25, 1.0, 1.0), 0.0, 1),  # a leading zero-mass token is skipped
        ((0.0, 0.25, 1.0, 1.0), np.nextafter(1.0, 0.0), 2),  # so is a trailing one
        ((0.0, 0.75, 3.0), np.nextafter(1.0, 0.0), 2),  # an unnormalized total
    ])
    def test_sample_token_edges_of_the_unit_interval(self, cdf, u, token):
        assert sample_token(cdf, u) == token

    @given(
        masses=st.lists(
            st.one_of(st.just(0.0), st.floats(1e-300, 1e3)), min_size=1, max_size=8
        ).filter(any),
        u=st.one_of(
            st.just(0.0), st.just(np.nextafter(1.0, 0.0)),
            st.floats(0.0, 1.0, exclude_max=True),
        ),
    )
    def test_sample_token_draws_as_searchsorted(self, masses, u):
        """bisect_right on the tuple CDF is searchsorted(side="right") on its
        float64 array, clipped to K - 1, and never lands on a zero-mass token."""
        cdf = tuple(np.cumsum(masses).tolist())
        expect = np.searchsorted(np.asarray(cdf), u * cdf[-1], side="right")
        token = sample_token(cdf, u)
        assert token == min(int(expect), len(cdf) - 1)
        assert masses[token] > 0.0

    def test_sample_token_frequencies_within_four_sigma(self):
        """2e5 draws from a fixed CDF, one token of mass 1e-12: every token's
        rate lies within 4 sigma of its probability."""
        p = np.array([0.5, 1e-12, 0.3, 0.15, 0.05])
        cdf = entry_of(np.log(p))[0]
        probs = np.diff(cdf, prepend=0.0) / cdf[-1]
        rng = np.random.default_rng(2024)
        n = 200_000
        counts = np.bincount([sample_token(cdf, u) for u in rng.random(n).tolist()],
                             minlength=p.size)
        assert counts.size == p.size
        sigma = np.sqrt(probs * (1.0 - probs) / n)
        assert np.all(np.abs(counts / n - probs) <= 4.0 * sigma), counts

    def test_uniform_binary_frequency(self):
        """L = 1, K = 2 uniform model: token 1 rate 0.5 +/- 0.01 over 1e4 runs."""
        model = uniform_model(1, 2)
        hits = 0
        n = 10_000
        for seed in range(n):
            tokens, _ = run(
                model, 1, [], [], SamplerSchedule(temperature=1.0), np.random.default_rng(seed)
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
                tokens, _ = run(
                    hot, 1, [], [], SamplerSchedule(temperature=temp), np.random.default_rng(seed)
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
            tokens, _ = run(
                model, 1, ["flip"], [2.0], SamplerSchedule(temperature=1.0),
                np.random.default_rng(seed),
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
        # three levels of confidence, so that most draws have ties, each on a
        # drawn token, so that no CDF entry orders the positions as the peak does
        n = len(masked_slots)
        peaks = data.draw(st.lists(st.sampled_from([0.5, 0.7, 0.9]), min_size=n, max_size=n))
        shifts = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
        logps = {
            p: np.roll(np.log([peak, (1.0 - peak) / 2, (1.0 - peak) / 2]), shift)
            for p, peak, shift in zip(masked_slots, peaks, shifts)
        }
        composed = {p: entry_of(logp) for p, logp in logps.items()}
        expect = sorted(sorted(masked_slots, key=lambda p: (-logps[p].max(), p))[:take])
        assert sampler._select_positions(len(masked_slots), take, None, composed) == expect

    def test_max_confidence_ties_go_to_the_lower_index(self):
        flat = entry_of(np.log([0.5, 0.5]))
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
        """The memo entry composed_step draws one position's token from: the
        CDF handed to sample_token, and the composed vector's peak."""
        entries, cdfs = [], []

        def spy_composed(*args):
            entries.append(COMPOSED(*args))
            return entries[-1]

        def spy_draw(cdf, u):
            cdfs.append(cdf)
            return sample_token(cdf, u)

        monkeypatch.setattr(sampler, "_composed", spy_composed)
        monkeypatch.setattr(sampler, "sample_token", spy_draw)
        model = TableModel([uncond], cond_tables={"c": np.array([cond])})
        step(
            masked(1), model, ["c"], [weight],
            SamplerSchedule(temperature=temperature), order=[0],
        )
        (entry,), (cdf,) = entries, cdfs
        assert len(entry) == 2 and len(entry[0]) == len(uncond)
        assert cdf is entry[0]
        return entry

    def test_warm_memo_gives_cold_tokens(self):
        tables = np.array([[0.5, 0.3, 0.2], [0.1, 0.6, 0.3], [0.3, 0.3, 0.4], [0.7, 0.2, 0.1]])
        model = TableModel(tables, cond_tables={"c": tables[::-1]})
        for policy in (ORDER_RANDOM, ORDER_MAX_CONFIDENCE):
            for temp in (1.0, 0.9):
                runs = []
                for _ in range(2):  # the first pass fills the memo, the second reads it
                    runs.append([
                        run(
                            model, 4, ["c"], [-0.5],
                            SamplerSchedule(order_policy=policy, temperature=temp),
                            np.random.default_rng(seed),
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
            assert entry[0] == tuple(np.exp(expect).cumsum().tolist()), change
            assert entry[1] == expect.max(), change
            got.append(entry)
        # every variant composes to a different vector, so a stale hit would show
        assert len({v[0] for v in got}) == len(variants)
        assert len({v[1] for v in got}) == len(variants)
        again = self.drawn_from(monkeypatch, **base)
        assert again is got[0]  # a hit hands back the stored entry

    def test_returned_entry_is_immutable(self, monkeypatch):
        entry = self.drawn_from(monkeypatch, [0.5, 0.5], [0.2, 0.8], 1.0, 1.0)
        cdf, peak = entry
        assert type(entry) is tuple and type(cdf) is tuple and type(peak) is float
        assert all(type(x) is float for x in cdf)
        for held in (entry, cdf):  # the pair and the CDF it draws from
            with pytest.raises(TypeError):
                held[0] = 0.0

    def test_stays_under_byte_cap(self):
        self.check_byte_cap(5)

    def test_stays_under_byte_cap_with_long_vectors(self):
        # here the entry's floats outweigh the fixed costs, so a charge that
        # left them out would let the memo hold more than the cap
        self.check_byte_cap(64)

    @staticmethod
    def check_byte_cap(k):
        """Fill the memo through _composed with twice as many distinct
        entries as the cap holds, whatever the cap."""
        # the key of one condition: two vectors' bytes joined
        key = (1.0, (1.0,), np.dtype(np.float64), np.zeros(k).tobytes() * 2)
        charge = sampler._composed_charge(key, entry_of(np.zeros(k)))
        n = 2 * (sampler._MEMO_CAP_BYTES // charge)
        experts = np.log(np.random.default_rng(0).dirichlet(np.ones(k), size=(n, 2)))
        for uncond, cond in experts:
            sampler._composed(uncond, [cond], (1.0,), 1.0)
        memo = sampler._memo
        assert 0 < len(memo) < n
        assert memo.charged_bytes <= sampler._MEMO_CAP_BYTES
        # what the entries really take: dicts, keys, their bytes, and each
        # entry's pair, CDF tuple and floats
        assert all(len(entry[0]) == k for _, entry in memo.items())
        live = {
            key: sys.getsizeof(key) + sum(sys.getsizeof(x) for x in key if isinstance(x, bytes))
            + entry_bytes(entry)
            for key, entry in memo.items()
        }
        assert all(sampler._composed_charge(key, entry) >= live[key]
                   for key, entry in memo.items())
        held = sys.getsizeof(memo._new) + sys.getsizeof(memo._old) + sum(live.values())
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


def lockstep_run(model, conds, weights, sched, length, seed):
    """Run composed_step and the oracle's step side by side on one run's
    draws and check, after every step, equal tokens and RunStats.

    composed_step gets the order and uniforms of draw_runs' one row; the
    oracle draws its own row with oracle.draw_run, which must agree, and
    selects by mode as it always did. Returns the tokens, or None when both
    abort at the same step.
    """
    rngs = [np.random.default_rng(seed) for _ in range(2)]
    (order,), (uniforms,) = draw_runs(sched, length, rngs[0], 1)
    oracle_order, oracle_uniforms = oracle.draw_run(sched, length, rngs[1])
    assert order == oracle_order
    assert uniforms == oracle_uniforms.tolist()
    assert rngs[0].bit_generator.state == rngs[1].bit_generator.state
    states = [masked(length)] * 2
    stats = [RunStats(), RunStats()]
    steppers = (
        (composed_step, order, uniforms),
        (oracle.composed_step, oracle_order, oracle_uniforms),
    )
    weights = tuple(map(float, weights))
    while (states[1] == MASK).any():
        outcomes = []
        for i, (stepper, stepper_order, stepper_uniforms) in enumerate(steppers):
            try:
                states[i] = stepper(states[i], model, conds, weights, sched, stepper_order,
                                    stepper_uniforms, stats[i])
                outcomes.append(None)
            except AllMassZero:
                outcomes.append(AllMassZero)
        assert outcomes[0] is outcomes[1]
        if outcomes[0] is not None:
            return None
        assert states[0].dtype == states[1].dtype
        assert states[0].tolist() == states[1].tolist()
        assert stats[0] == stats[1]
    assert not (states[0] == MASK).any()
    return states[0].tolist()


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
        """run_to_completion on draw_runs' row for default_rng(seed) gives
        the oracle's tokens, and every step gets that row's order and
        uniforms."""
        model, conds, weights, sched = oracle_case(
            model_name, prompt, order, tokens_per_step, temperature
        )
        seen = []

        def spy(tokens, model, conds, weights, sched, order, uniforms, stats):
            seen.append((order, uniforms))
            return composed_step(tokens, model, conds, weights, sched, order, uniforms, stats)

        (run_order,), (uniforms,) = draw_runs(sched, 4, np.random.default_rng(seed), 1)
        with fresh_memos():
            expect = lockstep_run(model, conds, weights, sched, 4, seed)
            saved, sampler.composed_step = sampler.composed_step, spy
            try:
                got = run_to_completion(
                    MaskedState.fully_masked(4), model, conds, weights, sched, run_order, uniforms
                )
            except AllMassZero:
                got = None
            finally:
                sampler.composed_step = saved
        assert seen and all(o is run_order and u is uniforms for o, u in seen)
        if expect is None:
            assert got is None
        else:
            tokens, stats = got
            assert tokens.tolist() == expect
            assert stats.steps == len(seen) == math.ceil(4 / sched.tokens_per_step)


class TestDrawRuns:
    """draw_runs lays out n runs' draws as one rng.random((n, width)) block."""

    @pytest.mark.parametrize("sched, width, order", [
        (SamplerSchedule(), 8, "keys"),
        (SamplerSchedule(mode=MODE_AUTOREGRESSIVE), 4, "left to right"),
        (SamplerSchedule(tokens_per_step=2, order_policy=ORDER_MAX_CONFIDENCE), 4, None),
    ], ids=["random", "autoregressive", "max_confidence"])
    def test_rows_are_uniforms_then_order_keys(self, sched, width, order):
        rng, fresh = np.random.default_rng(5), np.random.default_rng(5)
        orders, uniforms = draw_runs(sched, 4, rng, 7)
        block = fresh.random((7, width))
        assert rng.bit_generator.state == fresh.bit_generator.state
        assert uniforms == block[:, :4].tolist()
        if order == "keys":
            expect = [sorted(range(4), key=lambda p: (row[4 + p], p)) for row in block]
        elif order == "left to right":
            expect = [[0, 1, 2, 3]] * 7
        else:
            expect = [None] * 7
        assert orders == expect

    def test_chunks_draw_the_same_doubles(self):
        sched = SamplerSchedule()
        rng = np.random.default_rng(9)
        chunks = [draw_runs(sched, 5, rng, n) for n in (3, 1, 4)]
        whole = draw_runs(sched, 5, np.random.default_rng(9), 8)
        assert [x for c in chunks for x in c[0]] == whole[0]
        assert [x for c in chunks for x in c[1]] == whole[1]

    def test_every_order_of_four_slots_is_equally_likely(self):
        """At L = 4 in random order each of the 24 orders occurs within
        4 sigma of 1/24."""
        n = 48_000
        orders, _ = draw_runs(SamplerSchedule(), 4, np.random.default_rng(2024), n)
        counts = {}
        for order in orders:
            counts[tuple(order)] = counts.get(tuple(order), 0) + 1
        assert len(counts) == 24
        p = 1.0 / 24
        sigma = math.sqrt(p * (1.0 - p) / n)
        rates = np.array(list(counts.values())) / n
        assert np.all(np.abs(rates - p) <= 4.0 * sigma), counts
