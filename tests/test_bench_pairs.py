"""scripts/bench_pairs.py: the verdict on paired benchmark series, fed
synthetic series; no benchmark run, no subprocess."""

import importlib.util
import sys
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"
_SPEC = importlib.util.spec_from_file_location("bench_pairs", _PATH)
bench_pairs = sys.modules["bench_pairs"] = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bench_pairs)
compare = bench_pairs.compare

PARENT = [100.0, 102.0, 98.0, 101.0, 99.0, 103.0, 97.0, 100.0, 101.0, 99.0]


def scaled(series, factor):
    return [v * factor for v in series]


class TestCompare:
    def test_summary_of_the_parent_series(self):
        row = compare("w.grids_per_s", PARENT, PARENT, "higher", 0.1)
        assert row.parent_median == 100.0
        assert (row.parent_q1, row.parent_q3) == (99.0, 101.0)
        assert row.change == 0.0 and row.won == 0 and row.pairs == 10
        assert row.verdict == "flat"

    def test_a_clear_gain(self):
        row = compare("w.grids_per_s", PARENT, scaled(PARENT, 1.15), "higher", 0.1)
        assert row.verdict == "gain" and row.won == 10
        assert row.change == pytest.approx(0.15)

    def test_a_gain_needs_nine_of_ten_pairs(self):
        child = scaled(PARENT, 1.15)
        child[0] = child[1] = 90.0  # two pairs lost, the median still well up
        row = compare("w.grids_per_s", PARENT, child, "higher", 0.1)
        assert row.won == 8 and row.child_median > 110.0
        assert row.verdict == "flat"
        child[1] = 120.0
        assert compare("w.grids_per_s", PARENT, child, "higher", 0.1).verdict == "gain"

    def test_a_gain_needs_a_gap_beyond_the_parent_spread(self):
        # every pair won, but the median moves 1.5, less than the IQR of 2
        row = compare("w.grids_per_s", PARENT, [v + 1.5 for v in PARENT], "higher", 0.1)
        assert row.won == 10 and row.verdict == "flat"
        row = compare("w.grids_per_s", PARENT, [v + 2.5 for v in PARENT], "higher", 0.1)
        assert row.verdict == "gain"

    @pytest.mark.parametrize("factor, verdict", [(0.91, "flat"), (0.89, "worse")])
    def test_higher_is_better_bound(self, factor, verdict):
        assert compare("w.grids_per_s", PARENT, scaled(PARENT, factor), "higher",
                       0.1).verdict == verdict

    @pytest.mark.parametrize("factor, verdict", [(1.029, "flat"), (1.031, "worse"),
                                                 (0.9, "gain")])
    def test_lower_is_better_bound(self, factor, verdict):
        row = compare("w.peak_rss_mb", PARENT, scaled(PARENT, factor), "lower", 0.03)
        assert row.verdict == verdict

    def test_series_must_pair(self):
        with pytest.raises(ValueError):
            compare("w.setup_s", PARENT, PARENT[:-1], "lower", 0.2)
        with pytest.raises(ValueError):
            compare("w.setup_s", [1.0], [1.0], "lower", 0.2)


RUN = """\
fidelity-2x2: 3 rounds, 600 grids in 0.100 s (6000.00 grids/s ...)
PASS round 0: joint TV 0.0100 <= 0.03
PASS round 1: joint TV 0.0120 <= 0.03
PASS round 2: joint TV 0.0110 <= 0.03
count-3x3: 2 rounds, 4000 grids in 0.700 s (5700.00 grids/s ...)
PASS round 0: composed 0.0200+0.0100 < joint 0.9800-0.0100
PASS round 1: composed 0.0210+0.0100 < joint 0.9700-0.0100
{"correct": true}
"""


class TestCheckLines:
    def test_lines_are_keyed_by_workload_and_round(self):
        lines = bench_pairs.check_lines(RUN)
        assert sorted(lines) == [("count-3x3", "round 0"), ("count-3x3", "round 1"),
                                 ("fidelity-2x2", "round 0"), ("fidelity-2x2", "round 1"),
                                 ("fidelity-2x2", "round 2")]
        assert lines[("count-3x3", "round 1")].endswith("joint 0.9700-0.0100")

    def test_runs_that_stop_at_different_rounds_still_match(self):
        shorter = RUN.replace("PASS round 2: joint TV 0.0110 <= 0.03\n", "")
        runs = [bench_pairs.check_lines(RUN), bench_pairs.check_lines(shorter)]
        assert bench_pairs.mismatched_checks(runs) == []

    def test_a_changed_value_is_named(self):
        changed = RUN.replace("composed 0.0210", "composed 0.0220")
        runs = [bench_pairs.check_lines(RUN), bench_pairs.check_lines(changed)]
        assert bench_pairs.mismatched_checks(runs) == [("count-3x3", "round 1")]
