"""The verdict `tools/ab_pairs.py` gives an end-to-end metric from paired runs."""

import importlib.util
from pathlib import Path

import pytest

_PATH = Path(__file__).resolve().parent.parent / "tools" / "ab_pairs.py"
_SPEC = importlib.util.spec_from_file_location("ab_pairs", _PATH)
ab_pairs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(ab_pairs)
verdict = ab_pairs.verdict

# Ten base runs of median 1.045 and interquartile range 0.0575.
BASE = [1.00, 1.01, 1.02, 1.03, 1.04, 1.05, 1.06, 1.07, 1.08, 1.09]


class TestVerdict:

    def test_a_clear_win_is_a_gain(self):
        assert verdict(BASE, [b * 0.8 for b in BASE], "lower", 0.25) == "gain"
        assert verdict(BASE, [b * 1.2 for b in BASE], "higher", 0.25) == "gain"

    def test_a_gain_needs_nine_wins_in_ten(self):
        change = [b * 0.8 for b in BASE[:8]] + [b * 1.01 for b in BASE[8:]]  # 8 of 10
        assert verdict(BASE, change, "lower", 0.25) == "no worse"
        change = [b * 0.8 for b in BASE[:9]] + BASE[9:]  # 9 of 10, a tie for neither
        assert verdict(BASE, change, "lower", 0.25) == "gain"

    def test_a_gain_needs_medians_apart_by_more_than_the_base_spread(self):
        change = [b - 0.05 for b in BASE]  # wins every pair, by less than 0.0575
        assert verdict(BASE, change, "lower", 0.25) == "no worse"

    @pytest.mark.parametrize("better, factor", [("lower", 1.3), ("higher", 0.7)])
    def test_worse_beyond_the_bound(self, better, factor):
        change = [b * factor for b in BASE]
        assert verdict(BASE, change, better, 0.25) == "worse"
        assert verdict(BASE, [b * (1.0 + (factor - 1.0) / 2) for b in BASE],
                       better, 0.25) == "no worse"

    def test_a_base_spread_wider_than_the_bound_is_unresolved(self):
        base = [1.0, 2.0] * 5  # median 1.5, interquartile range 1.0
        assert verdict(base, [1.6, 1.4] * 5, "lower", 0.25) == "unresolved"
        # unless every change run beats every base run
        assert verdict(base, [0.9] * 10, "lower", 0.25) == "no worse"
        assert verdict(base, [2.1] * 10, "higher", 0.25) == "no worse"

    def test_one_pair_is_never_a_gain(self):
        assert verdict([1.0], [0.5], "lower", 0.25) == "no worse"
        assert verdict([1.0], [1.1], "lower", 0.25) == "unresolved"
        assert verdict([1.0], [1.3], "lower", 0.25) == "worse"
