"""Distribution-statistics tests."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis.stats import gini, pearson, top_share


class TestGini:
    def test_perfect_equality(self):
        assert gini([5, 5, 5, 5]) == pytest.approx(0.0)

    def test_full_concentration(self):
        # One holder of everything among n approaches (n-1)/n.
        value = gini([0] * 9 + [100])
        assert value == pytest.approx(0.9)

    def test_empty_and_zero(self):
        assert gini([]) == 0.0
        assert gini([0, 0]) == 0.0

    def test_scale_invariance(self):
        assert gini([1, 2, 3]) == pytest.approx(gini([10, 20, 30]))

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            gini([-1, 2])

    @given(st.lists(st.integers(min_value=0, max_value=1000), min_size=1, max_size=50))
    @settings(max_examples=100, deadline=None)
    def test_bounds_property(self, values):
        g = gini(values)
        assert 0.0 <= g < 1.0


class TestPearson:
    def test_perfect_positive(self):
        assert pearson([1, 2, 3], [10, 20, 30]) == pytest.approx(1.0)

    def test_perfect_negative(self):
        assert pearson([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_constant_series_is_zero(self):
        assert pearson([1, 1, 1], [1, 2, 3]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            pearson([1], [1, 2])

    def test_empty(self):
        with pytest.raises(ValueError):
            pearson([], [])

    @given(st.lists(st.floats(min_value=-100, max_value=100), min_size=2, max_size=30))
    @settings(max_examples=100, deadline=None)
    def test_bounds_property(self, xs):
        ys = [x * 2 + 1 for x in xs]
        r = pearson(xs, ys)
        assert -1.0 - 1e-9 <= r <= 1.0 + 1e-9


class TestTopShare:
    def test_uniform(self):
        assert top_share([1] * 10, 0.1) == pytest.approx(0.1)

    def test_concentrated(self):
        assert top_share([100] + [0] * 9, 0.1) == pytest.approx(1.0)

    def test_minimum_one_entry(self):
        assert top_share([3, 1], 0.1) == pytest.approx(0.75)  # top 1 of 2

    def test_zero_total(self):
        assert top_share([0, 0], 0.5) == 0.0

    def test_bad_fraction(self):
        with pytest.raises(ValueError):
            top_share([1], 0.0)
        with pytest.raises(ValueError):
            top_share([1], 1.5)
