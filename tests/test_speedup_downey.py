"""Downey's speedup model: exact values, monotonicity, continuity."""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.speedup import DowneySpeedup


class TestBasics:
    def test_speedup_at_one_is_one(self):
        assert DowneySpeedup(16, 1.0).speedup(1) == pytest.approx(1.0)

    def test_perfect_scalability_sigma_zero(self):
        m = DowneySpeedup(8, 0.0)
        for n in range(1, 9):
            assert m.speedup(n) == pytest.approx(n)

    def test_sigma_zero_saturates_at_A(self):
        m = DowneySpeedup(8, 0.0)
        assert m.speedup(100) == pytest.approx(8.0)

    def test_A_one_is_serial(self):
        m = DowneySpeedup(1, 1.0)
        assert m.speedup(50) == 1.0

    def test_rejects_A_below_one(self):
        with pytest.raises(ValueError):
            DowneySpeedup(0.5, 1.0)

    @pytest.mark.parametrize("A", [float("nan"), float("inf")])
    def test_rejects_non_finite_A(self, A):
        with pytest.raises(ValueError, match="finite"):
            DowneySpeedup(A, 1.0)

    def test_rejects_negative_sigma(self):
        with pytest.raises(ValueError):
            DowneySpeedup(4, -0.1)

    def test_rejects_nonpositive_n(self):
        with pytest.raises(ValueError):
            DowneySpeedup(4, 1.0).speedup(0)


class TestPaperFormulas:
    """Spot-check every branch of the piecewise definition."""

    def test_low_sigma_first_branch(self):
        # sigma <= 1, n <= A: S = A n / (A + sigma (n-1)/2)
        A, sigma, n = 10.0, 0.5, 4
        expected = A * n / (A + sigma * (n - 1) / 2)
        assert DowneySpeedup(A, sigma).speedup(n) == pytest.approx(expected)

    def test_low_sigma_second_branch(self):
        # sigma <= 1, A <= n <= 2A-1: S = A n / (sigma (A - 1/2) + n (1 - sigma/2))
        A, sigma, n = 10.0, 0.5, 15
        expected = A * n / (sigma * (A - 0.5) + n * (1 - sigma / 2))
        assert DowneySpeedup(A, sigma).speedup(n) == pytest.approx(expected)

    def test_low_sigma_plateau(self):
        A, sigma = 10.0, 0.5
        assert DowneySpeedup(A, sigma).speedup(30) == pytest.approx(A)

    def test_high_sigma_first_branch(self):
        # sigma >= 1, n <= A + A sigma - sigma
        A, sigma, n = 10.0, 2.0, 5
        expected = n * A * (sigma + 1) / (sigma * (n + A - 1) + A)
        assert DowneySpeedup(A, sigma).speedup(n) == pytest.approx(expected)

    def test_high_sigma_plateau(self):
        A, sigma = 10.0, 2.0
        knee = A + A * sigma - sigma  # 28
        assert DowneySpeedup(A, sigma).speedup(int(knee) + 5) == pytest.approx(A)

    def test_saturation_point(self):
        assert DowneySpeedup(10, 0.5).saturation_point == 19
        assert DowneySpeedup(10, 2.0).saturation_point == 28

    def test_sigma_one_branches_agree(self):
        # At sigma == 1 the low- and high-sigma families coincide.
        A = 12.0
        lo = DowneySpeedup(A, 1.0)
        for n in (1, 3, 7, 12, 20, 30):
            first = A * n / (A + (n - 1) / 2)
            second = n * A * 2 / ((n + A - 1) + A)
            assert first == pytest.approx(second)
            assert lo.speedup(n) == pytest.approx(min(first, A), rel=1e-9)


class TestShape:
    @given(
        A=st.floats(min_value=1.0, max_value=128.0),
        sigma=st.floats(min_value=0.0, max_value=4.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_property_monotone_nondecreasing_and_bounded(self, A, sigma):
        m = DowneySpeedup(A, sigma)
        prev = 0.0
        for n in range(1, 40):
            s = m.speedup(n)
            assert s >= prev - 1e-9
            assert s <= A + 1e-9
            assert s <= n + 1e-9  # never superlinear
            prev = s

    @given(
        A=st.floats(min_value=1.5, max_value=64.0),
        sigma=st.floats(min_value=0.0, max_value=1.0),
    )
    @settings(max_examples=100, deadline=None)
    def test_property_continuity_at_A_breakpoint(self, A, sigma):
        # Evaluate both analytic branches at n = A: they must agree.
        m = DowneySpeedup(A, sigma)
        n = A
        first = A * n / (A + sigma * (n - 1) / 2)
        second = A * n / (sigma * (A - 0.5) + n * (1 - sigma / 2))
        assert first == pytest.approx(second, rel=1e-9)

    def test_higher_sigma_scales_worse(self):
        A = 32.0
        for n in (4, 8, 16):
            s_good = DowneySpeedup(A, 0.5).speedup(n)
            s_bad = DowneySpeedup(A, 2.0).speedup(n)
            assert s_bad <= s_good + 1e-12

    def test_execution_time_decreases(self):
        m = DowneySpeedup(16, 1.0)
        times = [m.execution_time(100.0, n) for n in range(1, 32)]
        assert all(a >= b - 1e-9 for a, b in zip(times, times[1:]))
