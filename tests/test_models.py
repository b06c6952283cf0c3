"""Battery reliability and Poisson worth math against independent oracles."""

import math

import pytest

from gridcover.models import (
    BatteryParams,
    available_worth,
    reliability,
    remaining_worth,
    success_probability,
)

PAPER_BATTERY = BatteryParams(rho0=3.0e-3, rho1=1400.0)


def poisson_tail_expectation(lam: float, found: int, x_max: int) -> float:
    """Independent oracle: sum_{x > found} (x - found) * pmf(x), truncated."""
    total = 0.0
    for x in range(found + 1, x_max + 1):
        log_pmf = -lam + x * math.log(lam) - math.lgamma(x + 1)
        total += (x - found) * math.exp(log_pmf)
    return total


class TestReliability:
    def test_inflection_point_is_exactly_half(self):
        assert reliability(PAPER_BATTERY, 1400.0) == 0.5

    def test_fresh_battery_value(self):
        # exponent -4.2, evaluated directly
        expected = 1.0 / (1.0 + math.exp(-4.2))
        assert reliability(PAPER_BATTERY, 0.0) == pytest.approx(expected, abs=1e-12)
        assert reliability(PAPER_BATTERY, 0.0) == pytest.approx(0.9852, abs=1e-4)

    def test_strictly_decreasing(self):
        times = [0, 100, 700, 1400, 2000, 5000]
        values = [reliability(PAPER_BATTERY, t) for t in times]
        assert all(a > b for a, b in zip(values, values[1:]))

    def test_stays_inside_open_unit_interval(self):
        assert 0.0 < reliability(PAPER_BATTERY, 1e9) < 1.0
        assert 0.0 < reliability(BatteryParams(10.0, 1e-6), 0.0) < 1.0

    def test_negative_time_rejected(self):
        with pytest.raises(ValueError):
            reliability(PAPER_BATTERY, -1.0)

    def test_invalid_params_rejected(self):
        with pytest.raises(ValueError):
            BatteryParams(rho0=0.0, rho1=100.0)
        with pytest.raises(ValueError):
            BatteryParams(rho0=1e-3, rho1=-5.0)


class TestSuccessProbability:
    def test_zero_added_time_equals_current_reliability(self):
        p = success_probability(PAPER_BATTERY, 0.0, 0.0, 0.4, 0, 0.32)
        assert p == reliability(PAPER_BATTERY, 0.0)

    def test_projected_time_arithmetic(self):
        # 700 s so far + 25 m / 0.4 + 250 cells / 0.32 = 1543.75 s
        p = success_probability(PAPER_BATTERY, 700.0, 25.0, 0.4, 250, 0.32)
        assert p == reliability(PAPER_BATTERY, 1543.75)

    def test_near_finish_remainder_included(self):
        with_extra = success_probability(PAPER_BATTERY, 700.0, 25.0, 0.4, 250, 0.32, extra_tasking_s=20.0)
        assert with_extra == reliability(PAPER_BATTERY, 1563.75)
        assert with_extra < success_probability(PAPER_BATTERY, 700.0, 25.0, 0.4, 250, 0.32)

    def test_bad_speeds_rejected(self):
        with pytest.raises(ValueError):
            success_probability(PAPER_BATTERY, 0.0, 1.0, 0.0, 10, 0.32)
        with pytest.raises(ValueError):
            success_probability(PAPER_BATTERY, 0.0, 1.0, 0.4, 10, -1.0)


class TestRemainingWorth:
    def test_no_discoveries_returns_mean(self):
        assert remaining_worth(7.5, 0) == pytest.approx(7.5, abs=1e-12)

    def test_known_closed_form_values(self):
        # lambda=2, found=2: 4 * e^-2; lambda=1, found=1: e^-1
        assert remaining_worth(2.0, 2) == pytest.approx(4 * math.exp(-2), abs=1e-12)
        assert remaining_worth(1.0, 1) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_matches_tail_sum_oracle_on_grid(self):
        for lam in range(1, 33):
            for found in range(0, 65):
                oracle = poisson_tail_expectation(float(lam), found, max(lam, found) + 60)
                assert remaining_worth(float(lam), found) == pytest.approx(
                    oracle, abs=1e-9
                ), (lam, found)

    def test_nonincreasing_in_found(self):
        # slack matches the 1e-9 accuracy contract: the closed form cancels
        # catastrophically deep in the tail
        for lam in (0.5, 3.0, 17.0):
            values = [remaining_worth(lam, k) for k in range(0, 40)]
            assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))
            assert all(v >= 0 for v in values)

    def test_zero_lambda(self):
        assert remaining_worth(0.0, 0) == 0.0
        assert remaining_worth(0.0, 3) == 0.0


class TestAvailableWorth:
    def test_no_occupants_full_worth(self):
        assert available_worth(12.5, []) == 12.5

    def test_single_occupant(self):
        assert available_worth(10.0, [0.3]) == pytest.approx(7.0, abs=1e-12)

    def test_two_occupants_joint(self):
        assert available_worth(10.0, [0.5, 0.5]) == pytest.approx(2.5, abs=1e-12)

    def test_never_exceeds_remaining(self):
        for probs in ([], [0.1], [0.9, 0.2], [1.0]):
            assert available_worth(5.0, probs) <= 5.0 + 1e-12

    def test_bad_probability_rejected(self):
        with pytest.raises(ValueError):
            available_worth(5.0, [1.5])
