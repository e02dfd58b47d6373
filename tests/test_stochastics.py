"""Unit tests for the probabilistic substrate.

Expected values are computed independently inline (scalar math) rather
than copied from the implementation.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gridpop.params import ConfigError, DataTables, FertilityTable, ModelParameters
from gridpop.stochastics import (
    ClockSpec,
    instantaneous_probability_array,
    make_rng,
    sample_half_normal_age_steps,
    weighted_sample,
)


def per_step(p_yearly, steps_per_year):
    return float(instantaneous_probability_array(np.array([p_yearly]), steps_per_year)[0])


class TestClockSpec:
    def test_named_clocks(self):
        assert ClockSpec.parse("monthly").steps_per_year == 12
        assert ClockSpec.parse("daily").steps_per_year == 365
        assert ClockSpec.parse("hourly").steps_per_year == 365 * 24 == 8760
        assert ClockSpec.parse("weekly").steps_per_year == 52

    def test_parse(self):
        assert ClockSpec.parse("daily") == ClockSpec(365)
        assert ClockSpec.parse("custom:90").steps_per_year == 90
        with pytest.raises(ValueError):
            ClockSpec.parse("fortnightly")
        with pytest.raises(ValueError):
            ClockSpec.parse("custom:x")

    def test_invalid_steps(self):
        with pytest.raises(ValueError):
            ClockSpec(0)
        with pytest.raises(ValueError):
            ClockSpec.parse("custom:0")

    def test_a_clock_is_its_step_rate(self):
        # A custom count equal to a named clock's is that clock, and is
        # written under its name.
        assert ClockSpec.parse("custom:12") == ClockSpec.parse("monthly")
        assert str(ClockSpec.parse("custom:365")) == "daily"
        assert str(ClockSpec(26)) == "custom:26"

    @pytest.mark.parametrize("text", ["hourly", "daily", "weekly", "monthly",
                                      "custom:1", "custom:7", "custom:365"])
    def test_text_round_trip(self, text):
        clock = ClockSpec.parse(text)
        assert ClockSpec.parse(str(clock)) == clock


class TestInstantaneousProbability:
    def test_zero(self):
        assert per_step(0.0, 365) == 0.0

    def test_half_yearly_monthly(self):
        # Independent scalar evaluation: -ln(1 - 0.5) / 12 = ln(2)/12.
        expected = math.log(2) / 12
        got = per_step(0.5, 12)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(0.0577623, abs=5e-8)

    def test_tenth_yearly_daily(self):
        expected = -math.log(0.9) / 365
        got = per_step(0.1, 365)
        assert got == pytest.approx(expected, rel=1e-12)
        assert got == pytest.approx(2.8866e-4, abs=1e-8)

    def test_certainty_clamped_finite(self):
        got = per_step(1.0, 365)
        assert 0.0 < got <= 1.0
        assert math.isfinite(got)

    def test_rejects_out_of_range(self):
        # The conversion takes its inputs as given; every yearly rate that
        # reaches it is validated into [0, 1] when the run is configured,
        # and the death hazard is clipped.
        with pytest.raises(ConfigError):
            ModelParameters(basic_divorce_rate=1.5).validate()
        with pytest.raises(ConfigError):
            ModelParameters(base_die_rate=-0.1).validate()
        with pytest.raises(ConfigError):
            DataTables(male_marriage_modifier_by_decade=(1.5,) * 16).validate()
        rates = FertilityTable.synthetic().rates.copy()
        rates[0, 0] = 1.5
        with pytest.raises(ConfigError):
            FertilityTable(rates)

    def test_array_matches_scalar(self):
        ps = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        arr = instantaneous_probability_array(ps, 52)
        for p, a in zip(ps.tolist(), arr.tolist()):
            # Certainty is clamped just below 1 to keep the hazard finite.
            assert a == pytest.approx(-math.log1p(-min(p, 1.0 - 1e-9)) / 52, rel=1e-12)

    def test_compounding_recovers_yearly(self):
        # Survival over a year of steps: (1-h/N)^N = (1-p) * exp(-h^2/2N + O(N^-2))
        # with h = -ln(1-p); the discretization error shrinks with N.
        h = -math.log(0.9)
        for n in (12, 365):
            p_step = per_step(0.1, n)
            survival = (1 - p_step) ** n
            assert survival == pytest.approx(0.9, abs=h * h / n)
            assert survival == pytest.approx(0.9 * math.exp(-h * h / (2 * n)), rel=5e-6)


class TestWeightedSample:
    def test_single_item(self, rng):
        assert weighted_sample(rng, ["only"], np.array([2.0]), 2.0) == "only"

    def test_frequencies(self):
        rng = make_rng(7)
        n = 100_000
        weights = np.array([1.0, 3.0])
        hits = sum(weighted_sample(rng, [0, 1], weights, 4.0) for _ in range(n))
        sigma = math.sqrt(0.75 * 0.25 / n)
        assert abs(hits / n - 0.75) < 3 * sigma

    def test_zero_weight_never_selected(self):
        rng = make_rng(11)
        weights = np.array([1.0, 0.0, 2.0])
        for _ in range(10_000):
            assert weighted_sample(rng, ["a", "b", "c"], weights, 3.0) != "b"

    def test_draws_as_cumsum_searchsorted(self):
        # Trailing zero weights exercise the step back from a zero slot.
        weights = np.array([0.5, 0.0, 2.0, 1.5, 0.0, 0.0])
        total = float(weights.sum())
        cum = np.cumsum(weights)
        for seed in range(50):
            drawn, reference = make_rng(seed), make_rng(seed)
            u = reference.random() * total
            idx = min(int(np.searchsorted(cum, u, side="right")), len(weights) - 1)
            idx = max(i for i in range(idx + 1) if weights[i] > 0.0)
            assert weighted_sample(drawn, "abcdef", weights, total) == "abcdef"[idx]
            assert drawn.bit_generator.state == reference.bit_generator.state


class TestShuffle:
    """init_partnerships shuffles the selected men as an int64 array; the
    runs' digests were recorded when it shuffled them as a list."""

    def test_empty(self):
        rng, before = make_rng(5), make_rng(5).bit_generator.state
        rng.shuffle(np.empty(0, dtype=np.int64))
        assert rng.bit_generator.state == before

    def test_same_seed_same_permutation(self):
        for size in (1, 2, 3, 50, 1000):
            items = list(range(size))
            as_list, as_array = make_rng(3), make_rng(3)
            array = np.array(items, dtype=np.int64)
            as_list.shuffle(items)
            as_array.shuffle(array)
            assert array.tolist() == items
            assert as_array.bit_generator.state == as_list.bit_generator.state

    @settings(max_examples=50)
    @given(st.lists(st.integers(0, 2**62), max_size=50), st.integers(0, 2**32 - 1))
    def test_is_permutation(self, items, seed):
        array = np.array(items, dtype=np.int64)
        make_rng(seed).shuffle(array)
        assert sorted(array.tolist()) == sorted(items)
        make_rng(seed).shuffle(items)
        assert array.tolist() == items


class TestHalfNormalAges:
    def test_steps_non_negative_and_capped(self):
        rng = make_rng(21)
        steps = sample_half_normal_age_steps(rng, 12, size=50_000)
        assert (steps >= 0).all()
        assert (steps < 110 * 12).all()

    def test_years_are_step_multiples(self):
        # Ages are whole steps: integers, so years are multiples of 1/12.
        steps = sample_half_normal_age_steps(make_rng(22), 12, size=200)
        assert steps.dtype == np.int64
        assert (steps >= 0).all()

    def test_mean_matches_half_normal(self):
        # E|N(0, sigma)| = sigma * sqrt(2/pi); sigma = 25 years.
        rng = make_rng(23)
        steps = sample_half_normal_age_steps(rng, 12, size=100_000)
        mean_years = steps.mean() / 12
        assert abs(mean_years - 25 * math.sqrt(2 / math.pi)) < 0.25

    def test_decreasing_decade_histogram(self):
        rng = make_rng(24)
        steps = sample_half_normal_age_steps(rng, 12, size=200_000)
        years = steps / 12
        counts, _ = np.histogram(years, bins=np.arange(0, 120, 10))
        nonzero = counts[counts > 0]
        assert all(a > b for a, b in zip(nonzero, nonzero[1:]))

    @pytest.mark.parametrize("max_age_years", [0.0, 0.05, 1 / 12 - 1e-9])
    def test_cap_below_one_step_rejected_before_any_draw(self, max_age_years):
        rng = make_rng(25)
        state = rng.bit_generator.state
        with pytest.raises(ValueError, match="shorter than one step of the monthly clock"):
            sample_half_normal_age_steps(rng, 12, size=10, max_age_years=max_age_years)
        assert rng.bit_generator.state == state

    def test_cap_of_one_step_gives_newborns(self):
        steps = sample_half_normal_age_steps(make_rng(26), 1, size=20, max_age_years=1.0)
        assert steps.tolist() == [0] * 20


class TestDeterminism:
    def test_identical_streams(self):
        a, b = make_rng(1234), make_rng(1234)
        assert a.random(1000).tolist() == b.random(1000).tolist()

    def test_compounding_monte_carlo(self):
        # Per-step kill at the converted hazard leaves ~(1-p_yearly) alive.
        rng = make_rng(31)
        steps_per_year = 12
        p_step = per_step(0.1, steps_per_year)
        n = 100_000
        alive = np.ones(n, dtype=bool)
        for _ in range(steps_per_year):
            alive &= rng.random(n) >= p_step
        expected = (1 - p_step) ** steps_per_year
        sigma = math.sqrt(expected * (1 - expected) / n)
        assert abs(alive.mean() - expected) < 3 * sigma
