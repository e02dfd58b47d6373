"""Probabilistic substrate: seeded RNG, clock arithmetic, hazard conversion, sampling.

All randomness in a run flows through a single numpy Generator (PCG64),
created by make_rng(seed). Identical seeds reproduce identical draw
sequences across runs and platforms for a pinned numpy version. Beyond
the Generator's own methods, a run draws through two functions here:
weighted_sample for one weighted pick, and sample_half_normal_age_steps
for the initial ages. instantaneous_probability_array converts yearly
probabilities to per-step ones.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

Rng = np.random.Generator

# Steps per year for the named clocks. Weekly uses the conventional 52.
CLOCK_STEPS_PER_YEAR = {
    "hourly": 8760,
    "daily": 365,
    "weekly": 52,
    "monthly": 12,
}

# Yearly probabilities of exactly 1 would make the per-step hazard infinite.
_CERTAINTY_CLAMP = 1.0 - 1e-9

# Half-normal initial-age draws above this are redrawn (unbounded tail guard).
DEFAULT_MAX_INITIAL_AGE_YEARS = 110.0


@dataclass(frozen=True)
class ClockSpec:
    """Fixed simulation step size expressed as steps per year."""

    kind: str
    steps_per_year: int

    def __post_init__(self) -> None:
        if self.steps_per_year < 1:
            raise ValueError("steps_per_year must be >= 1")
        if self.kind in CLOCK_STEPS_PER_YEAR and self.steps_per_year != CLOCK_STEPS_PER_YEAR[self.kind]:
            raise ValueError(f"clock {self.kind!r} must have {CLOCK_STEPS_PER_YEAR[self.kind]} steps/year")

    @classmethod
    def hourly(cls) -> "ClockSpec":
        return cls("hourly", 8760)

    @classmethod
    def daily(cls) -> "ClockSpec":
        return cls("daily", 365)

    @classmethod
    def weekly(cls) -> "ClockSpec":
        return cls("weekly", 52)

    @classmethod
    def monthly(cls) -> "ClockSpec":
        return cls("monthly", 12)

    @classmethod
    def custom(cls, steps_per_year: int) -> "ClockSpec":
        return cls("custom", int(steps_per_year))

    @classmethod
    def parse(cls, text: str) -> "ClockSpec":
        """Parse 'hourly'|'daily'|'weekly'|'monthly'|'custom:N'."""
        text = text.strip()
        if text in CLOCK_STEPS_PER_YEAR:
            return cls(text, CLOCK_STEPS_PER_YEAR[text])
        if text.startswith("custom:"):
            try:
                n = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad custom clock spec: {text!r}") from None
            return cls.custom(n)
        raise ValueError(f"unknown clock spec: {text!r}")

    def __str__(self) -> str:
        if self.kind == "custom":
            return f"custom:{self.steps_per_year}"
        return self.kind


def make_rng(seed: int) -> Rng:
    """Create the run's random generator (PCG64) from a 64-bit seed."""
    return np.random.default_rng(seed)


def instantaneous_probability_array(p_yearly: np.ndarray, steps_per_year: int) -> np.ndarray:
    """Convert yearly probabilities to the equivalent per-step probabilities.

    Uses the exponential-hazard conversion -ln(1 - p) / steps_per_year so
    that compounding over one year of steps recovers ~p_yearly. Callers
    clamp the inputs to [0, 1]; inputs at exactly 1 are clamped just below
    to keep the hazard finite, and the result is clamped into [0, 1].
    """
    p = np.minimum(p_yearly, _CERTAINTY_CLAMP)
    return np.clip(-np.log1p(-p) / steps_per_year, 0.0, 1.0)


def weighted_sample(rng: Rng, items, weights, total: float | None = None):
    """Pick one item with probability weight_i / sum(weights).

    weights must be non-negative with a positive total; zero-weight items
    are never returned. A caller that has already summed a float64 weight
    array passes ``total`` (its ``float(weights.sum())``), and the weights
    are then taken as valid without being checked or summed again.
    """
    if total is None:
        if len(items) == 0:
            raise ValueError("weighted_sample from empty sequence")
        if len(items) != len(weights):
            raise ValueError("items and weights differ in length")
        weights = np.asarray(weights, dtype=float)
        if np.any(weights < 0.0):
            raise ValueError("negative weight")
        total = float(weights.sum())
        if total <= 0.0:
            raise ValueError("all weights are zero")
    cum = np.cumsum(weights)
    idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
    # Guard against the draw landing exactly on the total due to rounding.
    idx = min(idx, len(items) - 1)
    while weights[idx] == 0.0:  # searchsorted may land on a trailing zero-weight slot
        idx -= 1
    return items[idx]


def sample_half_normal_age_steps(
    rng: Rng,
    clock: ClockSpec,
    size: int,
    max_age_years: float = DEFAULT_MAX_INITIAL_AGE_YEARS,
) -> np.ndarray:
    """Draw initial ages in steps: |floor(Normal(0, 25 * steps_per_year))|.

    The half-normal has mean 25*sqrt(2/pi) ~ 19.95 years. Draws at or above
    max_age_years are redrawn (the unbounded tail admits unrealistic ages
    with tiny probability). A cap below one step fails before any draw.
    """
    n = clock.steps_per_year
    cap_steps = int(max_age_years * n)
    if cap_steps < 1:
        raise ValueError(f"maxInitialAge {max_age_years} years is shorter than "
                         f"one step of the {clock.kind} clock ({n} steps per year)")
    out = np.abs(np.floor(rng.normal(0.0, 25.0 * n, size=size))).astype(np.int64)
    while True:
        over = out >= cap_steps
        count = int(over.sum())
        if count == 0:
            return out
        out[over] = np.abs(np.floor(rng.normal(0.0, 25.0 * n, size=count))).astype(np.int64)
