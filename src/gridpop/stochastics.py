"""Probabilistic substrate: seeded RNG, the clock, hazard conversion, sampling.

A clock is its step rate: ClockSpec holds only steps_per_year, and the
named clocks are spellings of their step counts.

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

    steps_per_year: int

    def __post_init__(self) -> None:
        if self.steps_per_year < 1:
            raise ValueError("steps_per_year must be >= 1")

    @classmethod
    def parse(cls, text: str) -> "ClockSpec":
        """Parse 'hourly'|'daily'|'weekly'|'monthly'|'custom:N'."""
        text = text.strip()
        if text in CLOCK_STEPS_PER_YEAR:
            return cls(CLOCK_STEPS_PER_YEAR[text])
        if text.startswith("custom:"):
            try:
                n = int(text.split(":", 1)[1])
            except ValueError:
                raise ValueError(f"bad custom clock spec: {text!r}") from None
            return cls(n)
        raise ValueError(f"unknown clock spec: {text!r}")

    def __str__(self) -> str:
        """The name of a named clock with this step count, else custom:N."""
        for name, n in CLOCK_STEPS_PER_YEAR.items():
            if n == self.steps_per_year:
                return name
        return f"custom:{self.steps_per_year}"


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


def weighted_sample(rng: Rng, items, weights, total: float):
    """Pick one item with probability weight_i / total.

    ``weights`` is a float64 array of non-negative weights and ``total``
    its positive sum, ``float(weights.sum())``, which the caller has
    already computed; neither is checked. Zero-weight items are never
    returned.
    """
    cum = np.cumsum(weights)
    idx = int(np.searchsorted(cum, rng.random() * total, side="right"))
    # Guard against the draw landing exactly on the total due to rounding.
    idx = min(idx, len(items) - 1)
    while weights[idx] == 0.0:  # searchsorted may land on a trailing zero-weight slot
        idx -= 1
    return items[idx]


def sample_half_normal_age_steps(
    rng: Rng,
    steps_per_year: int,
    size: int,
    max_age_years: float = DEFAULT_MAX_INITIAL_AGE_YEARS,
) -> np.ndarray:
    """Draw initial ages in steps: |floor(Normal(0, 25 * steps_per_year))|.

    The half-normal has mean 25*sqrt(2/pi) ~ 19.95 years. Draws at or above
    max_age_years are redrawn (the unbounded tail admits unrealistic ages
    with tiny probability). A cap below one step fails before any draw.
    """
    n = steps_per_year
    cap_steps = int(max_age_years * n)
    if cap_steps < 1:
        raise ValueError(f"maxInitialAge {max_age_years} years is shorter than "
                         f"one step of the {ClockSpec(n)} clock ({n} steps per year)")
    out = np.abs(np.floor(rng.normal(0.0, 25.0 * n, size=size))).astype(np.int64)
    while True:
        over = out >= cap_steps
        count = int(over.sum())
        if count == 0:
            return out
        out[over] = np.abs(np.floor(rng.normal(0.0, 25.0 * n, size=count))).astype(np.int64)
