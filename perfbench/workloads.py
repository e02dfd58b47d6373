"""The benchmark's workloads and the inputs it generates for them.

Each workload is a population size and a clock. The benchmark chooses the
simulated years; the gridpop seed of every round is derived from the
workload name, the benchmark seed and the round index, so the same
benchmark seed always gives the same inputs.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

T0 = 2020

# The paper's death hazard, written into every generated config so that the
# benchmark's own death prediction uses the very values the program receives.
DEATH_PARAMETERS = {
    "baseDieRate": 0.0001,
    "maleAgeDieProb": 0.00021,
    "maleAgeScaling": 14.0,
    "femaleAgeDieProb": 0.00019,
    "femaleAgeScaling": 15.5,
}


@dataclass(frozen=True)
class Workload:
    initial_pop: int
    clock: str
    steps_per_year: int
    years: int
    audit: bool = False

    @property
    def steps(self) -> int:
        return self.steps_per_year * self.years


WORKLOADS = {
    # Initialization dominates: the quadratic init_partnerships and
    # init_housing terms and the per-person objects behind peak RSS. Two
    # years, not one, so the step rate is timed over more than 3 s.
    "monthly-200k": Workload(200_000, "monthly", 12, 2),
    # The README's default scenario: per-step events, births above all.
    "daily-10k": Workload(10_000, "daily", 365, 2),
    # 8,760 steps with few events each: fixed costs per step.
    "hourly-1k": Workload(1_000, "hourly", 8760, 1),
    # Audited run: the invariant sweep and per-person feature evaluation.
    "audit-2k": Workload(2_000, "monthly", 12, 5, audit=True),
}


def round_seed(workload: str, seed: int, round_index: int) -> int:
    """The gridpop seed of one round: a 63-bit hash of its coordinates."""
    digest = hashlib.sha256(f"{workload}/{seed}/{round_index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def config_text(workload: Workload, gridpop_seed: int, output_dir: str) -> str:
    """The configuration file handed to the program for one round."""
    lines = [
        f"initialPop = {workload.initial_pop}",
        f"clock = {workload.clock}",
        f"t0 = {T0}",
        f"tFinal = {T0 + workload.years}",
        f"seed = {gridpop_seed}",
        f"audit = {'true' if workload.audit else 'false'}",
        # One row per step: agent_steps_per_s sums the alive column.
        "statsEvery = 1",
        f"outputDir = {output_dir}",
    ]
    lines += [f"{key} = {value!r}" for key, value in DEATH_PARAMETERS.items()]
    return "\n".join(lines) + "\n"
