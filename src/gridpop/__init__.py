"""gridpop: deterministic fixed-step agent-based demographic simulation.

A seeded population of agents on a 12x8 town grid evolves through ageing,
deaths, births, divorces and marriages. See README.md for the model
description, CLI usage and file formats.
"""

__version__ = "0.1.0"

from .engine import (
    RunResult,
    StepStatistics,
    export_population,
    import_population,
    load_fertility_table,
    run_simulation,
    write_statistics,
)
from .params import DataTables, ModelParameters, SimulationConfig
from .population import Gender, MaritalStatus, PopulationStore
from .space import Space
from .stochastics import ClockSpec, make_rng

__all__ = [
    "ClockSpec",
    "DataTables",
    "Gender",
    "MaritalStatus",
    "ModelParameters",
    "PopulationStore",
    "RunResult",
    "SimulationConfig",
    "Space",
    "StepStatistics",
    "export_population",
    "import_population",
    "load_fertility_table",
    "make_rng",
    "run_simulation",
    "write_statistics",
    "__version__",
]
