"""Model parameters, input data tables, and run configuration.

Config files are plain ``key = value`` lines (``#`` comments allowed).
A key is the camelCase name of a ``ModelParameters`` or
``SimulationConfig`` field, and its value is parsed and written by the
field's annotated type. A few legacy spellings of the death-rate
parameters are accepted as aliases. Unknown and repeated keys are
rejected.
"""

from __future__ import annotations

import math
import typing
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .space import DEFAULT_TOWN_GRID_CELLS
from .stochastics import DEFAULT_MAX_INITIAL_AGE_YEARS, ClockSpec

EVENT_NAMES = ("ageing", "deaths", "births", "divorces", "marriages")
DEFAULT_EVENT_ORDER = EVENT_NAMES  # ageing first, deaths before births

DIVORCE_MODIFIER_BY_DECADE = (
    0.0, 1.0, 0.9, 0.5, 0.4, 0.2, 0.1, 0.03, 0.01, 0.001, 0.001, 0.001, 0.0, 0.0, 0.0, 0.0,
)
MALE_MARRIAGE_MODIFIER_BY_DECADE = (
    0.0, 0.16, 0.5, 1.0, 0.8, 0.7, 0.66, 0.5, 0.4, 0.2, 0.1, 0.05, 0.01, 0.0, 0.0, 0.0,
)

FERTILITY_MIN_AGE = 17
FERTILITY_MAX_AGE = 51
FERTILITY_MIN_YEAR = 1951
FERTILITY_MAX_YEAR = 2050
FERTILITY_HEADER = "ages 17..51 years 1951..2050"

SYNTHETIC_FERTILITY = "synthetic"
SYNTHETIC_PEAK_AGE = 29
SYNTHETIC_PEAK_RATE = 0.25
_SYNTHETIC_WIDTH = 7.0  # std-dev of the synthetic age profile


class ConfigError(ValueError):
    """Bad configuration file or invalid parameter values."""


@dataclass(frozen=True)
class ModelParameters:
    """Event-rate parameters; defaults are the model's ad-hoc reference values."""

    basic_divorce_rate: float = 0.06
    base_die_rate: float = 0.0001
    basic_male_marriage_rate: float = 0.7
    female_age_die_prob: float = 0.00019
    female_age_scaling: float = 15.5
    initial_pop: int = 10_000
    male_age_die_prob: float = 0.00021
    male_age_scaling: float = 14.0
    max_num_marr_cand: int = 100
    start_married_rate: float = 0.8

    def validate(self) -> None:
        _require_finite(self)
        for name in ("basic_divorce_rate", "base_die_rate", "basic_male_marriage_rate",
                     "female_age_die_prob", "male_age_die_prob", "start_married_rate"):
            v = getattr(self, name)
            if not 0.0 <= v <= 1.0:
                raise ConfigError(f"{name} must lie in [0, 1], got {v}")
        if self.female_age_scaling <= 0 or self.male_age_scaling <= 0:
            raise ConfigError("age scalings must be positive")
        if self.initial_pop < 1:
            raise ConfigError("initial_pop must be >= 1")
        if self.max_num_marr_cand < 1:
            raise ConfigError("max_num_marr_cand must be >= 1")


class FertilityTable:
    """Yearly birth probability by mother's whole-year age and calendar year.

    Covers ages 17..51 and years 1951..2050; any lookup outside that range
    yields rate 0.
    """

    def __init__(self, rates: np.ndarray):
        expected = (FERTILITY_MAX_AGE - FERTILITY_MIN_AGE + 1,
                    FERTILITY_MAX_YEAR - FERTILITY_MIN_YEAR + 1)
        rates = np.asarray(rates, dtype=float)
        if rates.shape != expected:
            raise ConfigError(f"fertility table must be {expected[0]}x{expected[1]}, got {rates.shape}")
        if not np.all((rates >= 0.0) & (rates <= 1.0)):
            raise ConfigError("fertility rates must lie in [0, 1]")
        self.rates = rates

    def rates_at(self, age_years: np.ndarray, year: int) -> np.ndarray:
        """Rates for an array of whole-year ages in one calendar year."""
        out = np.zeros(len(age_years))
        if not (FERTILITY_MIN_YEAR <= year <= FERTILITY_MAX_YEAR):
            return out
        covered = (age_years >= FERTILITY_MIN_AGE) & (age_years <= FERTILITY_MAX_AGE)
        out[covered] = self.rates[age_years[covered] - FERTILITY_MIN_AGE, year - FERTILITY_MIN_YEAR]
        return out

    @classmethod
    def synthetic(cls) -> "FertilityTable":
        """Built-in stand-in profile: smooth unimodal in age, peak 0.25 at
        age 29, identical for every calendar year. Not derived from data."""
        ages = np.arange(FERTILITY_MIN_AGE, FERTILITY_MAX_AGE + 1, dtype=float)
        profile = SYNTHETIC_PEAK_RATE * np.exp(-((ages - SYNTHETIC_PEAK_AGE) ** 2) / (2 * _SYNTHETIC_WIDTH**2))
        n_years = FERTILITY_MAX_YEAR - FERTILITY_MIN_YEAR + 1
        return cls(np.tile(profile[:, None], (1, n_years)))

    def write(self, path: str | Path) -> None:
        with open(path, "w") as f:
            f.write(FERTILITY_HEADER + "\n")
            for row in self.rates:
                f.write(" ".join(repr(float(v)) for v in row) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "FertilityTable":
        lines = Path(path).read_text().splitlines()
        if not lines or lines[0].strip() != FERTILITY_HEADER:
            raise ConfigError(f"fertility file must start with {FERTILITY_HEADER!r}")
        width = FERTILITY_MAX_YEAR - FERTILITY_MIN_YEAR + 1
        rows = []
        for lineno, ln in enumerate(lines[1:], start=2):
            if not ln.strip():
                continue
            tokens = ln.split()
            if len(tokens) != width:
                raise ConfigError(f"{path}, line {lineno}: {len(tokens)} rates, expected {width}")
            try:
                rows.append([float(tok) for tok in tokens])
            except ValueError as err:
                raise ConfigError(f"{path}, line {lineno}: {err}") from None
        return cls(np.asarray(rows, dtype=float))


@dataclass(frozen=True)
class DataTables:
    """Input trajectories: per-decade modifiers and the fertility table."""

    divorce_modifier_by_decade: tuple = DIVORCE_MODIFIER_BY_DECADE
    male_marriage_modifier_by_decade: tuple = MALE_MARRIAGE_MODIFIER_BY_DECADE
    fertility: FertilityTable = field(default_factory=FertilityTable.synthetic)

    def validate(self) -> None:
        for name in ("divorce_modifier_by_decade", "male_marriage_modifier_by_decade"):
            vec = getattr(self, name)
            if len(vec) != 16:
                raise ConfigError(f"{name} must have 16 entries")
            if any(not 0.0 <= v <= 1.0 for v in vec):
                raise ConfigError(f"{name} entries must lie in [0, 1]")


@dataclass(frozen=True)
class SimulationConfig:
    """Clock, horizon, seed, event order and output options for one run."""

    t0: int = 2020
    t_final: int = 2030
    clock: ClockSpec = ClockSpec.parse("daily")
    seed: int = 1
    event_order: tuple = DEFAULT_EVENT_ORDER
    output_dir: str = "out"
    fertility: str = SYNTHETIC_FERTILITY  # path or "synthetic"
    density_map: str = "default"  # path or "default"
    town_grid_size: int = DEFAULT_TOWN_GRID_CELLS
    max_initial_age: float = DEFAULT_MAX_INITIAL_AGE_YEARS
    audit: bool = False
    stats_every: int = 1

    def validate(self) -> None:
        _require_finite(self)
        if self.t_final < self.t0:
            raise ConfigError("tFinal must be >= t0")
        order = tuple(self.event_order)
        if sorted(order) != sorted(EVENT_NAMES):
            raise ConfigError(f"eventOrder must be a permutation of {EVENT_NAMES}")
        if order[0] != "ageing":
            raise ConfigError("ageing must come first in eventOrder")
        if self.town_grid_size < 1:
            raise ConfigError("townGridSize must be >= 1")
        if self.stats_every < 1:
            raise ConfigError("statsEvery must be >= 1")
        if self.max_initial_age <= 0:
            raise ConfigError("maxInitialAge must be positive")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")
        for key, path in (("fertility", self.fertility), ("densityMap", self.density_map),
                          ("outputDir", self.output_dir)):
            if not path.strip():
                raise ConfigError(f"{key} must not be empty")

    @property
    def total_steps(self) -> int:
        return (self.t_final - self.t0) * self.clock.steps_per_year


def _config_key(name: str) -> str:
    head, *rest = name.split("_")
    return head + "".join(word.capitalize() for word in rest)


# Config key -> (record, field name, field type), in declaration order.
_FIELDS = {_config_key(name): (record, name, kind)
           for record in (ModelParameters, SimulationConfig)
           for name, kind in typing.get_type_hints(record).items()}

# Alternative spellings seen for the same quantities.
KEY_ALIASES = {
    "basicDeathRate": "baseDieRate",
    "femaleAgeDieRate": "femaleAgeDieProb",
    "maleAgeDieRate": "maleAgeDieProb",
}


def _require_finite(record) -> None:
    """Reject a float field of the record that is nan or infinite, naming its key."""
    for key, (owner, name, kind) in _FIELDS.items():
        if owner is type(record) and kind is float:
            value = getattr(record, name)
            if not math.isfinite(value):
                raise ConfigError(f"{key} must be finite, got {value}")


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected true or false, got {raw!r}")


# Field type -> reader of a raw value and writer of a value.
_PARSE = {
    bool: _parse_bool,
    int: int,
    float: float,
    str: str,
    tuple: lambda raw: tuple(tok.strip() for tok in raw.split(",")),
    ClockSpec: ClockSpec.parse,
}
_WRITE = {
    bool: lambda v: "true" if v else "false",
    int: str,
    float: repr,
    str: str,
    tuple: ",".join,
    ClockSpec: str,
}


def parse_config_text(text: str) -> tuple[ModelParameters, SimulationConfig]:
    """Parse key = value lines into parameter/config records."""
    kwargs: dict = {ModelParameters: {}, SimulationConfig: {}}
    line_of: dict[str, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected key = value, got {line!r}")
        written, raw = (part.strip() for part in stripped.split("=", 1))
        key = KEY_ALIASES.get(written, written)
        if key not in _FIELDS:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if key in line_of:
            raise ConfigError(f"lines {line_of[key]} and {lineno} both set {key!r}"
                              + (f" ({written!r} is an alias)" if written != key else ""))
        line_of[key] = lineno
        owner, name, kind = _FIELDS[key]
        try:
            kwargs[owner][name] = _PARSE[kind](raw)
        except ValueError as err:
            raise ConfigError(f"line {lineno}: bad value for {key}: {err}") from None
    params = ModelParameters(**kwargs[ModelParameters])
    config = SimulationConfig(**kwargs[SimulationConfig])
    params.validate()
    config.validate()
    return params, config


def load_config(path: str | Path) -> tuple[ModelParameters, SimulationConfig]:
    return parse_config_text(Path(path).read_text())


def config_to_text(params: ModelParameters, config: SimulationConfig) -> str:
    """Render a complete config file (the inverse of parse_config_text)."""
    records = {ModelParameters: params, SimulationConfig: config}
    return "".join(f"{key} = {_WRITE[kind](getattr(records[owner], name))}\n"
                   for key, (owner, name, kind) in _FIELDS.items())
