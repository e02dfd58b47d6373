"""Run loop, per-step statistics, auditing, and persistence.

A run is fully determined by (config, params, tables): one PCG64 stream
drives every draw, statistics rows are pure functions of counters, and the
CSV/export writers format numbers identically everywhere.

Audit mode re-derives every cached counter by brute-force sweep at every
step boundary and verifies the structural invariants, population
conservation, and house-count monotonicity.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

import numpy as np

from .events import HazardTables, StepEventLog, run_step
from .features import StepSnapshot
from .initialization import build_initial_state
from .params import (
    DataTables,
    ModelParameters,
    SimulationConfig,
    SYNTHETIC_FERTILITY,
)
from .params import FertilityTable
from .population import (
    STATUSES,
    STATUS_CODE,
    Gender,
    MaritalStatus,
    PopulationStore,
    collect_invariant_violations,
)
from .space import GRID_COLS, GRID_ROWS, UNPLACED_CELL, Space, cell_of, load_density_map
from .stochastics import make_rng

logger = logging.getLogger(__name__)

STATISTICS_HEADER = ("time,alive,males,females,married,single,divorced,widowed,"
                     "mean_age,births,deaths,marriages,divorces,orphan_moves,"
                     "divorce_moves,houses,occupied_houses")

EXPORT_HEADER = "# gridpop population export v1"
EXPORT_FIELDS = ("id gender age_steps alive status partner father mother "
                 "children house town_x town_y")
# The export's "town_x town_y" fields of each cell code.
_TOWN_FIELDS = [f"{x} {y}" for x in range(1, GRID_ROWS + 1) for y in range(1, GRID_COLS + 1)]


class AuditError(AssertionError):
    """A step boundary violated a structural invariant or counter check."""


@dataclass(frozen=True)
class StepStatistics:
    time: float
    alive: int
    males: int
    females: int
    married: int
    single: int
    divorced: int
    widowed: int
    mean_age: float
    births: int
    deaths: int
    marriages: int
    divorces: int
    orphan_moves: int
    divorce_moves: int
    houses: int
    occupied_houses: int

    def to_csv_row(self) -> str:
        return ",".join([
            f"{self.time:.6f}",
            str(self.alive), str(self.males), str(self.females),
            str(self.married), str(self.single), str(self.divorced), str(self.widowed),
            f"{self.mean_age:.6g}",
            str(self.births), str(self.deaths), str(self.marriages), str(self.divorces),
            str(self.orphan_moves), str(self.divorce_moves),
            str(self.houses), str(self.occupied_houses),
        ])


def collect_step_statistics(store: PopulationStore, space: Space,
                            events: Sequence[int], t: float) -> StepStatistics:
    """Aggregate counts for one boundary from the store's cached counters
    and the interval's event counts, given in StepEventLog.counts order."""
    single, married, divorced, widowed = store.alive_status_counts
    births, deaths, marriages, divorces, orphan_moves, divorce_moves = events
    mean_age = (store.alive_age_steps_sum / store.alive_count / store.steps_per_year
                if store.alive_count else 0.0)
    return StepStatistics(
        time=t,
        alive=store.alive_count,
        males=store.alive_male,
        females=store.alive_female,
        married=married,
        single=single,
        divorced=divorced,
        widowed=widowed,
        mean_age=mean_age,
        births=births,
        deaths=deaths,
        marriages=marriages,
        divorces=divorces,
        orphan_moves=orphan_moves,
        divorce_moves=divorce_moves,
        houses=space.house_count,
        occupied_houses=space.occupied_house_count,
    )


def _counter_divergences(store: PopulationStore, space: Space) -> list[str]:
    """Cached counters that differ from a brute-force sweep."""
    swept = store.alive_tallies()
    cached = {name: getattr(store, name) for name in swept}
    swept["occupied houses"] = sum(1 for r in space.residents if r)
    cached["occupied houses"] = space.occupied_house_count
    return [f"{name}: cached {cached[name]} != sweep {swept[name]}"
            for name in swept if cached[name] != swept[name]]


@dataclass
class RunResult:
    statistics: list[StepStatistics]
    store: PopulationStore
    space: Space


def build_space(config: SimulationConfig) -> Space:
    density = None if config.density_map == "default" else load_density_map(config.density_map)
    return Space(density=density, town_grid_cells=config.town_grid_cells)


def load_fertility_table(source: str) -> FertilityTable:
    """Fertility rates from a table file, or the synthetic default profile."""
    if source == SYNTHETIC_FERTILITY:
        return FertilityTable.synthetic()
    return FertilityTable.load(source)


StepHook = Callable[[int, Optional[StepSnapshot], StepEventLog, PopulationStore, Space], None]


def run_simulation(config: SimulationConfig, params: ModelParameters,
                   tables: DataTables, step_hook: Optional[StepHook] = None) -> RunResult:
    """Initialize and advance the model from t0 to t_final.

    Emits one statistics row for the initial state and one per executed
    step (thinned by stats_every, always including the final step); a
    row's event columns count every step since the previous row. Each
    step's event log goes to step_hook and is not kept. The same seed
    reproduces every output byte.
    """
    config.validate()
    params.validate()
    tables.validate()
    rng = make_rng(config.seed)
    n = config.clock.steps_per_year
    space = build_space(config)
    store = PopulationStore(n)
    build_initial_state(store, space, params, config.clock, rng,
                        max_initial_age=config.max_initial_age)
    hazards = HazardTables(params, tables, n)

    if config.audit:
        _audit_boundary(store, space, "initial state")
    no_events = StepEventLog().counts()
    stats = [collect_step_statistics(store, space, no_events, float(config.t0))]

    total = config.total_steps
    prev_alive = store.alive_count
    prev_houses = space.house_count
    interval = no_events
    for k in range(total):
        snapshot = StepSnapshot.capture(store, space)
        current_year = config.t0 + k // n
        log = run_step(store, space, params, hazards, snapshot, current_year,
                       rng, config.event_order)
        interval = [a + b for a, b in zip(interval, log.counts())]
        if config.audit:
            _audit_boundary(store, space, f"step {k}")
            if store.alive_count != prev_alive + len(log.births) - len(log.deaths):
                raise AuditError(f"step {k}: population not conserved")
            if space.house_count < prev_houses:
                raise AuditError(f"step {k}: house count decreased")
        prev_alive = store.alive_count
        prev_houses = space.house_count
        if (k + 1) % config.stats_every == 0 or k == total - 1:
            t = config.t0 + (k + 1) / n
            stats.append(collect_step_statistics(store, space, interval, t))
            interval = no_events
        if step_hook is not None:
            step_hook(k, snapshot, log, store, space)
    return RunResult(statistics=stats, store=store, space=space)


def _audit_boundary(store: PopulationStore, space: Space, where: str) -> None:
    """Raise AuditError, prefixed with ``where`` (the step), on any violation."""
    problems = collect_invariant_violations(store, space)
    if problems:
        raise AuditError(f"{where}: {len(problems)} invariant violations, "
                         f"first: {problems[0]}")
    bad = _counter_divergences(store, space)
    if bad:
        raise AuditError(f"{where}: cached statistics diverge: " + "; ".join(bad))


# -- persistence -------------------------------------------------------------


def statistics_to_csv(stats: list[StepStatistics]) -> str:
    return "\n".join([STATISTICS_HEADER] + [s.to_csv_row() for s in stats]) + "\n"


def write_statistics(stats: list[StepStatistics], path: str | Path) -> None:
    Path(path).write_text(statistics_to_csv(stats))


def _opt(v: int) -> str:
    return "-" if v < 0 else str(v)


def _children_cells(store: PopulationStore) -> list[str]:
    """Each person's children column: ids ascending, comma-joined, or '-'."""
    offsets, kids = store.children_index()
    offsets, kids = offsets.tolist(), [str(c) for c in kids.tolist()]
    return [",".join(kids[a:b]) or "-" for a, b in zip(offsets, offsets[1:])]


def export_population(store: PopulationStore, space: Space, path: str | Path) -> None:
    """One line per person, documented field order; dead persons carry
    'grave' in the house column. Re-importable for auditing."""
    lines = [EXPORT_HEADER,
             f"# steps_per_year={store.steps_per_year}",
             f"# fields: {EXPORT_FIELDS}"]
    n = store.size
    columns = [getattr(store, name)[:n].tolist() for name in (
        "male_arr", "age_steps_arr", "alive_arr", "status_arr", "partner_arr",
        "father_arr", "mother_arr", "house_arr")]
    # The unhoused (-1) read the last array row; their town is not written.
    columns += [space.town_cell[store.house_arr[:n]].tolist(), _children_cells(store)]
    for pid, (male, age, alive, status, partner, father, mother, house,
              cell, children) in enumerate(zip(*columns)):
        if house >= 0:
            where = [str(house), _TOWN_FIELDS[cell]]
        else:
            where = ["-" if alive else "grave", "-", "-"]
        lines.append(" ".join([
            str(pid), "male" if male else "female", str(age), "1" if alive else "0",
            STATUSES[status].value, _opt(partner), _opt(father), _opt(mother),
            children, *where,
        ]))
    Path(path).write_text("\n".join(lines) + "\n")


def import_population(path: str | Path) -> tuple[PopulationStore, Space]:
    """Rebuild a store (and a minimal space carrying the exported houses)
    from an export file, for invariant auditing and round-trip checks.

    House ids are kept. The export records the town of occupied houses
    only, so a house id that no one lives in is restored as a vacant house
    whose town_cell is UNPLACED_CELL.

    Raises ValueError, naming the line or the person, on a malformed line,
    ids out of sequence, an alive cell other than 0 or 1, a children
    column that disagrees with the father and mother columns, or two
    residents of one house in different towns.
    """
    lines = Path(path).read_text().splitlines()
    if not lines or lines[0] != EXPORT_HEADER:
        raise ValueError("not a population export file")
    steps_per_year = None
    for ln in lines[:3]:
        if ln.startswith("# steps_per_year="):
            steps_per_year = int(ln.split("=", 1)[1])
    if steps_per_year is None:
        raise ValueError("export file missing steps_per_year header")
    n_fields = len(EXPORT_FIELDS.split())
    rows = []
    for lineno, ln in enumerate(lines, start=1):
        if ln.startswith("#") or not ln.strip():
            continue
        cells = ln.split(" ")
        if len(cells) != n_fields:
            raise ValueError(f"line {lineno}: {len(cells)} fields, expected {n_fields}")
        if cells[0] != str(len(rows)):
            raise ValueError(f"line {lineno}: person id {cells[0]}, expected {len(rows)}")
        if cells[3] not in ("0", "1"):
            raise ValueError(f"line {lineno}: alive {cells[3]!r}, expected 0 or 1")
        rows.append(cells)

    n = len(rows)
    store = PopulationStore(steps_per_year)
    space = Space()
    store.add_rows(n)
    (_, genders, ages, alive, statuses, partners, fathers, mothers, _,
     houses, towns_x, towns_y) = zip(*rows) if rows else [()] * n_fields
    # Enum lookups reject unknown genders and statuses, once per distinct value.
    male = {g: Gender(g) is Gender.MALE for g in set(genders)}
    code = {s: STATUS_CODE[MaritalStatus(s)] for s in set(statuses)}
    store.male_arr[:n] = [male[g] for g in genders]
    store.age_steps_arr[:n] = [int(a) for a in ages]
    store.alive_arr[:n] = [a == "1" for a in alive]
    store.status_arr[:n] = [code[s] for s in statuses]
    for array, refs in ((store.partner_arr, partners), (store.father_arr, fathers),
                        (store.mother_arr, mothers)):
        array[:n] = [-1 if r == "-" else int(r) for r in refs]
    house = np.array([-1 if h in ("-", "grave") else int(h) for h in houses], dtype=np.int64)
    store.house_arr[:n] = house
    housed = np.flatnonzero(house >= 0)
    towns = np.array([(int(towns_x[pid]), int(towns_y[pid])) for pid in housed.tolist()],
                     dtype=np.int64).reshape(-1, 2)
    # A house's town is that of its first resident; a later one must agree.
    house_towns = np.zeros((int(house.max(initial=-1)) + 1, 2), dtype=np.int64)
    homes, first = np.unique(house[housed], return_index=True)
    house_towns[homes] = towns[first]
    stray = np.flatnonzero((house_towns[house[housed]] != towns).any(axis=1))
    if len(stray):
        pid, hid = int(housed[stray[0]]), int(house[housed[stray[0]]])
        raise ValueError(f"person {pid}: town {tuple(towns[stray[0]].tolist())} differs from "
                         f"the town {tuple(house_towns[hid].tolist())} of other residents "
                         f"of house {hid}")
    off_grid = np.flatnonzero((towns < 1).any(axis=1) | (towns > (GRID_ROWS, GRID_COLS)).any(axis=1))
    if len(off_grid):
        raise ValueError(f"person {int(housed[off_grid[0]])}: town "
                         f"{tuple(towns[off_grid[0]].tolist())} lies off the "
                         f"{GRID_ROWS}x{GRID_COLS} grid")
    house_cells = np.where(house_towns[:, 0] > 0, cell_of(house_towns.T), UNPLACED_CELL)
    # Exported coordinates are town-level only.
    space.add_houses(house_cells, np.ones((len(house_cells), 2), dtype=np.int64))
    space.add_residents(house[housed], housed)
    store.recount()

    # Exports list children in ascending order; sort only a cell that differs.
    for pid, (cells, derived) in enumerate(zip(rows, _children_cells(store))):
        if cells[8] != derived and sorted(cells[8].split(",")) != sorted(derived.split(",")):
            raise ValueError(f"person {pid}: children column {cells[8]} disagrees with "
                             f"the father/mother columns ({derived})")
    return store, space
