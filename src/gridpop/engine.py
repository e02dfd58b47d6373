"""The stepper, per-step statistics, auditing, and persistence.

A run is fully determined by (config, params, tables): one PCG64 stream
drives every draw, statistics rows are pure functions of counters, and the
CSV/export writers format numbers identically everywhere. The fields of
``StepStatistics`` are the statistics.csv columns: the header and the row
format are derived from them. A run is a ``Simulation``, whose fields hold
all of its state between steps; ``step()`` advances it by one step, and
``run_simulation`` is a loop over ``step()``. Building a ``Simulation`` is
the one way to start a run: every initial state, the CLI's and the
scripts' included, comes from its constructor. The events read the live
store: a caller that needs a boundary's state copies it (``StepSnapshot``)
before ``step()``, as ``run_simulation`` does for a step hook only.

Audit mode re-derives the store's cached alive counters by brute-force
sweep at every step boundary and verifies the structural invariants
(among them the vacancy index, which the occupied-house count is read
from), the events' cached candidate counts, the birth order, the kin
counts, population conservation, and house-count monotonicity.
``audit_boundary`` holds the checks of one boundary. ``gridpop validate``
is an audited start: it builds a ``Simulation`` with audit on, so it
checks exactly the first boundary of ``run --audit``.
"""

from __future__ import annotations

from itertools import chain, islice
from pathlib import Path
from typing import (Annotated, Callable, Iterator, NamedTuple, Optional, Sequence, TextIO,
                    get_type_hints)

import numpy as np

from .events import HazardTables, StepEventLog, candidate_count_problems, run_step
from .features import StepSnapshot
from .initialization import build_initial_state
from .params import (SYNTHETIC_FERTILITY, DataTables, FertilityTable, ModelParameters,
                     SimulationConfig)
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

EXPORT_HEADER = "# gridpop population export v1"
EXPORT_FIELDS = ("id gender age_steps alive status partner father mother "
                 "children house town_x town_y")
# The export's "town_x town_y" fields of each cell code.
_TOWN_FIELDS = [f"{x} {y}" for x in range(1, GRID_ROWS + 1) for y in range(1, GRID_COLS + 1)]
# Persons per block of export_population and import_population: every Python
# list and string they build spans at most one block.
_EXPORT_BLOCK = 1 << 14


class AuditError(AssertionError):
    """A step boundary violated a structural invariant or counter check."""


class StepStatistics(NamedTuple):
    """One row of statistics.csv: the fields are its columns, in order. A
    field annotated with a format spec is printed with it, the rest with
    str."""

    time: Annotated[float, ".6f"]  # fixed-point: consecutive hourly steps differ
    alive: int
    males: int
    females: int
    married: int
    single: int
    divorced: int
    widowed: int
    mean_age: Annotated[float, ".6g"]
    births: int
    deaths: int
    marriages: int
    divorces: int
    orphan_moves: int
    divorce_moves: int
    houses: int
    occupied_houses: int

    def to_csv_row(self) -> str:
        return _CSV_ROW.format(*self)


STATISTICS_HEADER = ",".join(StepStatistics._fields)
_CSV_ROW = ",".join("{:%s}" % getattr(hint, "__metadata__", ("",))[0]
                    for hint in get_type_hints(StepStatistics, include_extras=True).values())


def collect_step_statistics(store: PopulationStore, space: Space,
                            events: Sequence[int], t: float) -> StepStatistics:
    """Aggregate counts for one boundary from the store's cached counters
    and the interval's event counts, given in StepEventLog.counts order."""
    single, married, divorced, widowed = store.alive_status_counts
    alive = store.alive_count
    mean_age = store.alive_age_steps_sum / alive / store.steps_per_year if alive else 0.0
    return StepStatistics(t, alive, store.alive_male, alive - store.alive_male,
                          married, single, divorced, widowed, mean_age, *events,
                          space.house_count, space.occupied_house_count)


def load_fertility_table(source: str) -> FertilityTable:
    """Fertility rates from a table file, or the synthetic default profile."""
    if source == SYNTHETIC_FERTILITY:
        return FertilityTable.synthetic()
    return FertilityTable.load(source)


_NO_EVENTS = StepEventLog().counts()


class Simulation:
    """A run between two steps: the config, the store, the space, the
    generator, the hazard tables, the number of steps taken, the statistics
    rows so far and the event counts of the current statsEvery interval."""

    def __init__(self, config: SimulationConfig, params: ModelParameters, tables: DataTables):
        """The initial state, audited if asked, and its statistics row."""
        for record in (config, params, tables):
            record.validate()
        self.config = config
        self.rng = make_rng(config.seed)
        density = None if config.density_map == "default" else load_density_map(config.density_map)
        self.space = Space(density=density, town_grid_cells=config.town_grid_size)
        self.store = PopulationStore(config.clock.steps_per_year)
        build_initial_state(self.store, self.space, params, self.rng,
                            max_initial_age=config.max_initial_age)
        self.hazards = HazardTables(params, tables, config.clock.steps_per_year)
        if config.audit:
            audit_boundary(self.store, self.space, "initial state")
        self.steps, self.interval = 0, _NO_EVENTS
        self.statistics = [collect_step_statistics(self.store, self.space, _NO_EVENTS,
                                                   float(config.t0))]

    def step(self) -> StepEventLog:
        """Advance one step and return its log. A statistics row follows every
        stats_every-th step and the final one, its events counted since the last."""
        config, store, space, k = self.config, self.store, self.space, self.steps
        n = config.clock.steps_per_year
        prev_alive, prev_houses = store.alive_count, space.house_count
        log = run_step(store, space, self.hazards, config.t0 + k // n, self.rng,
                       config.event_order)
        interval = [a + b for a, b in zip(self.interval, log.counts())]
        self.steps = k + 1
        if config.audit:
            audit_boundary(store, space, f"step {k}")
            if store.alive_count != prev_alive + len(log.births) - len(log.deaths):
                raise AuditError(f"step {k}: population not conserved")
            if space.house_count < prev_houses:
                raise AuditError(f"step {k}: house count decreased")
        if (k + 1) % config.stats_every == 0 or k == config.total_steps - 1:
            self.statistics.append(collect_step_statistics(store, space, interval,
                                                           config.t0 + (k + 1) / n))
            interval = _NO_EVENTS
        self.interval = interval
        return log


# Called after step k with the state at its start, its log, the store, the space.
StepHook = Callable[[int, StepSnapshot, StepEventLog, PopulationStore, Space], None]


def run_simulation(config: SimulationConfig, params: ModelParameters,
                   tables: DataTables, step_hook: Optional[StepHook] = None) -> Simulation:
    """Initialize and advance the model from t0 to t_final. Each step's log
    goes to step_hook, with a copy of the state at the step's start; the
    same seed writes the same bytes with or without a hook."""
    sim = Simulation(config, params, tables)
    for k in range(config.total_steps):
        snapshot = StepSnapshot.capture(sim.store) if step_hook is not None else None
        log = sim.step()
        if step_hook is not None:
            step_hook(k, snapshot, log, sim.store, sim.space)
    return sim


def audit_boundary(store: PopulationStore, space: Space, where: str) -> None:
    """The audit of one boundary: the structural invariants, the cached
    alive tallies, the events' cached candidate counts, the birth order and
    the kin counts. Raises AuditError, prefixed with ``where`` (the step),
    on any violation."""
    problems = collect_invariant_violations(store, space)
    if problems:
        raise AuditError(f"{where}: {len(problems)} invariant violations, "
                         f"first: {problems[0]}")
    bad = [f"cached statistic {name}: {getattr(store, name)} != sweep {value}"
           for name, value in store.alive_tallies().items() if getattr(store, name) != value]
    bad += (candidate_count_problems(store) + store.birth_order_problems()
            + store.kin_count_problems())
    if bad:
        raise AuditError(f"{where}: " + "; ".join(bad))


# -- persistence -------------------------------------------------------------


def statistics_to_csv(stats: list[StepStatistics]) -> str:
    return "\n".join([STATISTICS_HEADER] + [s.to_csv_row() for s in stats]) + "\n"


def write_statistics(stats: list[StepStatistics], path: str | Path) -> None:
    Path(path).write_text(statistics_to_csv(stats))


def _opt(v: int) -> str:
    return "-" if v < 0 else str(v)


def _children_cells(index: tuple[np.ndarray, np.ndarray], lo: int, hi: int) -> list[str]:
    """The children column of persons lo..hi-1 from the store's
    children_index(): ids ascending, comma-joined, or '-'."""
    offsets, kids = index
    offsets = offsets[lo:hi + 1].tolist()
    base = offsets[0]
    kids = [str(c) for c in kids[base:offsets[-1]].tolist()]
    return [",".join(kids[a - base:b - base]) or "-" for a, b in zip(offsets, offsets[1:])]


def export_population(store: PopulationStore, space: Space, path: str | Path) -> None:
    """One line per person, documented field order; dead persons carry
    'grave' in the house column. Re-importable for auditing. Written in
    blocks of _EXPORT_BLOCK persons, so the memory it takes beyond the
    store is bounded."""
    n = store.size
    index = store.children_index()
    with open(path, "w") as out:
        out.write(f"{EXPORT_HEADER}\n# steps_per_year={store.steps_per_year}\n"
                  f"# fields: {EXPORT_FIELDS}\n")
        for lo in range(0, n, _EXPORT_BLOCK):
            hi = min(lo + _EXPORT_BLOCK, n)
            columns = [getattr(store, name)[lo:hi].tolist() for name in (
                "male_arr", "age_steps_arr", "alive_arr", "status_arr", "partner_arr",
                "father_arr", "mother_arr", "house_arr")]
            # The unhoused (-1) read the last array row; their town is not written.
            columns += [space.town_cell[store.house_arr[lo:hi]].tolist(),
                        _children_cells(index, lo, hi)]
            lines = []
            for pid, (male, age, alive, status, partner, father, mother, house,
                      cell, children) in enumerate(zip(*columns), start=lo):
                if house >= 0:
                    where = [str(house), _TOWN_FIELDS[cell]]
                else:
                    where = ["-" if alive else "grave", "-", "-"]
                lines.append(" ".join([
                    str(pid), "male" if male else "female", str(age), "1" if alive else "0",
                    STATUSES[status].value, _opt(partner), _opt(father), _opt(mother),
                    children, *where,
                ]))
            out.write("\n".join(lines) + "\n")


def _line_blocks(file: TextIO) -> Iterator[tuple[int, list[str]]]:
    """The file's lines in blocks of up to _EXPORT_BLOCK, each with the
    number of its first line; lines split as str.splitlines splits the
    whole text."""
    lines = chain.from_iterable(map(str.splitlines, file))
    first = 1
    while block := list(islice(lines, _EXPORT_BLOCK)):
        yield first, block
        first += len(block)


_NO_HOUSE = ("-", "grave")


def _ids(cells: tuple[str, ...], none: tuple[str, ...]) -> np.ndarray:
    """The ids in cells, -1 for a cell in ``none``. Raises ValueError on a
    cell that is not an integer, or a negative one: each cell in ``none``
    is -1, so any other negative shows in the count of negatives; and
    OverflowError on an integer beyond int64."""
    ids = np.array([-1 if cell in none else int(cell) for cell in cells], dtype=np.int64)
    if np.count_nonzero(ids < 0) != sum(map(cells.count, none)):
        raise ValueError("a negative id")
    return ids


def _conversion_error(block: list[str], start: int) -> ValueError | None:
    """The first field of a block that _fill_rows cannot convert, named
    with its line; sought only after a conversion failed. As there, a
    town is converted only where the house is an id."""
    names = EXPORT_FIELDS.split()
    # By index in a line: what a field holds, and a conversion that fails
    # where _fill_rows's does, an integer beyond int64 included.
    integer = ("an integer", lambda cell: np.int64(int(cell)))
    ref = ("a non-negative integer or -", lambda cell: _ids((cell,), ("-",)))
    fields = {1: ("male or female", Gender), 2: integer,
              4: ("single, married, divorced or widowed", MaritalStatus), 5: ref, 6: ref, 7: ref,
              9: ("a non-negative integer, - or grave", lambda cell: _ids((cell,), _NO_HOUSE)),
              10: integer, 11: integer}
    for lineno, ln in enumerate(block, start=start):
        if ln.startswith("#") or not ln.strip():
            continue
        cells = ln.split(" ")
        for i, (expected, convert) in fields.items():
            try:
                if i < 10 or cells[9] not in _NO_HOUSE:
                    convert(cells[i])
            except (ValueError, OverflowError):
                return ValueError(f"line {lineno}: {names[i]} {cells[i]!r}, expected {expected}")
    return None


def _fill_rows(store: PopulationStore, rows: list[list[str]]) -> tuple[np.ndarray, np.ndarray]:
    """Append one block of checked rows to the store; returns the ids of
    the housed persons among them and their (town x, town y)."""
    lo = store.add_rows(len(rows))
    hi = store.size
    (_, genders, ages, alive, statuses, partners, fathers, mothers, _,
     houses, towns_x, towns_y) = zip(*rows)
    # Enum lookups reject unknown genders and statuses, once per distinct value.
    male = {g: Gender(g) is Gender.MALE for g in set(genders)}
    code = {s: STATUS_CODE[MaritalStatus(s)] for s in set(statuses)}
    store.male_arr[lo:hi] = [male[g] for g in genders]
    store.age_steps_arr[lo:hi] = [int(a) for a in ages]
    store.alive_arr[lo:hi] = [a == "1" for a in alive]
    store.status_arr[lo:hi] = [code[s] for s in statuses]
    for array, refs in ((store.partner_arr, partners), (store.father_arr, fathers),
                        (store.mother_arr, mothers)):
        array[lo:hi] = _ids(refs, ("-",))
    house = store.house_arr[lo:hi] = _ids(houses, _NO_HOUSE)
    housed = np.flatnonzero(house >= 0)
    ids = housed.tolist()
    towns = np.array([[int(towns_x[i]) for i in ids], [int(towns_y[i]) for i in ids]],
                     dtype=np.int64).T
    return housed + lo, towns


def import_population(path: str | Path) -> tuple[PopulationStore, Space]:
    """Rebuild a store (and a minimal space carrying the exported houses)
    from an export file, for invariant auditing and round-trip checks.

    House ids are kept. The export records the town of occupied houses
    only, so a house id that no one lives in is restored as a vacant house
    whose town_cell is UNPLACED_CELL.

    Raises ValueError, naming the line or the person, on a malformed line,
    a field that does not convert, ids out of sequence, an alive cell
    other than 0 or 1, a children column that disagrees with the father
    and mother columns, or two residents of one house in different towns.

    The file is read in blocks of _EXPORT_BLOCK lines, each checked and
    converted into the store before the next is read; the children column
    is checked in a second pass. In a file with several faults, a fault in
    an earlier block may be reported before one that a whole-file check of
    the same kind would have found first.
    """
    n_fields = len(EXPORT_FIELDS.split())
    with open(path) as file:
        blocks = _line_blocks(file)
        start, block = next(blocks, (1, []))
        if not block or block[0] != EXPORT_HEADER:
            raise ValueError("not a population export file")
        steps_per_year = None
        for ln in block[:3]:
            if ln.startswith("# steps_per_year="):
                steps_per_year = int(ln.split("=", 1)[1])
        if steps_per_year is None:
            raise ValueError("export file missing steps_per_year header")
        store = PopulationStore(steps_per_year)
        # The ids and towns of housed persons: all that outlives a block.
        housed_blocks = [np.zeros(0, dtype=np.int64)]
        town_blocks = [np.zeros((0, 2), dtype=np.int64)]
        for start, block in chain([(start, block)], blocks):
            lo, rows = store.size, []
            for lineno, ln in enumerate(block, start=start):
                if ln.startswith("#") or not ln.strip():
                    continue
                cells = ln.split(" ")
                if len(cells) != n_fields:
                    raise ValueError(f"line {lineno}: {len(cells)} fields, expected {n_fields}")
                if cells[0] != str(lo + len(rows)):
                    raise ValueError(f"line {lineno}: person id {cells[0]}, "
                                     f"expected {lo + len(rows)}")
                if cells[3] not in ("0", "1"):
                    raise ValueError(f"line {lineno}: alive {cells[3]!r}, expected 0 or 1")
                rows.append(cells)
            if rows:
                try:
                    housed, towns = _fill_rows(store, rows)
                except (ValueError, OverflowError) as error:
                    raise _conversion_error(block, start) or error from None
                housed_blocks.append(housed)
                town_blocks.append(towns)

    n = store.size
    house = store.house_arr[:n]
    housed, towns = np.concatenate(housed_blocks), np.concatenate(town_blocks)
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
    space = Space()
    # Exported coordinates are town-level only.
    space.add_houses(house_cells, np.ones((len(house_cells), 2), dtype=np.int64))
    space.add_residents(house[housed], housed)
    store.recount()

    # Exports list children in ascending order; sort only a cell that differs.
    index = store.children_index()
    with open(path) as file:
        lo = 0
        for _, block in _line_blocks(file):
            given = [ln.split(" ", 9)[8] for ln in block
                     if not ln.startswith("#") and ln.strip()]
            hi = lo + len(given)
            for pid, (cell, derived) in enumerate(zip(given, _children_cells(index, lo, hi)),
                                                  start=lo):
                if cell != derived and sorted(cell.split(",")) != sorted(derived.split(",")):
                    raise ValueError(f"person {pid}: children column {cell} disagrees with "
                                     f"the father/mother columns ({derived})")
            lo = hi
    return store, space
