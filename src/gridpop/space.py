"""Town grid, population-density weights, and the dynamic house set.

Towns live on a fixed 12x8 grid (row 1 is northernmost, column 1
westernmost). A built-in density grid marks 48 of the 96 cells as
inhabited; the density weights set each town's share of the initial
population. Towns are cells of the density grid, not objects: users name
a town (x, y), the code records it as its cell numbered row by row from 0
(``cell_of``, ``town_at``), the index into ``cell_distances()``.

Houses are created on demand and never removed. A house is an id into one
NumPy array per attribute (``town_cell``, ``local_x``, ``local_y``);
``town_cell`` is the only record of its town (``UNPLACED_CELL`` for a
house an import restores without one). ``residents[h]``, the set of
persons living in house h, is the inverse of the store's ``house_arr``.

``vacant_by_cell`` maps a cell code to its empty houses in ascending id
order, so ``find_or_create_empty_house`` draws among them without a scan.
It is current from the constructor on: ``add_houses`` appends each new
house to its cell's list, and the bulk ``add_residents`` rebuilds it in
one pass over the houses. The occupied-house count is read from it:
every house not listed as vacant.

Beyond those bulk builds, ``move_person`` is the one call that changes a
person's house (``house_arr``, ``residents`` and ``vacant_by_cell``): into
a house at birth, between houses, and to the grave (-1) at death.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .stochastics import Rng

if TYPE_CHECKING:
    from .population import PopulationStore

GRID_ROWS = 12
GRID_COLS = 8

# Ad-hoc UK-like density grid: rows run north->south, columns west->east.
DEFAULT_DENSITY = (
    (0.0, 0.1, 0.2, 0.1, 0.0, 0.0, 0.0, 0.0),
    (0.1, 0.1, 0.2, 0.2, 0.3, 0.0, 0.0, 0.0),
    (0.0, 0.2, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0),
    (0.0, 0.2, 1.0, 0.5, 0.0, 0.0, 0.0, 0.0),
    (0.4, 0.0, 0.2, 0.2, 0.4, 0.0, 0.0, 0.0),
    (0.6, 0.0, 0.0, 0.3, 0.8, 0.2, 0.0, 0.0),
    (0.0, 0.0, 0.0, 0.6, 0.8, 0.4, 0.0, 0.0),
    (0.0, 0.0, 0.2, 1.0, 0.8, 0.6, 0.1, 0.0),
    (0.0, 0.0, 0.1, 0.2, 1.0, 0.6, 0.3, 0.4),
    (0.0, 0.0, 0.5, 0.7, 0.5, 1.0, 1.0, 0.0),
    (0.0, 0.0, 0.2, 0.4, 0.6, 1.0, 1.0, 0.0),
    (0.0, 0.2, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0),
)

TownKey = tuple[int, int]  # (grid_x 1..12, grid_y 1..8)
HouseId = int

DEFAULT_TOWN_GRID_CELLS = 25  # side length of the town-internal house grid

# The town_cell of an imported house that no one lived in: no grid cell.
UNPLACED_CELL = -1


def cell_of(town):
    """The cell code of a grid town (x, y), or of a pair of x and y arrays."""
    x, y = town
    return (x - 1) * GRID_COLS + y - 1


def town_at(cell: int) -> TownKey:
    """The grid town (x, y) of a cell code."""
    x, y = divmod(int(cell), GRID_COLS)
    return x + 1, y + 1


def load_density_map(path: str | Path) -> np.ndarray:
    """Read a density override file: 12 lines of 8 whitespace-separated
    decimals in [0, 1]; blank lines are skipped."""
    numbered = [(lineno, ln) for lineno, ln in
                enumerate(Path(path).read_text().splitlines(), start=1) if ln.strip()]
    if len(numbered) != GRID_ROWS:
        raise ValueError(f"{path}: density map must have {GRID_ROWS} rows, got {len(numbered)}")
    rows = []
    for lineno, ln in numbered:
        try:
            vals = [float(tok) for tok in ln.split()]
        except ValueError as err:
            raise ValueError(f"{path}, line {lineno}: {err}") from None
        if len(vals) != GRID_COLS:
            raise ValueError(f"{path}, line {lineno}: density map row must have "
                             f"{GRID_COLS} values, got {len(vals)}")
        rows.append(vals)
    return _check_density(np.asarray(rows, dtype=float))


def _check_density(grid: np.ndarray) -> np.ndarray:
    if not np.all((grid >= 0.0) & (grid <= 1.0)):
        raise ValueError("density values must lie in [0, 1]")
    return grid


def cell_distances() -> np.ndarray:
    """Manhattan distance between every pair of grid cells, indexed by
    ``town_cell`` codes: a (96, 96) integer matrix."""
    x, y = np.divmod(np.arange(GRID_ROWS * GRID_COLS), GRID_COLS)
    return np.abs(x[:, None] - x) + np.abs(y[:, None] - y)


# Every per-house array, indexed by house id.
_HOUSE_ARRAYS = ("town_cell", "local_x", "local_y")

_INITIAL_HOUSES = 1024


class Space:
    """The full 12x8 grid of towns plus the growing house registry."""

    def __init__(self, density: np.ndarray | None = None,
                 town_grid_cells: int = DEFAULT_TOWN_GRID_CELLS):
        grid = np.asarray(DEFAULT_DENSITY if density is None else density, dtype=float)
        if grid.shape != (GRID_ROWS, GRID_COLS):
            raise ValueError(f"density grid must be {GRID_ROWS}x{GRID_COLS}")
        _check_density(grid)
        if not np.any(grid > 0.0):
            raise ValueError("density grid has no inhabitable towns")
        if town_grid_cells < 1:
            raise ValueError("town_grid_cells must be >= 1")
        self.density = grid
        self.town_grid_cells = town_grid_cells
        # Grid order, so weighted draws and quota rounding are deterministic.
        rows, cols = np.nonzero(grid > 0.0)
        self.inhabitable_towns: list[TownKey] = [(x + 1, y + 1) for x, y in
                                                 zip(rows.tolist(), cols.tolist())]
        self.town_weights = grid[rows, cols]
        for name in _HOUSE_ARRAYS:
            setattr(self, name, np.zeros(_INITIAL_HOUSES, dtype=np.int64))
        self.residents: list[set[int]] = []
        # Cell code -> vacant house ids, ascending.
        self.vacant_by_cell: dict[int, list[HouseId]] = {}

    # -- houses --------------------------------------------------------

    def add_houses(self, cells: np.ndarray, local: np.ndarray) -> HouseId:
        """Register empty houses, one per cell code and (h, 2) row of local
        coordinates, with ids in sequence; returns the first. The house
        arrays grow by doubling."""
        first = len(self.residents)
        end = first + len(cells)
        cap = new_cap = len(self.town_cell)
        if end > cap:
            while new_cap < end:
                new_cap *= 2
            for name in _HOUSE_ARRAYS:
                grown = np.zeros(new_cap, dtype=np.int64)
                grown[:cap] = getattr(self, name)
                setattr(self, name, grown)
        self.town_cell[first:end] = cells
        self.local_x[first:end], self.local_y[first:end] = local.T
        self.residents.extend(set() for _ in range(len(cells)))
        # New ids exceed every listed one, so appending keeps the order.
        for house_id, cell in enumerate(self.town_cell[first:end].tolist(), start=first):
            self.vacant_by_cell.setdefault(cell, []).append(house_id)
        return first

    def new_houses(self, cells, rng: Rng) -> HouseId:
        """Create empty houses in the towns of one or more cell codes, each at
        uniform coordinates in its town (x then y, house by house); returns
        the first id. Raises ValueError, drawing nothing, on a code off the
        grid or of an uninhabitable town."""
        cells = np.asarray(cells, dtype=np.int64).reshape(-1)
        off_grid = (cells < 0) | (cells >= GRID_ROWS * GRID_COLS)
        if off_grid.any():
            raise ValueError(f"cell {int(cells[np.argmax(off_grid)])} lies off the "
                             f"{GRID_ROWS}x{GRID_COLS} grid")
        empty = self.density.ravel()[cells] == 0.0
        if empty.any():
            raise ValueError(f"town {town_at(cells[np.argmax(empty)])} is not inhabitable")
        local = rng.integers(1, self.town_grid_cells + 1, size=(len(cells), 2))
        return self.add_houses(cells, local)

    def find_or_create_empty_house(self, cell: int, rng: Rng) -> HouseId:
        """A zero-occupant house in this cell's town: uniform pick among
        existing empties in id order, or a freshly created one when none
        exists."""
        empties = self.vacant_by_cell.get(cell)
        if empties:
            return empties[int(rng.integers(len(empties)))]
        return self.new_houses(cell, rng)

    def house_town(self, house_id: HouseId) -> TownKey | None:
        """The grid town (x, y) of the house; None for an unplaced house."""
        self.require_house(house_id)
        cell = int(self.town_cell[house_id])
        return None if cell == UNPLACED_CELL else town_at(cell)

    def require_house(self, house_id: HouseId) -> None:
        if not 0 <= house_id < self.house_count:
            raise ValueError(f"house {house_id} does not exist")

    @property
    def house_count(self) -> int:
        return len(self.residents)

    @property
    def occupied_house_count(self) -> int:
        return self.house_count - sum(map(len, self.vacant_by_cell.values()))

    # -- occupancy -----------------------------------------------------

    def add_residents(self, house_ids: np.ndarray, person_ids: np.ndarray) -> None:
        """Register each person as an occupant of the house at the same
        position, then rebuild the vacancy index; callers write the
        store's house_arr themselves."""
        bad = (house_ids < 0) | (house_ids >= self.house_count)
        if bad.any():
            raise ValueError(f"house {int(house_ids[np.argmax(bad)])} does not exist")
        for house_id, person_id in zip(house_ids.tolist(), person_ids.tolist()):
            self.residents[house_id].add(person_id)
        sizes = np.fromiter(map(len, self.residents), dtype=np.int64, count=self.house_count)
        vacant = np.flatnonzero(sizes == 0)
        self.vacant_by_cell = {}
        for house_id, cell in zip(vacant.tolist(), self.town_cell[vacant].tolist()):
            self.vacant_by_cell.setdefault(cell, []).append(house_id)

    def move_person(self, store: "PopulationStore", person_id: int, house_id: HouseId) -> None:
        """Move a person from their house (or none, -1) to house_id: a
        living person into an existing house, a dead one to the grave (-1).
        Raises ValueError, changing nothing, on anything else; moving to
        the current house is a no-op."""
        if store.alive_arr[person_id]:
            self.require_house(house_id)
        elif house_id != -1:
            raise ValueError(f"cannot move dead person {person_id}")
        old = int(store.house_arr[person_id])
        if old == house_id:
            return
        if old >= 0:
            residents = self.residents[old]
            residents.remove(person_id)
            if not residents:
                insort(self.vacant_by_cell.setdefault(int(self.town_cell[old]), []), old)
        if house_id >= 0:
            residents = self.residents[house_id]
            if not residents:
                empties = self.vacant_by_cell[int(self.town_cell[house_id])]
                del empties[bisect_left(empties, house_id)]
            residents.add(person_id)
        store.house_arr[person_id] = house_id
