"""Town grid, population-density weights, and the dynamic house set.

Towns live on a fixed 12x8 grid (row 1 is northernmost, column 1
westernmost). A built-in density grid marks 48 of the 96 cells as
inhabited; density weights drive both initial placement and the weighted
town draw used when a house is needed in an arbitrary town. Houses are
created on demand and never removed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from .stochastics import Rng, weighted_sample

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


def load_density_map(path: str | Path) -> np.ndarray:
    """Read a density override file: 12 lines of 8 whitespace-separated decimals."""
    lines = [ln for ln in Path(path).read_text().splitlines() if ln.strip()]
    if len(lines) != GRID_ROWS:
        raise ValueError(f"density map must have {GRID_ROWS} rows, got {len(lines)}")
    rows = []
    for i, ln in enumerate(lines, start=1):
        vals = [float(tok) for tok in ln.split()]
        if len(vals) != GRID_COLS:
            raise ValueError(f"density map row {i} must have {GRID_COLS} values, got {len(vals)}")
        rows.append(vals)
    grid = np.asarray(rows, dtype=float)
    if np.any(grid < 0.0) or np.any(grid > 1.0):
        raise ValueError("density values must lie in [0, 1]")
    if not np.any(grid > 0.0):
        raise ValueError("density map has no inhabitable towns")
    return grid


def manhattan_distance(a: TownKey, b: TownKey) -> int:
    return abs(a[0] - b[0]) + abs(a[1] - b[1])


@dataclass
class Town:
    grid_x: int
    grid_y: int
    density: float
    house_ids: list[HouseId] = field(default_factory=list)

    @property
    def key(self) -> TownKey:
        return (self.grid_x, self.grid_y)

    @property
    def inhabitable(self) -> bool:
        return self.density > 0.0


@dataclass
class House:
    id: HouseId
    town: TownKey
    local_x: int
    local_y: int
    occupants: set[int] = field(default_factory=set)


class Space:
    """The full 12x8 grid of towns plus the growing house registry."""

    def __init__(self, density: np.ndarray | None = None,
                 town_grid_cells: int = DEFAULT_TOWN_GRID_CELLS):
        grid = np.asarray(DEFAULT_DENSITY if density is None else density, dtype=float)
        if grid.shape != (GRID_ROWS, GRID_COLS):
            raise ValueError(f"density grid must be {GRID_ROWS}x{GRID_COLS}")
        if town_grid_cells < 1:
            raise ValueError("town_grid_cells must be >= 1")
        self.density = grid
        self.town_grid_cells = town_grid_cells
        self.towns: dict[TownKey, Town] = {}
        for x in range(1, GRID_ROWS + 1):
            for y in range(1, GRID_COLS + 1):
                self.towns[(x, y)] = Town(x, y, float(grid[x - 1, y - 1]))
        # Grid order, so weighted draws and quota rounding are deterministic.
        self.inhabitable_towns: list[TownKey] = [k for k, t in self.towns.items() if t.inhabitable]
        self._town_weights = np.array([self.towns[k].density for k in self.inhabitable_towns])
        self.houses: dict[HouseId, House] = {}
        self._next_house_id = 0
        self._occupied_houses = 0

    # -- towns ---------------------------------------------------------

    @property
    def density_total(self) -> float:
        return float(self._town_weights.sum())

    def sample_town_weighted(self, rng: Rng) -> TownKey:
        """Draw an inhabitable town with probability proportional to density."""
        return weighted_sample(rng, self.inhabitable_towns, self._town_weights)

    # -- houses --------------------------------------------------------

    def new_house(self, town: TownKey, rng: Rng) -> HouseId:
        """Create an empty house at uniform coordinates inside the town."""
        t = self.towns[town]
        if not t.inhabitable:
            raise ValueError(f"town {town} is not inhabitable")
        hid = self._next_house_id
        self._next_house_id += 1
        lx = int(rng.integers(1, self.town_grid_cells + 1))
        ly = int(rng.integers(1, self.town_grid_cells + 1))
        self.houses[hid] = House(hid, town, lx, ly)
        t.house_ids.append(hid)
        return hid

    def find_or_create_empty_house(self, town: TownKey, rng: Rng) -> HouseId:
        """A zero-occupant house in this town: uniform pick among existing
        empties, or a freshly created one when none exists."""
        t = self.towns[town]
        empties = [hid for hid in t.house_ids if not self.houses[hid].occupants]
        if empties:
            return empties[int(rng.integers(len(empties)))]
        return self.new_house(town, rng)

    def house_town(self, house_id: HouseId) -> TownKey:
        return self.houses[house_id].town

    @property
    def house_count(self) -> int:
        return len(self.houses)

    @property
    def occupied_house_count(self) -> int:
        return self._occupied_houses

    # -- occupancy -----------------------------------------------------

    def add_occupant(self, house_id: HouseId, person_id: int) -> None:
        occ = self.houses[house_id].occupants
        if not occ:
            self._occupied_houses += 1
        occ.add(person_id)

    def remove_occupant(self, house_id: HouseId, person_id: int) -> None:
        occ = self.houses[house_id].occupants
        occ.discard(person_id)
        if not occ:
            self._occupied_houses -= 1

    def move_person(self, store: "PopulationStore", person_id: int, house_id: HouseId) -> None:
        """Relocate an alive person; moving to the current house is a no-op."""
        if not store.alive_arr[person_id]:
            raise ValueError(f"cannot move dead person {person_id}")
        old = int(store.house_arr[person_id])
        if old == house_id:
            return
        if old >= 0:
            self.remove_occupant(old, person_id)
        self.add_occupant(house_id, person_id)
        store.house_arr[person_id] = house_id
        store.town_x_arr[person_id], store.town_y_arr[person_id] = self.houses[house_id].town
