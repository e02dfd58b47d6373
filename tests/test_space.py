"""Town grid, density weights, distances, house allocation."""

import math
from collections import defaultdict

import numpy as np
import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule

from conftest import housed
from gridpop.initialization import init_town_populations
from gridpop.population import (
    MARRIED_CODE,
    Gender,
    MaritalStatus,
    PopulationStore,
    collect_invariant_violations,
)
from gridpop.space import (
    DEFAULT_DENSITY,
    DEFAULT_TOWN_GRID_CELLS,
    GRID_COLS,
    GRID_ROWS,
    UNPLACED_CELL,
    Space,
    cell_distances,
    cell_of,
    load_density_map,
    town_at,
)
from gridpop.stochastics import make_rng


class TestDensityGrid:
    def test_dimensions_and_inhabitable_count(self, space):
        assert space.density.size == GRID_ROWS * GRID_COLS == 96
        assert len(space.inhabitable_towns) == 48

    def test_total_by_independent_summation(self, space):
        total = sum(v for row in DEFAULT_DENSITY for v in row)
        assert space.town_weights.sum() == pytest.approx(total)
        assert total == pytest.approx(21.3)

    def test_values_in_unit_interval(self):
        assert all(0.0 <= v <= 1.0 for row in DEFAULT_DENSITY for v in row)

    def test_override_file_round_trip(self, tmp_path):
        path = tmp_path / "density.txt"
        path.write_text("\n".join(" ".join(str(v) for v in row) for row in DEFAULT_DENSITY))
        grid = load_density_map(path)
        assert np.array_equal(grid, np.asarray(DEFAULT_DENSITY))

    def test_override_file_errors(self, tmp_path):
        bad = tmp_path / "bad.txt"
        bad.write_text("0.1 0.2\n")
        with pytest.raises(ValueError):
            load_density_map(bad)
        bad.write_text("\n".join(" ".join("2.0" for _ in range(8)) for _ in range(12)))
        with pytest.raises(ValueError):
            load_density_map(bad)

    def test_non_numeric_value_names_the_line(self, tmp_path):
        path = tmp_path / "density.txt"
        rows = [" ".join(str(v) for v in row) for row in DEFAULT_DENSITY]
        rows[11] = "0.0 0.2 x 0.0 0.0 0.0 0.0 0.0"
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(ValueError, match=r"density\.txt, line 12: .*'x'"):
            load_density_map(path)

    @pytest.mark.parametrize("value", [-0.5, 3.0])
    def test_constructor_rejects_values_outside_unit_interval(self, value):
        grid = np.asarray(DEFAULT_DENSITY)
        grid[0, 0] = value
        with pytest.raises(ValueError, match=r"must lie in \[0, 1\]"):
            Space(density=grid)


def town_distances(sp, house, houses):
    """Distances from the town of ``house`` to the towns of ``houses`` as
    marriages_step reads them: cell_distances() by Space.town_cell."""
    return cell_distances()[sp.town_cell[house], sp.town_cell[houses]]


class TestManhattanDistance:
    """cell_distances through Space.town_cell, the distance of the marriage
    geo factor."""

    def test_same_town(self, rng):
        sp = Space()
        houses = np.array([sp.new_houses(cell_of((5, 5)), rng) for _ in range(3)])
        assert town_distances(sp, houses[0], houses).tolist() == [0, 0, 0]

    def test_corners(self, rng):
        sp = Space(density=np.ones((GRID_ROWS, GRID_COLS)))
        a, b = sp.new_houses(cell_of((1, 1)), rng), sp.new_houses(cell_of((12, 8)), rng)
        assert town_distances(sp, a, np.array([b])).tolist() == [11 + 7] == [18]

    def test_symmetric_over_all_inhabitable_pairs(self, space, rng):
        towns = space.inhabitable_towns
        first = space.new_houses([cell_of(t) for t in towns], rng)
        houses = np.arange(first, first + len(towns))
        for h, (x, y) in zip(houses.tolist(), towns):
            got = town_distances(space, h, houses).tolist()
            assert got == [abs(x - tx) + abs(y - ty) for tx, ty in towns]
            assert min(got) == 0


class TestSampleTownWeighted:
    """The density weights and init_town_populations, which places the
    initial population in proportion to them."""

    def test_single_nonzero_cell(self):
        grid = np.zeros((12, 8))
        grid[3, 2] = 0.7
        sp = Space(density=grid)
        assert sp.inhabitable_towns == [(4, 3)]
        assert sp.town_weights.tolist() == [0.7]
        assert init_town_populations(200, sp) == {(4, 3): 200}

    def test_default_map_frequency(self, space):
        # Town (4,3) has density 1.0; its share is 1.0 / sum(all cells),
        # up to one person of rounding.
        n = 1_000_000
        total = sum(v for row in DEFAULT_DENSITY for v in row)
        assert abs(init_town_populations(n, space)[(4, 3)] - n / total) <= 1

    def test_zero_density_never_drawn(self, space):
        zero_cells = {(x + 1, y + 1) for x, y in np.argwhere(space.density == 0.0).tolist()}
        assert (1, 1) in zero_cells
        assert not zero_cells & set(space.inhabitable_towns)
        assert not zero_cells & set(init_town_populations(100_000, space))

    def test_all_zero_map_rejected(self):
        with pytest.raises(ValueError, match="no inhabitable towns"):
            Space(density=np.zeros((12, 8)))


TOWN = cell_of((4, 3))


class TestCellCodes:
    def test_row_by_row_from_zero(self):
        assert cell_of((1, 1)) == 0
        assert cell_of((4, 3)) == 26
        assert cell_of((12, 8)) == GRID_ROWS * GRID_COLS - 1
        assert [town_at(c) for c in range(GRID_ROWS * GRID_COLS)] == [
            (x, y) for x in range(1, GRID_ROWS + 1) for y in range(1, GRID_COLS + 1)]


class TestHouses:
    def test_reuses_existing_empty(self, rng):
        sp = Space()
        empties = [sp.new_houses(TOWN, rng) for _ in range(3)]
        for _ in range(50):
            assert sp.find_or_create_empty_house(TOWN, rng) in empties
        assert sp.house_count == 3

    def test_uniform_among_empties(self):
        sp = Space()
        rng = make_rng(17)
        empties = [sp.new_houses(TOWN, rng) for _ in range(3)]
        counts = {h: 0 for h in empties}
        n = 30_000
        for _ in range(n):
            counts[sp.find_or_create_empty_house(TOWN, rng)] += 1
        for h in empties:
            assert abs(counts[h] / n - 1 / 3) < 3 * math.sqrt((1 / 3) * (2 / 3) / n)

    def test_creates_when_none_empty(self, rng):
        sp = Space()
        store = PopulationStore(12)
        hid = sp.new_houses(TOWN, rng)
        housed(store, sp, Gender.MALE, 30, house=hid, rng=rng)
        before = sp.house_count
        new = sp.find_or_create_empty_house(TOWN, rng)
        assert new != hid
        assert sp.house_count == before + 1

    def test_house_in_requested_town(self, rng):
        sp = Space()
        for _ in range(300):
            town = sp.inhabitable_towns[int(rng.integers(len(sp.inhabitable_towns)))]
            hid = sp.find_or_create_empty_house(cell_of(town), rng)
            assert sp.house_town(hid) == town
            assert 1 <= sp.local_x[hid] <= sp.town_grid_cells
            assert 1 <= sp.local_y[hid] <= sp.town_grid_cells

    def test_uninhabitable_town_rejected(self, rng):
        sp = Space()
        with pytest.raises(ValueError):
            sp.new_houses(cell_of((1, 1)), rng)

    def test_house_is_vacant_again_when_its_occupant_dies(self, rng):
        sp, store = Space(), PopulationStore(12)
        house = sp.new_houses(TOWN, rng)
        pid = store.spawn_person(Gender.MALE, 30 * 12, house=house, space=sp)
        assert sp.vacant_by_cell == {TOWN: []}
        store.kill(pid, sp)
        assert sp.find_or_create_empty_house(TOWN, rng) == house
        assert sp.occupied_house_count == 0
        assert sp.residents == [set()]
        assert sp.vacant_by_cell == {TOWN: [house]}

    def test_vacancy_index_current_from_construction(self, rng):
        sp, store = Space(), PopulationStore(12)
        assert sp.vacant_by_cell == {}
        other = cell_of((8, 4))
        first = sp.new_houses([TOWN, other, TOWN], rng)
        assert sp.vacant_by_cell == {TOWN: [first, first + 2], other: [first + 1]}
        store.spawn_person(Gender.MALE, 30 * 12, house=first, space=sp)
        assert sp.vacant_by_cell == {TOWN: [first + 2], other: [first + 1]}
        assert sp.find_or_create_empty_house(TOWN, rng) == first + 2

    def test_bulk_residents_rebuild_the_index_and_count(self, rng):
        sp, store = Space(), PopulationStore(12)
        other = cell_of((8, 4))
        first = sp.new_houses([TOWN, other, TOWN, other], rng)
        store.spawn_person(Gender.MALE, 30 * 12, house=first + 1, space=sp)
        pids = np.array([store.spawn_person(Gender.FEMALE, 30 * 12) for _ in range(3)])
        houses = np.array([first + 2, first + 2, first + 3])
        store.house_arr[pids] = houses
        sp.add_residents(houses, pids)
        assert sp.residents == [set(), {0}, {1, 2}, {3}]
        assert sp.occupied_house_count == 3
        assert sp.vacant_by_cell == {TOWN: [first]}
        # Emptied houses return to their cell's list in id order, whether
        # the last occupant dies or moves out.
        store.kill(3, sp)
        assert sp.vacant_by_cell == {TOWN: [first], other: [first + 3]}
        sp.move_person(store, 0, first)
        assert sp.vacant_by_cell == {TOWN: [], other: [first + 1, first + 3]}
        store.kill(1, sp)
        store.kill(2, sp)
        store.kill(0, sp)
        assert sp.vacant_by_cell == {TOWN: [first, first + 2], other: [first + 1, first + 3]}
        assert sp.occupied_house_count == 0
        assert collect_invariant_violations(store, sp) == []

    def test_bulk_residents_reject_unknown_house(self, rng):
        sp = Space()
        sp.new_houses(TOWN, rng)
        with pytest.raises(ValueError, match="house 1 does not exist"):
            sp.add_residents(np.array([0, 1]), np.array([0, 1]))
        assert sp.residents == [set()] and sp.occupied_house_count == 0

    def test_unplaced_house_has_no_town(self):
        sp = Space()
        sp.add_houses(np.array([UNPLACED_CELL, TOWN]), np.ones((2, 2), dtype=np.int64))
        assert sp.house_town(0) is None
        assert sp.house_town(1) == (4, 3)
        assert sp.vacant_by_cell == {UNPLACED_CELL: [0], TOWN: [1]}

    def test_house_town_rejects_ids_outside_the_houses(self, rng):
        sp = Space()
        other = cell_of((8, 4))
        sp.new_houses([TOWN, other], rng)
        assert len(sp.town_cell) > sp.house_count == 2  # spare capacity rows
        assert sp.house_town(0) == town_at(TOWN)
        assert sp.house_town(1) == (8, 4)
        for house in (-1, 2):
            with pytest.raises(ValueError, match=f"house {house} does not exist"):
                sp.house_town(house)

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_same_houses_and_draws_as_town_scan(self, seed):
        scan_found, scan_state = _drive(_TownScan(), seed)
        found, state = _drive(_Arrays(), seed)
        assert found == scan_found
        assert state == scan_state
        # Both branches ran: vacant houses were reused and new ones built.
        assert len(set(found)) < len(found)


class _TownScan:
    """Reference for find_or_create_empty_house: each town's houses in
    creation order, one uniform draw among the empty ones, else a new
    house whose two coordinates are drawn."""

    def __init__(self):
        self.town_houses = defaultdict(list)
        self.residents = []
        self.home = []

    def find(self, town, rng):
        empties = [h for h in self.town_houses[town] if not self.residents[h]]
        if empties:
            return empties[int(rng.integers(len(empties)))]
        rng.integers(1, DEFAULT_TOWN_GRID_CELLS + 1)  # local x
        rng.integers(1, DEFAULT_TOWN_GRID_CELLS + 1)  # local y
        self.residents.append(set())
        self.town_houses[town].append(len(self.residents) - 1)
        return len(self.residents) - 1

    def arrive(self, house):
        self.home.append(house)
        self.residents[house].add(len(self.home) - 1)
        return len(self.home) - 1

    def move(self, pid, house):
        self.residents[self.home[pid]].discard(pid)
        self.residents[house].add(pid)
        self.home[pid] = house

    def kill(self, pid):
        self.residents[self.home[pid]].discard(pid)

    def build(self, towns, rng):
        """New houses in the towns, their coordinates drawn as
        Space.new_houses draws them."""
        rng.integers(1, DEFAULT_TOWN_GRID_CELLS + 1, size=(len(towns), 2))
        for town in towns:
            self.town_houses[town].append(len(self.residents))
            self.residents.append(set())


class _Arrays:
    """The same four operations on Space and PopulationStore."""

    def __init__(self):
        self.space, self.store = Space(), PopulationStore(12)
        self.find = self.space.find_or_create_empty_house

    def arrive(self, house):
        return self.store.spawn_person(Gender.MALE, 30 * 12, house=house, space=self.space)

    def move(self, pid, house):
        self.space.move_person(self.store, pid, house)

    def kill(self, pid):
        self.store.kill(pid, self.space)


def _drive(side, seed, ops=600):
    """Scripted arrivals, moves and deaths in three towns. The script has
    its own stream, so both sides see the same operations; returns every
    house found and the final state of the model stream."""
    rng, script = make_rng(seed), make_rng(seed + 1000)
    towns = [cell_of(t) for t in [(4, 3), (8, 4), (10, 6)]]
    alive, found = [], []
    for _ in range(ops):
        op = int(script.integers(4))
        town = towns[int(script.integers(len(towns)))]
        if op >= 2 and alive:
            side.kill(alive.pop(int(script.integers(len(alive)))))
            continue
        house = side.find(town, rng)
        found.append(house)
        if op == 1 and alive:
            side.move(alive[int(script.integers(len(alive)))], house)
        else:
            alive.append(side.arrive(house))
    return found, rng.bit_generator.state


MACHINE_CELLS = [cell_of(t) for t in [(4, 3), (8, 4), (10, 6)]]


class SpaceMachine(RuleBasedStateMachine):
    """Random sequences of the store's and the space's mutators. After each
    step the sweep finds nothing, the cached counters equal a fresh count
    and the vacancy index lists _TownScan's empty houses; every lookup
    returns the house _TownScan returns and leaves the model stream where
    _TownScan leaves its own."""

    def __init__(self):
        super().__init__()
        self.store, self.space, self.ref = PopulationStore(12), Space(), _TownScan()
        self.rng, self.ref_rng = make_rng(5), make_rng(5)

    def pick(self, data, mask):
        ids = np.flatnonzero(mask[:self.store.size]).tolist()
        return data.draw(st.sampled_from(ids)) if ids else None

    def adults(self, male):
        s = self.store
        return (s.alive_arr & (s.male_arr == male) & (s.status_arr != MARRIED_CODE)
                & (s.age_steps_arr >= s.adult_age_steps))

    @rule(town=st.sampled_from(MACHINE_CELLS))
    def find_or_create_empty_house(self, town):
        house = self.space.find_or_create_empty_house(town, self.rng)
        assert house == self.ref.find(town, self.ref_rng)
        assert self.rng.bit_generator.state == self.ref_rng.bit_generator.state

    @rule(towns=st.lists(st.sampled_from(MACHINE_CELLS), min_size=1, max_size=3))
    def new_houses(self, towns):
        assert self.space.new_houses(towns, self.rng) == len(self.ref.residents)
        self.ref.build(towns, self.ref_rng)

    @rule(data=st.data(), male=st.booleans(), years=st.sampled_from([5, 20, 40, 70]),
          with_parents=st.booleans())
    def spawn_person(self, data, male, years, with_parents):
        if self.space.house_count == 0:
            return
        house = data.draw(st.integers(0, self.space.house_count - 1))
        s = self.store
        mother = father = None
        if with_parents:
            mother = self.pick(data, s.alive_arr & ~s.male_arr & (s.status_arr == MARRIED_CODE))
        if mother is not None:
            father = int(s.partner_arr[mother])
        pid = s.spawn_person(Gender.MALE if male else Gender.FEMALE, years * 12,
                             father=father, mother=mother, house=house, space=self.space)
        assert pid == self.ref.arrive(house)

    @rule(data=st.data(), years=st.lists(st.sampled_from([5, 20, 40]), min_size=1,
                                         max_size=4))
    def add_residents(self, data, years):
        """Unhoused persons, registered in bulk as initialization and
        import register theirs."""
        if self.space.house_count == 0:
            return
        houses = np.array(data.draw(st.lists(st.integers(0, self.space.house_count - 1),
                                             min_size=len(years), max_size=len(years))))
        pids = np.array([self.store.spawn_person(Gender.FEMALE, y * 12) for y in years])
        self.store.house_arr[pids] = houses
        self.space.add_residents(houses, pids)
        for pid, house in zip(pids.tolist(), houses.tolist()):
            assert pid == self.ref.arrive(house)

    @rule(data=st.data())
    def wed(self, data):
        groom, bride = self.pick(data, self.adults(True)), self.pick(data, self.adults(False))
        if groom is not None and bride is not None:
            self.store.wed(groom, bride)

    @rule(data=st.data())
    def unwed(self, data):
        s = self.store
        pid = self.pick(data, s.alive_arr & (s.status_arr == MARRIED_CODE))
        if pid is not None:
            s.unwed(pid, MaritalStatus.DIVORCED)

    @rule(data=st.data())
    def kill(self, data):
        pid = self.pick(data, self.store.alive_arr)
        if pid is not None:
            self.store.kill(pid, self.space)
            self.ref.kill(pid)

    @rule(data=st.data())
    def move_person(self, data):
        pid = self.pick(data, self.store.alive_arr)
        if pid is not None:
            house = data.draw(st.integers(0, self.space.house_count - 1))
            self.space.move_person(self.store, pid, house)
            self.ref.move(pid, house)

    @invariant()
    def consistent(self):
        assert collect_invariant_violations(self.store, self.space) == []
        tallies = self.store.alive_tallies()
        assert {name: getattr(self.store, name) for name in tallies} == tallies
        assert self.space.occupied_house_count == sum(1 for r in self.space.residents if r)
        assert self.space.residents == self.ref.residents
        vacancies = {cell: [h for h in houses if not self.ref.residents[h]]
                     for cell, houses in self.ref.town_houses.items()}
        assert ({c: h for c, h in self.space.vacant_by_cell.items() if h}
                == {c: h for c, h in vacancies.items() if h})


SpaceMachine.TestCase.settings = settings(max_examples=60, stateful_step_count=40,
                                          deadline=None)
TestSpaceMachine = SpaceMachine.TestCase


class TestMovePerson:
    def test_occupancy_bijection_preserved(self, store, space, rng):
        pids = [housed(store, space, Gender.MALE, 30, rng=rng) for _ in range(10)]
        for pid in pids[:5]:
            space.move_person(store, pid, space.find_or_create_empty_house(TOWN, rng))
        total = sum(len(r) for r in space.residents)
        assert total == len(pids)

    def test_move_to_same_house_is_noop(self, store, space, rng):
        pid = housed(store, space, Gender.MALE, 30, rng=rng)
        house = store.house_arr[pid]
        space.move_person(store, pid, house)
        assert store.house_arr[pid] == house
        assert space.residents[house] == {pid}

    def test_dead_person_rejected(self, store, space, rng):
        pid = housed(store, space, Gender.MALE, 30, rng=rng)
        store.kill(pid, space)
        with pytest.raises(ValueError):
            space.move_person(store, pid, space.find_or_create_empty_house(TOWN, rng))

    def test_the_grave_is_house_minus_one(self, store, space, rng):
        pid = housed(store, space, Gender.MALE, 30, rng=rng)
        house = int(store.house_arr[pid])
        store.kill(pid, space)
        assert store.house_arr[pid] == -1
        assert space.residents[house] == set()
        assert space.vacant_by_cell == {TOWN: [house]}
        with pytest.raises(ValueError, match=f"cannot move dead person {pid}"):
            space.move_person(store, pid, house)
        space.move_person(store, pid, -1)  # already in the grave: a no-op
        living = housed(store, space, Gender.FEMALE, 30, house=house)
        with pytest.raises(ValueError, match="house -1 does not exist"):
            space.move_person(store, living, -1)
        assert store.house_arr[pid] == -1 and store.house_arr[living] == house
        assert space.residents[house] == {living}
        assert space.vacant_by_cell == {TOWN: []}

    @pytest.mark.parametrize("bad", [-2, -1, "count"])
    def test_unknown_house_rejected(self, store, space, rng, bad):
        pid = housed(store, space, Gender.MALE, 30, rng=rng)
        house = space.house_count if bad == "count" else bad
        with pytest.raises(ValueError, match=f"house {house} does not exist"):
            space.move_person(store, pid, house)
        with pytest.raises(ValueError, match=f"house {house} does not exist"):
            store.spawn_person(Gender.FEMALE, 0, house=house, space=space)
        assert store.size == 1 and store.alive_count == 1
        assert space.residents == [{pid}]

    def test_house_count_monotone(self, store, space, rng):
        counts = []
        for _ in range(20):
            pid = housed(store, space, Gender.FEMALE, 25, rng=rng)
            store.kill(pid, space)
            counts.append(space.house_count)
        assert counts == sorted(counts)
