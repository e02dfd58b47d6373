"""Contracts and invariants of the person store: spawn, wed, unwed, kill."""

from bisect import insort

import numpy as np
import pytest

from conftest import assert_kin_counts_swept, children, housed
from gridpop.engine import export_population, import_population, run_simulation
from gridpop.features import ALIVE, ADULT, EvalContext, MARRIED
from gridpop.initialization import build_initial_state
from gridpop.params import DataTables, ModelParameters, SimulationConfig
from gridpop.population import (
    MARRIED_CODE,
    STATUSES,
    Gender,
    MaritalStatus,
    PopulationStore,
    collect_invariant_violations,
)
from gridpop.space import Space, cell_of
from gridpop.stochastics import ClockSpec, make_rng


def sweep_ok(store, space):
    assert collect_invariant_violations(store, space) == []


class TestSpawn:
    def test_neonate_with_parents(self, store, space):
        dad = housed(store, space, Gender.MALE, 32)
        mum = housed(store, space, Gender.FEMALE, 30, house=store.house_arr[dad])
        baby = store.spawn_person(Gender.FEMALE, 0, father=dad, mother=mum,
                                  house=store.house_arr[mum], space=space)
        assert store.alive_arr[baby] and store.age_steps_arr[baby] == 0
        assert store.house_arr[baby] == store.house_arr[mum]
        assert baby in children(store, dad)
        assert baby in children(store, mum)
        sweep_ok(store, space)

    def test_adult_without_kin(self, store, space):
        pid = housed(store, space, Gender.MALE, 30)
        assert STATUSES[store.status_arr[pid]] is MaritalStatus.SINGLE
        assert (store.partner_arr[pid] == -1 and store.father_arr[pid] == -1
                and store.mother_arr[pid] == -1)
        assert not children(store, pid)

    def test_unresolved_parent(self, store, space):
        with pytest.raises(ValueError):
            store.spawn_person(Gender.MALE, 0, father=999)

    def test_parent_gender_mismatch(self, store, space):
        mum = housed(store, space, Gender.FEMALE, 30)
        with pytest.raises(ValueError):
            store.spawn_person(Gender.MALE, 0, father=mum)

    def test_negative_age(self, store):
        with pytest.raises(ValueError):
            store.spawn_person(Gender.MALE, -1)

    def test_ids_distinct_and_monotone_at_scale(self):
        store = PopulationStore(12)
        ids = [store.spawn_person(Gender.MALE, 0) for _ in range(100_000)]
        assert len(set(ids)) == 100_000
        assert all(a < b for a, b in zip(ids, ids[1:]))


class TestWed:
    def test_mutual_links(self, store, space):
        m = housed(store, space, Gender.MALE, 30)
        f = housed(store, space, Gender.FEMALE, 28)
        store.wed(m, f)
        assert store.partner_arr[m] == f
        assert store.partner_arr[f] == m
        assert store.status_arr[m] == MARRIED_CODE and store.status_arr[f] == MARRIED_CODE
        sweep_ok(store, space)

    def test_already_married(self, store, space):
        m = housed(store, space, Gender.MALE, 30)
        f1 = housed(store, space, Gender.FEMALE, 28)
        f2 = housed(store, space, Gender.FEMALE, 25)
        store.wed(m, f1)
        with pytest.raises(ValueError, match="married"):
            store.wed(m, f2)

    def test_same_gender(self, store, space):
        a = housed(store, space, Gender.MALE, 30)
        b = housed(store, space, Gender.MALE, 31)
        with pytest.raises(ValueError, match="gender"):
            store.wed(a, b)

    def test_underage(self, store, space):
        m = housed(store, space, Gender.MALE, 30)
        f = housed(store, space, Gender.FEMALE, 17)
        with pytest.raises(ValueError, match="adult"):
            store.wed(m, f)

    def test_wed_unwed_round_trip(self, store, space):
        m = housed(store, space, Gender.MALE, 30)
        f = housed(store, space, Gender.FEMALE, 28)
        store.wed(m, f)
        store.unwed(m, MaritalStatus.DIVORCED)
        for pid in (m, f):
            assert store.status_arr[pid] != MARRIED_CODE and store.partner_arr[pid] == -1
        sweep_ok(store, space)


class TestUnwed:
    def test_divorce_statuses(self, store, space):
        m = housed(store, space, Gender.MALE, 40)
        f = housed(store, space, Gender.FEMALE, 41)
        store.wed(m, f)
        store.unwed(f, MaritalStatus.DIVORCED)
        assert STATUSES[store.status_arr[m]] is MaritalStatus.DIVORCED
        assert STATUSES[store.status_arr[f]] is MaritalStatus.DIVORCED

    def test_partner_death_widowhood(self, store, space):
        m = housed(store, space, Gender.MALE, 40)
        f = housed(store, space, Gender.FEMALE, 41)
        store.wed(m, f)
        store.kill(m, space)
        assert STATUSES[store.status_arr[f]] is MaritalStatus.WIDOWED

    def test_not_married(self, store, space):
        m = housed(store, space, Gender.MALE, 40)
        with pytest.raises(ValueError, match="not married"):
            store.unwed(m, MaritalStatus.DIVORCED)

    @pytest.mark.parametrize("status", [MaritalStatus.SINGLE, MaritalStatus.MARRIED, "divorced"])
    def test_only_divorced_or_widowed(self, store, space, status):
        m = housed(store, space, Gender.MALE, 40)
        f = housed(store, space, Gender.FEMALE, 41)
        store.wed(m, f)
        version = store.version
        with pytest.raises(ValueError, match="^a marriage ends divorced or widowed, not "):
            store.unwed(m, status)
        assert store.partner_arr[[m, f]].tolist() == [f, m] and store.version == version
        sweep_ok(store, space)

    def test_divorced_satisfy_marriage_eligibility(self, store, space):
        m = housed(store, space, Gender.MALE, 40)
        f = housed(store, space, Gender.FEMALE, 41)
        store.wed(m, f)
        store.unwed(m, MaritalStatus.DIVORCED)
        ctx = EvalContext(store, space)
        eligible = ~MARRIED & ADULT & ALIVE
        assert eligible.mask(ctx)[m]
        assert eligible.mask(ctx)[f]


class TestUnmarriedAdults:
    """store.unmarried_adults, the pool of the initial couples and of the
    marriage event's brides."""

    @staticmethod
    def population(store, space):
        """Named persons of every kind; the divorce and the widowhood come
        after the last spawn, so eligibility is not gained in id order."""
        ids = {
            "divorced": housed(store, space, Gender.FEMALE, 48),
            "ex_husband": housed(store, space, Gender.MALE, 50),
            "single": housed(store, space, Gender.FEMALE, 30),
            "husband": housed(store, space, Gender.MALE, 35),
            "wife": housed(store, space, Gender.FEMALE, 33),
            "widowed": housed(store, space, Gender.FEMALE, 66),
            "late_husband": housed(store, space, Gender.MALE, 70),
            "minor": housed(store, space, Gender.FEMALE, 18 - 1 / 12),
            "just_adult": housed(store, space, Gender.FEMALE, 18),
            "dead": housed(store, space, Gender.FEMALE, 40),
            "single_man": housed(store, space, Gender.MALE, 25),
        }
        store.kill(ids["dead"], space)
        for man, woman in (("husband", "wife"), ("ex_husband", "divorced"),
                           ("late_husband", "widowed")):
            store.wed(ids[man], ids[woman])
        store.unwed(ids["ex_husband"], MaritalStatus.DIVORCED)
        store.kill(ids["late_husband"], space)
        return ids

    def test_excludes_the_married_minors_dead_and_other_gender(self, store, space):
        ids = self.population(store, space)
        women = store.unmarried_adults(male=False).tolist()
        for name in ("wife", "minor", "dead", "single_man", "husband"):
            assert ids[name] not in women
        assert store.unmarried_adults(male=True).tolist() == [ids["ex_husband"],
                                                               ids["single_man"]]

    def test_includes_the_divorced_and_widowed(self, store, space):
        ids = self.population(store, space)
        women = store.unmarried_adults(male=False).tolist()
        assert ids["divorced"] in women and ids["widowed"] in women

    def test_ids_ascending(self, store, space):
        ids = self.population(store, space)
        women = store.unmarried_adults(male=False)
        assert women.tolist() == [ids[name] for name in ("divorced", "single", "widowed",
                                                         "just_adult")]
        assert np.all(np.diff(women) > 0)


class TestKill:
    def test_widow_keeps_house_dead_in_grave(self, store, space):
        m = housed(store, space, Gender.MALE, 40)
        f = housed(store, space, Gender.FEMALE, 41, house=store.house_arr[m])
        store.wed(m, f)
        house = store.house_arr[m]
        store.kill(m, space)
        assert store.house_arr[m] == -1
        assert not store.alive_arr[m]
        assert store.house_arr[f] == house
        assert space.residents[house] == {f}
        sweep_ok(store, space)

    def test_emptied_house_persists(self, store, space):
        pid = housed(store, space, Gender.MALE, 50)
        house = store.house_arr[pid]
        store.kill(pid, space)
        assert 0 <= house < space.house_count
        assert not space.residents[house]

    def test_orphaned_minor_keeps_parent_links(self, store, space):
        dad = housed(store, space, Gender.MALE, 40)
        mum = housed(store, space, Gender.FEMALE, 39, house=store.house_arr[dad])
        store.wed(dad, mum)
        kid = store.spawn_person(Gender.MALE, 10 * 12, father=dad, mother=mum,
                                 house=store.house_arr[dad], space=space)
        store.kill(dad, space)
        store.kill(mum, space)
        assert store.father_arr[kid] == dad and store.mother_arr[kid] == mum
        assert store.alive_arr[kid] and store.age_steps_arr[kid] < store.adult_age_steps
        assert not (store.alive_arr[dad] or store.alive_arr[mum])
        sweep_ok(store, space)

    def test_double_kill(self, store, space):
        pid = housed(store, space, Gender.MALE, 50)
        store.kill(pid, space)
        with pytest.raises(ValueError, match="dead"):
            store.kill(pid, space)

    def test_ages_frozen_after_death(self, store, space):
        pid = housed(store, space, Gender.MALE, 50)
        store.kill(pid, space)
        assert store.age_steps_arr[pid] == 50 * 12


class TestRandomWalkInvariants:
    """Random valid mutator sequences never break the structural sweep."""

    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_walk(self, seed):
        rng = make_rng(seed)
        store = PopulationStore(12)
        space = Space()
        towns = space.inhabitable_towns
        for i in range(40):
            town = towns[int(rng.integers(len(towns)))]
            housed(store, space, Gender.MALE if i % 2 else Gender.FEMALE,
                   int(rng.integers(0, 80)), town=town, rng=rng)
        for _ in range(300):
            op = rng.integers(4)
            n = store.size
            alive, male = store.alive_arr[:n], store.male_arr[:n]
            married = store.status_arr[:n] == MARRIED_CODE
            pids = np.flatnonzero(alive).tolist()
            if not pids:
                break
            pid = pids[int(rng.integers(len(pids)))]
            if op == 0:  # wed a random eligible pair
                single_adults = alive & ~married & (store.age_steps_arr[:n]
                                                    >= store.adult_age_steps)
                males = np.flatnonzero(single_adults & male).tolist()
                females = np.flatnonzero(single_adults & ~male).tolist()
                if males and females:
                    store.wed(males[int(rng.integers(len(males)))],
                              females[int(rng.integers(len(females)))])
            elif op == 1 and married[pid]:
                store.unwed(pid, MaritalStatus.DIVORCED)
            elif op == 2:
                store.kill(pid, space)
            else:  # birth to a married woman
                mums = np.flatnonzero(alive & ~male & married).tolist()
                if mums:
                    mum = mums[int(rng.integers(len(mums)))]
                    store.spawn_person(Gender.FEMALE, 0, father=store.partner_arr[mum],
                                       mother=mum, house=store.house_arr[mum], space=space)
            assert collect_invariant_violations(store, space) == []
            assert_kin_counts_swept(store)


class TestKinCounts:
    """Each person's living children and each woman's living infants, kept
    by the mutators and ageing and rebuilt by the bulk writers."""

    def test_births_deaths_and_ageing_move_the_counts(self, store, space):
        dad = housed(store, space, Gender.MALE, 32)
        mum = housed(store, space, Gender.FEMALE, 30, house=store.house_arr[dad])
        store.wed(dad, mum)
        elder = store.spawn_person(Gender.MALE, 12, father=dad, mother=mum,
                                   house=store.house_arr[mum], space=space)
        baby = store.spawn_person(Gender.FEMALE, 0, father=dad, mother=mum,
                                  house=store.house_arr[mum], space=space)
        assert store.living_children_arr[[dad, mum]].tolist() == [2, 2]
        assert store.infants_arr[mum] == 2
        store.age_one_step()  # the elder turns one year and one step
        assert store.infants_arr[mum] == 1
        for _ in range(11):
            store.age_one_step()
        assert store.infants_arr[mum] == 1  # the baby is one year old
        store.kill(baby, space)
        assert store.living_children_arr[[dad, mum]].tolist() == [1, 1]
        assert store.infants_arr[mum] == 0
        store.kill(elder, space)
        assert store.living_children_arr[[dad, mum]].tolist() == [0, 0]
        assert_kin_counts_swept(store)

    @pytest.mark.parametrize("clock", ["monthly", "hourly"])
    def test_initial_state_counts_equal_the_sweep(self, clock):
        store, space = PopulationStore(ClockSpec.parse(clock).steps_per_year), Space()
        build_initial_state(store, space, ModelParameters(initial_pop=2000), make_rng(4))
        assert store.infants_arr.any()  # the initial state has infants
        assert_kin_counts_swept(store)
        assert store.kin_count_problems() == []

    def test_imported_counts_equal_the_sweep(self, tmp_path):
        config = SimulationConfig(t0=2020, t_final=2022, clock=ClockSpec.parse("monthly"), seed=6)
        sim = run_simulation(config, ModelParameters(initial_pop=400), DataTables())
        export_population(sim.store, sim.space, tmp_path / "pop.txt")
        store, _ = import_population(tmp_path / "pop.txt")
        assert_kin_counts_swept(store)
        n = store.size
        for name in ("living_children_arr", "infants_arr"):
            assert np.array_equal(getattr(store, name)[:n], getattr(sim.store, name)[:n]), name

    def test_problems_name_the_first_persons(self):
        store, space, people = corruptible_state()
        assert store.kin_count_problems() == []
        store.living_children_arr[people["dad"]] += 1
        store.infants_arr[people["mum"]] = 1
        assert store.kin_count_problems() == [
            f"person {people['dad']}: 2 living children cached, 1 swept",
            f"person {people['mum']}: 1 infants cached, 0 swept"]
        store.infants_arr[:store.size] = 5
        assert len(store.kin_count_problems()) == 1 + 3  # at most three per count


def corruptible_state():
    """A married couple with a daughter in one house, a single man in
    another, and a dead widow whose house stands vacant, all in town
    (4, 3); every invariant holds."""
    store, space = PopulationStore(12), Space()
    dad = housed(store, space, Gender.MALE, 40)
    home = store.house_arr[dad]
    mum = housed(store, space, Gender.FEMALE, 38, house=home)
    store.wed(dad, mum)
    kid = housed(store, space, Gender.FEMALE, 10, house=home, father=dad, mother=mum)
    single = housed(store, space, Gender.MALE, 30)
    widow = housed(store, space, Gender.FEMALE, 80)
    vacant = int(store.house_arr[widow])
    store.kill(widow, space)
    return store, space, dict(dad=dad, mum=mum, kid=kid, single=single, widow=widow,
                              vacant=vacant)


TOWN = cell_of((4, 3))


def _set(array, pid, value):
    array[pid] = value


CORRUPTIONS = {
    "asymmetric partner": (
        lambda s, sp, p: _set(s.partner_arr, p["mum"], p["single"]),
        "person {mum}: partnership not symmetric"),
    "same-gender partner": (
        lambda s, sp, p: _set(s.male_arr, p["mum"], True),
        "person {dad}: same-gender partnership"),
    "married minor": (
        lambda s, sp, p: _set(s.age_steps_arr, p["mum"], 17 * 12),
        "person {mum}: married minor"),
    "parent of the wrong gender": (
        lambda s, sp, p: _set(s.mother_arr, p["kid"], p["single"]),
        "person {kid}: parent {single} has wrong gender"),
    "dead but housed": (
        lambda s, sp, p: _set(s.house_arr, p["widow"], s.house_arr[p["single"]]),
        "person {widow}: dead but housed"),
    "alive but unhoused": (
        lambda s, sp, p: _set(s.house_arr, p["single"], -1),
        "person {single}: alive but unhoused"),
    "occupant points at another house": (
        lambda s, sp, p: _set(s.house_arr, p["kid"], s.house_arr[p["single"]]),
        "house {home}: occupant {kid} points elsewhere"),
    "resident set lists a person who lives elsewhere": (
        lambda s, sp, p: sp.residents[s.house_arr[p["single"]]].add(p["kid"]),
        "house {away}: occupant {kid} points elsewhere"),
    "house past house_count": (
        lambda s, sp, p: _set(s.house_arr, p["single"], sp.house_count),
        "person {single}: house {houses} does not resolve"),
    "ancestry cycle": (
        lambda s, sp, p: _set(s.mother_arr, p["mum"], p["kid"]),
        "ancestry cycle"),
    "vacant house missing from the vacancy index": (
        lambda s, sp, p: sp.vacant_by_cell[TOWN].remove(p["vacant"]),
        "house {vacant}: vacant but missing from the vacancy list of cell 26"),
    "occupied house in the vacancy index": (
        lambda s, sp, p: insort(sp.vacant_by_cell[TOWN], int(s.house_arr[p["dad"]])),
        "house {home}: occupied but listed vacant"),
    "house listed under another cell": (
        lambda s, sp, p: (sp.vacant_by_cell[TOWN].remove(p["vacant"]),
                          sp.vacant_by_cell.setdefault(cell_of((8, 4)), []).append(p["vacant"])),
        "house {vacant}: in the vacancy list of cell 59, lies in cell 26"),
    "vacancy list out of id order": (
        # A second vacant house, then the town's two vacancies reversed.
        lambda s, sp, p: (sp.new_houses(TOWN, make_rng(1)), sp.vacant_by_cell[TOWN].reverse()),
        "cell 26: vacancy list not in ascending id order"),
}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_sweep_reports_corruption(name):
    store, space, people = corruptible_state()
    assert collect_invariant_violations(store, space) == []
    corrupt, finding = CORRUPTIONS[name]
    finding = finding.format(home=store.house_arr[people["dad"]],
                             away=store.house_arr[people["single"]],
                             houses=space.house_count, **people)
    corrupt(store, space, people)
    problems = collect_invariant_violations(store, space)
    assert any(finding in p for p in problems), problems
