"""Contracts and invariants of the person store: spawn, wed, unwed, kill."""

from bisect import insort

import numpy as np
import pytest

from conftest import children, housed
from gridpop.features import ALIVE, ADULT, EvalContext, MARRIED
from gridpop.population import (
    MARRIED_CODE,
    STATUSES,
    Gender,
    MaritalStatus,
    PopulationStore,
    UnwedReason,
    collect_invariant_violations,
)
from gridpop.space import Space, cell_of
from gridpop.stochastics import make_rng


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
        store.unwed(m, UnwedReason.DIVORCE)
        for pid in (m, f):
            assert store.status_arr[pid] != MARRIED_CODE and store.partner_arr[pid] == -1
        sweep_ok(store, space)


class TestUnwed:
    def test_divorce_statuses(self, store, space):
        m = housed(store, space, Gender.MALE, 40)
        f = housed(store, space, Gender.FEMALE, 41)
        store.wed(m, f)
        store.unwed(f, UnwedReason.DIVORCE)
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
            store.unwed(m, UnwedReason.DIVORCE)

    def test_divorced_satisfy_marriage_eligibility(self, store, space):
        m = housed(store, space, Gender.MALE, 40)
        f = housed(store, space, Gender.FEMALE, 41)
        store.wed(m, f)
        store.unwed(m, UnwedReason.DIVORCE)
        ctx = EvalContext(store, space)
        eligible = ~MARRIED & ADULT & ALIVE
        assert eligible.mask(ctx)[m]
        assert eligible.mask(ctx)[f]


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
                store.unwed(pid, UnwedReason.DIVORCE)
            elif op == 2:
                store.kill(pid, space)
            else:  # birth to a married woman
                mums = np.flatnonzero(alive & ~male & married).tolist()
                if mums:
                    mum = mums[int(rng.integers(len(mums)))]
                    store.spawn_person(Gender.FEMALE, 0, father=store.partner_arr[mum],
                                       mother=mum, house=store.house_arr[mum], space=space)
            assert collect_invariant_violations(store, space) == []


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
