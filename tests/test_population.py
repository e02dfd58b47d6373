"""Contracts and invariants of the person store: spawn, wed, unwed, kill."""

from bisect import insort

import pytest

from conftest import housed
from gridpop.features import ALIVE, ADULT, EvalContext, MARRIED
from gridpop.population import (
    Gender,
    MaritalStatus,
    PopulationStore,
    UnwedReason,
    collect_invariant_violations,
)
from gridpop.space import Space
from gridpop.stochastics import make_rng


def sweep_ok(store, space):
    assert collect_invariant_violations(store, space) == []


class TestSpawn:
    def test_neonate_with_parents(self, store, space):
        dad = housed(store, space, Gender.MALE, 32)
        mum = housed(store, space, Gender.FEMALE, 30, house=store.persons[dad].house)
        baby = store.spawn_person(Gender.FEMALE, 0, father=dad, mother=mum,
                                  house=store.persons[mum].house, space=space)
        b = store.persons[baby]
        assert b.alive and b.age_steps == 0
        assert b.house == store.persons[mum].house
        assert baby in store.persons[dad].children
        assert baby in store.persons[mum].children
        sweep_ok(store, space)

    def test_adult_without_kin(self, store, space):
        pid = housed(store, space, Gender.MALE, 30)
        p = store.persons[pid]
        assert p.marital_status is MaritalStatus.SINGLE
        assert p.partner is None and p.father is None and p.mother is None
        assert not p.children

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
        assert store.persons[m].partner == f
        assert store.persons[f].partner == m
        assert store.persons[m].married and store.persons[f].married
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
            p = store.persons[pid]
            assert not p.married and p.partner is None
        sweep_ok(store, space)


class TestUnwed:
    def test_divorce_statuses(self, store, space):
        m = housed(store, space, Gender.MALE, 40)
        f = housed(store, space, Gender.FEMALE, 41)
        store.wed(m, f)
        store.unwed(f, UnwedReason.DIVORCE)
        assert store.persons[m].marital_status is MaritalStatus.DIVORCED
        assert store.persons[f].marital_status is MaritalStatus.DIVORCED

    def test_partner_death_widowhood(self, store, space):
        m = housed(store, space, Gender.MALE, 40)
        f = housed(store, space, Gender.FEMALE, 41)
        store.wed(m, f)
        store.kill(m, space)
        assert store.persons[f].marital_status is MaritalStatus.WIDOWED

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
        f = housed(store, space, Gender.FEMALE, 41, house=store.persons[m].house)
        store.wed(m, f)
        house = store.persons[m].house
        store.kill(m, space)
        assert store.persons[m].house is None
        assert not store.persons[m].alive
        assert store.persons[f].house == house
        assert space.residents[house] == {f}
        sweep_ok(store, space)

    def test_emptied_house_persists(self, store, space):
        pid = housed(store, space, Gender.MALE, 50)
        house = store.persons[pid].house
        store.kill(pid, space)
        assert 0 <= house < space.house_count
        assert not space.residents[house]

    def test_orphaned_minor_keeps_parent_links(self, store, space):
        dad = housed(store, space, Gender.MALE, 40)
        mum = housed(store, space, Gender.FEMALE, 39, house=store.persons[dad].house)
        store.wed(dad, mum)
        kid = store.spawn_person(Gender.MALE, 10 * 12, father=dad, mother=mum,
                                 house=store.persons[dad].house, space=space)
        store.kill(dad, space)
        store.kill(mum, space)
        k = store.persons[kid]
        assert k.father == dad and k.mother == mum
        assert k.alive and k.age_steps < store.adult_age_steps
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
        assert store.persons[pid].age_steps == 50 * 12


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
            pids = [p.id for p in store.persons.values() if p.alive]
            if not pids:
                break
            pid = pids[int(rng.integers(len(pids)))]
            p = store.persons[pid]
            if op == 0:  # wed a random eligible pair
                males = [q.id for q in store.persons.values()
                         if q.alive and q.gender is Gender.MALE and q.unmarried
                         and q.age_steps >= store.adult_age_steps]
                females = [q.id for q in store.persons.values()
                           if q.alive and q.gender is Gender.FEMALE and q.unmarried
                           and q.age_steps >= store.adult_age_steps]
                if males and females:
                    store.wed(males[int(rng.integers(len(males)))],
                              females[int(rng.integers(len(females)))])
            elif op == 1 and p.married:
                store.unwed(pid, UnwedReason.DIVORCE)
            elif op == 2:
                store.kill(pid, space)
            else:  # birth to a married woman
                mums = [q for q in store.persons.values()
                        if q.alive and q.gender is Gender.FEMALE and q.married]
                if mums:
                    mum = mums[int(rng.integers(len(mums)))]
                    store.spawn_person(Gender.FEMALE, 0, father=mum.partner,
                                       mother=mum.id, house=mum.house, space=space)
            assert collect_invariant_violations(store, space) == []


def corruptible_state():
    """A married couple with a daughter in one house, a single man in
    another, and a dead widow whose house stands vacant, all in town
    (4, 3); the vacancy index is built and every invariant holds."""
    store, space = PopulationStore(12), Space()
    dad = housed(store, space, Gender.MALE, 40)
    home = store.persons[dad].house
    mum = housed(store, space, Gender.FEMALE, 38, house=home)
    store.wed(dad, mum)
    kid = housed(store, space, Gender.FEMALE, 10, house=home, father=dad, mother=mum)
    single = housed(store, space, Gender.MALE, 30)
    widow = housed(store, space, Gender.FEMALE, 80)
    vacant = store.persons[widow].house
    store.kill(widow, space)
    # The first lookup that meets a vacancy builds the index.
    assert space.find_or_create_empty_house((4, 3), make_rng(0)) == vacant
    return store, space, dict(dad=dad, mum=mum, kid=kid, single=single, widow=widow,
                              vacant=vacant)


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
        lambda s, sp, p: sp.vacant_by_town[(4, 3)].remove(p["vacant"]),
        "house {vacant}: vacant but missing from the vacancy list of town (4, 3)"),
    "occupied house in the vacancy index": (
        lambda s, sp, p: insort(sp.vacant_by_town[(4, 3)], int(s.house_arr[p["dad"]])),
        "house {home}: occupied but listed vacant"),
    "vacancy list out of id order": (
        # A second vacant house, then the town's two vacancies reversed.
        lambda s, sp, p: (sp.new_house((4, 3), make_rng(1)), sp.vacant_by_town[(4, 3)].reverse()),
        "town (4, 3): vacancy list not in ascending id order"),
}


@pytest.mark.parametrize("name", list(CORRUPTIONS))
def test_sweep_reports_corruption(name):
    store, space, people = corruptible_state()
    assert collect_invariant_violations(store, space) == []
    corrupt, finding = CORRUPTIONS[name]
    finding = finding.format(home=store.persons[people["dad"]].house,
                             away=store.persons[people["single"]].house,
                             houses=space.house_count, **people)
    corrupt(store, space, people)
    problems = collect_invariant_violations(store, space)
    assert any(finding in p for p in problems), problems
