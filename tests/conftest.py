"""Shared helpers: small populated stores and spaces for unit tests."""

import numpy as np
import pytest

from gridpop.population import Gender, PopulationStore
from gridpop.space import Space, cell_of
from gridpop.stochastics import make_rng


@pytest.fixture
def rng():
    return make_rng(12345)


@pytest.fixture
def space():
    return Space()


@pytest.fixture
def store():
    # Monthly clock keeps ages readable (18 years = 216 steps).
    return PopulationStore(steps_per_year=12)


def housed(store: PopulationStore, space: Space, gender: Gender, age_years: float,
           town=(4, 3), house=None, rng=None, **kwargs):
    """Spawn an alive person with a house (fresh one in `town` unless given)."""
    rng = rng or make_rng(0)
    if house is None:
        house = space.new_houses(cell_of(town), rng)
    age_steps = round(age_years * store.steps_per_year)
    return store.spawn_person(gender, age_steps, house=house, space=space, **kwargs)


def children(store: PopulationStore, pid: int) -> set[int]:
    """The ids whose father or mother is pid, read from the parent arrays."""
    n = store.size
    return set(np.flatnonzero((store.father_arr[:n] == pid)
                              | (store.mother_arr[:n] == pid)).tolist())


def assert_kin_counts_swept(store: PopulationStore) -> None:
    """The stored living-children and infant counts equal their sweep of
    the parent arrays over [0, size), made here one count at a time."""
    n = store.size
    alive, ages = store.alive_arr[:n], store.age_steps_arr[:n]
    living = np.zeros(n, dtype=np.int64)
    for parents in (store.father_arr[:n][alive], store.mother_arr[:n][alive]):
        living += np.bincount(parents[parents >= 0], minlength=n)
    mothers = store.mother_arr[:n][alive & (ages <= store.steps_per_year)]
    infants = np.bincount(mothers[mothers >= 0], minlength=n)
    assert store.living_children_arr[:n].tolist() == living.tolist()
    assert store.infants_arr[:n].tolist() == infants.tolist()
