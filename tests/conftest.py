"""Shared helpers: small populated stores and spaces for unit tests."""

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
