"""Predicate-algebra laws (brute-forced) and temporal operator semantics."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import children, housed
from gridpop.features import (
    ADULT,
    ALIVE,
    DIVORCED,
    FALSE,
    FeatureError,
    HAS_ALIVE_CHILDREN,
    HAS_ALIVE_SIBLINGS,
    HAS_CHILDREN,
    MALE,
    FEMALE,
    MARRIED,
    TRUE,
    EvalContext,
    StepSnapshot,
    age_over,
    in_house,
    in_town,
    just,
    pre,
    subpopulation,
)
from gridpop.population import (
    MARRIED_CODE,
    STATUSES,
    Gender,
    PopulationStore,
    UnwedReason,
)
from gridpop.space import Space, cell_of
from gridpop.stochastics import make_rng


def random_population(seed: int, n: int = 60):
    """A store with random ages, genders, marriages, kills and births."""
    rng = make_rng(seed)
    store = PopulationStore(12)
    space = Space()
    towns = space.inhabitable_towns
    for i in range(n):
        housed(store, space, Gender.MALE if rng.random() < 0.5 else Gender.FEMALE,
               int(rng.integers(0, 90)), town=towns[int(rng.integers(len(towns)))], rng=rng)
    for _ in range(n):
        op = rng.integers(3)
        size = store.size
        alive, male = store.alive_arr[:size], store.male_arr[:size]
        married = store.status_arr[:size] == MARRIED_CODE
        if op == 0:
            single_adults = alive & ~married & (store.age_steps_arr[:size]
                                                >= store.adult_age_steps)
            males = np.flatnonzero(single_adults & male).tolist()
            females = np.flatnonzero(single_adults & ~male).tolist()
            if males and females:
                store.wed(males[int(rng.integers(len(males)))],
                          females[int(rng.integers(len(females)))])
        elif op == 1:
            living = np.flatnonzero(alive).tolist()
            if living:
                store.kill(living[int(rng.integers(len(living)))], space)
        else:
            mums = np.flatnonzero(alive & ~male & married).tolist()
            if mums:
                mum = mums[int(rng.integers(len(mums)))]
                store.spawn_person(Gender.MALE, 0, father=store.partner_arr[mum], mother=mum,
                                   house=store.house_arr[mum], space=space)
    return store, space


LEAVES = [MALE, FEMALE, ALIVE, MARRIED, DIVORCED, ADULT, HAS_CHILDREN,
          HAS_ALIVE_CHILDREN, HAS_ALIVE_SIBLINGS, age_over(45), TRUE, FALSE]

exprs = st.recursive(
    st.sampled_from(LEAVES),
    lambda sub: st.one_of(
        st.tuples(sub, sub).map(lambda ab: ab[0] | ab[1]),
        st.tuples(sub, sub).map(lambda ab: ab[0] & ab[1]),
        st.tuples(sub, sub).map(lambda ab: ab[0] - ab[1]),
        sub.map(lambda a: ~a),
        st.tuples(sub, sub).map(lambda ab: ab[0].compose(ab[1])),
    ),
    max_leaves=8,
)


class TestBooleanAlgebra:
    def test_elementary_conjunction(self, store, space):
        man = housed(store, space, Gender.MALE, 50)
        ctx = EvalContext(store, space)
        assert (MALE & age_over(45)).mask(ctx)[man]

    def test_difference_equals_intersection_with_negation(self):
        store, space = random_population(1)
        ctx = EvalContext(store, space)
        a, b = MARRIED, HAS_CHILDREN
        assert subpopulation(a - b, ctx) == subpopulation(a & ~b, ctx)

    def test_married_childless_woman(self, store, space):
        m = housed(store, space, Gender.MALE, 30)
        f = housed(store, space, Gender.FEMALE, 28)
        store.wed(m, f)
        ctx = EvalContext(store, space)
        assert (MARRIED - HAS_CHILDREN).mask(ctx)[f]

    def test_gender_features_are_closed(self):
        store, space = random_population(2)
        ctx = EvalContext(store, space)
        union = set(subpopulation(MALE | FEMALE, ctx))
        assert union == set(range(store.size))

    def test_false_leaf_empty(self):
        store, space = random_population(3)
        assert subpopulation(FALSE, EvalContext(store, space)) == []

    def test_subpopulation_ascending_order(self):
        store, space = random_population(4)
        ids = subpopulation(ALIVE, EvalContext(store, space))
        assert ids == sorted(ids)

    @settings(max_examples=60, deadline=None)
    @given(expr=exprs, seed=st.integers(0, 20))
    def test_negation_involution(self, expr, seed):
        store, space = random_population(seed, n=30)
        ctx = EvalContext(store, space)
        for pid in range(store.size):
            assert expr.mask(ctx)[pid] == (not (~expr).mask(ctx)[pid])
            assert (~~expr).mask(ctx)[pid] == expr.mask(ctx)[pid]

    @settings(max_examples=60, deadline=None)
    @given(a=exprs, b=exprs, seed=st.integers(0, 20))
    def test_de_morgan_and_difference(self, a, b, seed):
        store, space = random_population(seed, n=30)
        ctx = EvalContext(store, space)
        for pid in range(store.size):
            assert (~(a | b)).mask(ctx)[pid] == (~a & ~b).mask(ctx)[pid]
            assert (~(a & b)).mask(ctx)[pid] == (~a | ~b).mask(ctx)[pid]
            assert (a - b).mask(ctx)[pid] == (a & ~b).mask(ctx)[pid]

    def test_intersection_distributes_over_subpopulation(self):
        store, space = random_population(5, n=100)
        ctx = EvalContext(store, space)
        f, g = MARRIED, age_over(45)
        lhs = set(subpopulation(f & g, ctx))
        rhs = set(subpopulation(f, ctx)) & set(subpopulation(g, ctx))
        assert lhs == rhs

    def test_repeated_evaluation_identical(self):
        store, space = random_population(6)
        ctx = EvalContext(store, space)
        expr = (MARRIED | HAS_CHILDREN) - age_over(60)
        assert subpopulation(expr, ctx) == subpopulation(expr, ctx)


class TestComposition:
    def test_dead_divorced_short_circuit(self, store, space):
        man = housed(store, space, Gender.MALE, 50)
        woman = housed(store, space, Gender.FEMALE, 49)
        store.wed(man, woman)
        store.unwed(man, UnwedReason.DIVORCE)
        store.kill(man, space)
        ctx = EvalContext(store, space)
        assert not ALIVE.compose(DIVORCED).mask(ctx)[man]

    @settings(max_examples=40, deadline=None)
    @given(a=exprs, b=exprs, seed=st.integers(0, 10))
    def test_extensionally_equals_intersection(self, a, b, seed):
        store, space = random_population(seed, n=30)
        ctx = EvalContext(store, space)
        assert subpopulation(a.compose(b), ctx) == subpopulation(a & b, ctx)

    def test_family_scenario(self, store, space):
        # Target: alive divorced man over 45 with living children and no
        # living sibling. Six persons; exactly the first son matches.
        rng = make_rng(0)
        grandpa = housed(store, space, Gender.MALE, 80, rng=rng)
        grandma = housed(store, space, Gender.FEMALE, 78, rng=rng)
        son = housed(store, space, Gender.MALE, 50, father=grandpa, mother=grandma, rng=rng)
        brother = housed(store, space, Gender.MALE, 48, father=grandpa, mother=grandma, rng=rng)
        ex_wife = housed(store, space, Gender.FEMALE, 47, rng=rng)
        store.wed(son, ex_wife)
        child = store.spawn_person(Gender.FEMALE, 20 * 12, father=son, mother=ex_wife,
                                   house=store.house_arr[ex_wife], space=space)
        store.unwed(son, UnwedReason.DIVORCE)
        store.kill(grandpa, space)
        store.kill(grandma, space)
        store.kill(brother, space)

        expr = MALE & ALIVE.compose(DIVORCED & HAS_ALIVE_CHILDREN & age_over(45)
                                    - HAS_ALIVE_SIBLINGS)
        ctx = EvalContext(store, space)
        got = subpopulation(expr, ctx)

        alive, father, mother = store.alive_arr, store.father_arr, store.mother_arr

        def brute(p):
            alive_children = any(alive[c] for c in children(store, p))
            alive_sibs = any(
                alive[q] and q != p
                and ((father[p] >= 0 and father[q] == father[p])
                     or (mother[p] >= 0 and mother[q] == mother[p]))
                for q in range(store.size))
            return (store.male_arr[p] and alive[p]
                    and STATUSES[store.status_arr[p]].value == "divorced"
                    and alive_children and store.age_steps_arr[p] > 45 * 12
                    and not alive_sibs)

        expected = [p for p in range(store.size) if brute(p)]
        assert got == expected == [son]


class TestTemporalOperators:
    def build_couple(self):
        store, space = PopulationStore(12), Space()
        m = housed(store, space, Gender.MALE, 30)
        f = housed(store, space, Gender.FEMALE, 28)
        return store, space, m, f

    def test_just_married_transition(self):
        store, space, m, f = self.build_couple()
        snap = StepSnapshot.capture(store)
        store.wed(m, f)
        ctx = EvalContext(store, space, snap)
        assert just(MARRIED).mask(ctx)[m]
        # A step later (state unchanged) the marriage is no longer "just".
        snap2 = StepSnapshot.capture(store)
        ctx2 = EvalContext(store, space, snap2)
        assert not just(MARRIED).mask(ctx2)[m]
        assert pre(MARRIED).mask(ctx2)[m]

    def test_neonate_just_alive(self):
        store, space, m, f = self.build_couple()
        store.wed(m, f)
        snap = StepSnapshot.capture(store)
        baby = store.spawn_person(Gender.MALE, 0, father=m, mother=f,
                                  house=store.house_arr[f], space=space)
        ctx = EvalContext(store, space, snap)
        assert just(ALIVE).mask(ctx)[baby]
        assert not pre(ALIVE).mask(ctx)[baby]
        # Absent-person rule applies to any expression, negations included.
        assert not pre(~ALIVE).mask(ctx)[baby]

    def test_no_snapshot_fixed_point(self):
        store, space, m, f = self.build_couple()
        store.wed(m, f)
        ctx = EvalContext(store, space, None)
        assert pre(MARRIED).mask(ctx)[m]
        assert not just(MARRIED).mask(ctx)[m]

    @settings(max_examples=40, deadline=None)
    @given(expr=exprs, seed=st.integers(0, 10))
    def test_just_is_now_and_not_pre(self, expr, seed):
        store, space = random_population(seed, n=25)
        snap = StepSnapshot.capture(store)
        # Mutate a little so now != pre for some persons.
        rng = make_rng(seed + 1000)
        alive = np.flatnonzero(store.alive_arr[:store.size]).tolist()
        if alive:
            store.kill(alive[int(rng.integers(len(alive)))], space)
        ctx = EvalContext(store, space, snap)
        for pid in range(store.size):
            assert just(expr).mask(ctx)[pid] == (
                expr.mask(ctx)[pid] and not pre(expr).mask(ctx)[pid])

    @pytest.mark.parametrize("nested", [
        pre(pre(MARRIED)), pre(just(MARRIED)), just(pre(MARRIED)), just(just(MARRIED)),
    ], ids=["pre_pre", "pre_just", "just_pre", "just_just"])
    def test_nested_temporal_rejected(self, nested):
        store, space, m, f = self.build_couple()
        snap = StepSnapshot.capture(store)
        ctx = EvalContext(store, space, snap)
        with pytest.raises(FeatureError):
            nested.mask(ctx)[m]

    def test_compose_function_form(self):
        store, space = random_population(7, n=40)
        from gridpop.features import compose
        ctx = EvalContext(store, space)
        assert subpopulation(compose(ALIVE, MARRIED), ctx) == subpopulation(
            ALIVE & MARRIED, ctx)

    def test_snapshot_keeps_dead_status(self):
        store, space, m, f = self.build_couple()
        store.wed(m, f)
        store.kill(m, space)
        snap = StepSnapshot.capture(store)
        ctx = EvalContext(store, space, snap)
        from gridpop.features import WIDOWED
        # The tombstone keeps its terminal status at the boundary.
        assert pre(WIDOWED).mask(ctx)[m]
        assert pre(~ALIVE).mask(ctx)[m]

    def test_previous_house_accessor(self):
        store, space, m, f = self.build_couple()
        old = store.house_arr[m]
        snap = StepSnapshot.capture(store)
        new = space.find_or_create_empty_house(cell_of((4, 3)), make_rng(9))
        space.move_person(store, m, new)
        assert snap.house[m] == old
        assert store.house_arr[m] == new != old
        ctx = EvalContext(store, space, snap)
        assert pre(in_house(old)).mask(ctx)[m]
        assert not in_house(old).mask(ctx)[m]


class TestInTown:
    def test_town_read_through_the_house(self):
        store, space = PopulationStore(12), Space()
        a = housed(store, space, Gender.MALE, 30, town=(2, 1))
        b = housed(store, space, Gender.FEMALE, 30, town=(4, 3))
        c = housed(store, space, Gender.FEMALE, 30, town=(2, 1))
        store.kill(c, space)
        ctx = EvalContext(store, space)
        assert in_town((2, 1)).mask(ctx).tolist() == [True, False, False]
        assert in_town((4, 3)).mask(ctx).tolist() == [False, True, False]
        assert [a, b, c] == [0, 1, 2]

    @pytest.mark.parametrize("town", [(1, 9), (0, 0), (13, 1)])
    def test_town_off_the_grid_matches_no_one(self, town):
        # (1, 9) has the cell code of (2, 1), (0, 0) that of no town.
        store, space = PopulationStore(12), Space()
        housed(store, space, Gender.MALE, 30, town=(2, 1))
        assert not in_town(town).mask(EvalContext(store, space)).any()
