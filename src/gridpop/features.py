"""Composable predicate algebra over agents, with one-step temporal operators.

Expressions are trees built from elementary predicates and the operators
``|`` (union), ``&`` (intersection), ``-`` (difference), ``~`` (negation),
plus ``compose``, ``just`` and ``pre``. Every node evaluates to a boolean
mask over all stored ids, computed from the store's arrays; evaluation is
pure, so the same (store, snapshot) always yields the same mask.

Seven node kinds make every expression: ``Combine`` (a binary NumPy
operator over two masks: ``|``, ``&``, ``-`` and ``compose``),
``Negation``, ``Pre``, and the leaves ``Equals`` (a column equals a value:
gender, alive, marital status, house), ``AgeCompare``, ``HasKin`` and
``InTown``. ``just(f)`` is ``f - pre(f)``; ``TRUE`` and ``FALSE`` are
built from ``ALIVE``.

Temporal semantics: ``pre(f)`` evaluates f against the previous step
boundary's snapshot and is False for persons created since; ``just(f)``
is ``f now and not pre(f)``. When no snapshot exists yet (the very first
boundary), the current state doubles as its own past, so ``just`` is
False everywhere and ``pre(f)`` equals ``f``.

The algebra is the one reader of the past: a run copies it only for a
step hook, and only the snapshot-tracked attributes (age, alive, marital
status, house; a town is read through the house, which never changes
town). Kinship predicates under ``pre``/``just`` read the parent arrays
restricted to the ids of the snapshot, which works because kinship links
never disappear and only ever gain newly created persons.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .population import ADULT_AGE_YEARS, MaritalStatus, PersonId, PopulationStore, STATUS_CODE
from .space import GRID_COLS, GRID_ROWS, Space, cell_of


class FeatureError(Exception):
    """Raised for unsupported expression shapes (e.g. nested temporal ops)."""


class StepSnapshot:
    """The person arrays at one step boundary.

    The tracked attributes (age, alive, marital status, house) are
    copies; gender and parents never change after registration, so they
    are views of the store's arrays. Ids issued after the capture are
    beyond `size`, which encodes absence.
    """

    __slots__ = ("size", "age_steps", "alive", "status", "house", "male", "father", "mother")

    def __init__(self, store: PopulationStore, copy: bool):
        n = self.size = store.size
        for name in ("age_steps", "alive", "status", "house"):
            column = getattr(store, f"{name}_arr")[:n]
            setattr(self, name, column.copy() if copy else column)
        self.male = store.male_arr[:n]
        self.father = store.father_arr[:n]
        self.mother = store.mother_arr[:n]

    @classmethod
    def capture(cls, store: PopulationStore) -> "StepSnapshot":
        return cls(store, copy=True)


class EvalContext:
    """Store + space + previous-boundary snapshot used during evaluation."""

    __slots__ = ("store", "space", "snapshot")

    def __init__(self, store: PopulationStore, space: "Space",
                 snapshot: Optional[StepSnapshot] = None):
        self.store = store
        self.space = space
        self.snapshot = snapshot

    def state(self, past: bool) -> StepSnapshot:
        """The snapshot when past, else the store's current arrays; with no
        snapshot, the initial state is its own past."""
        if past and self.snapshot is not None:
            return self.snapshot
        return StepSnapshot(self.store, copy=False)


class FeatureExpr:
    """Base node; subclasses implement mask(ctx, past).

    mask returns a boolean array over the ids of the state it reads: the
    store's [0, size) now, the past state's (see EvalContext.state) when past.
    """

    def mask(self, ctx: EvalContext, past: bool = False) -> np.ndarray:
        raise NotImplementedError

    def __or__(self, other: "FeatureExpr") -> "FeatureExpr":
        return Combine(np.bitwise_or, self, other)

    def __and__(self, other: "FeatureExpr") -> "FeatureExpr":
        return Combine(np.bitwise_and, self, other)

    def __sub__(self, other: "FeatureExpr") -> "FeatureExpr":
        return Combine(_and_not, self, other)

    def __invert__(self) -> "FeatureExpr":
        return Negation(self)

    def compose(self, inner: "FeatureExpr") -> "FeatureExpr":
        """Restrict `inner` to persons already satisfying `self`;
        extensionally equal to intersection."""
        return self & inner


def _and_not(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return a & ~b


@dataclass(frozen=True)
class Combine(FeatureExpr):
    """Two masks joined by `op`: np.bitwise_or, np.bitwise_and or _and_not."""

    op: Callable[[np.ndarray, np.ndarray], np.ndarray]
    left: FeatureExpr
    right: FeatureExpr

    def mask(self, ctx, past=False):
        return self.op(self.left.mask(ctx, past), self.right.mask(ctx, past))


@dataclass(frozen=True)
class Negation(FeatureExpr):
    inner: FeatureExpr

    def mask(self, ctx, past=False):
        return ~self.inner.mask(ctx, past)


@dataclass(frozen=True)
class Pre(FeatureExpr):
    inner: FeatureExpr

    def mask(self, ctx, past=False):
        if past:
            raise FeatureError("temporal operators cannot be nested (one snapshot is retained)")
        then = self.inner.mask(ctx, past=True)
        # False for the ids issued since the snapshot.
        return np.concatenate([then, np.zeros(ctx.store.size - len(then), dtype=bool)])


def just(expr: FeatureExpr) -> FeatureExpr:
    """f now and not pre(f); nesting raises FeatureError through the Pre."""
    return expr - Pre(expr)


def pre(expr: FeatureExpr) -> FeatureExpr:
    return Pre(expr)


def compose(outer: FeatureExpr, inner: FeatureExpr) -> FeatureExpr:
    return outer.compose(inner)


# -- elementary predicates ----------------------------------------------


@dataclass(frozen=True)
class Equals(FeatureExpr):
    """A column of the state (male, alive, status, house) equals `value`."""

    column: str
    value: object

    def mask(self, ctx, past=False):
        return getattr(ctx.state(past), self.column) == self.value


@dataclass(frozen=True)
class AgeCompare(FeatureExpr):
    """Age in steps compared, by a NumPy comparison, with `years` of the clock."""

    compare: np.ufunc
    years: float

    def mask(self, ctx, past=False):
        return self.compare(ctx.state(past).age_steps, self.years * ctx.store.steps_per_year)


def _kin(state: StepSnapshot, alive_only: bool) -> tuple[np.ndarray, np.ndarray]:
    """Per person of the state: whether they have a (living) child, and
    whether they have a (living) sibling, from scatters over the parent
    arrays."""
    n = state.size
    counted = state.alive if alive_only else np.ones(n, dtype=bool)
    has_child = np.zeros(n, dtype=bool)
    has_sibling = np.zeros(n, dtype=bool)
    for parents in (state.father, state.mother):
        linked = parents >= 0
        per_parent = np.bincount(parents[linked & counted], minlength=n)
        has_child |= per_parent[:n] > 0
        # Siblings via this parent: the parent's counted children, less oneself.
        others = per_parent[parents[linked]] - counted[linked]
        has_sibling[linked] |= others > 0
    return has_child, has_sibling


@dataclass(frozen=True)
class HasKin(FeatureExpr):
    """Has a child, or a sibling when `siblings`; living ones only when `alive_only`."""

    siblings: bool
    alive_only: bool

    def mask(self, ctx, past=False):
        return _kin(ctx.state(past), self.alive_only)[self.siblings]


@dataclass(frozen=True)
class InTown(FeatureExpr):
    town: tuple[int, int]

    def mask(self, ctx, past=False):
        # The unhoused (-1) read the last array row and are masked out.
        house = ctx.state(past).house
        x, y = self.town
        on_grid = 1 <= x <= GRID_ROWS and 1 <= y <= GRID_COLS
        return (house >= 0) & on_grid & (ctx.space.town_cell[house] == cell_of(self.town))


# Ready-made leaves.
MALE = Equals("male", True)
FEMALE = Equals("male", False)
ALIVE = Equals("alive", True)
MARRIED = Equals("status", STATUS_CODE[MaritalStatus.MARRIED])
DIVORCED = Equals("status", STATUS_CODE[MaritalStatus.DIVORCED])
WIDOWED = Equals("status", STATUS_CODE[MaritalStatus.WIDOWED])
HAS_CHILDREN = HasKin(siblings=False, alive_only=False)
HAS_ALIVE_CHILDREN = HasKin(siblings=False, alive_only=True)
HAS_SIBLINGS = HasKin(siblings=True, alive_only=False)
HAS_ALIVE_SIBLINGS = HasKin(siblings=True, alive_only=True)
ADULT = AgeCompare(np.greater_equal, ADULT_AGE_YEARS)
TRUE = ALIVE | ~ALIVE
FALSE = ALIVE - ALIVE


def age_over(years: float) -> FeatureExpr:
    return AgeCompare(np.greater, years)


def in_town(town: tuple[int, int]) -> FeatureExpr:
    return InTown(town)


def in_house(house_id: int) -> FeatureExpr:
    return Equals("house", house_id)


# -- evaluation entry points ----------------------------------------------


def subpopulation(expr: FeatureExpr, ctx: EvalContext) -> list[PersonId]:
    """Ids of all stored persons satisfying expr, in ascending id order."""
    return np.flatnonzero(expr.mask(ctx)).tolist()
