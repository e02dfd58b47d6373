"""Agent storage and the kinship graph.

Every person is a row keyed by a monotonically increasing integer id;
dead persons are tombstoned (kept in the store with house -1, the grave)
so that kinship links of the living always resolve. Ages are exact step
counts against the run's clock, so a million steps accumulate no drift.

The state of all persons is one NumPy array per attribute, indexed by id
(``age_steps_arr``, ``male_arr``, ``alive_arr``, ``status_arr``,
``house_arr``, ``partner_arr``, ``father_arr``, ``mother_arr``; -1 means
none). The events gather whole subpopulations from them. Two counts
derived from the parent arrays are stored as well: ``living_children_arr``
(each person's living children) and ``infants_arr`` (each woman's living
children aged steps_per_year steps or less). spawn_person and kill keep
them, and ageing lowers a mother's infants when a child turns one year and
one step. A bulk build (the initial state, an import) writes the arrays
and then derives these counts and the alive tallies in one recount() at
its end. The children themselves are not stored: ``children_index()``
builds the children of every person from the parent arrays on each call,
uncached. Towns are read from ``Space.town_cell`` of the house.
``store.persons`` maps ids to ``Person`` views that read alive, married
and partner; only the benchmark still reads them.

Every mutator bumps ``store.version``, and so does ageing when anyone
reaches one of ``threshold_ages``, where persons join or leave an event's
candidates; the events cache candidate counts per version. The birth
order lists the living oldest first, with a pointer per threshold age
that hands ageing the persons reaching it and one at the oldest living.

Mutators preserve the structural invariants checked by
``collect_invariant_violations``; callers are expected to satisfy the
documented preconditions and get a ValueError otherwise.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import chain
from enum import Enum
from typing import TYPE_CHECKING, Iterator, Optional

import numpy as np

if TYPE_CHECKING:
    from .space import Space

PersonId = int

ADULT_AGE_YEARS = 18

# Mothers are younger than this many whole years.
FERTILE_YEARS = 45

_INITIAL_CAPACITY = 1024


class Gender(str, Enum):
    MALE = "male"
    FEMALE = "female"


class MaritalStatus(str, Enum):
    SINGLE = "single"
    MARRIED = "married"
    DIVORCED = "divorced"
    WIDOWED = "widowed"


STATUSES = tuple(MaritalStatus)  # indexed by status code
STATUS_CODE = {status: code for code, status in enumerate(STATUSES)}
MARRIED_CODE = STATUS_CODE[MaritalStatus.MARRIED]

# Every per-person array: (attribute, dtype, value of an unused row).
_ARRAYS = (
    ("age_steps_arr", np.int64, 0),
    ("male_arr", bool, False),
    ("alive_arr", bool, False),
    ("status_arr", np.int8, 0),
    ("house_arr", np.int64, -1),
    ("partner_arr", np.int64, -1),
    ("father_arr", np.int64, -1),
    ("mother_arr", np.int64, -1),
    ("living_children_arr", np.int32, 0),
    ("infants_arr", np.int32, 0),
)


class Person:
    """One row of the store, read as the benchmark reads it; it goes once the
    benchmark reads the arrays (ROADMAP item 11). Assigning partner writes
    straight into partner_arr, bypassing the mutators' checks and cached
    counters: the benchmark's self-test corrupts a state through it."""

    __slots__ = ("store", "id")

    def __init__(self, store: "PopulationStore", pid: PersonId):
        self.store = store
        self.id = pid

    @property
    def alive(self) -> bool:
        return bool(self.store.alive_arr[self.id])

    @property
    def married(self) -> bool:
        return bool(self.store.status_arr[self.id] == MARRIED_CODE)

    @property
    def partner(self) -> Optional[PersonId]:
        partner = int(self.store.partner_arr[self.id])
        return None if partner < 0 else partner

    @partner.setter
    def partner(self, value: Optional[PersonId]) -> None:
        self.store.partner_arr[self.id] = -1 if value is None else value


class PersonTable(Mapping):
    """Read-only mapping id -> Person view over every stored person."""

    def __init__(self, store: "PopulationStore"):
        self._store = store

    def __getitem__(self, pid: PersonId) -> Person:
        if not (isinstance(pid, (int, np.integer)) and 0 <= pid < self._store.size):
            raise KeyError(pid)
        return Person(self._store, int(pid))

    def __iter__(self) -> Iterator[PersonId]:
        return iter(range(self._store.size))

    def __len__(self) -> int:
        return self._store.size


class PopulationStore:
    """All persons of one run, living and dead, in id (= insertion) order."""

    def __init__(self, steps_per_year: int):
        if steps_per_year < 1:
            raise ValueError("steps_per_year must be >= 1")
        self.steps_per_year = steps_per_year
        self._next_id: PersonId = 0
        self.adult_age_steps = ADULT_AGE_YEARS * steps_per_year
        for name, dtype, unused in _ARRAYS:
            setattr(self, name, np.full(_INITIAL_CAPACITY, unused, dtype=dtype))
        # Cached aggregates over the alive population; audit mode verifies
        # them against the sweep of the arrays every step.
        self.alive_count = 0
        self.alive_male = 0
        self.alive_status_counts = [0] * len(STATUSES)  # by status code
        self.alive_age_steps_sum = 0
        self.version = 0
        self.candidate_counts: dict[str, tuple[int, int]] = {}  # event -> (version, count)
        self.threshold_ages = {
            "adult age": self.adult_age_steps,  # the bride pool; orphans move out
            "adult age + 1 step": self.adult_age_steps + 1,  # grooms
            "one year + 1 step": steps_per_year + 1,  # no longer blocks a mother
            f"{FERTILE_YEARS} years": FERTILE_YEARS * steps_per_year,  # no longer a mother
        }
        # The last pointer's age exceeds every age: it stops at the oldest living.
        self._pointer_ages = [*self.threshold_ages.values(), np.iinfo(np.int64).max]
        # None until _birth_order builds the order, and again after recount,
        # a spawn above age 0 or once newborns have filled it.
        self._pointers: Optional[list[int]] = None

    def __len__(self) -> int:
        return self._next_id

    @property
    def persons(self) -> PersonTable:
        """A view made per access: a stored one would form a reference
        cycle, and a store in a cycle outlives its last name until the
        garbage collector runs."""
        return PersonTable(self)

    @property
    def size(self) -> int:
        """Number of ids ever issued; the valid array prefix."""
        return self._next_id

    def alive_ids(self) -> list[PersonId]:
        return np.flatnonzero(self.alive_arr[: self._next_id]).tolist()

    def unmarried_adults(self, male: bool) -> np.ndarray:
        """The living adults of one gender who are single, divorced or
        widowed, ids ascending: the initial couples and the bride pool."""
        n = self._next_id
        return np.flatnonzero(self.alive_arr[:n] & (self.male_arr[:n] == male)
                              & (self.status_arr[:n] != MARRIED_CODE)
                              & (self.age_steps_arr[:n] >= self.adult_age_steps))

    def add_rows(self, count: int) -> PersonId:
        """Issue `count` new ids whose rows hold the unused values (not
        alive) and return the first. A bulk builder that fills the rows
        itself calls recount() once, after its last write."""
        first = self._next_id
        self._next_id += count
        self.version += 1
        cap = len(self.age_steps_arr)
        if self._next_id > cap:
            new_cap = max(cap * 2, self._next_id)
            for name, dtype, unused in _ARRAYS:
                grown = np.full(new_cap, unused, dtype=dtype)
                grown[:cap] = getattr(self, name)
                setattr(self, name, grown)
        return first

    def alive_tallies(self) -> dict:
        """The cached alive aggregates, swept afresh from the arrays."""
        n = self._next_id
        alive = self.alive_arr[:n]
        total = int(np.count_nonzero(alive))
        males = int(np.count_nonzero(alive & self.male_arr[:n]))
        return {
            "alive_count": total,
            "alive_male": males,
            "alive_status_counts": np.bincount(self.status_arr[:n][alive],
                                               minlength=len(STATUSES)).tolist(),
            "alive_age_steps_sum": int(self.age_steps_arr[:n][alive].sum()),
        }

    def recount(self) -> None:
        """Set the cached aggregates and kin counts from the arrays, once at
        the end of a bulk build."""
        for name, value in self.alive_tallies().items():
            setattr(self, name, value)
        n = self._next_id
        self.living_children_arr[:n], self.infants_arr[:n] = self._kin_counts()
        self._pointers = None
        self.version += 1

    def _kin_counts(self) -> tuple[np.ndarray, np.ndarray]:
        """Each person's living children and living infants, swept from the
        parent arrays of the living in one gather. Parents that do not
        resolve are skipped. Each temporary is at most one int64 per id: one
        bincount over both parent columns would double that, and at 200,000
        persons it left the heap 2 MB larger for the rest of a run."""
        n = self._next_id
        alive = self.alive_arr[:n]
        fathers, mothers = self.father_arr[:n][alive], self.mother_arr[:n][alive]
        known = (mothers >= 0) & (mothers < n)
        infants = np.bincount(mothers[known & (self.age_steps_arr[:n][alive] <= self.steps_per_year)],
                              minlength=n)
        living = np.bincount(mothers[known], minlength=n)
        living += np.bincount(fathers[(fathers >= 0) & (fathers < n)], minlength=n)
        return living, infants

    def kin_count_problems(self) -> list[str]:
        """The first three persons whose stored kin count differs from the
        sweep, for each count."""
        n, problems = self._next_id, []
        for (label, stored), swept in zip((("living children", self.living_children_arr),
                                           ("infants", self.infants_arr)), self._kin_counts()):
            for pid in np.flatnonzero(stored[:n] != swept)[:3].tolist():
                problems.append(f"person {pid}: {stored[pid]} {label} cached, {swept[pid]} swept")
        return problems

    # -- the birth order -------------------------------------------------

    def _birth_order(self) -> None:
        """Rebuild the birth order unless it is current: the living ids,
        oldest first and by id among equals, with room for as many
        newborns, and each pointer at the first living younger than its age."""
        if self._pointers is None:
            n = self._next_id
            living = int(np.count_nonzero(self.alive_arr[:n]))
            # Allocated before the sort's temporaries, it leaves less of the
            # heap resident once they are freed (a lower peak RSS, measured).
            self._order = np.empty(2 * living + _INITIAL_CAPACITY, dtype=np.int32)
            keys = np.where(self.alive_arr[:n], -self.age_steps_arr[:n], 1)  # the dead last
            self._order[:living] = np.argsort(keys, kind="stable")[:living]
            self._order_len = living
            self._pointers = [int(np.count_nonzero(keys <= -age)) for age in self._pointer_ages]
            # Ageing steps since, and by pointer the one at which its person,
            # if alive, reaches its age: no one behind it, newborns included,
            # reaches the age sooner. 0: look at the next step.
            self._clock, self._due = 0, [0] * len(self._pointers)

    def _advance(self, i: int) -> list[PersonId]:
        """Move pointer i past the dead and the living of at least its age;
        returns those living, ascending."""
        order, alive, ages = self._order, self.alive_arr, self.age_steps_arr
        age, p, passed = self._pointer_ages[i], self._pointers[i], []
        while p < self._order_len:
            pid = order.item(p)
            if alive.item(pid):
                if ages.item(pid) < age:
                    break
                passed.append(pid)
            p += 1
        self._pointers[i] = p
        # Past the last person, look again next step: someone may be born.
        self._due[i] = (self._clock + age - ages.item(order.item(p)) if p < self._order_len
                        else self._clock)
        return passed

    def age_one_step(self) -> list[list[PersonId]]:
        """Advance every living person by one step. Returns the living who
        reach each of threshold_ages, ascending; bumps version if anyone does."""
        self._birth_order()
        n = self._next_id
        self.age_steps_arr[:n] += self.alive_arr[:n]
        self.alive_age_steps_sum += self.alive_count
        self._clock += 1
        reached = [self._advance(i) if due <= self._clock else []
                   for i, due in enumerate(self._due[:-1])]
        for pid in reached[2]:  # "one year + 1 step": an infant no longer
            mother = self.mother_arr.item(pid)
            if mother >= 0:
                self.infants_arr[mother] -= 1
        self.version += any(reached)
        return reached

    def oldest_age(self) -> int:
        """The age in steps of the oldest living person; someone must live."""
        self._birth_order()
        self._advance(-1)
        return int(self.age_steps_arr[self._order[self._pointers[-1]]])

    def birth_order_problems(self) -> list[str]:
        """Where the birth order departs from its definition; nothing while
        it awaits a rebuild."""
        if self._pointers is None:
            return []
        order = self._order[:self._order_len]
        at = np.flatnonzero(self.alive_arr[order])  # the positions of the living
        living, problems = order[at], []
        age = self.age_steps_arr[living]
        if (len(living) != np.count_nonzero(self.alive_arr[:self._next_id]) or not (
                (age[1:] < age[:-1]) | (age[1:] == age[:-1]) & (living[1:] > living[:-1])).all()):
            problems.append("birth order: the living are not each in it once, oldest first")
        for name, limit, p in zip([*self.threshold_ages, "oldest living"], self._pointer_ages,
                                  self._pointers):
            if np.searchsorted(at, p) != np.count_nonzero(age >= limit):
                problems.append(f"birth order: the {name} pointer at {p} is not at "
                                f"the first living person younger than {limit} steps")
        return problems

    # -- mutators ------------------------------------------------------

    def spawn_person(
        self,
        gender: Gender,
        age_steps: int,
        father: Optional[PersonId] = None,
        mother: Optional[PersonId] = None,
        house: Optional[int] = None,
        space: Optional["Space"] = None,
    ) -> PersonId:
        """Add a new alive, single person; registers kinship, and moves the
        person into house through space.move_person.

        With house None the person is unhoused, as in a store built up by
        hand; every alive person must be housed by the first step boundary.
        A house that does not exist raises ValueError before a row is added.
        Initialization fills its rows through add_rows instead.
        """
        if age_steps < 0:
            raise ValueError("age must be non-negative")
        self._check_parent(father, "father", True)
        self._check_parent(mother, "mother", False)
        if house is not None:
            if space is None:
                raise ValueError("space required to register occupancy")
            space.require_house(house)
        pid = self.add_rows(1)
        male = gender is Gender.MALE
        self.age_steps_arr[pid] = age_steps
        self.male_arr[pid] = male
        self.alive_arr[pid] = True
        self.father_arr[pid] = -1 if father is None else father
        self.mother_arr[pid] = -1 if mother is None else mother
        for parent in (father, mother):
            if parent is not None:
                self.living_children_arr[parent] += 1
        if mother is not None and age_steps <= self.steps_per_year:
            self.infants_arr[mother] += 1
        if house is not None:
            space.move_person(self, pid, house)
        self.alive_count += 1
        if male:
            self.alive_male += 1
        self.alive_status_counts[STATUS_CODE[MaritalStatus.SINGLE]] += 1
        self.alive_age_steps_sum += age_steps
        if self._pointers is not None:
            if age_steps > 0 or self._order_len == len(self._order):
                self._pointers = None
            else:  # the youngest: last in the order
                self._order[self._order_len] = pid
                self._order_len += 1
        return pid

    def _check_parent(self, parent: Optional[PersonId], role: str, male: bool) -> None:
        if parent is None:
            return
        if not 0 <= parent < self._next_id:
            raise ValueError(f"{role} id {parent} does not resolve")
        if self.male_arr[parent] != male:
            raise ValueError(f"{role} {parent} is not {'male' if male else 'female'}")

    def wed(self, a: PersonId, b: PersonId) -> None:
        """Marry two alive, unmarried, opposite-gender adults."""
        if not (self.alive_arr[a] and self.alive_arr[b]):
            raise ValueError("cannot wed the dead")
        if self.male_arr[a] == self.male_arr[b]:
            raise ValueError("partners must be of opposite gender")
        if self.status_arr[a] == MARRIED_CODE or self.status_arr[b] == MARRIED_CODE:
            raise ValueError("already married")
        if min(self.age_steps_arr[a], self.age_steps_arr[b]) < self.adult_age_steps:
            raise ValueError("married persons must be adults")
        self._set_status(a, MARRIED_CODE)
        self._set_status(b, MARRIED_CODE)
        self.partner_arr[a] = b
        self.partner_arr[b] = a
        self.version += 1

    def unwed(self, a: PersonId, status: MaritalStatus) -> None:
        """Dissolve a marriage, leaving both partners with status: DIVORCED
        for a divorce, WIDOWED for a partner's death."""
        if status is not MaritalStatus.DIVORCED and status is not MaritalStatus.WIDOWED:
            raise ValueError(f"a marriage ends divorced or widowed, not {status!r}")
        b = int(self.partner_arr[a])
        if self.status_arr[a] != MARRIED_CODE or b < 0:
            raise ValueError(f"person {a} is not married")
        self._set_status(a, STATUS_CODE[status])
        self._set_status(b, STATUS_CODE[status])
        self.partner_arr[a] = -1
        self.partner_arr[b] = -1
        self.version += 1

    def kill(self, pid: PersonId, space: "Space") -> None:
        """Mark a person dead, widow any partner, and move them to the grave
        (house -1) through space.move_person. Children keep their parent
        links."""
        if not self.alive_arr[pid]:
            raise ValueError(f"person {pid} is already dead")
        if self.status_arr[pid] == MARRIED_CODE:
            self.unwed(pid, MaritalStatus.WIDOWED)
        self.alive_count -= 1
        if self.male_arr[pid]:
            self.alive_male -= 1
        self.alive_status_counts[self.status_arr[pid]] -= 1
        self.alive_age_steps_sum -= int(self.age_steps_arr[pid])
        self.alive_arr[pid] = False
        self.version += 1
        mother = self.mother_arr.item(pid)
        for parent in (self.father_arr.item(pid), mother):
            if parent >= 0:
                self.living_children_arr[parent] -= 1
        if mother >= 0 and self.age_steps_arr[pid] <= self.steps_per_year:
            self.infants_arr[mother] -= 1
        space.move_person(self, pid, -1)

    def assign_parents(self, children: np.ndarray, fathers: np.ndarray,
                       mothers: np.ndarray) -> None:
        """Late kinship registration for initialization staging: children[i]
        gets fathers[i] and mothers[i]. Checks every row before writing any,
        on whole arrays; an error names the lowest offending id, fathers
        before mothers. The kin counts are left to the caller's recount(),
        as after add_rows."""
        taken = (self.father_arr[children] >= 0) | (self.mother_arr[children] >= 0)
        if taken.any():
            raise ValueError(f"person {children[np.argmax(taken)]} already has parents")
        for parents, role, male in ((fathers, "father", True), (mothers, "mother", False)):
            resolves = (parents >= 0) & (parents < self._next_id)
            bad = ~resolves
            bad[resolves] = self.male_arr[parents[resolves]] != male
            if bad.any():
                self._check_parent(int(parents[bad].min()), role, male)
        self.father_arr[children] = fathers
        self.mother_arr[children] = mothers
        self.version += 1

    def _set_status(self, pid: PersonId, code: int) -> None:
        if self.alive_arr[pid]:
            self.alive_status_counts[self.status_arr[pid]] -= 1
            self.alive_status_counts[code] += 1
        self.status_arr[pid] = code

    # -- kinship helpers -------------------------------------------------

    def children_index(self) -> tuple[np.ndarray, np.ndarray]:
        """Children of every person in CSR form: the children of p are
        kids[offsets[p]:offsets[p + 1]], in ascending id order. Built anew
        on each call."""
        n = self._next_id
        parents = np.concatenate([self.father_arr[:n], self.mother_arr[:n]])
        kids = np.tile(np.arange(n), 2)
        known = (parents >= 0) & (parents < n)
        parents, kids = parents[known], kids[known]
        # Stable, and a parent is father or mother, never both: each
        # parent's children stay in id order.
        order = np.argsort(parents, kind="stable")
        offsets = np.zeros(n + 1, dtype=np.int64)
        np.cumsum(np.bincount(parents, minlength=n), out=offsets[1:])
        return offsets, kids[order]

    def sibling_mask(self, pid: PersonId) -> np.ndarray:
        """Persons sharing at least one parent with pid, as a mask over ids."""
        n = self._next_id
        sibs = np.zeros(n, dtype=bool)
        for parents in (self.father_arr[:n], self.mother_arr[:n]):
            if parents[pid] >= 0:
                sibs |= parents == parents[pid]
        sibs[pid] = False
        return sibs


def collect_invariant_violations(store: PopulationStore, space: "Space") -> list[str]:
    """Full structural sweep over persons and housing; returns findings.

    Checks reference resolution, partnership symmetry, gender of partners
    and parents, adult-marriage, dead-in-grave, alive-housed, occupancy
    consistency against the resident sets, the vacancy index against the
    resident sets, and kinship acyclicity.
    """
    n = store.size
    ids = np.arange(n)
    age = store.age_steps_arr[:n]
    male = store.male_arr[:n]
    alive = store.alive_arr[:n]
    married = store.status_arr[:n] == MARRIED_CODE
    house = store.house_arr[:n]
    partner = store.partner_arr[:n]
    lineage = (store.father_arr[:n], store.mother_arr[:n])
    problems: list[str] = []

    def report(mask: np.ndarray, message: str, detail: Optional[np.ndarray] = None) -> None:
        for pid in np.flatnonzero(mask).tolist():
            text = message if detail is None else message.format(int(detail[pid]))
            problems.append(f"person {pid}: {text}")

    def resolves(ref: np.ndarray) -> np.ndarray:
        return (ref >= 0) & (ref < n)

    report(age < 0, "negative age")
    report(married != (partner >= 0), "married/partner mismatch")
    report((partner >= 0) & ~resolves(partner), "partner does not resolve")
    has_partner = resolves(partner)
    mate = np.where(has_partner, partner, ids)
    report(has_partner & (partner[mate] != ids), "partnership not symmetric")
    report(has_partner & (male[mate] == male), "same-gender partnership")
    report(married & (age < store.adult_age_steps), "married minor")
    for parents, want_male in zip(lineage, (True, False)):
        report((parents >= 0) & ~resolves(parents), "parent {} does not resolve", parents)
        known = resolves(parents)
        report(known & (male[np.where(known, parents, 0)] != want_male),
               "parent {} has wrong gender", parents)

    # Housing: the resident sets of the space against house_arr.
    housed = (house >= 0) & (house < space.house_count)
    sizes = [len(r) for r in space.residents]
    occ_house = np.repeat(np.arange(space.house_count), sizes)
    occ_pid = np.fromiter(chain.from_iterable(space.residents),
                          dtype=np.int64, count=sum(sizes))
    occ_known = resolves(occ_pid)
    occ_row = np.where(occ_known, occ_pid, 0)
    occ_alive = occ_known & alive[occ_row]
    occ_home = occ_known & (house[occ_row] == occ_house)
    listed = np.zeros(n, dtype=bool)
    listed[occ_pid[occ_home]] = True

    report(alive & (house < 0), "alive but unhoused")
    report(alive & (house >= 0) & ~housed, "house {} does not resolve", house)
    report(alive & housed & ~listed, "not in occupant set of house {}", house)
    report(~alive & (house >= 0), "dead but housed")
    for i in np.flatnonzero(~(occ_alive & occ_home)).tolist():
        hid, pid = int(occ_house[i]), int(occ_pid[i])
        if not occ_known[i]:
            problems.append(f"house {hid}: occupant {pid} does not resolve")
        elif not occ_alive[i]:
            problems.append(f"house {hid}: dead occupant {pid}")
        else:
            problems.append(f"house {hid}: occupant {pid} points elsewhere")
    alive_total = int(np.count_nonzero(alive))
    if len(occ_pid) != alive_total:
        problems.append(f"occupancy bijection broken: {len(occ_pid)} occupants vs {alive_total} alive")

    # The vacancy index: each cell's empty houses, ascending.
    index = space.vacant_by_cell
    lengths = [len(empties) for empties in index.values()]
    listed = np.fromiter(chain.from_iterable(index.values()), dtype=np.int64,
                         count=sum(lengths))
    # The cell code of the list each id is in.
    owner = np.repeat(np.fromiter(index, dtype=np.int64, count=len(index)), lengths)
    unordered = (owner[1:] == owner[:-1]) & (listed[1:] <= listed[:-1])
    for cell in dict.fromkeys(owner[1:][unordered].tolist()):
        problems.append(f"cell {cell}: vacancy list not in ascending id order")
    exists = (listed >= 0) & (listed < space.house_count)
    for i in np.flatnonzero(~exists).tolist():
        problems.append(f"cell {owner[i]}: vacancy list names unknown house {listed[i]}")
    listed, owner = listed[exists], owner[exists]
    here = space.town_cell[listed] == owner
    for hid, cell in zip(listed[~here].tolist(), owner[~here].tolist()):
        problems.append(f"house {hid}: in the vacancy list of cell {cell}, "
                        f"lies in cell {space.town_cell[hid]}")
    vacant = np.bincount(occ_house, minlength=space.house_count) == 0
    for hid in listed[~vacant[listed]].tolist():
        problems.append(f"house {hid}: occupied but listed vacant")
    indexed = np.zeros(space.house_count, dtype=bool)
    indexed[listed[here]] = True
    for hid in np.flatnonzero(vacant & ~indexed).tolist():
        problems.append(f"house {hid}: vacant but missing from the vacancy list "
                        f"of cell {space.town_cell[hid]}")

    # Kinship acyclicity by peeling: drop everyone who is no remaining
    # person's parent until nothing drops; what remains is a cycle and
    # its ancestors.
    remaining = np.ones(n, dtype=bool)
    while True:
        is_parent = np.zeros(n, dtype=bool)
        for parents in lineage:
            linked = remaining & resolves(parents)
            is_parent[parents[linked]] = True
        leaves = remaining & ~is_parent
        if not leaves.any():
            break
        remaining &= ~leaves
    if remaining.any():
        problems.append(f"person {int(np.argmax(remaining))}: ancestry cycle")
    return problems
