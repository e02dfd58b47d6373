"""Correctness checks computed from the files a run writes.

The parsers here are the benchmark's own and import nothing from gridpop,
so a fault in the program's writers cannot hide behind the same fault in
a shared reader. Every check returns a list of problems; empty means pass.
"""

from __future__ import annotations

import math
from typing import NamedTuple

STAT_COLUMNS = ("time", "alive", "males", "females", "married", "single",
                "divorced", "widowed", "mean_age", "births", "deaths",
                "marriages", "divorces", "orphan_moves", "divorce_moves",
                "houses", "occupied_houses")
STATUSES = ("married", "single", "divorced", "widowed")
ADULT_YEARS = 18

# A death count further than this many standard deviations from the
# prediction fails; a correct program trips it about once in 16,000 runs.
DEATH_TOLERANCE_SD = 4.0


class ExportedPerson(NamedTuple):
    id: int
    male: bool
    age_steps: int
    alive: bool
    status: str
    partner: int | None
    house: str


def parse_statistics(text: str) -> list[dict]:
    lines = text.splitlines()
    if not lines or lines[0] != ",".join(STAT_COLUMNS):
        raise ValueError("statistics.csv: unexpected header")
    rows = []
    for i, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(STAT_COLUMNS):
            raise ValueError(f"statistics.csv row {i}: {len(cells)} cells")
        rows.append({c: float(v) if c in ("time", "mean_age") else int(v)
                     for c, v in zip(STAT_COLUMNS, cells)})
    return rows


def parse_export(text: str) -> tuple[int, dict[int, ExportedPerson]]:
    """steps_per_year and every person of a population export, by id."""
    steps_per_year = None
    persons: dict[int, ExportedPerson] = {}
    for line in text.splitlines():
        if line.startswith("# steps_per_year="):
            steps_per_year = int(line.split("=", 1)[1])
        if line.startswith("#") or not line:
            continue
        pid, gender, age, alive, status, partner, _f, _m, _c, house, _x, _y = line.split(" ")
        persons[int(pid)] = ExportedPerson(
            int(pid), gender == "male", int(age), alive == "1", status,
            None if partner == "-" else int(partner), house)
    if steps_per_year is None:
        raise ValueError("population export: no steps_per_year header")
    return steps_per_year, persons


def statistics_row_problems(rows: list[dict], expected_rows: int) -> list[str]:
    """Conservation and bookkeeping identities that every row must satisfy."""
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    prev = None
    for i, r in enumerate(rows):
        if prev is not None and r["alive"] != prev["alive"] + r["births"] - r["deaths"]:
            problems.append(f"row {i}: alive {r['alive']} != {prev['alive']} "
                            f"+ {r['births']} births - {r['deaths']} deaths")
        if r["males"] + r["females"] != r["alive"]:
            problems.append(f"row {i}: males + females != alive")
        if sum(r[s] for s in STATUSES) != r["alive"]:
            problems.append(f"row {i}: marital statuses do not sum to alive")
        if r["married"] % 2:
            problems.append(f"row {i}: odd married count {r['married']}")
        if prev is not None and r["houses"] < prev["houses"]:
            problems.append(f"row {i}: houses fell from {prev['houses']} to {r['houses']}")
        if r["occupied_houses"] > r["houses"]:
            problems.append(f"row {i}: more occupied houses than houses")
        prev = r
    return problems


def final_row_problems(row: dict, steps_per_year: int,
                       persons: dict[int, ExportedPerson]) -> list[str]:
    """The last statistics row against the export, as this module counts it."""
    alive = [p for p in persons.values() if p.alive]
    counted = {
        "alive": len(alive),
        "males": sum(p.male for p in alive),
        "occupied_houses": len({p.house for p in alive}),
    }
    counted.update({s: sum(p.status == s for p in alive) for s in STATUSES})
    problems = [f"final {k}: statistics {row[k]} != export {v}"
                for k, v in counted.items() if row[k] != v]
    mean_age = sum(p.age_steps for p in alive) / len(alive) / steps_per_year if alive else 0.0
    # The CSV prints mean_age to 6 significant digits.
    if not math.isclose(row["mean_age"], mean_age, rel_tol=1e-5, abs_tol=1e-9):
        problems.append(f"final mean_age: statistics {row['mean_age']} != export {mean_age:.6g}")
    return problems


def married_problems(steps_per_year: int, persons: dict[int, ExportedPerson]) -> list[str]:
    """Every married person is an adult whose opposite-gender partner points back."""
    problems = []
    for p in persons.values():
        if p.status != "married":
            continue
        if p.age_steps < ADULT_YEARS * steps_per_year:
            problems.append(f"person {p.id}: married minor")
        q = persons.get(p.partner) if p.partner is not None else None
        if q is None:
            problems.append(f"person {p.id}: married without a resolvable partner")
        elif q.male == p.male:
            problems.append(f"person {p.id}: partner {q.id} has the same gender")
        elif q.partner != p.id:
            problems.append(f"person {p.id}: partner {q.id} does not point back")
    return problems


def death_count_problems(observed: int, expected: float, variance: float) -> list[str]:
    """Observed deaths against the independently predicted binomial count."""
    sd = math.sqrt(variance)
    if abs(observed - expected) > DEATH_TOLERANCE_SD * sd:
        return [f"{observed} deaths, predicted {expected:.1f} +- {sd:.1f} "
                f"(tolerance {DEATH_TOLERANCE_SD:g} sd)"]
    return []


def agent_steps(rows: list[dict], steps: int) -> int:
    """Agents alive at the start of each step, summed over the steps."""
    return sum(r["alive"] for r in rows[:steps])


def file_problems(statistics_text: str, export_text: str,
                  steps: int) -> tuple[dict[str, list[str]], list[dict]]:
    """All checks on a round's two files, by check name, plus the parsed rows."""
    rows = parse_statistics(statistics_text)
    steps_per_year, persons = parse_export(export_text)
    return {
        "statistics_rows": statistics_row_problems(rows, steps + 1),
        "final_row_vs_export": final_row_problems(rows[-1], steps_per_year, persons),
        "married_in_export": married_problems(steps_per_year, persons),
    }, rows
