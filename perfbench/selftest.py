"""Self-test of the benchmark's correctness checks, at a small size.

    python3 perfbench/selftest.py

Runs one small audited, traced round, shows that every check passes on
its outputs, then corrupts an output (or the run) once per check and shows
that the check fails. Prints one line per case and exits 0 only when every
case behaves.
"""

from __future__ import annotations

import shutil
import sys
from dataclasses import replace
from types import SimpleNamespace

import worker  # puts the checkout's src/ on sys.path
from checks import (death_count_problems, final_row_problems, married_problems,
                    parse_export, parse_statistics, statistics_row_problems)
from gridpop import engine, events, features
from workloads import Workload

OUT = worker.ROOT / ".perfbench_out" / "selftest"
SMALL = Workload(400, "monthly", 12, 3, audit=True)
SEED = 7

failures: list[str] = []


def expect(case: str, problems: list[str], fragment: str | None) -> None:
    """fragment None: the check must pass; otherwise a problem must contain it."""
    if fragment is None:
        ok = not problems
    else:
        ok = any(fragment in p for p in problems)
    print(f"{'ok  ' if ok else 'FAIL'} {case}: {problems[0] if problems else 'no problems'}")
    if not ok:
        failures.append(case)


def stats_with(rows_text: list[str], row: int, **changes) -> list[dict]:
    rows = parse_statistics("\n".join(rows_text) + "\n")
    rows[row].update(changes)
    return rows


def statistics_cases(text: str, steps: int) -> None:
    lines = text.splitlines()
    rows = parse_statistics(text)
    mid = len(rows) // 2
    r = rows[mid]
    expect("statistics rows, clean", statistics_row_problems(rows, steps + 1), None)
    cases = (
        ("alive off by one", {"alive": r["alive"] + 1}, "alive"),
        ("males + females", {"males": r["males"] + 1}, "males + females"),
        ("statuses sum", {"single": r["single"] + 1}, "statuses"),
        ("odd married", {"married": r["married"] + 1, "single": r["single"] - 1}, "odd married"),
        ("houses fell", {"houses": rows[mid - 1]["houses"] - 1}, "houses fell"),
        ("occupied > houses", {"occupied_houses": r["houses"] + 1}, "more occupied"),
    )
    for name, changes, fragment in cases:
        expect(f"statistics rows, {name}",
               statistics_row_problems(stats_with(lines, mid, **changes), steps + 1), fragment)
    expect("statistics rows, row dropped",
           statistics_row_problems(rows[:mid] + rows[mid + 1:], steps + 1), "rows, expected")


def export_cases(stats_text: str, export_text: str) -> None:
    final = parse_statistics(stats_text)[-1]
    spy, persons = parse_export(export_text)
    expect("final row vs export, clean", final_row_problems(final, spy, persons), None)
    expect("married persons, clean", married_problems(spy, persons), None)
    alive = [p for p in persons.values() if p.alive]
    single = next(p for p in alive if p.status == "single")
    husband = next(p for p in alive if p.status == "married" and p.male)
    wife = persons[husband.partner]
    other = next(p for p in alive if p.id not in (husband.id, wife.id))

    def corrupt(*people):
        return {**persons, **{p.id: p for p in people}}

    expect("final row vs export, gender flipped",
           final_row_problems(final, spy, corrupt(single._replace(male=not single.male))),
           "final males")
    expect("final row vs export, age changed",
           final_row_problems(final, spy, corrupt(single._replace(age_steps=single.age_steps + 99))),
           "mean_age")
    expect("final row vs export, person marked dead",
           final_row_problems(final, spy, corrupt(single._replace(alive=False))), "final alive")
    expect("final row vs export, person moved to an empty house",
           final_row_problems(final, spy, corrupt(wife._replace(house="999999"))),
           "occupied_houses")
    expect("married persons, broken partner link",
           married_problems(spy, corrupt(husband._replace(partner=other.id))), "partner")
    expect("married persons, same-gender partner",
           married_problems(spy, corrupt(wife._replace(male=True))), "same gender")
    expect("married persons, minor",
           married_problems(spy, corrupt(husband._replace(age_steps=17 * spy))), "married minor")


def series_cases() -> None:
    """The feature-series check on clean and tampered event logs of a small audited run."""
    found = {"clean": [], "death added": [], "birth dropped": []}

    def hook(k, snapshot, log, store, space):
        ctx = features.EvalContext(store, space, snapshot)
        found["clean"] += worker.series_problems(ctx, snapshot, log)[1]
        alive = store.alive_ids()
        extra_death = replace(log, deaths=log.deaths + [alive[0]])
        found["death added"] += worker.series_problems(ctx, snapshot, extra_death)[1]
        if log.births:
            dropped = replace(log, births=log.births[1:])
            found["birth dropped"] += worker.series_problems(ctx, snapshot, dropped)[1]

    model, config = worker.params.load_config(OUT / "clean" / "config.cfg")
    engine.run_simulation(config, model, worker.params.DataTables(), step_hook=hook)
    expect("feature series, clean", found["clean"], None)
    expect("feature series, extra logged death", found["death added"], "deaths")
    expect("feature series, missing logged birth", found["birth dropped"], "births")


def round_trip_cases(export_text: str) -> None:
    src, out = OUT / "roundtrip_in.txt", OUT / "roundtrip_out.txt"
    src.write_text(export_text)
    worker.round_trip(src, out)
    expect("round trip, clean", worker.round_trip_problems(src, out), None)
    # Children lists are written sorted; an unsorted one does not survive.
    lines = export_text.splitlines()
    i = next(i for i, ln in enumerate(lines)
             if not ln.startswith("#") and "," in ln.split(" ")[8])
    cells = lines[i].split(" ")
    cells[8] = ",".join(reversed(cells[8].split(",")))
    lines[i] = " ".join(cells)
    src.write_text("\n".join(lines) + "\n")
    worker.round_trip(src, out)
    expect("round trip, unsorted children list", worker.round_trip_problems(src, out), "changed")


def final_audit_cases(stats_text: str, export_text: str) -> None:
    final = parse_statistics(stats_text)[-1]
    final = SimpleNamespace(alive=final["alive"], married=final["married"])
    path = OUT / "final_audit.txt"
    path.write_text(export_text)
    expect("final audit, clean", worker.final_audit(path, final), None)
    lines = export_text.splitlines()
    i = next(i for i, ln in enumerate(lines)
             if not ln.startswith("#") and ln.split(" ")[4] == "married")
    cells = lines[i].split(" ")
    cells[5] = "-"  # married, but no partner
    lines[i] = " ".join(cells)
    path.write_text("\n".join(lines) + "\n")
    expect("final audit, partner link removed", worker.final_audit(path, final), "partner")


def audit_error_case() -> None:
    """A state corrupted mid-run must stop the audited round."""
    original = events.divorces_step

    def corrupting(store, space, *args, **kwargs):
        original(store, space, *args, **kwargs)
        married = next(p for p in store.persons.values() if p.alive and p.married)
        married.partner = None

    events.divorces_step = corrupting
    try:
        report = worker.run_round(SMALL, SEED, OUT / "corrupted", traced=False)
    finally:
        events.divorces_step = original
    expect("no AuditError, state corrupted mid-run", [report.get("error", "")]
           if "error" in report else [], "AuditError")


def setup_span_case() -> None:
    """A run whose set-up never passes through build_initial_state fails."""
    original = worker.install
    worker.install = lambda *args, **kwargs: None
    try:
        report = worker.run_round(replace(SMALL, audit=False), SEED, OUT / "nosetup", traced=False)
    finally:
        worker.install = original
    expect("set-up span never fires", [report.get("error", "")] if "error" in report else [],
           "build_initial_state never ran")


def main() -> int:
    shutil.rmtree(OUT, ignore_errors=True)
    report = worker.run_round(SMALL, SEED, OUT / "clean", traced=True)
    if "error" in report:
        print(f"FAIL clean round: {report['error']}")
        return 1
    for name, problems in report["checks"].items():
        expect(f"{name}, clean", problems, None)
    stats_text = (OUT / "clean" / "statistics.csv").read_text()
    export_text = (OUT / "clean" / "population.txt").read_text()
    statistics_cases(stats_text, SMALL.steps)
    export_cases(stats_text, export_text)
    series_cases()
    round_trip_cases(export_text)
    final_audit_cases(stats_text, export_text)
    expect("death count, 6 sd too many", death_count_problems(160, 100.0, 100.0), "deaths")
    expect("death count, 2 sd too few", death_count_problems(80, 100.0, 100.0), None)
    audit_error_case()
    setup_span_case()
    shutil.rmtree(OUT, ignore_errors=True)
    print(f"{len(failures)} case(s) misbehaved" if failures else "every check behaves")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
