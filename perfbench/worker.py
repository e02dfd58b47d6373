"""One round of a workload, in the process that runs it.

    python3 perfbench/worker.py --workload NAME --gridpop-seed N --out DIR --trace 0|1

Writes the round's config into DIR, runs gridpop on it through the
program's public functions, writes statistics.csv and population.txt
there, and prints one JSON line: the round's timings, its peak resident
memory, the checks that need the live program and, when traced, the
per-layer spans and counters. run.py starts one such process per round.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402

from gridpop import engine, events, features, initialization, params, population, space  # noqa: E402

from checks import death_count_problems  # noqa: E402
from tracing import Tracer, replace_function  # noqa: E402
from workloads import DEATH_PARAMETERS, WORKLOADS, Workload, config_text  # noqa: E402

# Every span of a traced round: (span name, module, attribute path).
SPANS = (
    ("engine.run_simulation", engine, "run_simulation"),
    ("initialization.build_initial_state", initialization, "build_initial_state"),
    ("initialization.init_ages_and_genders", initialization, "init_ages_and_genders"),
    ("initialization.init_partnerships", initialization, "init_partnerships"),
    ("initialization.init_children", initialization, "init_children"),
    ("initialization.init_housing", initialization, "init_housing"),
    ("space.Space.find_or_create_empty_house", space, "Space.find_or_create_empty_house"),
    ("events.ageing_step", events, "ageing_step"),
    ("events.deaths_step", events, "deaths_step"),
    ("events.births_step", events, "births_step"),
    ("events.divorces_step", events, "divorces_step"),
    ("events.marriages_step", events, "marriages_step"),
    ("features.StepSnapshot.capture", features, "StepSnapshot.capture"),
    ("features.subpopulation", features, "subpopulation"),
    ("population.collect_invariant_violations", population, "collect_invariant_violations"),
    ("engine.collect_step_statistics", engine, "collect_step_statistics"),
    ("engine.write_statistics", engine, "write_statistics"),
    ("engine.export_population", engine, "export_population"),
    ("engine.import_population", engine, "import_population"),
)

# Per-layer seconds are self times: a span minus the spans nested in it.
SECONDS_METRICS = {
    "initialization.spawn_s": "initialization.build_initial_state",
    "initialization.ages_genders_s": "initialization.init_ages_and_genders",
    "initialization.partnerships_s": "initialization.init_partnerships",
    "initialization.children_s": "initialization.init_children",
    "initialization.housing_s": "initialization.init_housing",
    "space.empty_house_lookup_s": "space.Space.find_or_create_empty_house",
    "events.ageing_s": "events.ageing_step",
    "events.deaths_s": "events.deaths_step",
    "events.births_s": "events.births_step",
    "events.divorces_s": "events.divorces_step",
    "events.marriages_s": "events.marriages_step",
    "features.snapshot_s": "features.StepSnapshot.capture",
    "features.subpopulation_s": "features.subpopulation",
    "population.invariant_sweep_s": "population.collect_invariant_violations",
    "engine.statistics_s": "engine.collect_step_statistics",
    "engine.loop_self_s": "engine.run_simulation",
    "engine.write_statistics_s": "engine.write_statistics",
    "engine.export_s": "engine.export_population",
    "engine.import_s": "engine.import_population",
}
COUNT_METRICS = (
    "initialization.couples", "space.houses", "events.births", "events.deaths",
    "events.marriages", "events.divorces", "events.moves", "events.birth_candidates",
    "events.marriage_candidates", "features.evaluations", "population.persons",
)
EVENT_COUNTS = ("births", "deaths", "marriages", "divorces", "moves")

MARRIED_CODE = population.STATUS_CODE[population.MaritalStatus.MARRIED]
F = features
DEATHS, BIRTHS = F.just(~F.ALIVE), F.just(F.ALIVE)
NEW_MARRIED, MALE_DIVORCES = F.just(F.MARRIED), F.just(F.DIVORCED) & F.MALE


def series_problems(ctx, snapshot, log) -> tuple[int, list[str]]:
    """Feature-algebra series of one step against that step's event log."""
    def was_married(pid):
        return pid < snapshot.size and snapshot.status[pid] == MARRIED_CODE

    series = (
        ("deaths", DEATHS, sorted(log.deaths)),
        ("births", BIRTHS, sorted(log.births)),
        # A same-step widow or divorcee who remarried was married before.
        ("new marriages", NEW_MARRIED,
         sorted(pid for couple in log.marriages for pid in couple if not was_married(pid))),
        # Men cannot remarry in the step they divorce.
        ("male divorces", MALE_DIVORCES, sorted(man for man, _ in log.divorces)),
    )
    problems = []
    for name, expr, expected in series:
        got = features.subpopulation(expr, ctx)
        if got != expected:
            problems.append(f"{name}: algebra {got[:5]} != log {expected[:5]}")
    return len(series), problems


class StepWatch:
    """The step hook: event totals, the audit feature series, and the end
    of the last step."""

    def __init__(self, total_steps: int, audit_series: bool):
        self.total_steps = total_steps
        self.audit_series = audit_series
        self.events = dict.fromkeys(EVENT_COUNTS, 0)
        self.series_checks = 0
        self.series_problems: list[str] = []
        self.last_step_end = None

    def __call__(self, k, snapshot, log, store, space_):
        e = self.events
        e["births"] += len(log.births)
        e["deaths"] += len(log.deaths)
        e["marriages"] += len(log.marriages)
        e["divorces"] += len(log.divorces)
        e["moves"] += len(log.orphan_moves) + len(log.divorce_moves)
        if self.audit_series:
            checks, problems = series_problems(features.EvalContext(store, space_, snapshot), snapshot, log)
            self.series_checks += checks
            self.series_problems += [f"step {k}: {p}" for p in problems]
        if k == self.total_steps - 1:
            self.last_step_end = time.perf_counter()


class DeathForecast:
    """The paper's death hazard, -ln(1-p)/N with p = base + e^(age/scale)*slope,
    summed over the agents alive when each step's deaths are drawn. The
    rates are the benchmark's own copy, the one it writes into the config."""

    def __init__(self):
        self.expected = 0.0
        self.variance = 0.0

    def __call__(self, store, *args, **kwargs):
        d = DEATH_PARAMETERS
        n, spy = store.size, store.steps_per_year
        alive = store.alive_arr[:n]
        ages = store.age_steps_arr[:n][alive] / spy
        male = store.male_arr[:n][alive]
        yearly = d["baseDieRate"] + np.where(
            male, np.exp(ages / d["maleAgeScaling"]) * d["maleAgeDieProb"],
            np.exp(ages / d["femaleAgeScaling"]) * d["femaleAgeDieProb"])
        yearly = np.clip(yearly, 0.0, 1.0 - 1e-9)
        q = -np.log1p(-yearly) / spy
        self.expected += float(q.sum())
        self.variance += float((q * (1.0 - q)).sum())


def _install(tracer: Tracer, name: str, module, path: str, **callbacks) -> None:
    owner_name, _, attr = path.rpartition(".")
    if owner_name:  # a method: rebind it on its class
        owner = getattr(module, owner_name)
        original = getattr(owner, attr)
        wrapped = tracer.wrap(name, original, **callbacks)
        is_static = isinstance(vars(owner)[attr], (classmethod, staticmethod))
        setattr(owner, attr, staticmethod(wrapped) if is_static else wrapped)
    else:
        original = getattr(module, attr)
        replace_function(original, tracer.wrap(name, original, **callbacks))


def install(tracer: Tracer, traced: bool, marks: dict, forecast: DeathForecast) -> None:
    """Spans for a traced round; an untraced round times set-up alone."""
    def setup_done(result, store, *args, **kwargs):
        marks["setup_end"] = time.perf_counter()
        if traced:
            tracer.add("initialization.couples",
                       sum(p.married for p in store.persons.values()) // 2)

    if not traced:
        _install(tracer, "initialization.build_initial_state", initialization,
                 "build_initial_state", after=setup_done)
        return

    def birth_candidates(store, *args, **kwargs):
        n = store.size
        tracer.add("events.birth_candidates", int(np.count_nonzero(
            store.alive_arr[:n] & ~store.male_arr[:n]
            & (store.status_arr[:n] == MARRIED_CODE)
            & (store.age_steps_arr[:n] < 45 * store.steps_per_year))))

    def evaluations(expr, ctx):
        tracer.add("features.evaluations", len(ctx.store.persons))

    callbacks = {
        "initialization.build_initial_state": {"after": setup_done},
        "events.deaths_step": {"before": forecast},
        "events.births_step": {"before": birth_candidates},
        "features.subpopulation": {"before": evaluations},
    }
    for name, module, path in SPANS:
        _install(tracer, name, module, path, **callbacks.get(name, {}))

    def scored(span, age_m, ages_f):
        if span == "events.marriages_step":
            return "events.marriage_candidates", len(ages_f)
        return None

    original = events.age_compatibility_array
    replace_function(original, tracer.probe(original, scored))


def round_trip(pop_path: Path, roundtrip_path: Path) -> None:
    store, space_ = engine.import_population(pop_path)
    engine.export_population(store, space_, roundtrip_path)


def round_trip_problems(pop_path: Path, roundtrip_path: Path) -> list[str]:
    if pop_path.read_bytes() != roundtrip_path.read_bytes():
        return ["export -> import_population -> export changed the file"]
    return []


def final_audit(pop_path: Path, final) -> list[str]:
    """Import the export, sweep its invariants and count it with the
    feature algebra: the audit layers at this workload's scale."""
    store, space_ = engine.import_population(pop_path)
    problems = population.collect_invariant_violations(store, space_)[:5]
    ctx = features.EvalContext(store, space_, None)
    alive = len(features.subpopulation(F.ALIVE, ctx))
    married_men = len(features.subpopulation(F.MARRIED & F.MALE, ctx))
    if alive != final.alive:
        problems.append(f"algebra counts {alive} alive, statistics {final.alive}")
    if 2 * married_men != final.married:
        problems.append(f"algebra counts {married_men} married men, statistics {final.married}")
    return problems


def layer_metrics(tracer: Tracer) -> tuple[dict[str, float], list[str]]:
    """Per-layer metrics, and the names of spans and counters that never fired."""
    metrics, missing = {}, []
    for metric, span in SECONDS_METRICS.items():
        if tracer.spans[span].calls:
            metrics[metric] = tracer.spans[span].self_time
        elif span not in missing:
            missing.append(span)
    lookups = tracer.spans["space.Space.find_or_create_empty_house"].calls
    if lookups:
        metrics["space.empty_house_lookups"] = lookups
    for metric in COUNT_METRICS:
        if metric in tracer.counts:
            metrics[metric] = tracer.counts[metric]
        else:
            missing.append(metric)
    return metrics, missing


def run_round(workload: Workload, gridpop_seed: int, out: Path, traced: bool) -> dict:
    """Run one round into `out` and return its report."""
    out.mkdir(parents=True, exist_ok=True)
    config_path = out / "config.cfg"
    config_path.write_text(config_text(workload, gridpop_seed, str(out)))
    model, config = params.load_config(config_path)
    tracer, marks, forecast = Tracer(), {}, DeathForecast()
    install(tracer, traced, marks, forecast)
    watch = StepWatch(config.total_steps, audit_series=workload.audit)
    # A span of its own keeps the hook out of engine.run_simulation's self time.
    hook = tracer.wrap("perfbench.step_hook", watch) if traced else watch
    stats_path, pop_path = out / "statistics.csv", out / "population.txt"
    roundtrip_path = out / "population_roundtrip.txt"

    t_start = time.perf_counter()
    tables = params.DataTables(fertility=engine.load_fertility_table(config.fertility))
    try:
        result = engine.run_simulation(config, model, tables, step_hook=hook)
    except engine.AuditError as exc:
        return {"error": f"AuditError: {exc}"}
    engine.write_statistics(result.statistics, stats_path)
    engine.export_population(result.store, result.space, pop_path)
    if workload.audit:
        round_trip(pop_path, roundtrip_path)
    t_end = time.perf_counter()
    peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # bytes there, KiB on Linux
        peak_kib /= 1024

    if "setup_end" not in marks:
        return {"error": "build_initial_state never ran: no set-up time"}
    report = {
        "wall_s": t_end - t_start,
        "setup_s": tracer.spans["initialization.build_initial_state"].total,
        "stepping_s": watch.last_step_end - marks["setup_end"],
        "peak_rss_mb": peak_kib / 1024,
        "steps": config.total_steps,
        "operations": config.total_steps,
        "checks": {},
    }
    checks = report["checks"]
    if workload.audit:
        report["operations"] += watch.series_checks
        checks["feature_series"] = watch.series_problems
        checks["round_trip"] = round_trip_problems(pop_path, roundtrip_path)
    if traced:
        final = result.statistics[-1]
        checks["death_count"] = death_count_problems(
            watch.events["deaths"], forecast.expected, forecast.variance)
        for name in EVENT_COUNTS:
            tracer.add(f"events.{name}", watch.events[name])
        tracer.add("population.persons", len(result.store))
        tracer.add("space.houses", result.space.house_count)
        del result  # the final audit's import should not sit on the run's state
        if not workload.audit:
            checks["final_audit"] = final_audit(pop_path, final)
        report["layers"], report["missing"] = layer_metrics(tracer)
        report["spans"] = {name: [s.calls, s.total, s.self_time]
                           for name, s in tracer.spans.items()}
        report["counts"] = tracer.counts
    report["operations"] += len([c for c in checks if c != "feature_series"])
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--gridpop-seed", type=int, required=True)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not Path(engine.__file__).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"gridpop was imported from {engine.__file__}, not from {ROOT / 'src'}")
    report = run_round(WORKLOADS[args.workload], args.gridpop_seed, args.out, bool(args.trace))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
