#!/usr/bin/env python3
"""fabflock benchmark: the small-fab experiment and a 10x fab per policy.

Run from the repository root:

    python3 bench/run.py --workload smallfab-2x50 --seed 1 --seconds 30 --trace 0

The benchmark drives the package through its public functions only, from one
process without threads, and measures for ``--seconds`` seconds. The last
line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it list every
metric by name with its unit, the simulated statistics and the checks.

Workloads (``BENCHMARK.json`` says why each was chosen). A *unit* is one
call of ``cli.run_experiment``, the function the ``fabflock`` command runs:

- ``smallfab-2x50``: the built-in small fab, both policies, 50 replications
  each at base seed ``--seed``; every unit repeats the same experiment.
- ``fab10x-baseline`` / ``fab10x-flocking``: the small fab with ten times the
  machines and lots per type (190 machines, 1050 lots), one policy. Unit
  ``u`` runs replications from base seed ``--seed + u * runs``.

Scenarios reach the program only as files this script generates under
``.bench_build/bench/`` and ``parse_scenario`` reads.

``--trace 0`` reports the end-to-end metrics, measured untraced:

- ``wall_s``: median wall time of one unit;
- ``lot_steps_per_s``: lot process steps completed per host second over all
  units (lots x recipe length x replications);
- ``run_ms_p50``: median host time of one replication round, that is
  ``init_run`` + ``run_to_completion`` of each of the workload's policies at
  one seed. The p90 is printed where at least ten rounds lie beyond it;
- ``setup_s``: median over fresh interpreters of ``import fabflock`` plus
  reading, parsing and validating the workload's scenario file;
- ``peak_rss_mb``: peak resident memory of the benchmark process.

``--trace 1`` first runs the untraced units, then one traced unit at base
seed ``--seed`` that records a span per call of the functions listed in
``SITES`` and reports per-layer metrics:

- ``<span>.calls`` and ``<span>.self_pct``: calls per unit and the span's
  self time as a share of the traced unit's wall time (a share, unlike
  milliseconds, is a measured number even where the workload never calls
  the function);
- ``<span>.ms``: median duration of one call, for set-up, ``init_run`` and
  the output functions;
- ratios of useful outcomes per attempt taken where the work happens, and
  ``trace_overhead_pct``, the traced unit's wall time over the untraced
  median;
- engine counts and untraced tick latencies from stepping ``engine.tick``
  directly and reading ``SimState`` between ticks. Timing the five phases
  inside one tick waits until ``engine.tick`` is split into phase functions.

Correctness: every replication's digest (summary statistics, final tick and
random-number generator state) must match ``pins.json`` where it pins that
seed, and otherwise every repeat within the run; the five CSVs of
``smallfab-2x50`` at seed 1 must match their pinned sha256. A mismatch or a
raised exception counts the replication as failed and makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "bench"

if not (SRC / "fabflock" / "__init__.py").is_file():
    sys.exit(f"bench: no fabflock sources under {SRC}")
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from fabflock import baseline, cli, engine, flocking, metrics, model, scenario  # noqa: E402
from spans import SpanRecorder, durations_by_name, patched, self_time_by_name  # noqa: E402

#: Fresh interpreters started per run to measure set-up.
SETUP_REPEATS = 11
#: Tick samples the engine probe collects under ``--trace 1``: ten beyond the p99.
PROBE_MIN_TICKS = 1000
#: Acceptance criterion 1's reference ranges for the small-fab baseline means.
REFERENCE_RANGES = {"flow_factor": (2.71, 3.31), "makespan": (292, 357),
                    "utilization": (0.62, 0.76), "tardiness": (152, 186)}

END_TO_END = {"wall_s": "s", "lot_steps_per_s": "1/s", "run_ms_p50": "ms",
              "setup_s": "s", "peak_rss_mb": "MB"}


@dataclass(frozen=True)
class Workload:
    name: str
    scale: int
    policies: tuple[str, ...]
    runs: int
    vary_seed: bool

    def unit_seed(self, seed: int, unit: int) -> int:
        return seed + unit * self.runs if self.vary_seed else seed


WORKLOADS = {w.name: w for w in (
    Workload("smallfab-2x50", 1, ("baseline", "flocking"), 50, False),
    Workload("fab10x-baseline", 10, ("baseline",), 4, True),
    Workload("fab10x-flocking", 10, ("flocking",), 1, True),
)}


def smoke(w: Workload) -> Workload:
    """Same code paths on the small fab with two replications per unit."""
    return Workload(w.name, 1, w.policies, 2, w.vary_seed)


# --- inputs -----------------------------------------------------------------

#: The small fab's workcenters: (id, kind, machines, rpt_hours, bs, wt_hours).
SMALL_FAB_MACHINES = ((0, "single", 5, 0.2, None, None),
                      (1, "single", 4, 0.2, None, None),
                      (2, "batch", 6, 1.5, 4, 0.3),
                      (3, "single", 2, 0.2, None, None),
                      (4, "single", 2, 0.2, None, None))


def fab_text(scale: int) -> str:
    """Scenario file of the small fab with ``scale`` times its machines and
    lots per type; recipes, process times, batch size and timer unchanged."""
    lines = ["scenario smallfab" if scale == 1 else f"scenario fab{scale}x",
             "tick_hours 0.1"]
    for mid, kind, count, rpt, bs, wt in SMALL_FAB_MACHINES:
        line = f"machinetype {mid} kind {kind} count {count * scale} rpt_hours {rpt}"
        if bs is not None:
            line += f" bs {bs} wt_hours {wt}"
        lines.append(line)
    for t in range(10):
        recipe = " ".join(f"0 1 2 {3 + (t + layer) % 2}" for layer in range(4))
        lines.append(f"lottype {t} count {(6 + t) * scale} recipe {recipe}")
    return "\n".join(lines) + "\n"


# --- correctness ------------------------------------------------------------

def replication_digest(state: engine.SimState, result: metrics.RunResult) -> str:
    """Summary statistics, final tick and generator state of one replication;
    the state catches any change to the order random numbers are drawn in."""
    s = metrics.summarize(result)
    fields = (s.makespan, s.flow_factor, s.tardiness, s.utilization,
              state.clock, state.rng.getstate())
    return hashlib.sha256(repr(fields).encode()).hexdigest()[:16]


def csv_names(policies: tuple[str, ...]) -> list[str]:
    """The files ``run_experiment`` writes for these policies."""
    return ["runs.csv", "aggregate.csv", "comparison.csv"] + \
        [f"histogram_{p}.csv" for p in policies]


def csv_digests(out_dir: Path, policies: tuple[str, ...]) -> dict[str, str]:
    return {n: hashlib.sha256((out_dir / n).read_bytes()).hexdigest()
            for n in csv_names(policies)}


def load_pins() -> dict:
    return json.loads((HERE / "pins.json").read_text(encoding="utf-8"))


class Gate:
    """Counts replications attempted and failed against pinned digests, or
    against the first result of the same key within this run."""

    def __init__(self, pins: dict):
        self.pins = pins
        self.first: dict[str, object] = {}
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def _agrees(self, table: str, key: str, value) -> bool:
        expected = self.pins.get(table, {}).get(key)
        if expected is None:
            expected = self.first.setdefault(f"{table}:{key}", value)
        if value != expected:
            self.errors.append(f"{table} {key}: got {value}, expected {expected}")
            return False
        return True

    def unit(self, scenario_name: str, policies: tuple[str, ...], runs: int,
             base_seed: int, out_dir: Path, reps: list["Replication"]) -> None:
        csv_key = f"{scenario_name}/{'+'.join(policies)}/runs{runs}/seed{base_seed}"
        csv_ok = self._agrees("csv", csv_key, csv_digests(out_dir, policies))
        for rep in reps:
            self.replication(scenario_name, rep, csv_ok)

    def replication(self, scenario_name: str, rep: "Replication", ok: bool = True) -> None:
        key = f"{scenario_name}/{rep.policy}/{rep.seed}"
        ok = self._agrees("replications", key, rep.digest) and ok
        self.attempted += 1
        self.failed += not ok

    def raised(self, what: str, attempted: int) -> None:
        self.errors.append(f"{what} raised:\n{traceback.format_exc()}")
        self.attempted += attempted
        self.failed += attempted


# --- untraced measurement ---------------------------------------------------

@dataclass
class Replication:
    policy: str
    seed: int
    seconds: float
    digest: str
    summary: metrics.MetricsSummary
    ticks: int
    lot_steps: int


def replication_of(seconds: float, state: engine.SimState,
                result: metrics.RunResult) -> Replication:
    steps = sum(len(state.recipes[lot.lot_type]) for lot in state.lots)
    return Replication(result.algorithm, result.seed, seconds,
                       replication_digest(state, result), metrics.summarize(result),
                       state.clock, steps)


class ReplicationLog:
    """Times each replication ``cli.run_experiment`` runs, from the start of
    ``init_run`` to the return of ``run_to_completion``, and keeps its final
    state for the digest. Two clock reads per replication."""

    def __init__(self) -> None:
        self.done: list[tuple[float, engine.SimState, metrics.RunResult]] = []
        self._open: tuple[float, engine.SimState] | None = None

    @contextmanager
    def installed(self):
        real_init, real_run = cli.init_run, cli.run_to_completion

        def init_run(scenario_, policy, seed):
            started = perf_counter()
            state = real_init(scenario_, policy, seed)
            self._open = (started, state)
            return state

        def run_to_completion(state, *args, **kwargs):
            result = real_run(state, *args, **kwargs)
            ended = perf_counter()
            started, opened = self._open
            if opened is not state:
                raise RuntimeError("run_experiment no longer pairs init_run "
                                   "with run_to_completion")
            self.done.append((ended - started, state, result))
            return result

        with patched(cli, "init_run", init_run), \
                patched(cli, "run_to_completion", run_to_completion):
            yield

    def take(self) -> list[Replication]:
        done, self.done, self._open = self.done, [], None
        return [replication_of(*entry) for entry in done]


@dataclass
class Unit:
    base_seed: int
    wall: float
    reps: list[Replication]


def run_unit(w: Workload, sc: scenario.Scenario, base_seed: int, gate: Gate,
             log: ReplicationLog) -> Unit | None:
    """One ``run_experiment`` call; None when it raised."""
    out_dir = WORK / f"out-{w.name}"
    started = perf_counter()
    try:
        cli.run_experiment(sc, list(w.policies), runs=w.runs, base_seed=base_seed,
                           out_dir=out_dir)
    except Exception:  # reported as failed replications, never re-raised
        gate.raised(f"run_experiment at base seed {base_seed}", w.runs * len(w.policies))
        log.take()
        return None
    wall = perf_counter() - started
    reps = log.take()
    if len(reps) != w.runs * len(w.policies):
        raise RuntimeError(f"logged {len(reps)} replications, expected "
                           f"{w.runs * len(w.policies)}")
    gate.unit(sc.name, w.policies, w.runs, base_seed, out_dir, reps)
    return Unit(base_seed, wall, reps)


def timed_units(w: Workload, sc: scenario.Scenario, seed: int, seconds: float,
                gate: Gate) -> list[Unit]:
    """Units back to back until ``seconds`` have passed, at least one."""
    log = ReplicationLog()
    units: list[Unit] = []
    deadline = perf_counter() + seconds
    with log.installed():
        while True:
            unit = run_unit(w, sc, w.unit_seed(seed, len(units)), gate, log)
            if unit is None:
                break
            units.append(unit)
            if perf_counter() >= deadline:
                break
    return units


def measure_setup(scenario_file: Path) -> list[float]:
    """Seconds a fresh interpreter takes to import fabflock and read, parse
    and validate the scenario file, once per interpreter."""
    code = (
        "import sys, time\n"
        "t = time.perf_counter()\n"
        f"sys.path.insert(0, {str(SRC)!r})\n"
        "import fabflock\n"
        f"text = open({str(scenario_file)!r}, encoding='utf-8').read()\n"
        "fabflock.parse_scenario(text).validate()\n"
        "print(time.perf_counter() - t)\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                              text=True, timeout=60, check=True)
        times.append(float(done.stdout))
    return times


def rounds_ms(units: list[Unit]) -> list[float]:
    """Host milliseconds per round: one replication per policy at one seed."""
    out = []
    for unit in units:
        by_seed: dict[int, float] = {}
        for rep in unit.reps:
            by_seed[rep.seed] = by_seed.get(rep.seed, 0.0) + rep.seconds
        out += [1000.0 * s for s in by_seed.values()]
    return out


def highest_percentile(samples: list[float], beyond: int = 10) -> tuple[int, float] | None:
    """(p, value) for the highest of p90/p99 with ``beyond`` samples above it."""
    n = len(samples)
    for p in (99, 90):
        if n * (100 - p) / 100 >= beyond:
            return p, statistics.quantiles(samples, n=100)[p - 1]
    return None


# --- engine probe -----------------------------------------------------------

@dataclass
class Probe:
    rounds: int = 0
    tick_ns: list[int] = field(default_factory=list)
    released_lots: int = 0
    idle_visits: int = 0
    empty_visits: int = 0


def probe_replication(sc: scenario.Scenario, policy_name: str, seed: int,
                      probe: Probe) -> Replication:
    """Step ``engine.tick`` until every lot finished, timing each call and
    deriving from ``SimState`` between ticks what phases 1 and 3 did.

    A machine releases in phase 1 when one busy tick remains. Phase 3 visits
    every machine idle after phase 1; a visit found an empty queue when the
    machine did not start and its queue is still empty after the tick, since
    phase 3 only removes lots from the queue of the machine that starts.
    """
    state = engine.init_run(sc, cli.make_policy(policy_name), seed)
    pairs = [(m, q) for wc in state.workcenters.values()
             for m, q in zip(wc.machines, wc.queues)]
    total = len(state.lots)
    started = perf_counter()
    while len(state.finished) < total:
        before = [(m.busy_remaining <= 1, m.start_count) for m, _ in pairs]
        probe.released_lots += sum(len(m.current_batch) for m, _ in pairs
                                   if m.busy_remaining == 1)
        t0 = perf_counter_ns()
        engine.tick(state)
        probe.tick_ns.append(perf_counter_ns() - t0)
        for (m, q), (visited, starts) in zip(pairs, before):
            if visited:
                probe.idle_visits += 1
                probe.empty_visits += m.start_count == starts and q.is_empty()
    result = engine.run_to_completion(state)
    return replication_of(perf_counter() - started, state, result)


def run_probe(w: Workload, sc: scenario.Scenario, seed: int, min_ticks: int,
              gate: Gate) -> Probe:
    """Rounds at seeds ``seed``, ``seed + 1``, ... until ``min_ticks`` ticks
    were stepped, at least one round. Their digests are checked like the
    timed replications', so the probe also re-runs the first seed."""
    probe = Probe()
    while probe.rounds == 0 or len(probe.tick_ns) < min_ticks:
        for name in w.policies:
            try:
                rep = probe_replication(sc, name, seed + probe.rounds, probe)
            except Exception:  # reported as a failed replication
                gate.raised(f"probe {name} at seed {seed + probe.rounds}", 1)
                return probe
            gate.replication(sc.name, rep)
        probe.rounds += 1
    return probe


# --- traced run -------------------------------------------------------------

MULTIQUEUE_METHODS = ("total_len", "is_empty", "add_lot", "has_full_batch", "full_batches")
VIEW_METHODS = ("queue_len", "type_count", "window_types", "partial_batches",
                "processing_type")
FLOCKING_FUNCTIONS = ("choose_single", "take_single", "reshuffle_flsq",
                      "first_same_type_distance", "apply_pulls")
#: Span name -> every (namespace, attribute) the program looks the function
#: up under, in the order the metrics are listed: ``cli`` imports ``init_run``
#: and friends, ``engine`` calls ``tick`` and ``next_step`` through its
#: globals, ``flocking`` re-uses ``baseline``'s batch rules under its own
#: names, and methods live on their classes.
SITES = {
    "scenario.Scenario.validate": [(scenario.Scenario, "validate")],
    "scenario.Scenario.rpt_ticks": [(scenario.Scenario, "rpt_ticks")],
    "engine.init_run": [(cli, "init_run")],
    "engine.run_to_completion": [(cli, "run_to_completion")],
    "engine.tick": [(engine, "tick")],
    "engine.Workcenter.view": [(engine.Workcenter, "view")],
    "model.next_step": [(engine, "next_step")],
    **{f"model.MultiQueue.{m}": [(model.MultiQueue, m)] for m in MULTIQUEUE_METHODS},
    **{f"model.WorkcenterView.{m}": [(model.WorkcenterView, m)] for m in VIEW_METHODS},
    "baseline.choose_single": [(baseline, "choose_single")],
    "baseline.choose_batch": [(baseline, "choose_batch"), (flocking, "choose_batch")],
    "baseline.take_batch": [(baseline, "take_batch"), (flocking, "take_batch")],
    **{f"flocking.{f}": [(flocking, f)] for f in FLOCKING_FUNCTIONS},
    "metrics.summarize": [(cli, "summarize")],
    "metrics.histogram_from_times": [(cli, "histogram_from_times")],
    "cli.emit_csv": [(cli, "emit_csv")],
    "cli.run_experiment": [(cli, "run_experiment")],
}
#: Spans that also report the median duration of one call.
MEDIAN_MS_SPANS = ("engine.init_run", "metrics.histogram_from_times", "cli.emit_csv")
RATIOS = ("baseline.choose_batch.join_ratio", "baseline.take_batch.start_ratio",
          "baseline.take_batch.full_ratio", "flocking.move_ratio")


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name with its unit, in report order."""
    units = {"scenario.parse_scenario.ms": "ms"}
    for name in SITES:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_pct"] = "%"
        if name in MEDIAN_MS_SPANS:
            units[f"{name}.ms"] = "ms"
    units.update({"cli.emit_csv.bytes": "bytes", "engine.tick.us_p50": "us",
                  "engine.tick.us_p99": "us", "engine.released_lots": "count",
                  "engine.idle_visits": "count", "engine.idle_empty_ratio": "ratio"})
    units.update({r: "ratio" for r in RATIOS})
    units["trace_overhead_pct"] = "%"
    return units


def traced_targets(seen: Counter) -> list:
    """(span name, sites, observer) per traced function; the observers count
    useful outcomes into ``seen`` where the work happens."""

    def choose_batch(args, result):
        seen["choose_batch"] += 1
        seen["join"] += result[1] == "join"

    def take_batch(args, result):
        seen["take_batch"] += 1
        if result is not None:
            seen["started"] += 1
            seen["full"] += len(result.lots) == args[0].mtype.batch_size

    def apply_pulls(args, result):
        pulls = args[1]
        seen["window_lots"] += len(pulls)
        seen["moves"] += sum(1 for p in pulls.values() if p)

    observers = {"baseline.choose_batch": choose_batch,
                 "baseline.take_batch": take_batch, "flocking.apply_pulls": apply_pulls}
    return [(name, sites, observers.get(name)) for name, sites in SITES.items()]


def ratio(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def median_ms(durations_ns: list[int]) -> float:
    return statistics.median(durations_ns) / 1e6 if durations_ns else 0.0


def traced_run(w: Workload, sc: scenario.Scenario, scenario_text: str, seed: int,
               untraced_wall: float, gate: Gate) -> dict[str, float]:
    """Per-layer metrics from one traced unit plus the engine probe."""
    setup = SpanRecorder()
    with setup.install([("scenario.parse_scenario", [(scenario, "parse_scenario")], None)]):
        for _ in range(SETUP_REPEATS):
            scenario.parse_scenario(scenario_text)

    spans, seen, log = SpanRecorder(), Counter(), ReplicationLog()
    with ExitStack() as stack:
        stack.enter_context(spans.install(traced_targets(seen)))
        stack.enter_context(log.installed())
        unit = run_unit(w, sc, seed, gate, log)
    if unit is None:
        return {}
    spans.write(WORK / f"spans-{w.name}")
    calls, self_ns = self_time_by_name(spans.name_ids, spans.starts, spans.ends,
                                       spans.parents, len(spans.names))
    durations = durations_by_name(spans, MEDIAN_MS_SPANS)
    probe = run_probe(w, sc, seed, PROBE_MIN_TICKS, gate)
    if len(probe.tick_ns) < PROBE_MIN_TICKS:
        return {}

    out = {"scenario.parse_scenario.ms":
           median_ms(durations_by_name(setup, ["scenario.parse_scenario"])
                     ["scenario.parse_scenario"])}
    wall_ns = unit.wall * 1e9
    for name in SITES:
        nid = spans.name_id(name)
        out[f"{name}.calls"] = calls[nid]
        out[f"{name}.self_pct"] = 100.0 * self_ns[nid] / wall_ns
        if name in MEDIAN_MS_SPANS:
            out[f"{name}.ms"] = median_ms(durations[name])
    out["cli.emit_csv.bytes"] = sum((WORK / f"out-{w.name}" / n).stat().st_size
                                    for n in csv_names(w.policies))
    ticks_us = [ns / 1000.0 for ns in probe.tick_ns]
    centiles = statistics.quantiles(ticks_us, n=100)
    out["engine.tick.us_p50"] = statistics.median(ticks_us)
    out["engine.tick.us_p99"] = centiles[98]
    out["engine.released_lots"] = probe.released_lots / probe.rounds
    out["engine.idle_visits"] = probe.idle_visits / probe.rounds
    out["engine.idle_empty_ratio"] = ratio(probe.empty_visits, probe.idle_visits)
    out["baseline.choose_batch.join_ratio"] = ratio(seen["join"], seen["choose_batch"])
    out["baseline.take_batch.start_ratio"] = ratio(seen["started"], seen["take_batch"])
    out["baseline.take_batch.full_ratio"] = ratio(seen["full"], seen["started"])
    out["flocking.move_ratio"] = ratio(seen["moves"], seen["window_lots"])
    out["trace_overhead_pct"] = 100.0 * (unit.wall / untraced_wall - 1.0)
    print(f"traced unit: {len(spans)} spans, {unit.wall:.3f} s; engine probe: "
          f"{probe.rounds} round(s), {len(probe.tick_ns)} ticks")
    return out


# --- report -----------------------------------------------------------------

def simulated_statistics(w: Workload, units: list[Unit]) -> None:
    """Print what the replications simulated, beside the host timings."""
    reps = [rep for unit in units for rep in unit.reps]
    print(f"simulated: {len(reps)} replications, {sum(r.ticks for r in reps)} ticks, "
          f"{sum(r.lot_steps for r in reps)} lot steps")
    for policy in w.policies:
        mine = [r.summary for r in reps if r.policy == policy]
        means = {"flow_factor": statistics.mean(s.flow_factor for s in mine),
                 "makespan": statistics.mean(s.makespan for s in mine),
                 "utilization": statistics.mean(s.utilization for s in mine),
                 "tardiness": statistics.mean(s.tardiness for s in mine)}
        print(f"  {policy}: " + "  ".join(f"{k}={v:.4f}" for k, v in means.items()))
        if w.name == "smallfab-2x50" and policy == "baseline" and w.runs == 50:
            for key, (lo, hi) in REFERENCE_RANGES.items():
                verdict = "in" if lo <= means[key] <= hi else "OUTSIDE"
                print(f"    {key} {means[key]:.4f} {verdict} reference range [{lo}, {hi}]")


def end_to_end(units: list[Unit], setup: list[float]) -> dict[str, float]:
    rounds = rounds_ms(units)
    tail = highest_percentile(rounds)
    print(f"samples: {len(units)} units, {len(rounds)} rounds, {len(setup)} set-ups"
          + (f"; run_ms_p{tail[0]} = {tail[1]:.4f} ms" if tail else
             "; too few rounds for a p90"))
    wall = sum(u.wall for u in units)
    steps = sum(rep.lot_steps for u in units for rep in u.reps)
    return {
        "wall_s": statistics.median(u.wall for u in units),
        "lot_steps_per_s": steps / wall,
        "run_ms_p50": statistics.median(rounds),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="two replications per unit on the small fab, to test "
                             "the benchmark itself")
    return parser.parse_args(argv)


def main(argv=None, pins: dict | None = None) -> int:
    args = parse_args(argv)
    w = WORKLOADS[args.workload]
    if args.smoke:
        w = smoke(w)
    gate = Gate(load_pins() if pins is None else pins)
    WORK.mkdir(parents=True, exist_ok=True)
    text = fab_text(w.scale)
    scenario_file = WORK / f"fab{w.scale}x.scn"
    scenario_file.write_text(text, encoding="utf-8")

    setup = measure_setup(scenario_file) if args.trace == 0 else []
    sc = scenario.parse_scenario(scenario_file.read_text(encoding="utf-8"))
    if w.scale == 1 and sc != scenario.build_small_fab():
        gate.errors.append("the generated small fab differs from the built-in one")
    units = timed_units(w, sc, args.seed, args.seconds, gate)

    metrics_out: dict[str, float] = {}
    if units:
        simulated_statistics(w, units)
        if args.trace == 0:
            run_probe(w, sc, args.seed, 0, gate)
            metrics_out = end_to_end(units, setup)
            units_of = END_TO_END
        else:
            untraced = statistics.median(u.wall for u in units)
            metrics_out = traced_run(w, sc, text, args.seed, untraced, gate)
            units_of = per_layer_units()
    correct = bool(units) and bool(metrics_out) and not gate.errors and gate.failed == 0
    for error in gate.errors:
        print(f"CHECK FAILED: {error}")
    print(f"failed_fraction = {ratio(gate.failed, gate.attempted):.6f} "
          f"({gate.failed} of {gate.attempted} replications)")
    result = {"correct": correct, "attempted": gate.attempted, "failed": gate.failed,
              "metrics": {}}
    if metrics_out:
        for name, unit in units_of.items():
            print(f"{name} = {metrics_out[name]} {unit}")
        result["metrics"] = {name: {"value": metrics_out[name], "unit": unit}
                             for name, unit in units_of.items()}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
