"""Command-line experiment harness.

Runs N seeded replications per algorithm over one scenario, writes per-run,
aggregate, histogram, and comparison CSVs, and prints a comparison table.
``run_experiment`` owns every rule on a run's settings and raises
``UsageError`` for a setting that breaks one; ``main`` loads the scenario
first, then prints that error with the usage line and exits 1.
Exit codes: 0 success, 1 usage or output error (a closed stdout included),
2 scenario error, 3 simulation abort.
"""

from __future__ import annotations

import argparse
import csv
import os
import statistics
import sys
from pathlib import Path
from typing import TextIO

from .baseline import BaselinePolicy
from .engine import DEFAULT_HORIZON_FACTOR, SimulationAbort, init_run, run_to_completion
from .flocking import DEFAULT_FLSQ_LEN, FlockingPolicy
from .metrics import DEFAULT_HIST_BIN, MetricsSummary, RunResult, histogram_from_times, summarize
from .model import ConfigError
from .scenario import MAX_FILE_BYTES, Scenario, ScenarioError, build_small_fab, parse_scenario

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_SCENARIO = 2
EXIT_SIM = 3

ALGORITHM_NAMES = ("baseline", "flocking")
#: Most replications per algorithm. ``run_experiment`` keeps every run's
#: per-lot records until the CSVs are written (about 15 KB per small-fab
#: run, ten times that on a ten-fold fab), so this bounds its memory like
#: ``scenario``'s ``MAX_*`` limits bound one run's.
MAX_RUNS = 10_000
METRIC_KEYS = ("makespan_ticks", "flow_factor", "tardiness_ticks", "utilization")


class UsageError(ValueError):
    """Invalid command line or ``run_experiment`` argument."""


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit 2; the CLI contract wants 1
        raise UsageError(message)


def make_policy(name: str, flsq_len: int = DEFAULT_FLSQ_LEN) -> BaselinePolicy:
    if name == "baseline":
        return BaselinePolicy()
    if name == "flocking":
        return FlockingPolicy(flsq_len=flsq_len)
    raise UsageError(f"unknown algorithm {name!r}; valid names: {', '.join(ALGORITHM_NAMES)}")


def load_scenario(source: str) -> Scenario:
    """Builtin name or path to a scenario file of at most ``MAX_FILE_BYTES``
    bytes, UTF-8 with or without a leading byte-order mark."""
    if source == "smallfab":
        return build_small_fab()
    with open(source, "rb") as f:
        data = f.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise ScenarioError(f"{source}: more than {MAX_FILE_BYTES} bytes")
    try:
        text = data.decode("utf-8").removeprefix("\ufeff")
    except UnicodeDecodeError as exc:
        raise ScenarioError(
            f"{source}: not UTF-8 text ({exc.reason} at byte {exc.start})") from None
    return parse_scenario(text)


def percent_change(reference: float, value: float) -> float:
    """Percentage change vs the reference, positive when the value dropped.

    The comparison table applies this orientation to every metric column
    alike, so a positive makespan/flow factor/tardiness change means an
    improvement over the reference algorithm.
    """
    if reference == 0:
        return 0.0
    return 100.0 * (reference - value) / reference


def emit_csv(rows, path, header) -> None:
    """RFC-4180-style CSV with a header row and LF line endings."""
    with open(path, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _fmt(value: float) -> str:
    return f"{value:.10f}"


def _metric_series(summaries: list[MetricsSummary]) -> dict[str, list[float]]:
    return {
        "makespan_ticks": [float(s.makespan) for s in summaries],
        "flow_factor": [s.flow_factor for s in summaries],
        "tardiness_ticks": [s.tardiness for s in summaries],
        "utilization": [s.utilization for s in summaries],
    }


#: Per metric: its name, the mean of every algorithm, and the percent change
#: of every algorithm after the first against the first.
ComparisonRow = tuple[str, list[float], list[float]]


def run_experiment(scenario: Scenario, algorithms: list[str], runs: int,
                   base_seed: int, out_dir, flsq_len: int = DEFAULT_FLSQ_LEN,
                   hist_bin: int = DEFAULT_HIST_BIN, horizon_factor: int = DEFAULT_HORIZON_FACTOR,
                   table: TextIO | None = None) -> dict[str, list[RunResult]]:
    """Run ``runs`` seeded replications per algorithm and write result CSVs.

    Replication r uses seed base_seed + r for every algorithm, pairing runs
    across algorithms and making any single run re-executable in isolation.
    When ``table`` is given, the comparison table is also printed to it once
    every CSV is written. Returns {algorithm: [RunResult, ...]} in
    replication order. Before touching ``out_dir``, it raises
    ``ScenarioError`` for a scenario ``Scenario.validate`` rejects, one
    built in code included, and then ``UsageError`` when no algorithm is
    given, a name repeats or is unknown, ``runs`` lies outside
    1..``MAX_RUNS``, ``base_seed`` is negative (``random.Random`` seeds with
    the absolute value, so seeds -1 and 1 would run the same replication),
    or ``flsq_len``, ``hist_bin`` or ``horizon_factor`` is below 1.
    """
    scenario.validate()
    if not algorithms:
        raise UsageError("at least one algorithm must run")
    if len(set(algorithms)) < len(algorithms):
        raise UsageError(f"each algorithm may run once, got {algorithms}")
    if not 1 <= runs <= MAX_RUNS:
        raise UsageError(f"runs must lie in 1..{MAX_RUNS}, got {runs}")
    if base_seed < 0:
        raise UsageError(f"base_seed must be >= 0, got {base_seed}")
    for name, value in (("flsq_len", flsq_len), ("hist_bin", hist_bin),
                        ("horizon_factor", horizon_factor)):
        if value < 1:
            raise UsageError(f"{name} must be >= 1, got {value}")
    policies = {name: make_policy(name, flsq_len) for name in algorithms}
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)

    results: dict[str, list[RunResult]] = {}
    for name, policy in policies.items():
        results[name] = [
            run_to_completion(init_run(scenario, policy, base_seed + r),
                              horizon_factor=horizon_factor)
            for r in range(runs)
        ]

    summaries = {name: [summarize(r) for r in results[name]] for name in algorithms}
    run_rows = []
    for name in algorithms:
        for result, s in zip(results[name], summaries[name]):
            run_rows.append([name, result.seed, s.makespan, _fmt(s.flow_factor),
                             _fmt(s.tardiness), _fmt(s.utilization)])
    emit_csv(run_rows, out / "runs.csv",
             ["algorithm", "seed", "makespan_ticks", "flow_factor",
              "tardiness_ticks", "utilization"])

    agg_rows = []
    means: dict[str, dict[str, float]] = {}
    for name in algorithms:
        series = _metric_series(summaries[name])
        means[name] = {key: statistics.mean(v) for key, v in series.items()}
        row = [name, len(results[name])]
        for key in METRIC_KEYS:
            row.append(_fmt(means[name][key]))
            row.append(_fmt(statistics.pstdev(series[key])))
        agg_rows.append(row)
    agg_header = ["algorithm", "runs"]
    for key in METRIC_KEYS:
        agg_header += [f"{key}_mean", f"{key}_std"]
    emit_csv(agg_rows, out / "aggregate.csv", agg_header)

    for name in algorithms:
        pooled = [rec.finish_time for result in results[name] for rec in result.lots]
        hist = histogram_from_times(pooled, hist_bin)
        emit_csv(hist, out / f"histogram_{name}.csv", ["bin_start", "count"])

    first = algorithms[0]
    comparison: list[ComparisonRow] = [
        (key, [means[name][key] for name in algorithms],
         [percent_change(means[first][key], means[name][key]) for name in algorithms[1:]])
        for key in METRIC_KEYS]
    comp_header = ["metric"] + list(algorithms) + \
        [f"change_{name}_pct" for name in algorithms[1:]]
    emit_csv([[key] + [_fmt(v) for v in values + changes]
              for key, values, changes in comparison],
             out / "comparison.csv", comp_header)
    if table is not None:
        _print_table(algorithms, comparison, table)
    return results


def _print_table(algorithms: list[str], comparison: list[ComparisonRow],
                 file: TextIO) -> None:
    header = f"{'metric':<16}" + "".join(f"{name:>14}" for name in algorithms)
    header += "".join(f"{'chg ' + name + ' %':>16}" for name in algorithms[1:])
    print(header, file=file)
    for key, values, changes in comparison:
        print(f"{key:<16}" + "".join(f"{v:>14.4f}" for v in values)
              + "".join(f"{c:>+16.2f}" for c in changes), file=file)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="fabflock",
                     description="Job-shop plant simulator and scheduler benchmark.")
    parser.add_argument("--scenario", default="smallfab",
                        help="scenario file path or the builtin 'smallfab' (default)")
    parser.add_argument("--algorithm", action="append", choices=ALGORITHM_NAMES,
                        help="scheduler to run; repeatable, each name once "
                             "(default: both)")
    parser.add_argument("--runs", type=int, default=50,
                        help=f"replications per algorithm, 1 to {MAX_RUNS} (default 50)")
    parser.add_argument("--seed", type=int, default=1,
                        help="base seed, >= 0; replication r uses seed+r (default 1)")
    parser.add_argument("--flsq-len", type=int, default=DEFAULT_FLSQ_LEN,
                        help=f"flocking reshuffle window length (default {DEFAULT_FLSQ_LEN})")
    parser.add_argument("--hist-bin", type=int, default=DEFAULT_HIST_BIN,
                        help=f"histogram bin width in ticks (default {DEFAULT_HIST_BIN})")
    parser.add_argument("--out", default="./results",
                        help="output directory (default ./results)")
    parser.add_argument("--horizon-factor", type=int, default=DEFAULT_HORIZON_FACTOR,
                        help="livelock guard: abort after this many times the total work "
                             "content passes without a finish; a waiting timer as long as "
                             "that aborts a healthy run, so raise it for long timers "
                             f"(default {DEFAULT_HORIZON_FACTOR})")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        try:
            scenario = load_scenario(args.scenario)
        except (ConfigError, OSError) as exc:
            print(f"scenario error: {exc}", file=sys.stderr)
            return EXIT_SCENARIO
        run_experiment(scenario, args.algorithm or list(ALGORITHM_NAMES), args.runs,
                       args.seed, args.out, flsq_len=args.flsq_len, hist_bin=args.hist_bin,
                       horizon_factor=args.horizon_factor, table=sys.stdout)
        print(f"results written to {Path(args.out).resolve()}")
        sys.stdout.flush()
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except SimulationAbort as exc:
        print(f"simulation aborted: {exc}", file=sys.stderr)
        return EXIT_SIM
    except OSError as exc:
        if isinstance(exc, BrokenPipeError):
            _stdout_to_devnull()
        print(f"output error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def _stdout_to_devnull() -> None:
    """Point stdout's file descriptor at ``os.devnull``, so the interpreter's
    exit flush drops what a closed pipe refused instead of raising."""
    try:
        fd = sys.stdout.fileno()
    except (AttributeError, OSError, ValueError):
        return  # no descriptor, so no exit flush reaches a pipe
    devnull = os.open(os.devnull, os.O_WRONLY)
    try:
        os.dup2(devnull, fd)
    finally:
        os.close(devnull)


def entrypoint() -> None:
    sys.exit(main())
