import csv
import inspect
import io
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from fabflock import cli, flocking
from fabflock.model import MachineKind, MachineType
from fabflock.scenario import LotSpec, Scenario, ScenarioError

TINY = """\
scenario tiny
tick_hours 0.1
machinetype 0 kind single count 2 rpt_hours 0.2
machinetype 1 kind batch count 1 rpt_hours 0.4 bs 2 wt_hours 0.3
lottype 0 count 4 recipe 0 1
lottype 1 count 3 recipe 0 1 0
"""


def run_cli_process(scenario_path, out_dir, timeout, stdout=subprocess.PIPE, **env):
    """``python -m fabflock --runs 1`` on a scenario file in a fresh
    interpreter, with ``env`` added to its environment; raises
    ``subprocess.TimeoutExpired`` after ``timeout`` s. Stderr is captured;
    stdout goes to ``stdout``, captured by default."""
    src = Path(cli.__file__).resolve().parents[1]
    return subprocess.run(
        [sys.executable, "-m", "fabflock", "--scenario", str(scenario_path),
         "--runs", "1", "--out", str(out_dir)],
        stdout=stdout, stderr=subprocess.PIPE, text=True, timeout=timeout,
        env={**os.environ, "PYTHONPATH": str(src), **env})


@pytest.fixture
def tiny_path(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text(TINY, encoding="utf-8")
    return path


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.DictReader(f))


class TestMain:
    def test_writes_all_outputs(self, tiny_path, tmp_path):
        out = tmp_path / "results"
        code = cli.main(["--scenario", str(tiny_path), "--algorithm", "baseline",
                         "--algorithm", "flocking", "--runs", "3", "--seed", "5",
                         "--out", str(out)])
        assert code == 0
        for name in ("runs.csv", "aggregate.csv", "comparison.csv",
                     "histogram_baseline.csv", "histogram_flocking.csv"):
            assert (out / name).exists()
        rows = read_csv(out / "runs.csv")
        assert len(rows) == 6
        assert [r["seed"] for r in rows if r["algorithm"] == "baseline"] == ["5", "6", "7"]

    def test_repeat_invocation_is_byte_identical(self, tiny_path, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        argv = ["--scenario", str(tiny_path), "--runs", "3", "--seed", "1"]
        assert cli.main(argv + ["--out", str(out_a)]) == 0
        assert cli.main(argv + ["--out", str(out_b)]) == 0
        for name in ("runs.csv", "aggregate.csv", "comparison.csv",
                     "histogram_baseline.csv", "histogram_flocking.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_single_run_aggregate_equals_run_with_zero_std(self, tiny_path, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["--scenario", str(tiny_path), "--algorithm", "baseline",
                         "--runs", "1", "--out", str(out)]) == 0
        (run_row,) = read_csv(out / "runs.csv")
        (agg_row,) = read_csv(out / "aggregate.csv")
        for key in ("flow_factor", "tardiness_ticks", "utilization"):
            assert float(agg_row[f"{key}_mean"]) == pytest.approx(float(run_row[key]))
            assert float(agg_row[f"{key}_std"]) == 0.0
        assert float(agg_row["makespan_ticks_mean"]) == float(run_row["makespan_ticks"])
        assert float(agg_row["makespan_ticks_std"]) == 0.0

    def test_aggregate_mean_matches_recomputation_from_per_run_rows(self, tiny_path, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["--scenario", str(tiny_path), "--runs", "8",
                         "--out", str(out)]) == 0
        runs = read_csv(out / "runs.csv")
        agg = {row["algorithm"]: row for row in read_csv(out / "aggregate.csv")}
        for alg in ("baseline", "flocking"):
            for key in ("makespan_ticks", "flow_factor", "tardiness_ticks", "utilization"):
                recomputed = statistics.mean(
                    float(r[key]) for r in runs if r["algorithm"] == alg)
                assert abs(recomputed - float(agg[alg][f"{key}_mean"])) <= 1e-9

    def test_utilization_has_at_least_four_decimals(self, tiny_path, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["--scenario", str(tiny_path), "--runs", "2",
                         "--out", str(out)]) == 0
        for row in read_csv(out / "runs.csv"):
            assert re.fullmatch(r"\d+\.\d{4,}", row["utilization"])

    def test_histogram_counts_sum_to_lots_times_runs(self, tiny_path, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["--scenario", str(tiny_path), "--algorithm", "baseline",
                         "--runs", "4", "--out", str(out)]) == 0
        rows = read_csv(out / "histogram_baseline.csv")
        assert sum(int(r["count"]) for r in rows) == 7 * 4
        assert all(int(r["bin_start"]) % 10 == 0 for r in rows)

    def test_smallfab_builtin(self, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["--scenario", "smallfab", "--algorithm", "baseline",
                         "--runs", "1", "--out", str(out)]) == 0
        rows = read_csv(out / "runs.csv")
        assert len(rows) == 1


#: The ``main`` flag that passes on each ``run_experiment`` setting.
SETTING_FLAGS = {"runs": "--runs", "base_seed": "--seed", "flsq_len": "--flsq-len",
                 "hist_bin": "--hist-bin", "horizon_factor": "--horizon-factor"}

#: Per bad setting: the ``run_experiment`` arguments that break one rule, the
#: message it raises, and whether ``main`` can pass them on. No flag gives an
#: empty algorithm list or a value that is not an int (argparse's ``type=int``
#: rejects it first), and argparse rejects an unknown ``--algorithm`` itself.
BAD_SETTINGS = {
    "runs-0": ({"runs": 0}, "runs must lie in 1..10000, got 0", True),
    "runs--1": ({"runs": -1}, "runs must lie in 1..10000, got -1", True),
    "runs-10001": ({"runs": 10_001}, "runs must lie in 1..10000, got 10001", True),
    "runs-True": ({"runs": True}, "runs must be an int, got True", False),
    # random.Random(-s) equals Random(s): seeds -1 and 1 would be one run.
    "base_seed--1": ({"runs": 3, "base_seed": -1}, "base_seed must be >= 0, got -1", True),
    "flsq_len-0": ({"algorithms": ["flocking"], "flsq_len": 0},
                   "flsq_len must be >= 1, got 0", True),
    "flsq_len-2.5": ({"flsq_len": 2.5}, "flsq_len must be an int, got 2.5", False),
    "hist_bin-0": ({"hist_bin": 0}, "hist_bin must be >= 1, got 0", True),
    "hist_bin-2.5": ({"hist_bin": 2.5}, "hist_bin must be an int, got 2.5", False),
    "horizon_factor-0": ({"horizon_factor": 0}, "horizon_factor must be >= 1, got 0", True),
    "horizon_factor--5": ({"horizon_factor": -5}, "horizon_factor must be >= 1, got -5", True),
    "algorithms-repeated": ({"algorithms": ["flocking", "flocking"]},
                            "each algorithm may run once, got ['flocking', 'flocking']", True),
    "algorithms-empty": ({"algorithms": []}, "at least one algorithm must run", False),
    "algorithms-unknown": ({"algorithms": ["baseline", "bogus"]},
                           "unknown algorithm 'bogus'; valid names: baseline, flocking", False),
}

#: The ``BAD_SETTINGS`` rows that ``main`` can pass on, as (settings, message).
MAIN_BAD_SETTINGS = {key: row[:2] for key, row in BAD_SETTINGS.items() if row[2]}


def with_defaults(settings):
    """``settings`` on top of one baseline run at seed 1."""
    return {"algorithms": ["baseline"], "runs": 1, "base_seed": 1, **settings}


def assert_api_usage_error(tiny_path, out, message, settings):
    """``run_experiment`` on the tiny scenario with ``settings`` raises
    ``UsageError`` with exactly ``message`` and creates no ``out``."""
    with pytest.raises(cli.UsageError) as caught:
        cli.run_experiment(cli.load_scenario(str(tiny_path)), out_dir=out,
                           **with_defaults(settings))
    assert str(caught.value) == message
    assert not out.exists()


def assert_main_usage_error(tiny_path, out, capsys, message, settings):
    """``main`` on the tiny scenario with the flags for ``settings`` exits 1;
    its stderr is ``error: message`` and the usage line, with no traceback,
    and no ``out`` is created."""
    settings = with_defaults(settings)
    argv = ["--scenario", str(tiny_path), "--out", str(out)]
    for name in settings.pop("algorithms"):
        argv += ["--algorithm", name]
    for key, value in settings.items():
        argv += [SETTING_FLAGS[key], str(value)]
    assert cli.main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith(f"error: {message}\nusage: fabflock ")
    assert "Traceback" not in err
    assert not out.exists()


class TestExitCodes:
    def test_unknown_algorithm_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["--algorithm", "greedy", "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "baseline" in err and "flocking" in err

    @pytest.mark.parametrize("settings, message", [row[:2] for row in BAD_SETTINGS.values()],
                             ids=list(BAD_SETTINGS))
    def test_bad_setting_is_one_usage_error(self, tiny_path, tmp_path, settings, message):
        assert_api_usage_error(tiny_path, tmp_path / "r", message, settings)

    @pytest.mark.parametrize("settings, message", MAIN_BAD_SETTINGS.values(),
                             ids=list(MAIN_BAD_SETTINGS))
    def test_bad_setting_flag_exits_1(self, tiny_path, tmp_path, capsys, settings, message):
        assert_main_usage_error(tiny_path, tmp_path / "r", capsys, message, settings)

    def test_every_flag_setting_has_a_bad_settings_row(self):
        named = {key for settings, _, _ in BAD_SETTINGS.values() for key in settings}
        assert set(SETTING_FLAGS) - set(inspect.signature(cli.run_experiment).parameters) == set()
        assert set(SETTING_FLAGS) - named == set()

    def test_scenario_error_comes_before_a_bad_setting(self, tmp_path):
        assert cli.main(["--scenario", str(tmp_path / "nope.txt"), "--runs", "0",
                         "--out", str(tmp_path / "r")]) == 2

    def test_missing_scenario_file(self, tmp_path):
        code = cli.main(["--scenario", str(tmp_path / "nope.txt"),
                         "--out", str(tmp_path / "r")])
        assert code == 2

    def test_invalid_scenario_built_in_code_creates_no_output(self, tmp_path):
        sc = Scenario("bad", 0.1, (MachineType(0, MachineKind.SINGLE_STEP, 2),),
                      (LotSpec(0, 1, (0, 9)),))
        with pytest.raises(ScenarioError,
                           match="^lot type 0: recipe references unknown machine type 9$"):
            cli.run_experiment(sc, ["baseline"], runs=1, base_seed=1, out_dir=tmp_path / "r")
        assert not (tmp_path / "r").exists()

    def test_invalid_scenario_content(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("machinetype 0 kind single count 1 rpt_hours 0.25\n")
        assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 2

    def test_non_finite_duration_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("tick_hours nan\nmachinetype 0 kind single count 1 rpt_hours 0.2\n")
        done = run_cli_process(path, tmp_path / "r", timeout=60)
        assert done.returncode == 2
        assert "line 1" in done.stderr and "Traceback" not in done.stderr

    def test_huge_durations_exit_2_in_bounded_time(self, tmp_path):
        hostile = {
            "huge_rpt.txt": ("machinetype 0 kind single count 1 rpt_hours 1e300\n"
                             "lottype 0 count 1 recipe 0\n", "line 1"),
            "tiny_tick.txt": ("tick_hours 1e-300\n"
                              "machinetype 0 kind single count 1 rpt_hours 0.2\n"
                              "lottype 0 count 1 recipe 0\n", "line 2"),
            # one tick of the largest float: finite, but not as a file writes it
            "max_hours.txt": ("tick_hours 1.7976931348623157e308\n"
                              "machinetype 0 kind single count 1 "
                              "rpt_hours 1.7976931348623157e308\n", "line 2:"),
        }
        for name, (text, where) in hostile.items():
            path = tmp_path / name
            path.write_text(text)
            done = run_cli_process(path, tmp_path / "r", timeout=30)
            assert done.returncode == 2, name
            assert where in done.stderr and "Traceback" not in done.stderr, name

    def test_non_utf8_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("scenario caf\u00e9\n".encode("latin-1"))
        assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

    def test_scenario_file_over_the_size_limit_exits_2(self, tiny_path, tmp_path,
                                                         monkeypatch, capsys):
        monkeypatch.setattr(cli, "MAX_FILE_BYTES", len(TINY.encode("utf-8")))
        assert cli.main(["--scenario", str(tiny_path), "--runs", "1",
                         "--out", str(tmp_path / "a")]) == 0
        path = tmp_path / "long.txt"
        path.write_text(TINY + "\n", encoding="utf-8")
        capsys.readouterr()
        assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "b")]) == 2
        assert capsys.readouterr().err == \
            f"scenario error: {path}: more than {cli.MAX_FILE_BYTES} bytes\n"
        assert not (tmp_path / "b").exists()

    def test_scenario_file_with_a_byte_order_mark_runs(self, tiny_path, tmp_path):
        path = tmp_path / "bom.txt"
        path.write_bytes(TINY.encode("utf-8-sig"))
        argv = ["--runs", "2", "--algorithm", "flocking"]
        assert cli.main(argv + ["--scenario", str(path), "--out", str(tmp_path / "a")]) == 0
        assert cli.main(argv + ["--scenario", str(tiny_path), "--out", str(tmp_path / "b")]) == 0
        assert (tmp_path / "a" / "runs.csv").read_bytes() == \
            (tmp_path / "b" / "runs.csv").read_bytes()

    def test_non_utf8_byte_after_a_byte_order_mark_is_named_at_its_file_offset(
            self, tmp_path, capsys):
        path = tmp_path / "bom_latin1.txt"
        path.write_bytes(b"\xef\xbb\xbf" + "scenario caf\u00e9\n".encode("latin-1"))
        assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "not UTF-8 text (invalid continuation byte at byte 15)" in capsys.readouterr().err

    def test_stdout_closed_before_last_line_exits_1(self, tiny_path, tmp_path,
                                                    monkeypatch, capsys):
        class ClosedBeforeLastLine(io.StringIO):
            def write(self, text):
                if text.startswith("results written to"):
                    raise BrokenPipeError(32, "Broken pipe")
                return super().write(text)

        monkeypatch.setattr(sys, "stdout", ClosedBeforeLastLine())
        code = cli.main(["--scenario", str(tiny_path), "--runs", "1",
                         "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "output error" in err and "Traceback" not in err

    @pytest.mark.parametrize("unbuffered", ["", "1"])
    def test_closed_pipe_exits_1_without_traceback(self, tiny_path, tmp_path, unbuffered):
        # Buffered, nothing reaches the pipe before the final flush; unbuffered,
        # the table's first line already fails.
        read_end, write_end = os.pipe()
        os.close(read_end)
        try:
            done = run_cli_process(tiny_path, tmp_path / "r", timeout=60, stdout=write_end,
                                   PYTHONUNBUFFERED=unbuffered)
        finally:
            os.close(write_end)
        assert done.returncode == 1
        assert "output error" in done.stderr
        assert "Traceback" not in done.stderr and "Exception ignored" not in done.stderr

    def test_simulation_abort(self, tmp_path):
        path = tmp_path / "stuck.txt"
        path.write_text("machinetype 0 kind batch count 1 rpt_hours 0.1 bs 2 "
                        "wt_hours 9999.9\nlottype 0 count 1 recipe 0\n")
        code = cli.main(["--scenario", str(path), "--algorithm", "baseline",
                         "--runs", "1", "--horizon-factor", "1",
                         "--out", str(tmp_path / "r")])
        assert code == 3


class TestComparison:
    def test_change_orientation_matches_published_reference_signs(self):
        # Reference means: makespan 324.46 -> 326.22 is a worsening (negative
        # change), while flow factor 3.01 -> 2.99, tardiness 168.97 -> 167.57
        # and utilization 0.6883 -> 0.6845 are all listed as improvements.
        assert cli.percent_change(324.46, 326.22) == pytest.approx(-0.54, abs=0.005)
        assert cli.percent_change(3.01, 2.99) > 0
        assert cli.percent_change(168.97, 167.57) == pytest.approx(0.83, abs=0.005)
        assert cli.percent_change(0.6883, 0.6845) == pytest.approx(0.55, abs=0.005)

    def test_zero_reference(self):
        assert cli.percent_change(0.0, 5.0) == 0.0

    def test_comparison_file_lists_change_vs_first_algorithm(self, tiny_path, tmp_path):
        out = tmp_path / "results"
        assert cli.main(["--scenario", str(tiny_path), "--runs", "2",
                         "--out", str(out)]) == 0
        rows = read_csv(out / "comparison.csv")
        assert [r["metric"] for r in rows] == list(cli.METRIC_KEYS)
        for row in rows:
            base, other = float(row["baseline"]), float(row["flocking"])
            expected = cli.percent_change(base, other)
            assert float(row["change_flocking_pct"]) == pytest.approx(expected, abs=1e-6)


#: Standard output of ``python -m fabflock --runs 2 --seed 1`` before its last
#: line, which names the output directory.
SMALLFAB_RUNS_2_TABLE = """\
metric                baseline      flocking  chg flocking %
makespan_ticks        321.0000      321.0000           +0.00
flow_factor             3.0376        3.0043           +1.10
tardiness_ticks       171.1571      168.3619           +1.63
utilization             0.6936        0.6948           -0.18
"""


#: ``python -m fabflock --help`` at a width of 80 columns. argparse derives
#: the ``--algorithm`` choices from ``cli.ALGORITHM_NAMES``.
HELP_80_COLUMNS = """\
usage: fabflock [-h] [--scenario SCENARIO] [--algorithm {baseline,flocking}]
                [--runs RUNS] [--seed SEED] [--flsq-len FLSQ_LEN]
                [--hist-bin HIST_BIN] [--out OUT]
                [--horizon-factor HORIZON_FACTOR]

Job-shop plant simulator and scheduler benchmark.

options:
  -h, --help            show this help message and exit
  --scenario SCENARIO   scenario file path or the builtin 'smallfab' (default)
  --algorithm {baseline,flocking}
                        scheduler to run; repeatable, each name once (default:
                        both)
  --runs RUNS           replications per algorithm, 1 to 10000 (default 50)
  --seed SEED           base seed, >= 0; replication r uses seed+r (default 1)
  --flsq-len FLSQ_LEN   flocking reshuffle window length (default 5)
  --hist-bin HIST_BIN   histogram bin width in ticks (default 10)
  --out OUT             output directory (default ./results)
  --horizon-factor HORIZON_FACTOR
                        livelock guard: abort after this many times the total
                        work content passes without a finish; a waiting timer
                        as long as that aborts a healthy run, so raise it for
                        long timers (default 100)
"""


class TestPrintedTable:
    def test_smallfab_table_is_pinned(self, tmp_path, capsys):
        out = tmp_path / "results"
        assert cli.main(["--runs", "2", "--seed", "1", "--out", str(out)]) == 0
        table, _, last = capsys.readouterr().out.rpartition("results written to ")
        assert table == SMALLFAB_RUNS_2_TABLE
        assert last == f"{out.resolve()}\n"

    def test_help_is_pinned(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")
        assert cli.build_parser().format_help() == HELP_80_COLUMNS

    def test_readme_flag_table_has_one_row_per_flag(self):
        readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
        table = readme.split("| flag | default | meaning |\n| --- | --- | --- |\n")[1]
        rows = table.split("\n\n")[0].splitlines()
        flags = [re.fullmatch(r"\| `(-[^`]+)` \|.*", row).group(1) for row in rows]
        options = [option for action in cli.build_parser()._actions if action.dest != "help"
                   for option in action.option_strings]
        assert sorted(flags) == sorted(options)


class TestMakePolicy:
    def test_flsq_len_is_wired_through(self):
        policy = cli.make_policy("flocking", flsq_len=9)
        assert (policy.name, policy.flsq_len) == ("flocking", 9)
        assert policy.choose_single is flocking.choose_single
        assert policy.take_single is flocking.take_single

    def test_unknown_name(self):
        with pytest.raises(cli.UsageError,
                           match="^unknown algorithm 'greedy'; valid names: baseline, flocking$"):
            cli.make_policy("greedy")
