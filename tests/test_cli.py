import csv
import os
import re
import statistics
import subprocess
import sys
from pathlib import Path

import pytest

from fabflock import cli

TINY = """\
scenario tiny
tick_hours 0.1
machinetype 0 kind single count 2 rpt_hours 0.2
machinetype 1 kind batch count 1 rpt_hours 0.4 bs 2 wt_hours 0.3
lottype 0 count 4 recipe 0 1
lottype 1 count 3 recipe 0 1 0
"""


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


class TestExitCodes:
    def test_unknown_algorithm_is_usage_error(self, tmp_path, capsys):
        code = cli.main(["--algorithm", "greedy", "--out", str(tmp_path / "r")])
        assert code == 1
        err = capsys.readouterr().err
        assert "baseline" in err and "flocking" in err

    def test_bad_runs_is_usage_error(self, tmp_path):
        assert cli.main(["--runs", "0", "--out", str(tmp_path / "r")]) == 1

    def test_missing_scenario_file(self, tmp_path):
        code = cli.main(["--scenario", str(tmp_path / "nope.txt"),
                         "--out", str(tmp_path / "r")])
        assert code == 2

    def test_invalid_scenario_content(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("machinetype 0 kind single count 1 rpt_hours 0.25\n")
        assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 2

    def test_non_finite_duration_exits_2_without_traceback(self, tmp_path):
        path = tmp_path / "nan.txt"
        path.write_text("tick_hours nan\nmachinetype 0 kind single count 1 rpt_hours 0.2\n")
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run(
            [sys.executable, "-m", "fabflock", "--scenario", str(path),
             "--out", str(tmp_path / "r")],
            capture_output=True, text=True, timeout=60,
            env={**os.environ, "PYTHONPATH": str(src)})
        assert done.returncode == 2
        assert "line 1" in done.stderr and "Traceback" not in done.stderr

    def test_non_utf8_scenario_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.txt"
        path.write_bytes("scenario caf\u00e9\n".encode("latin-1"))
        assert cli.main(["--scenario", str(path), "--out", str(tmp_path / "r")]) == 2
        assert "not UTF-8" in capsys.readouterr().err

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


class TestMakePolicy:
    def test_flsq_len_is_wired_through(self):
        policy = cli.make_policy("flocking", flsq_len=9)
        assert policy.flsq_len == 9

    def test_unknown_name(self):
        with pytest.raises(cli.UsageError):
            cli.make_policy("greedy")
