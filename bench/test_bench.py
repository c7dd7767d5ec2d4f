"""Tests of the benchmark itself: ``python -m pytest bench -q`` from the root."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import run
from spans import SpanRecorder, self_time_by_name

ROOT = Path(__file__).resolve().parent.parent


def bench_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    done = subprocess.run(
        [sys.executable, str(ROOT / "bench" / "run.py"), "--workload", workload,
         "--seed", "1", "--seconds", "0", "--trace", str(trace), "--smoke"],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    declared = bench_json()["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == \
        {name: v["unit"] for name, v in result["metrics"].items()}
    for name, v in result["metrics"].items():
        assert f"{name} = {v['value']} {v['unit']}" in lines


def test_tampered_digest_fails_the_run(capsys):
    pins = run.load_pins()
    key = "smallfab/baseline/1"
    pins["replications"][key] = "0" * 16
    code = run.main(["--workload", "smallfab-2x50", "--seed", "1", "--seconds", "0",
                     "--smoke"], pins=pins)
    out = capsys.readouterr().out.splitlines()
    result = json.loads(out[-1])
    assert code != 0
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]
    assert any(line.startswith(f"CHECK FAILED: replications {key}") for line in out)


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copytree(ROOT / "bench", tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "smallfab-2x50", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, timeout=60, cwd=tmp_path)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_self_time_subtracts_direct_children_only():
    # root [0,100] > a [10,40] > leaf [15,25];  root > a [50,60];  root2 [200,210]
    names = ["root", "a", "leaf"]
    name_ids = [0, 1, 2, 1, 0]
    starts = [0, 10, 15, 50, 200]
    ends = [100, 40, 25, 60, 210]
    parents = [-1, 0, 1, 0, -1]
    calls, self_ns = self_time_by_name(name_ids, starts, ends, parents, len(names))
    assert calls == [2, 2, 1]
    assert self_ns == [(100 - 30 - 10) + 10, (30 - 10) + 10, 10]


def test_self_time_rejects_a_parent_that_is_not_open():
    with pytest.raises(ValueError):
        self_time_by_name([0, 0, 0], [0, 10, 20], [5, 15, 25], [-1, -1, 0], 1)


def test_recorder_nests_spans_and_restores_the_originals():
    class Queue:
        def size(self):
            return 3

    def outer(queue):
        return queue.size() * 2

    module = type(sys)("fake")
    module.outer = outer
    size = Queue.size
    rec = SpanRecorder()
    with rec.install([("outer", [(module, "outer")], None),
                      ("size", [(Queue, "size")], None)]):
        assert module.outer(Queue()) == 6
    assert module.outer is outer and Queue.size is size
    assert [rec.names[i] for i in rec.name_ids] == ["outer", "size"]
    assert list(rec.parents) == [-1, 0]
    assert rec.starts[0] <= rec.starts[1] <= rec.ends[1] <= rec.ends[0]
