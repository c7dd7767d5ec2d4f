import pytest
from hypothesis import given, strategies as st

from fabflock.metrics import (
    LotRecord,
    RunResult,
    flow_factor,
    flow_factor_global,
    histogram_from_times,
    summarize,
    tardiness,
    utilization,
)
from fabflock.model import ConfigError


def rec(lot_id=0, finish=10, queue=0, rpt=10, lot_type=0):
    return LotRecord(lot_id=lot_id, lot_type=lot_type, finish_time=finish,
                     queue_ticks=queue, rpt_ticks=rpt)


def result(lots, busy=None, machines=1):
    return RunResult(algorithm="baseline", seed=1, machine_count=machines,
                     makespan=max((r.finish_time for r in lots), default=0),
                     lots=tuple(lots), busy_ticks=busy or {})


class TestMakespan:
    """``summarize`` reads the makespan ``RunResult`` carries."""

    def test_max_finish(self):
        assert summarize(result([rec(0, 10), rec(1, 20), rec(2, 15)])).makespan == 20

    def test_single_lot(self):
        assert summarize(result([rec(0, 84)])).makespan == 84

    def test_empty(self):
        assert summarize(result([])).makespan == 0


class TestFlowFactor:
    def test_no_waiting(self):
        assert flow_factor(result([rec(queue=0, rpt=84)])) == 1.0

    def test_wait_equal_to_work(self):
        assert flow_factor(result([rec(queue=84, rpt=84)])) == 2.0

    def test_readings_coincide_for_uniform_rpt(self):
        lots = [rec(i, queue=q, rpt=84) for i, q in enumerate([0, 84, 42])]
        r = result(lots)
        assert flow_factor(r) == pytest.approx(flow_factor_global(r))

    def test_readings_differ_for_mixed_rpt(self):
        r = result([rec(0, queue=10, rpt=10), rec(1, queue=0, rpt=90)])
        assert flow_factor(r) == pytest.approx(1.5)
        assert flow_factor_global(r) == pytest.approx(1.1)

    def test_zero_rpt_rejected(self):
        with pytest.raises(ConfigError):
            flow_factor(result([rec(rpt=0)]))

    def test_empty(self):
        assert flow_factor(result([])) == 1.0


class TestTardiness:
    def test_no_waits(self):
        assert tardiness(result([rec(i, queue=0) for i in range(3)])) == 0.0

    def test_mean_wait(self):
        assert tardiness(result([rec(0, queue=10), rec(1, queue=20)])) == 15.0

    def test_empty(self):
        assert tardiness(result([])) == 0.0


class TestUtilization:
    def test_always_busy(self):
        r = result([rec(0, finish=10)], busy={"m0.0": 10}, machines=1)
        assert utilization(r) == 1.0

    def test_half_idle_pair(self):
        r = result([rec(0, finish=10)], busy={"m0.0": 10, "m0.1": 0}, machines=2)
        assert utilization(r) == 0.5

    def test_zero_makespan(self):
        assert utilization(result([])) == 0.0


class TestHistogram:
    def test_edges(self):
        r = result([rec(0, finish=5), rec(1, finish=9), rec(2, finish=10)])
        assert histogram_from_times([x.finish_time for x in r.lots], 10) == [(0, 2), (10, 1)]

    def test_empty(self):
        assert histogram_from_times([]) == []

    def test_bad_width(self):
        with pytest.raises(ValueError):
            histogram_from_times([1], 0)

    @given(times=st.lists(st.integers(0, 400)), width=st.integers(1, 40))
    def test_counts_sum_to_lot_count(self, times, width):
        hist = histogram_from_times(times, width)
        assert sum(c for _, c in hist) == len(times)
        assert [b for b, _ in hist] == [i * width for i in range(len(hist))]


class TestSummarize:
    def test_bundles_all_four(self):
        r = result([rec(0, finish=20, queue=10, rpt=10)], busy={"m0.0": 10}, machines=1)
        s = summarize(r)
        assert s.makespan == 20
        assert s.flow_factor == 2.0
        assert s.tardiness == 10.0
        assert s.utilization == 0.5
