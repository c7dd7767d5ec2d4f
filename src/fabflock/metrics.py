"""Performance indicators computed from one finished run."""

from __future__ import annotations

from .model import ConfigError, Record, _set, check_setting


class LotRecord(Record):
    """Per-lot outcome of one run."""

    __slots__ = ("lot_id", "lot_type", "finish_time", "queue_ticks", "rpt_ticks")

    def __init__(self, lot_id: int, lot_type: int, finish_time: int, queue_ticks: int,
                 rpt_ticks: int):
        _set(self, "lot_id", lot_id)
        _set(self, "lot_type", lot_type)
        _set(self, "finish_time", finish_time)
        _set(self, "queue_ticks", queue_ticks)
        _set(self, "rpt_ticks", rpt_ticks)


class RunResult(Record):
    """Everything one replication produced: ``lots`` in lot-id order, and
    ``busy_ticks`` one entry per machine, keyed by its label."""

    __slots__ = ("algorithm", "seed", "makespan", "lots", "busy_ticks")

    def __init__(self, algorithm: str, seed: int, makespan: int,
                 lots: tuple[LotRecord, ...], busy_ticks: dict[str, int]):
        _set(self, "algorithm", algorithm)
        _set(self, "seed", seed)
        _set(self, "makespan", makespan)
        _set(self, "lots", lots)
        _set(self, "busy_ticks", busy_ticks)


class MetricsSummary(Record):
    __slots__ = ("makespan", "flow_factor", "tardiness", "utilization")

    def __init__(self, makespan: int, flow_factor: float, tardiness: float,
                 utilization: float):
        _set(self, "makespan", makespan)
        _set(self, "flow_factor", flow_factor)
        _set(self, "tardiness", tardiness)
        _set(self, "utilization", utilization)


def flow_factor(result: RunResult) -> float:
    """Mean over lots of (queue ticks + process ticks) / process ticks."""
    if not result.lots:
        return 1.0
    total = 0.0
    for rec in result.lots:
        if rec.rpt_ticks <= 0:
            raise ConfigError(f"lot {rec.lot_id} has zero raw process time")
        total += (rec.queue_ticks + rec.rpt_ticks) / rec.rpt_ticks
    return total / len(result.lots)


def tardiness(result: RunResult) -> float:
    """Mean queue waiting ticks per lot."""
    if not result.lots:
        return 0.0
    return sum(rec.queue_ticks for rec in result.lots) / len(result.lots)


def utilization(result: RunResult) -> float:
    """Busy machine-ticks over machine count x makespan."""
    span = result.makespan
    if span <= 0 or not result.busy_ticks:
        return 0.0
    return sum(result.busy_ticks.values()) / (len(result.busy_ticks) * span)


#: Width in ticks of one finish-time histogram bin.
DEFAULT_HIST_BIN = 10


def histogram_from_times(times, bin_width: int = DEFAULT_HIST_BIN) -> list[tuple[int, int]]:
    """(bin start, count) pairs; bin b covers [b*w, (b+1)*w).

    Raises ValueError, through ``model.check_setting``, when ``bin_width``
    is not an ``int`` (a ``bool`` included) or is below 1."""
    check_setting("bin_width", bin_width, 1)
    if not times:
        return []
    counts = [0] * (max(times) // bin_width + 1)
    for t in times:
        counts[t // bin_width] += 1
    return [(b * bin_width, c) for b, c in enumerate(counts)]


def summarize(result: RunResult) -> MetricsSummary:
    return MetricsSummary(
        makespan=result.makespan,
        flow_factor=flow_factor(result),
        tardiness=tardiness(result),
        utilization=utilization(result),
    )
