"""Performance indicators computed from one finished run."""

from __future__ import annotations

from dataclasses import dataclass

from .model import ConfigError


@dataclass(frozen=True)
class LotRecord:
    """Per-lot outcome of one run."""

    lot_id: int
    lot_type: int
    finish_time: int
    queue_ticks: int
    rpt_ticks: int


@dataclass(frozen=True)
class RunResult:
    """Everything one replication produced."""

    algorithm: str
    seed: int
    machine_count: int
    makespan: int
    lots: tuple[LotRecord, ...]
    busy_ticks: dict[str, int]


@dataclass(frozen=True)
class MetricsSummary:
    makespan: int
    flow_factor: float
    tardiness: float
    utilization: float


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


def flow_factor_global(result: RunResult) -> float:
    """Ratio-of-sums variant: sum(queue + process) / sum(process).

    Coincides with ``flow_factor`` whenever all lots share one raw process
    time, as in the small fab.
    """
    if not result.lots:
        return 1.0
    rpt_sum = sum(rec.rpt_ticks for rec in result.lots)
    if rpt_sum <= 0:
        raise ConfigError("total raw process time is zero")
    return sum(rec.queue_ticks + rec.rpt_ticks for rec in result.lots) / rpt_sum


def tardiness(result: RunResult) -> float:
    """Mean queue waiting ticks per lot."""
    if not result.lots:
        return 0.0
    return sum(rec.queue_ticks for rec in result.lots) / len(result.lots)


def utilization(result: RunResult) -> float:
    """Busy machine-ticks over machine count x makespan."""
    span = result.makespan
    if span <= 0 or result.machine_count == 0:
        return 0.0
    return sum(result.busy_ticks.values()) / (result.machine_count * span)


def histogram_from_times(times, bin_width: int = 10) -> list[tuple[int, int]]:
    """(bin start, count) pairs; bin b covers [b*w, (b+1)*w)."""
    if bin_width < 1:
        raise ValueError("bin_width must be >= 1")
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
