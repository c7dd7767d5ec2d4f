"""Domain model for a tick-based job-shop plant with single-step and batch machines.

A workcenter groups all machines of one type; every machine owns a dedicated
queue. Single-step machines process one lot at a time. Batch machines process
up to ``batch_size`` lots of a single lot type together; their queue is a
multi-queue holding batches side by side, and a waiting timer lets an idle
machine start a partial batch after ``wt_ticks`` ticks.

All durations are integer ticks; hours exist only at the scenario boundary.
Queue positions are 1-based, position 1 being the head next to the machine.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Mapping


class ConfigError(ValueError):
    """Invalid machine, recipe, or scenario configuration."""


class MachineKind(Enum):
    SINGLE_STEP = "single"
    BATCH = "batch"


#: Ordered machine-type ids a lot must visit.
Recipe = tuple[int, ...]


@dataclass(frozen=True)
class MachineType:
    """Static parameters shared by all machines of one workcenter."""

    id: int
    kind: MachineKind
    raw_process_ticks: int
    batch_size: int = 1
    wt_ticks: int = 0
    machine_count: int = 1

    def __post_init__(self) -> None:
        if self.raw_process_ticks < 1:
            raise ConfigError(f"machine type {self.id}: raw_process_ticks must be >= 1")
        if self.machine_count < 1:
            raise ConfigError(f"machine type {self.id}: machine_count must be >= 1")
        if self.kind is MachineKind.SINGLE_STEP:
            if self.batch_size != 1:
                raise ConfigError(f"machine type {self.id}: single-step machines have batch_size 1")
            if self.wt_ticks != 0:
                raise ConfigError(f"machine type {self.id}: single-step machines have no waiting timer")
        else:
            if self.batch_size < 2:
                raise ConfigError(f"machine type {self.id}: batch machines need batch_size >= 2")
            if self.wt_ticks < 0:
                raise ConfigError(f"machine type {self.id}: wt_ticks must be >= 0")


@dataclass
class Lot:
    """One unit of production, progressing step by step through its recipe."""

    id: int
    lot_type: int
    step_cursor: int = 0
    enqueue_time: int = 0
    total_queue_ticks: int = 0
    finish_time: int | None = None


@dataclass
class Batch:
    """Lots of one type grouped to be processed together by a batch machine."""

    lot_type: int
    lots: list[Lot] = field(default_factory=list)


@dataclass
class Machine:
    """Runtime state of one machine; static parameters live on ``mtype``."""

    mtype: MachineType
    index: int
    busy_remaining: int = 0
    wt_remaining: int | None = None  # None: waiting timer not armed
    current_batch: list[Lot] = field(default_factory=list)
    busy_ticks_total: int = 0
    start_count: int = 0

    @property
    def is_busy(self) -> bool:
        return bool(self.current_batch)

    @property
    def processing_type(self) -> int | None:
        """Lot type currently on the machine, or None when idle."""
        return self.current_batch[0].lot_type if self.current_batch else None

    @property
    def label(self) -> str:
        return f"m{self.mtype.id}.{self.index}"


@dataclass
class MultiQueue:
    """Dedicated queue of one machine.

    Single-step owners keep an ordered lot list (index 0 = head). Batch owners
    keep a list of batches; at most one partial batch exists per lot type, so
    an arriving lot either tops up its type's partial batch or opens a new one.
    """

    owner: Machine
    lots: list[Lot] = field(default_factory=list)
    batches: list[Batch] = field(default_factory=list)

    def total_len(self) -> int:
        if self.owner.mtype.kind is MachineKind.SINGLE_STEP:
            return len(self.lots)
        return sum(len(b.lots) for b in self.batches)

    def is_empty(self) -> bool:
        return self.total_len() == 0

    def add_lot(self, lot: Lot) -> None:
        if self.owner.mtype.kind is MachineKind.SINGLE_STEP:
            self.lots.append(lot)
            return
        bs = self.owner.mtype.batch_size
        for b in self.batches:
            if b.lot_type == lot.lot_type and 0 < len(b.lots) < bs:
                b.lots.append(lot)
                return
        self.batches.append(Batch(lot.lot_type, [lot]))

    def pop_head(self) -> Lot:
        return self.lots.pop(0)

    def remove_batch(self, batch: Batch) -> None:
        for i, b in enumerate(self.batches):
            if b is batch:
                del self.batches[i]
                return
        raise ValueError("batch not in this queue")

    def full_batches(self) -> list[Batch]:
        bs = self.owner.mtype.batch_size
        return [b for b in self.batches if len(b.lots) == bs]

    def has_full_batch(self) -> bool:
        bs = self.owner.mtype.batch_size
        return any(len(b.lots) == bs for b in self.batches)


class WorkcenterView:
    """Read-only snapshot of one workcenter at a single decision instant.

    Policies use it to inspect queue lengths, queued lot types, and what each
    machine is processing. It reads the live state, so callers must not mutate
    anything reached through it and must not keep it across ticks.
    """

    __slots__ = ("type_id", "kind", "batch_size", "_machines", "_queues")

    def __init__(self, mtype: MachineType, machines: list[Machine], queues: list[MultiQueue]):
        self.type_id = mtype.id
        self.kind = mtype.kind
        self.batch_size = mtype.batch_size
        self._machines = machines
        self._queues = queues

    def __len__(self) -> int:
        return len(self._machines)

    def queue_len(self, i: int) -> int:
        return self._queues[i].total_len()

    def type_count(self, i: int, lot_type: int) -> int:
        """Queued lots of ``lot_type`` at machine ``i`` (single-step queues)."""
        return sum(1 for lot in self._queues[i].lots if lot.lot_type == lot_type)

    def processing_type(self, i: int) -> int | None:
        return self._machines[i].processing_type

    def window_types(self, i: int, window_len: int) -> list[int]:
        """Lot types of the first ``window_len`` queued lots at machine ``i``."""
        return [lot.lot_type for lot in self._queues[i].lots[:window_len]]

    def partial_batches(self, lot_type: int) -> list[tuple[int, Batch]]:
        """(machine index, batch) for every partial batch of ``lot_type``."""
        found = []
        for i, q in enumerate(self._queues):
            for b in q.batches:
                if b.lot_type == lot_type and 0 < len(b.lots) < self.batch_size:
                    found.append((i, b))
        return found


def next_step(lot: Lot, recipes: Mapping[int, Recipe]) -> int | None:
    """Machine type of the lot's next process step, or None when finished."""
    try:
        recipe = recipes[lot.lot_type]
    except KeyError:
        raise ConfigError(f"lot {lot.id} has unknown lot type {lot.lot_type}") from None
    if lot.step_cursor >= len(recipe):
        return None
    return recipe[lot.step_cursor]


def batch_missing(batch: Batch, batch_size: int) -> int:
    """Lots still needed to fill the batch."""
    return batch_size - len(batch.lots)
