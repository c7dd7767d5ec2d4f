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

from bisect import insort
from enum import Enum
from typing import Mapping


class ConfigError(ValueError):
    """Invalid machine, recipe, or scenario configuration."""


class MachineKind(Enum):
    SINGLE_STEP = "single"
    BATCH = "batch"


#: Ordered machine-type ids a lot must visit.
Recipe = tuple[int, ...]


_set = object.__setattr__


class Record:
    """Base of the immutable value records: ``MachineType`` here, and
    ``LotSpec``, ``Scenario``, ``LotRecord``, ``RunResult`` and
    ``MetricsSummary``.

    A record's fields are its ``__slots__``, in constructor order. Its
    ``__init__`` sets each field once through ``object.__setattr__``; after
    that, assigning or deleting an attribute raises AttributeError. Two
    records are equal when they are of one class with equal fields, and a
    record hashes its fields, so one holding a dict is unhashable. The
    runtime classes below (``Lot``, ``Batch``, ``Machine``, ``QueueIndex``,
    ``MultiQueue``, ``Workcenter``) are plain slotted classes that compare
    by identity.
    """

    __slots__ = ()

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__name__}({fields})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot set {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is read-only: cannot delete {name!r}")


class MachineType(Record):
    """Static parameters shared by all machines of one workcenter.

    Raises ConfigError for a ``kind`` that is not a ``MachineKind``, for any
    other field that is not an ``int`` (a ``bool`` is rejected too) and for
    values the kind does not allow.
    """

    __slots__ = ("id", "kind", "raw_process_ticks", "batch_size", "wt_ticks", "machine_count")

    def __init__(self, id: int, kind: MachineKind, raw_process_ticks: int,
                 batch_size: int = 1, wt_ticks: int = 0, machine_count: int = 1):
        for what, value in (("id", id), ("raw_process_ticks", raw_process_ticks),
                            ("batch_size", batch_size), ("wt_ticks", wt_ticks),
                            ("machine_count", machine_count)):
            if type(value) is not int:
                raise ConfigError(f"machine type {id!r}: {what} must be an int, got {value!r}")
        if not isinstance(kind, MachineKind):
            raise ConfigError(f"machine type {id}: kind must be a MachineKind, got {kind!r}")
        if raw_process_ticks < 1:
            raise ConfigError(f"machine type {id}: raw_process_ticks must be >= 1")
        if machine_count < 1:
            raise ConfigError(f"machine type {id}: machine_count must be >= 1")
        if kind is MachineKind.SINGLE_STEP:
            if batch_size != 1:
                raise ConfigError(f"machine type {id}: single-step machines have batch_size 1")
            if wt_ticks != 0:
                raise ConfigError(f"machine type {id}: single-step machines have no waiting timer")
        else:
            if batch_size < 2:
                raise ConfigError(f"machine type {id}: batch machines need batch_size >= 2")
            if wt_ticks < 0:
                raise ConfigError(f"machine type {id}: wt_ticks must be >= 0")
        _set(self, "id", id)
        _set(self, "kind", kind)
        _set(self, "raw_process_ticks", raw_process_ticks)
        _set(self, "batch_size", batch_size)
        _set(self, "wt_ticks", wt_ticks)
        _set(self, "machine_count", machine_count)


class Lot:
    """One unit of production, progressing step by step through its recipe."""

    __slots__ = ("id", "lot_type", "step_cursor", "enqueue_time", "total_queue_ticks",
                 "finish_time")

    def __init__(self, id: int, lot_type: int, step_cursor: int = 0):
        self.id = id
        self.lot_type = lot_type
        self.step_cursor = step_cursor
        self.enqueue_time = 0
        self.total_queue_ticks = 0
        self.finish_time: int | None = None


class Batch:
    """Lots of one type grouped to be processed together by a batch machine."""

    __slots__ = ("lot_type", "lots")

    def __init__(self, lot_type: int, lots: list[Lot]):
        self.lot_type = lot_type
        self.lots = lots


class Machine:
    """Runtime state of one machine; static parameters live on ``mtype``."""

    __slots__ = ("mtype", "index", "busy_remaining", "wt_armed_at", "current_batch",
                 "start_count")

    def __init__(self, mtype: MachineType, index: int):
        self.mtype = mtype
        self.index = index
        self.busy_remaining = 0
        self.wt_armed_at: int | None = None  # tick the waiting timer was armed; None: not armed
        self.current_batch: list[Lot] = []
        self.start_count = 0

    @property
    def label(self) -> str:
        return f"m{self.mtype.id}.{self.index}"


class QueueIndex:
    """Workcenter-wide state the queues of one workcenter keep current. Each
    fact about the workcenter's queues that the dispatch rules read is kept
    here once; the queues keep no copy of it.

    ``buckets`` maps each queue length some machine has to the indices of
    the machines with that length, ascending, so the shortest queues are
    ``buckets[min(buckets)]``. ``partials`` maps each lot type with a
    partial batch to ``(machine index, that batch)``: a workcenter holds at
    most one partial batch per type, so every queued batch not in the table
    is full. ``MultiQueue.add_lot``, the only way into a queue, is the one
    mutator that adds to it, and it keeps that bound. A bucket is deleted
    when its last machine leaves it, so none is ever empty.

    The lot-type state is tracked only once a reader asks for it
    (``Workcenter.track_lot_types``); until then ``type_counts`` and
    ``changed`` are None. Once tracked, ``type_counts`` maps each lot type
    queued at a single-step machine to ``{machine index: queued lots of the
    type}``, with no zero count and no empty inner table, so its keys are
    the machines queueing the type. ``changed`` holds the machines whose
    same-type distances ``Workcenter.distance_index`` must re-derive; it
    starts with every machine.

    Built by its ``Workcenter``, held by it and by every queue as
    ``queue.index``; it refers to neither, so a finished run is freed by
    reference counting alone.
    """

    __slots__ = ("buckets", "type_counts", "partials", "changed")

    def __init__(self, machine_count: int):
        self.buckets: dict[int, list[int]] = {0: list(range(machine_count))}
        self.type_counts: dict[int, dict[int, int]] | None = None
        self.partials: dict[int, tuple[int, Batch]] = {}
        self.changed: set[int] | None = None

    def move(self, i: int, old: int, new: int) -> None:
        """Move machine ``i`` from the bucket of length ``old`` to ``new``.
        Every queue mutator moves its owner through here, whether one lot
        or a whole batch changes the length."""
        buckets = self.buckets
        bucket = buckets[old]
        if len(bucket) == 1:
            del buckets[old]
        else:
            bucket.remove(i)
        bucket = buckets.get(new)
        if bucket is None:
            buckets[new] = [i]
        else:
            insort(bucket, i)


class MultiQueue:
    """Dedicated queue of one machine.

    Single-step owners keep an ordered lot list (index 0 = head). Batch
    owners keep a list of batches. A workcenter holds at most one partial
    batch per lot type, the one ``index.partials`` names, so an arriving lot
    tops up its type's partial batch when this queue holds it, opens a new
    one when no queue does, and is refused with a ValueError, before
    anything changes, when another queue of the workcenter holds it.

    ``size`` is the number of queued lots of either kind. Lots enter only
    through ``add_lot``, one at a time, and leave only through ``pop_head``
    and ``remove_batch``; the three keep ``size`` and the workcenter's
    ``index`` current (each moves the owner to its new length bucket through
    ``index.move``), and reorders inside ``lots`` leave both valid. A queue
    is therefore built empty, from its owner and that index alone. Queues
    compare by identity, as lots, batches and machines do.

    ``index`` is the ``QueueIndex`` of the owner's workcenter, the one piece
    of workcenter-wide state a queue holds; the ``Workcenter`` that builds
    the queue passes it in. While the index tracks lot types, both
    single-step mutators also keep ``index.type_counts`` and mark the owner
    in ``index.changed``; one ``is not None`` test skips that work otherwise.
    """

    __slots__ = ("owner", "lots", "batches", "size", "index")

    def __init__(self, owner: Machine, index: QueueIndex):
        self.owner = owner
        self.lots: list[Lot] = []
        self.batches: list[Batch] = []
        self.size = 0
        self.index = index

    def total_len(self) -> int:
        return self.size

    def is_empty(self) -> bool:
        return self.size == 0

    def add_lot(self, lot: Lot) -> None:
        x = self.index
        i = self.owner.index
        t = lot.lot_type
        if self.owner.mtype.kind is MachineKind.SINGLE_STEP:
            self.lots.append(lot)
            counts = x.type_counts
            if counts is not None:
                held = counts.get(t)
                if held is None:
                    held = counts[t] = {}
                held[i] = held.get(i, 0) + 1
                x.changed.add(i)
        else:
            entry = x.partials.get(t)
            if entry is None:
                batch = Batch(t, [lot])
                x.partials[t] = (i, batch)
                self.batches.append(batch)
            elif entry[0] != i:
                raise ValueError(f"{self.owner.label}: machine {entry[0]} of the "
                                 f"workcenter holds the partial batch of type {t}")
            else:
                lots = entry[1].lots
                lots.append(lot)
                if len(lots) == self.owner.mtype.batch_size:
                    del x.partials[t]
        n = self.size
        self.size = n + 1
        x.move(i, n, n + 1)

    def pop_head(self) -> Lot:
        lot = self.lots.pop(0)
        n = self.size
        self.size = n - 1
        x = self.index
        i = self.owner.index
        counts = x.type_counts
        if counts is not None:
            t = lot.lot_type
            held = counts[t]
            c = held[i]
            if c > 1:
                held[i] = c - 1
            elif len(held) > 1:
                del held[i]
            else:
                del counts[t]
            x.changed.add(i)
        x.move(i, n, n - 1)
        return lot

    def remove_batch(self, batch: Batch) -> None:
        for k, b in enumerate(self.batches):
            if b is batch:
                del self.batches[k]
                x = self.index
                i = self.owner.index
                n = self.size
                self.size = n - len(batch.lots)
                x.move(i, n, self.size)
                entry = x.partials.get(batch.lot_type)
                if entry is not None and entry[1] is batch:
                    del x.partials[batch.lot_type]
                return
        raise ValueError("batch not in this queue")

    def full_batches(self) -> list[Batch]:
        bs = self.owner.mtype.batch_size
        return [b for b in self.batches if len(b.lots) == bs]

    def has_full_batch(self) -> bool:
        bs = self.owner.mtype.batch_size
        return any(len(b.lots) == bs for b in self.batches)


class Workcenter:
    """All machines of one machine type, their queues, and the
    workcenter-wide state the dispatch rules read.

    Built from its ``mtype`` alone: ``machines`` holds ``mtype.machine_count``
    idle machines in index order, and ``queues[i]`` is the empty queue of
    ``machines[i]``. The engine keeps one per machine type in
    ``SimState.workcenters`` and hands that object to every decision taken
    there: the policy hooks and the batch rules. Decisions only read it and
    must not mutate anything reached through it, except where a hook's
    contract allows; every read goes to the live machines and queues, so a
    value read before a queue changes is stale afterwards.

    ``index`` is the workcenter's ``QueueIndex``, which every queue keeps
    current. It answers the dispatch rules' questions without visiting the
    machines: the shortest queues are ``index.buckets[min(index.buckets)]``,
    the machines queueing a lot type and how many lots of it each queues are
    ``index.type_counts``, and the partial batch of a type, if any, is
    ``index.partials``. Queue lengths are read per machine (``queue_len``)
    or from the buckets.

    ``track_lot_types`` builds the lot-type state (``index.type_counts`` and
    ``index.changed``) on its first call; ``type_count`` and
    ``distance_index`` call it first.

    The workcenter also keeps the same-type distance index of one window
    length that ``distance_index`` returns. ``index.changed`` holds the
    indices of the machines whose entry must be re-derived before the next
    read; it starts with every machine, and the ``flocking`` module
    docstring states who adds to it.
    """

    __slots__ = ("mtype", "machines", "queues", "index",
                 "dist_window", "dist_maps", "dist_counts", "dist_sums")

    def __init__(self, mtype: MachineType):
        self.mtype = mtype
        self.machines = [Machine(mtype, i) for i in range(mtype.machine_count)]
        self.index = QueueIndex(mtype.machine_count)
        self.queues = [MultiQueue(m, self.index) for m in self.machines]
        #: Window length of the index; None until ``distance_index`` builds it.
        self.dist_window: int | None = None
        #: Per machine, ``machine_distances`` as of its last re-derivation.
        self.dist_maps: list[dict[int, int]] = []
        #: Lot type -> machines whose map holds it, and the sum of their distances.
        self.dist_counts: dict[int, int] = {}
        self.dist_sums: dict[int, int] = {}

    def view(self) -> Workcenter:
        """The workcenter itself. Kept only because ``bench/run.py`` ``SITES``
        traces ``engine.Workcenter.view`` by name."""
        return self

    def queue_len(self, i: int) -> int:
        return self.queues[i].size

    def track_lot_types(self) -> QueueIndex:
        """Start tracking lot types, if not yet on, and return the index.

        The first call counts every single-step queue's lots into
        ``index.type_counts`` and marks every machine in ``index.changed``;
        from then on the queue mutators keep them.
        """
        index = self.index
        if index.type_counts is None:
            counts: dict[int, dict[int, int]] = {}
            for i, q in enumerate(self.queues):
                for lot in q.lots:
                    held = counts.setdefault(lot.lot_type, {})
                    held[i] = held.get(i, 0) + 1
            index.type_counts = counts
            index.changed = set(range(len(self.queues)))
        return index

    def type_count(self, i: int, lot_type: int) -> int:
        """Queued lots of ``lot_type`` at machine ``i`` (single-step queues)."""
        return self.track_lot_types().type_counts.get(lot_type, {}).get(i, 0)

    def processing_type(self, i: int) -> int | None:
        """Lot type on machine ``i``, or None while it is idle."""
        batch = self.machines[i].current_batch
        return batch[0].lot_type if batch else None

    def window_types(self, i: int, window_len: int) -> list[int]:
        """Lot types of the first ``window_len`` queued lots at machine ``i``."""
        return [lot.lot_type for lot in self.queues[i].lots[:window_len]]

    def distance_index(self, window_len: int
                       ) -> tuple[list[dict[int, int]], dict[int, int], dict[int, int]]:
        """``(dist_maps, dist_counts, dist_sums)`` for ``window_len``, current.

        Re-derives only the machines in ``index.changed``; a window length
        other than the last one rebuilds every machine. A re-derivation
        updates the totals by difference: a type new to the machine's map
        adds one to its count and its distance to its sum, a type gone from
        it takes them away, and a type whose distance moved changes only its
        sum, by the move. A type no machine shows keeps a zero count. The
        caller must not mutate the returned containers.
        """
        maps, counts, sums = self.dist_maps, self.dist_counts, self.dist_sums
        changed = self.index.changed
        if changed is None:
            changed = self.track_lot_types().changed
        if window_len != self.dist_window:
            self.dist_window = window_len
            maps[:] = [{} for _ in self.machines]
            counts.clear()
            sums.clear()
            changed.update(range(len(maps)))
        for i in changed:
            held = maps[i]  # replaced below, so emptied as it is compared
            fresh = machine_distances(self.machines[i], self.queues[i], window_len)
            for t, d in fresh.items():
                old = held.pop(t, None)
                if old is None:
                    counts[t] = counts.get(t, 0) + 1
                    sums[t] = sums.get(t, 0) + d
                elif old != d:
                    sums[t] += d - old
            for t, old in held.items():
                counts[t] -= 1
                sums[t] -= old
            maps[i] = fresh
        changed.clear()
        return maps, counts, sums

    def partial_batches(self, lot_type: int) -> list[tuple[int, Batch]]:
        """``[(machine index, batch)]`` for the workcenter's partial batch of
        ``lot_type``, or ``[]`` without one. Kept only because
        ``bench/run.py`` ``SITES`` traces it by name; no package code calls
        it."""
        entry = self.index.partials.get(lot_type)
        return [entry] if entry else []


#: Kept only because ``bench/run.py`` ``SITES`` traces the view methods as
#: ``model.WorkcenterView.<method>``.
WorkcenterView = Workcenter


def machine_distances(machine: Machine, queue: MultiQueue, window_len: int) -> dict[int, int]:
    """Lot type -> distance from ``machine`` to its nearest lot of the type:
    0 for the type it processes, otherwise the 1-based position of the type's
    first lot among the first ``window_len`` queued lots. Types visible
    neither way are absent. ``flocking.first_same_type_distance`` states the
    same rule for one type."""
    found = {machine.current_batch[0].lot_type: 0} if machine.current_batch else {}
    for pos, lot in enumerate(queue.lots[:window_len], start=1):
        found.setdefault(lot.lot_type, pos)
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
