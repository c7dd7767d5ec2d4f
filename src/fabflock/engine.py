"""Deterministic tick-loop simulation engine.

Every tick executes five phases in this fixed order; ``tick`` calls the
function named for each phase that has work:

1. ``_release``: busy machines count down; a machine reaching zero releases
   every lot of its current batch, whose recipe cursors advance, and
   becomes idle.
2. ``_dispatch``: released lots, visited in a seeded random order: finished
   lots record the current tick; the rest join a queue at their next
   workcenter and are enqueued at this tick. At a single-step workcenter
   the policy's ``choose_single`` picks the queue; at a batch workcenter
   ``baseline.choose_batch`` does, under every policy.
3. ``_start``: idle machines, visited in a seeded random order, try to
   start: a single-step machine lets the policy's ``take_single`` reorder
   its queue in place, within the policy's ``flsq_len`` window, and then
   loads the queue head; a batch machine starts the batch
   ``baseline.take_batch`` picks (passing whether its waiting timer has
   expired), if any. Starting credits each loaded lot's queue wait.
4. Waiting timers of idle batch machines with queued lots run on. This
   needs no per-tick work: a timer is the tick it was armed at, and an idle
   batch machine never holds a full batch after phase 3, since
   ``baseline.take_batch`` returns a batch whenever a full batch waits, so
   no timer ever pauses.
5. ``tick`` advances the clock by one. A machine's busy time is derived:
   each start keeps it busy for exactly ``raw_process_ticks`` ticks, and
   every machine is idle once every lot finished.

A lot released in phase 1 can be dispatched in phase 2 and loaded by a
downstream machine in phase 3 of the same tick, so an uncontended lot spends
exactly the sum of its raw process times in the system.

The waiting timer of a batch machine is armed at the current tick whenever
its queue turns from empty to nonempty or the machine turns idle with a
nonempty queue, and is cleared when the machine starts. It has expired once
``wt_ticks`` ticks passed since it was armed, so a partial batch becomes
startable exactly ``wt_ticks`` ticks after the timer was armed.

All randomness (dispatch order, machine order, policy tie-breaks) comes from
one per-run ``random.Random``, making a run a pure function of
(scenario, policy, seed). Every draw goes through ``baseline.shuffle`` and
``baseline.pick_uniform``, which use only its ``getrandbits``.

Per lot, phases 2 and 3 call only the policy's two rules
(``choose_single``, then ``take_single``) or the two batch rules
(``choose_batch``, then ``take_batch``), and the queue mutators
(``add_lot``, then ``pop_head`` or ``remove_batch``); the engine reads
``state.recipes`` directly and hands each decision the ``model.Workcenter``
it is taken at, the one held in ``state.workcenters``. The batch rules are
looked up on the ``baseline`` module at call time, so a wrapper installed
there (``bench/run.py`` traces them) sees every call. ``choose_batch`` also
tags its choice "join" or "new"; the engine receives that tag and drops it.
No code in the package calls ``next_step`` or ``Workcenter.view``; the
engine keeps both names only because ``bench/run.py`` ``SITES`` traces them.

``init_run`` starts a run: ``SimState(scenario, policy, seed)`` sets every
field of the fresh run, and ``_dispatch`` queues every lot at tick 0, in a
seeded random order.
"""

from __future__ import annotations

import random
from collections import Counter
from collections.abc import Iterable

from . import baseline
from .baseline import Policy, shuffle
from .flocking import first_same_type_distance
from .metrics import LotRecord, RunResult
from .model import (
    Batch,
    Lot,
    Machine,
    MachineKind,
    MultiQueue,
    Workcenter,  # bench/run.py SITES also traces engine.Workcenter.view
    check_setting,
    next_step,  # noqa: F401  (bench/run.py traces it under engine.next_step)
)
from .scenario import Scenario


#: ``run_to_completion``'s livelock horizon, in multiples of the total work content.
DEFAULT_HORIZON_FACTOR = 100


class SimulationAbort(RuntimeError):
    """No lot finished within the livelock horizon."""


#: (workcenter, machine, the machine's queue): one entry of the tick loop's
#: flat machine list.
Slot = tuple[Workcenter, Machine, MultiQueue]


class SimState:
    """Live state of one run, from tick ``clock`` on. The constructor
    validates the scenario, raising ScenarioError before it builds anything,
    and sets every field of a fresh run: tick 0, no lot queued yet
    (``init_run`` queues them), one workcenter per machine type in id order.
    ``lots`` lists every lot in id order, ids counting up in lot-type-id
    order, and ``finished`` the finished lots in finishing order;
    ``last_finish_tick`` is the tick the last of them finished at (0 before
    any). ``slots`` lists every machine in workcenter-id then machine-index
    order, the order every tick phase visits them in."""

    __slots__ = ("scenario", "policy", "seed", "rng", "workcenters", "lots", "recipes",
                 "clock", "finished", "last_finish_tick", "slots")

    def __init__(self, scenario: Scenario, policy: Policy, seed: int):
        scenario.validate()
        self.scenario = scenario
        self.policy = policy
        self.seed = seed
        self.rng = random.Random(seed)
        self.workcenters = {mt.id: Workcenter(mt)
                            for mt in sorted(scenario.machine_types, key=lambda m: m.id)}
        types = [ls.id for ls in sorted(scenario.lot_specs, key=lambda s: s.id)
                 for _ in range(ls.count)]
        self.lots = [Lot(id=i, lot_type=t) for i, t in enumerate(types)]
        self.recipes = scenario.recipes()
        self.clock = 0
        self.finished: list[Lot] = []
        self.last_finish_tick = 0
        self.slots: list[Slot] = [(wc, m, q) for wc in self.workcenters.values()
                                  for m, q in zip(wc.machines, wc.queues)]


def _release(state: SimState) -> list[Lot]:
    """Phase 1 (module docstring): busy machines count down, and each one
    reaching zero releases its batch. Returns the released lots in slot
    order."""
    released: list[Lot] = []
    for _, m, queue in state.slots:
        if not m.current_batch:
            continue
        m.busy_remaining -= 1
        if m.busy_remaining == 0:
            batch = m.current_batch
            for lot in batch:
                lot.step_cursor += 1
            released += batch
            m.current_batch = []
            changed = queue.index.changed
            if changed is not None:
                changed.add(m.index)
            if m.mtype.kind is MachineKind.BATCH and queue.size:
                m.wt_armed_at = state.clock
    return released


def _dispatch(state: SimState, lots: list[Lot]) -> None:
    """Phase 2, and the initial dispatch: shuffles ``lots`` in place, then,
    in that order, a lot whose cursor is past its recipe finishes at
    ``state.clock``, and every other lot joins a queue at the workcenter of
    its next step, the one ``baseline.choose_batch`` picks at a batch
    workcenter, arming the waiting timer of a queue it makes nonempty, and
    otherwise the one the policy's ``choose_single`` picks. An empty list
    draws nothing and changes nothing."""
    clock = state.clock
    recipes = state.recipes
    workcenters = state.workcenters
    policy = state.policy
    rng = state.rng
    shuffle(lots, rng)
    for lot in lots:
        recipe = recipes[lot.lot_type]
        cursor = lot.step_cursor
        if cursor >= len(recipe):
            lot.finish_time = clock
            state.finished.append(lot)
            state.last_finish_tick = clock
            continue
        wc = workcenters[recipe[cursor]]
        if wc.mtype.kind is MachineKind.BATCH:
            target = baseline.choose_batch(lot, wc, rng)[0]
            queue = wc.queues[target]
            if not queue.size:
                wc.machines[target].wt_armed_at = clock
        else:
            queue = wc.queues[policy.choose_single(lot, wc, rng)]
        queue.add_lot(lot)
        lot.enqueue_time = clock


def _start(state: SimState) -> None:
    """Phase 3 (module docstring): idle machines try to start. The shuffled
    list holds every idle machine, empty queue or not, so the draws do not
    depend on occupancy."""
    clock = state.clock
    rng = state.rng
    policy = state.policy
    window = policy.flsq_len
    idle = [s for s in state.slots if not s[1].current_batch]
    shuffle(idle, rng)
    for wc, m, queue in idle:
        if not queue.size:
            continue
        mtype = m.mtype
        if mtype.kind is MachineKind.SINGLE_STEP:
            policy.take_single(m, queue, wc, rng, window)
            lot = queue.pop_head()
            lot.total_queue_ticks += clock - lot.enqueue_time
            m.current_batch = [lot]
        else:
            batch = baseline.take_batch(m, queue, rng, clock - m.wt_armed_at >= mtype.wt_ticks)
            if batch is None:
                continue
            queue.remove_batch(batch)
            for lot in batch.lots:
                lot.total_queue_ticks += clock - lot.enqueue_time
            m.current_batch = list(batch.lots)
        m.busy_remaining = mtype.raw_process_ticks
        m.start_count += 1
        m.wt_armed_at = None


def init_run(scenario: Scenario, policy: Policy, seed: int) -> SimState:
    """Fresh simulation at tick 0 with every lot queued at its first step.

    Builds the ``SimState``, which rejects an invalid scenario, such as one
    whose recipes reference unknown machine types, then dispatches the lots
    in a seeded random order through phase 2's queue choice.
    """
    state = SimState(scenario, policy, seed)
    _dispatch(state, list(state.lots))
    return state


def tick(state: SimState) -> SimState:
    """Advance the simulation by one tick: phases 1-3 are ``_release``,
    ``_dispatch`` of the released lots and ``_start``; phase 4 needs no work
    and phase 5 is the clock increment (module docstring)."""
    _dispatch(state, _release(state))
    _start(state)
    state.clock += 1
    return state


def run_to_completion(state: SimState, horizon_factor: int = DEFAULT_HORIZON_FACTOR) -> RunResult:
    """Tick until every lot finished, then collect the run's results.

    Aborts with SimulationAbort when more than horizon_factor x the total raw
    process ticks of the lot population pass without any lot finishing.
    That also ends a healthy run whose lots wait out a waiting timer as long
    as the horizon or longer: one lot of a 1-tick step at a size-2 batch
    machine with a 300-tick timer has 1 tick of work, so the default factor
    aborts at tick 101, while ``horizon_factor=301`` lets the timer expire
    and the lot finish at tick 301. The message names the longest waiting
    timer when it is no shorter than the horizon, so that a lot waiting it
    out can outlast the guard.

    Raises ValueError, through ``model.check_setting`` and before the first
    tick, when ``horizon_factor`` is not an ``int`` (a ``bool`` included) or
    is below 1: such a horizon is shorter than the work itself.
    """
    check_setting("horizon_factor", horizon_factor, 1)
    total = len(state.lots)
    rpt_by_type = state.scenario.rpt_by_type()
    horizon = max(1, horizon_factor * sum(rpt_by_type[l.lot_type] for l in state.lots))
    while len(state.finished) < total:
        if state.clock - state.last_finish_tick > horizon:
            longest = max(state.scenario.machine_types, key=lambda mt: mt.wt_ticks)
            hint = "" if longest.wt_ticks < horizon else (
                f"; the {longest.wt_ticks}-tick waiting timer of machine type {longest.id} "
                f"is no shorter than the {horizon}-tick horizon; raise the horizon factor")
            raise SimulationAbort(
                f"aborted at tick {state.clock}: no lot finished since tick "
                f"{state.last_finish_tick} ({len(state.finished)}/{total} lots done){hint}")
        tick(state)

    records = tuple(
        LotRecord(lot_id=lot.id, lot_type=lot.lot_type, finish_time=lot.finish_time,
                  queue_ticks=lot.total_queue_ticks, rpt_ticks=rpt_by_type[lot.lot_type])
        for lot in state.lots)
    busy = {m.label: m.start_count * m.mtype.raw_process_ticks
            for _, m, _ in state.slots}
    return RunResult(
        algorithm=state.policy.name,
        seed=state.seed,
        makespan=state.last_finish_tick,
        lots=records,
        busy_ticks=busy,
    )


def audit_state(state: SimState) -> None:
    """Raise AssertionError when a structural invariant is violated.

    Checks the three run invariants: lot conservation (each lot sits in
    exactly one queue slot, one machine, or the finished set), batch type
    purity and size bounds, and finish = wait + work (every finished lot's
    ``finish_time`` is its ``total_queue_ticks`` plus its recipe's raw
    process ticks). Every queue's ``size`` must count its queued lots. An
    idle batch machine has its waiting timer armed, at a tick no later than
    the clock, exactly when its queue is nonempty, and once a tick has run
    it holds no full batch. Every workcenter's ``QueueIndex`` must equal one
    recount of each table: each length bucket the machines with that queue
    size in machine order, and ``partials`` the workcenter's partial
    batches, at most one per type across all its queues. A workcenter
    tracking lot types must have ``type_counts`` equal the queued lots per
    type and machine; an untracked one must hold no lot-type state at all
    (no counts, marks or distance index). Equality with a recount rules out
    empty buckets, empty inner tables and zero counts. Where a workcenter
    has built its same-type distance index, checks it without changing it:
    every machine not in ``index.changed`` holds the
    ``first_same_type_distance`` of each lot type, and the per-type counts
    and sums equal those of the held maps. Debugging aid; the engine never
    calls it on its own.
    """
    seen: list[int] = []
    for wc in state.workcenters.values():
        bs = wc.mtype.batch_size
        for m, q in zip(wc.machines, wc.queues):
            if m.current_batch:
                assert m.busy_remaining >= 1, f"{m.label}: busy without remaining time"
                assert 1 <= len(m.current_batch) <= bs, f"{m.label}: batch size out of bounds"
                assert len({l.lot_type for l in m.current_batch}) == 1, \
                    f"{m.label}: mixed lot types on machine"
                seen.extend(l.id for l in m.current_batch)
            else:
                assert m.busy_remaining == 0, f"{m.label}: idle with remaining time"
            assert q.size == len(q.lots) + sum(len(b.lots) for b in q.batches), \
                f"{m.label}: stale queue size"
            if wc.mtype.kind is MachineKind.SINGLE_STEP:
                assert not q.batches, f"{m.label}: single-step queue holds batches"
                seen.extend(l.id for l in q.lots)
            else:
                assert not q.lots, f"{m.label}: batch queue holds loose lots"
                if not m.current_batch:
                    assert (m.wt_armed_at is not None) == bool(q.size), \
                        f"{m.label}: idle, waiting timer armed iff queue nonempty"
                    assert m.wt_armed_at is None or m.wt_armed_at <= state.clock, \
                        f"{m.label}: waiting timer armed in the future"
                    assert not state.clock or not q.full_batches(), \
                        f"{m.label}: idle with a full batch after phase 3"
                for b in q.batches:
                    assert 1 <= len(b.lots) <= bs, f"{m.label}: batch size out of bounds"
                    assert all(l.lot_type == b.lot_type for l in b.lots), \
                        f"{m.label}: mixed lot types in batch"
                    seen.extend(l.id for l in b.lots)
        _audit_queue_index(wc)
        _audit_distance_index(wc, state.recipes)
    rpt = state.scenario.rpt_by_type()
    for lot in state.finished:
        assert lot.finish_time == lot.total_queue_ticks + rpt[lot.lot_type], \
            f"lot {lot.id}: finish is not wait + work"
        seen.append(lot.id)
    assert sorted(seen) == sorted(l.id for l in state.lots), "lot conservation violated"


def _audit_queue_index(wc: Workcenter) -> None:
    index = wc.index
    name = f"workcenter {wc.mtype.id}"
    bs = wc.mtype.batch_size
    buckets: dict[int, list[int]] = {}
    partials: dict[int, tuple[int, Batch]] = {}
    counts: dict[int, dict[int, int]] = {}
    for m, q in zip(wc.machines, wc.queues):
        i = m.index
        buckets.setdefault(q.size, []).append(i)
        for b in q.batches:
            if len(b.lots) < bs:
                assert b.lot_type not in partials, \
                    f"{name}: two partial batches of type {b.lot_type}"
                partials[b.lot_type] = (i, b)
        for lot in q.lots:
            held = counts.setdefault(lot.lot_type, {})
            held[i] = held.get(i, 0) + 1
    assert index.buckets == buckets, f"{name}: stale queue-length buckets"
    assert index.partials == partials, f"{name}: stale partial-batch table"
    if index.type_counts is None:
        assert index.changed is None and wc.dist_window is None, \
            f"{name}: lot-type state on an untracked workcenter"
        return
    assert index.changed is not None and index.changed <= set(range(len(wc.queues))), \
        f"{name}: tracked without a valid mark set"
    assert index.type_counts == counts, f"{name}: stale lot-type counts"


def _audit_distance_index(wc: Workcenter, lot_types: Iterable[int]) -> None:
    window = wc.dist_window
    if window is None:
        return
    counts: Counter = Counter()
    sums: Counter = Counter()
    for i, held in enumerate(wc.dist_maps):
        if i not in wc.index.changed:
            fresh = {t: d for t in lot_types
                     if (d := first_same_type_distance(t, wc, i, window)) is not None}
            assert held == fresh, f"machine {i} of workcenter {wc.mtype.id}: " \
                "stale same-type distances without a mark"
        counts.update(held.keys())
        sums.update(held)
    for t in set(counts) | set(wc.dist_counts):
        assert (wc.dist_counts.get(t, 0), wc.dist_sums.get(t, 0)) == \
            (counts[t], sums[t]), \
            f"workcenter {wc.mtype.id}: stale distance count or sum of type {t}"
