"""Deterministic tick-loop simulation engine.

Every tick executes five phases in this fixed order:

1. Busy machines count down; a machine reaching zero releases every lot of
   its current batch and becomes idle.
2. Released lots advance their recipe cursor. Finished lots record the
   current tick; the rest pick a queue at their next workcenter through the
   active policy, visited in a seeded random order, and are enqueued at this
   tick.
3. Idle machines, visited in a seeded random order, try to start: a
   single-step machine lets the policy reorder its queue in place and then
   loads the queue head; a batch machine asks the policy for a batch
   (passing whether its waiting timer has expired). Starting credits each
   loaded lot's queue wait.
4. Waiting-timer countdown for idle batch machines with queued lots.
5. The clock advances by one; busy machines accumulate one busy tick.

A lot released in phase 1 can be dispatched in phase 2 and loaded by a
downstream machine in phase 3 of the same tick, so an uncontended lot spends
exactly the sum of its raw process times in the system.

The waiting timer of a batch machine is armed to ``wt_ticks`` whenever its
queue turns from empty to nonempty or the machine turns idle with a nonempty
queue, counts down once per tick while the machine idles without a full
batch, and is cleared when the machine starts. A partial batch therefore
becomes startable exactly ``wt_ticks`` ticks after the timer was armed.

All randomness (dispatch order, machine order, policy tie-breaks) comes from
one per-run ``random.Random``, making a run a pure function of
(scenario, policy, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .baseline import BaselinePolicy
from .metrics import LotRecord, RunResult
from .model import (
    Lot,
    Machine,
    MachineKind,
    MachineType,
    MultiQueue,
    Recipe,
    WorkcenterView,
    next_step,
)
from .scenario import Scenario


class SimulationAbort(RuntimeError):
    """No lot finished within the livelock horizon."""


@dataclass
class Workcenter:
    mtype: MachineType
    machines: list[Machine]
    queues: list[MultiQueue]

    def view(self) -> WorkcenterView:
        return WorkcenterView(self.mtype, self.machines, self.queues)


@dataclass
class SimState:
    scenario: Scenario
    policy: BaselinePolicy
    seed: int
    rng: random.Random
    workcenters: dict[int, Workcenter]
    lots: list[Lot]
    recipes: dict[int, Recipe]
    clock: int = 0
    finished: list[Lot] = field(default_factory=list)
    last_finish_tick: int = 0


def _enqueue(wc: Workcenter, machine_index: int, lot: Lot, clock: int) -> None:
    queue = wc.queues[machine_index]
    was_empty = queue.is_empty()
    queue.add_lot(lot)
    lot.enqueue_time = clock
    machine = wc.machines[machine_index]
    if was_empty and machine.mtype.kind is MachineKind.BATCH:
        machine.wt_remaining = machine.mtype.wt_ticks


def _start(machine: Machine, lots: list[Lot], clock: int) -> None:
    machine.current_batch = list(lots)
    machine.busy_remaining = machine.mtype.raw_process_ticks
    machine.start_count += 1
    machine.wt_remaining = None
    for lot in lots:
        lot.total_queue_ticks += clock - lot.enqueue_time


def init_run(scenario: Scenario, policy: BaselinePolicy, seed: int) -> SimState:
    """Fresh simulation at tick 0 with every lot queued at its first step.

    Lots are dispatched in a seeded random order through the policy's queue
    choice. Rejects scenarios whose recipes reference unknown machine types.
    """
    scenario.validate()
    rng = random.Random(seed)
    workcenters: dict[int, Workcenter] = {}
    for mt in sorted(scenario.machine_types, key=lambda m: m.id):
        machines = [Machine(mt, i) for i in range(mt.machine_count)]
        queues = [MultiQueue(owner=m) for m in machines]
        workcenters[mt.id] = Workcenter(mt, machines, queues)

    lots: list[Lot] = []
    for ls in sorted(scenario.lot_specs, key=lambda s: s.id):
        for _ in range(ls.count):
            lots.append(Lot(id=len(lots), lot_type=ls.id))

    state = SimState(scenario=scenario, policy=policy, seed=seed, rng=rng,
                     workcenters=workcenters, lots=lots, recipes=scenario.recipes())
    order = list(lots)
    rng.shuffle(order)
    for lot in order:
        first = next_step(lot, state.recipes)
        wc = workcenters[first]
        target = policy.choose_queue(lot, wc.view(), rng)
        _enqueue(wc, target, lot, clock=0)
    return state


def tick(state: SimState) -> SimState:
    """Advance the simulation by one tick (five phases, fixed order)."""
    clock = state.clock
    rng = state.rng
    policy = state.policy

    # 1: countdown and release
    released: list[Lot] = []
    for wc in state.workcenters.values():
        for m in wc.machines:
            if not m.is_busy:
                continue
            m.busy_remaining -= 1
            if m.busy_remaining == 0:
                released.extend(m.current_batch)
                m.current_batch = []
                if m.mtype.kind is MachineKind.BATCH and not wc.queues[m.index].is_empty():
                    m.wt_remaining = m.mtype.wt_ticks

    # 2: advance cursors, dispatch to next queues
    if released:
        rng.shuffle(released)
        for lot in released:
            lot.step_cursor += 1
            nxt = next_step(lot, state.recipes)
            if nxt is None:
                lot.finish_time = clock
                state.finished.append(lot)
                state.last_finish_tick = clock
            else:
                wc = state.workcenters[nxt]
                target = policy.choose_queue(lot, wc.view(), rng)
                _enqueue(wc, target, lot, clock)

    # 3: idle machines try to start
    idle = [(wc, m)
            for wc in state.workcenters.values()
            for m in wc.machines if not m.is_busy]
    rng.shuffle(idle)
    for wc, m in idle:
        queue = wc.queues[m.index]
        if queue.is_empty():
            continue
        if m.mtype.kind is MachineKind.SINGLE_STEP:
            policy.take_single(m, queue, wc.view(), rng)
            _start(m, [queue.pop_head()], clock)
        else:
            wt_expired = m.wt_remaining == 0
            batch = policy.take_batch(m, queue, rng, wt_expired)
            if batch is None:
                continue
            if not batch.lots:
                raise RuntimeError(f"{policy.name}: returned an empty batch")
            queue.remove_batch(batch)
            _start(m, batch.lots, clock)

    # 4: waiting-timer countdown
    for wc in state.workcenters.values():
        if wc.mtype.kind is not MachineKind.BATCH:
            continue
        for m in wc.machines:
            if m.is_busy:
                continue
            queue = wc.queues[m.index]
            if queue.is_empty():
                m.wt_remaining = None
            else:
                if m.wt_remaining is None:
                    m.wt_remaining = m.mtype.wt_ticks
                if m.wt_remaining > 0 and not queue.has_full_batch():
                    m.wt_remaining -= 1

    # 5: clock and busy accounting
    state.clock = clock + 1
    for wc in state.workcenters.values():
        for m in wc.machines:
            if m.is_busy:
                m.busy_ticks_total += 1
    return state


def run_to_completion(state: SimState, horizon_factor: int = 100) -> RunResult:
    """Tick until every lot finished, then collect the run's results.

    Aborts with SimulationAbort when more than horizon_factor x the total raw
    process ticks of the lot population pass without any lot finishing.
    """
    total = len(state.lots)
    rpt_by_type = {ls.id: state.scenario.rpt_ticks(ls.id)
                   for ls in state.scenario.lot_specs}
    horizon = max(1, horizon_factor * sum(rpt_by_type[l.lot_type] for l in state.lots))
    while len(state.finished) < total:
        if state.clock - state.last_finish_tick > horizon:
            raise SimulationAbort(
                f"aborted at tick {state.clock}: no lot finished since tick "
                f"{state.last_finish_tick} ({len(state.finished)}/{total} lots done)")
        tick(state)

    records = tuple(
        LotRecord(lot_id=lot.id, lot_type=lot.lot_type, finish_time=lot.finish_time,
                  queue_ticks=lot.total_queue_ticks, rpt_ticks=rpt_by_type[lot.lot_type])
        for lot in sorted(state.lots, key=lambda l: l.id))
    busy: dict[str, int] = {}
    for type_id in sorted(state.workcenters):
        for m in state.workcenters[type_id].machines:
            busy[m.label] = m.busy_ticks_total
    return RunResult(
        algorithm=state.policy.name,
        seed=state.seed,
        machine_count=state.scenario.total_machines(),
        makespan=max((lot.finish_time for lot in state.finished), default=0),
        lots=records,
        busy_ticks=busy,
    )


def audit_state(state: SimState) -> None:
    """Raise AssertionError when a structural invariant is violated.

    Checks lot conservation (each lot sits in exactly one queue slot, one
    machine, or the finished set), batch type purity, batch size bounds, and
    partial-batch uniqueness per type. Debugging aid; the engine never calls
    it on its own.
    """
    seen: list[int] = []
    for wc in state.workcenters.values():
        bs = wc.mtype.batch_size
        for m, q in zip(wc.machines, wc.queues):
            if m.is_busy:
                assert m.busy_remaining >= 1, f"{m.label}: busy without remaining time"
                assert 1 <= len(m.current_batch) <= bs, f"{m.label}: batch size out of bounds"
                assert len({l.lot_type for l in m.current_batch}) == 1, \
                    f"{m.label}: mixed lot types on machine"
                seen.extend(l.id for l in m.current_batch)
            else:
                assert m.busy_remaining == 0, f"{m.label}: idle with remaining time"
            if wc.mtype.kind is MachineKind.SINGLE_STEP:
                assert not q.batches, f"{m.label}: single-step queue holds batches"
                seen.extend(l.id for l in q.lots)
            else:
                assert not q.lots, f"{m.label}: batch queue holds loose lots"
                partial_types = [b.lot_type for b in q.batches if len(b.lots) < bs]
                assert len(partial_types) == len(set(partial_types)), \
                    f"{m.label}: two partial batches of one type"
                for b in q.batches:
                    assert 1 <= len(b.lots) <= bs, f"{m.label}: batch size out of bounds"
                    assert all(l.lot_type == b.lot_type for l in b.lots), \
                        f"{m.label}: mixed lot types in batch"
                    seen.extend(l.id for l in b.lots)
    seen.extend(l.id for l in state.finished)
    assert sorted(seen) == sorted(l.id for l in state.lots), "lot conservation violated"
