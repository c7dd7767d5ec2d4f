"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import json
from types import SimpleNamespace

from fabflock.engine import audit_state, init_run, run_to_completion, tick
from fabflock.metrics import LotRecord, RunResult
from fabflock.model import Batch, Lot, MachineKind, MachineType, Workcenter
from fabflock.scenario import LotSpec, Scenario

_ids = itertools.count()


def result_json(result: RunResult) -> str:
    """Every field of the run result, each lot record as a field dict, as
    sorted-key JSON: two equal strings mean two equal results."""
    fields = {name: getattr(result, name) for name in RunResult.__slots__}
    fields["lots"] = [{name: getattr(rec, name) for name in LotRecord.__slots__}
                      for rec in result.lots]
    return json.dumps(fields, sort_keys=True)


def checked_run(scenario: Scenario, policy, seed: int, fifo_check: bool) -> RunResult:
    """Run ``scenario`` to its end, calling ``audit_state`` after ``init_run``
    and after every tick, and with ``fifo_check`` asserting that every
    single-step queue holds its lots in enqueue order. Returns the result,
    whose every lot finished at its wait plus work, no later than the
    makespan."""
    state = init_run(scenario, policy, seed)
    audit_state(state)
    total = len(state.lots)
    for _ in range(100_000):
        if len(state.finished) >= total:
            break
        tick(state)
        audit_state(state)
        if fifo_check:
            for wc in state.workcenters.values():
                if wc.mtype.kind is MachineKind.SINGLE_STEP:
                    for q in wc.queues:
                        times = [l.enqueue_time for l in q.lots]
                        assert times == sorted(times), "FIFO order broken"
    else:
        raise AssertionError("run did not terminate")
    result = run_to_completion(state)
    for rec in result.lots:
        assert rec.finish_time == rec.queue_ticks + rec.rpt_ticks <= result.makespan, \
            f"lot {rec.lot_id}: finish is not wait + work within the makespan"
    return result


def lot(lot_type: int) -> Lot:
    return Lot(id=next(_ids), lot_type=lot_type)


def make_single_wc(n_machines: int, rpt: int = 2, type_id: int = 0) -> Workcenter:
    return Workcenter(MachineType(type_id, MachineKind.SINGLE_STEP, raw_process_ticks=rpt,
                                  machine_count=n_machines))


def make_batch_wc(n_machines: int, bs: int = 4, wt: int = 3, rpt: int = 15,
                  type_id: int = 0) -> Workcenter:
    return Workcenter(MachineType(type_id, MachineKind.BATCH, raw_process_ticks=rpt,
                                  batch_size=bs, wt_ticks=wt, machine_count=n_machines))


def fill_queue(wc: Workcenter, i: int, lot_types) -> list[Lot]:
    """Append one lot per type to machine i's queue; returns them in order."""
    lots = [lot(t) for t in lot_types]
    for item in lots:
        wc.queues[i].add_lot(item)
    return lots


def set_processing(wc: Workcenter, i: int, lot_type: int) -> Lot:
    """Put machine i mid-process on a lot of the given type."""
    item = lot(lot_type)
    wc.machines[i].current_batch = [item]
    wc.machines[i].busy_remaining = 1
    wc.track_lot_types().changed.add(i)
    return item


def set_idle(wc: Workcenter, i: int) -> None:
    """Take machine i's lot off it, as a release does."""
    wc.machines[i].current_batch = []
    wc.machines[i].busy_remaining = 0
    wc.track_lot_types().changed.add(i)


def machine_views(wc: Workcenter) -> list[SimpleNamespace]:
    """Per machine of ``wc``, its queue's ``lots`` and ``batches`` and its
    ``current_batch``: the duck-typed machines the distance and reshuffle
    rules of ``reference_engine`` read. The views share the live lists, so
    build them after the state they should show."""
    return [SimpleNamespace(lots=q.lots, batches=q.batches, current_batch=m.current_batch)
            for m, q in zip(wc.machines, wc.queues)]


def add_batch(wc: Workcenter, i: int, lot_type: int, size: int) -> Batch:
    """Queue ``size`` new lots of the type at batch machine i, and return
    the batch holding them. The workcenter must hold no partial batch of the
    type, so a full batch of a type goes in before its partial one."""
    assert 1 <= size <= wc.mtype.batch_size, f"a batch holds 1 to batch_size lots, not {size}"
    assert lot_type not in wc.index.partials, \
        f"the workcenter already holds a partial batch of type {lot_type}"
    queue = wc.queues[i]
    for _ in range(size):
        queue.add_lot(lot(lot_type))
    return queue.batches[-1]


def scenario_of(machine_types, lot_specs, name: str = "test",
                tick_hours: float = 0.1) -> Scenario:
    return Scenario(name, tick_hours, tuple(machine_types), tuple(lot_specs))


def single_type(type_id: int = 0, rpt: int = 2, count: int = 1) -> MachineType:
    return MachineType(type_id, MachineKind.SINGLE_STEP, raw_process_ticks=rpt,
                       machine_count=count)


def batch_type(type_id: int = 0, rpt: int = 3, bs: int = 2, wt: int = 3,
               count: int = 1) -> MachineType:
    return MachineType(type_id, MachineKind.BATCH, raw_process_ticks=rpt,
                       batch_size=bs, wt_ticks=wt, machine_count=count)


def lots_spec(type_id: int, count: int, recipe) -> LotSpec:
    return LotSpec(type_id, count, tuple(recipe))


def random_scenario(rng) -> Scenario:
    """One of acceptance criterion 6's randomized scenarios: 1 to 4 machine
    types, each a batch type with odds 0.4, and 1 to 3 lot types of at most
    30 lots in all, with recipes of 1 to 5 steps."""
    n_types = rng.randint(1, 4)
    machine_types = []
    for m in range(n_types):
        if rng.random() < 0.4:
            machine_types.append(MachineType(
                m, MachineKind.BATCH, raw_process_ticks=rng.randint(1, 4),
                batch_size=rng.randint(2, 4), wt_ticks=rng.randint(0, 5),
                machine_count=rng.randint(1, 3)))
        else:
            machine_types.append(MachineType(
                m, MachineKind.SINGLE_STEP, raw_process_ticks=rng.randint(1, 4),
                machine_count=rng.randint(1, 3)))
    specs = []
    budget = 30
    for t in range(rng.randint(1, 3)):
        count = rng.randint(0, min(10, budget))
        budget -= count
        recipe = tuple(rng.randrange(n_types) for _ in range(rng.randint(1, 5)))
        specs.append(LotSpec(t, count, recipe))
    return Scenario("random", 0.1, tuple(machine_types), tuple(specs))
