"""Shared builders for the test suite."""

from __future__ import annotations

import itertools
import json

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
