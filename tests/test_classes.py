"""The package's classes are plain slotted classes: importing the package
loads no class-generation machinery, a misspelt attribute cannot be set, the
records compare by value and are read-only, and the runtime state compares
by identity."""

import subprocess
import sys
from pathlib import Path

import pytest

from fabflock.baseline import Policy
from fabflock.cli import make_policy
from fabflock.engine import SimState, init_run, run_to_completion
from fabflock.metrics import LotRecord, MetricsSummary, RunResult, summarize
from fabflock.model import Batch, Lot, Machine, MachineKind, MachineType, MultiQueue, Workcenter
from fabflock.scenario import LotSpec, Scenario, build_small_fab

from support import make_batch_wc

SRC = Path(__file__).resolve().parents[1] / "src"


def test_import_loads_neither_dataclasses_nor_inspect():
    # Every module the import adds is the package's own or the standard
    # library's: the package stays standard-library only.
    code = ("import sys\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            "before = set(sys.modules)\n"
            "import fabflock\n"
            "print(' '.join(sorted(set(sys.modules) - before)))\n")
    done = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True, timeout=60, check=True)
    added = set(done.stdout.split())
    assert "fabflock.engine" in added
    assert not added & {"dataclasses", "inspect"}
    outside = {name for name in added if not name.startswith("fabflock")
               and name.split(".")[0] not in sys.stdlib_module_names}
    assert not outside


def _runtime_objects():
    wc = make_batch_wc(1)
    lot = Lot(id=0, lot_type=3)
    state = SimState(build_small_fab(), make_policy("baseline"), 1)
    return [lot, Batch(3, [lot]), wc.machines[0], wc.queues[0], wc, state, state.policy]


@pytest.mark.parametrize("cls", [Lot, Batch, Machine, MultiQueue, Workcenter, SimState, Policy])
def test_misspelt_attribute_cannot_be_set(cls):
    obj = next(o for o in _runtime_objects() if type(o) is cls)
    with pytest.raises(AttributeError):
        obj.finsh_time = 3
    assert not hasattr(obj, "__dict__")


def test_runtime_objects_compare_by_identity():
    first, second = _runtime_objects(), _runtime_objects()
    for a, b in zip(first, second):
        assert a == a and a != b
        assert len({a, b}) == 2


def _records():
    sc = build_small_fab()
    result = run_to_completion(init_run(sc, make_policy("baseline"), 1))
    return [sc.machine_types[2], sc.lot_specs[0], sc, result.lots[0], result,
            summarize(result)]


def test_records_compare_by_value_and_are_read_only():
    for a, b in zip(_records(), _records()):
        assert a is not b and a == b and not a != b
        assert a != tuple(getattr(a, name) for name in a.__slots__)
        if not isinstance(a, RunResult):  # it holds a dict, so it has no hash
            assert hash(a) == hash(b)
        name = a.__slots__[0]
        with pytest.raises(AttributeError):
            setattr(a, name, getattr(a, name))
        with pytest.raises(AttributeError):
            delattr(a, name)
        with pytest.raises(AttributeError):
            a.finsh_time = 3
        assert repr(a).startswith(f"{type(a).__name__}({name}=")


def test_records_with_one_field_apart_differ():
    mt = MachineType(0, MachineKind.SINGLE_STEP, 2)
    assert mt != MachineType(0, MachineKind.SINGLE_STEP, 3)
    assert LotSpec(0, 1, (0,)) != LotSpec(0, 2, (0,))
    assert Scenario("a", 0.1, (mt,), ()) != Scenario("b", 0.1, (mt,), ())
    assert LotRecord(0, 0, 5, 1, 4) != LotRecord(0, 0, 5, 2, 4)
    assert MetricsSummary(5, 1.0, 0.0, 0.5) != MetricsSummary(5, 1.0, 0.0, 0.25)
