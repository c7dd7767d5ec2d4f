"""The traced benchmark wraps package functions by name; check the names exist.

``bench/run.py`` looks every ``SITES`` entry up as ``vars(owner)[attr]``, so
a name the package stops defining would crash only the traced benchmark run.
These tests import the script without running it and change nothing there.
"""

import sys
from collections import Counter

import pytest

from fabflock import baseline, cli, engine, flocking, model
from fabflock.scenario import build_small_fab

from support import lots_spec, scenario_of, single_type


def test_every_traced_site_is_defined_where_it_is_looked_up(bench_run):
    # The script must look at the package the tests import, not a second copy.
    assert bench_run.engine is sys.modules["fabflock.engine"]
    assert bench_run.SITES
    missing = [f"{name}: {getattr(owner, '__name__', owner)}.{attr}"
               for name, sites in bench_run.SITES.items()
               for owner, attr in sites if attr not in vars(owner)]
    assert missing == []


def test_the_traced_workcenter_names_are_the_class_the_engine_builds():
    # SITES traces engine.Workcenter.view and the view methods on
    # model.WorkcenterView; both must be the class init_run instantiates,
    # or those spans would wrap methods no run calls.
    assert engine.Workcenter is model.Workcenter is model.WorkcenterView
    state = engine.init_run(build_small_fab(), cli.make_policy("baseline"), 1)
    assert all(type(wc) is model.Workcenter for wc in state.workcenters.values())


@pytest.mark.parametrize("policy", ["baseline", "flocking"])
def test_the_batch_rules_are_called_where_the_trace_wraps_them(monkeypatch, policy):
    # The traced benchmark's baseline.choose_batch and baseline.take_batch
    # metrics count calls through the baseline module's attributes; a run
    # that reached the rules some other way would read 0 for them.
    calls = Counter()
    for name in ("choose_batch", "take_batch"):
        real = getattr(baseline, name)

        def counted(*args, _name=name, _real=real):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(baseline, name, counted)
    engine.run_to_completion(engine.init_run(build_small_fab(), cli.make_policy(policy), 1))
    assert calls["choose_batch"] > 0 and calls["take_batch"] > 0


@pytest.mark.parametrize("policy, called", [
    ("baseline", {"baseline.choose_single"}),
    ("flocking", {"flocking.choose_single", "flocking.take_single"}),
], ids=["baseline", "flocking"])
def test_the_single_step_rules_are_called_where_the_trace_wraps_them(monkeypatch, policy,
                                                                      called):
    # The traced benchmark wraps these module attributes before a run builds
    # its policies, so a policy must read its rules off the modules when it
    # is built: one holding functions captured at import would leave their
    # metrics at 0. The plant has no batch workcenter, whose choose_batch
    # would call baseline.choose_single under every policy.
    calls = Counter()
    for module, name in ((baseline, "choose_single"), (flocking, "choose_single"),
                         (flocking, "take_single")):
        real = getattr(module, name)

        def counted(*args, _site=f"{module.__name__.rsplit('.', 1)[1]}.{name}", _real=real):
            calls[_site] += 1
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    plant = scenario_of([single_type(0, rpt=2, count=2), single_type(1, rpt=3, count=2)],
                        [lots_spec(0, 4, [0, 1]), lots_spec(1, 4, [1, 0])])
    engine.run_to_completion(engine.init_run(plant, cli.make_policy(policy), 1))
    assert set(calls) == called
