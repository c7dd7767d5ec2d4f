"""The engine against ``reference_engine``, a scan-based re-implementation
that shares no code with the package, over whole runs.

Each case runs both from the same scenario, policy and seed, and asserts
equal lot records (finish tick and queue ticks of every lot), busy ticks
per machine, makespan, final clock and generator state. Equal generator
states mean both made the same draws in the same order, so every decision
along the run was the same. The runs cover the small fab, the ten-fold
fab's little sibling ``fab_text(2)`` from ``bench/run.py`` (read only),
flocking's reshuffle window at lengths other than the default, and
acceptance criterion 6's 200 randomized scenarios. Both livelock guards
fire at the same tick.
"""

import random

import pytest

from fabflock.cli import make_policy
from fabflock.engine import SimulationAbort, init_run, run_to_completion
from fabflock.scenario import build_small_fab, parse_scenario

from reference_engine import Livelock, run_reference
from support import random_scenario

POLICIES = ("baseline", "flocking")


def assert_runs_alike(scenario, policy, seed, flsq_len=5):
    """Run the engine and the reference; returns the reference's tally of
    the decision cases it met."""
    state = init_run(scenario, make_policy(policy, flsq_len), seed)
    result = run_to_completion(state)
    expected = run_reference(scenario, policy, seed, flsq_len)
    where = f"{scenario.name}/{policy}/{seed}/window {flsq_len}"
    assert [(r.lot_id, r.lot_type, r.finish_time, r.queue_ticks, r.rpt_ticks)
            for r in result.lots] == expected.lots, where
    assert result.busy_ticks == expected.busy_ticks, where
    assert (result.makespan, state.clock) == (expected.makespan, expected.clock), where
    assert state.rng.getstate() == expected.rng_state, where
    # A workcenter holds at most one partial batch of a type, so no batch
    # choice can rank two; the rule as written would, with a draw.
    assert all(int(case.split()[0]) < 2 for case in expected.cases
               if case.endswith("partial batches")), \
        f"{where}: a batch choice saw two partial batches of its type: {expected.cases}"
    return expected.cases


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [1, 2, 3, 4, 5, 11])
def test_small_fab(policy, seed):
    cases = assert_runs_alike(build_small_fab(), policy, seed)
    if seed in (3, 11):
        # Each of separation's three cases, a batch choice with and without
        # the type's partial batch, and a reshuffle, on one run.
        expected = {"0 partial batches", "1 partial batches"}
        if policy == "flocking":
            expected |= {"empty queue", "unqueued type", "walk", "reshuffle"}
        assert set(cases) == expected, cases


@pytest.mark.parametrize("flsq_len", [1, 2, 10])
@pytest.mark.parametrize("seed", [1, 2])
def test_small_fab_reshuffle_windows(flsq_len, seed):
    cases = assert_runs_alike(build_small_fab(), "flocking", seed, flsq_len)
    assert ("reshuffle" in cases) == (flsq_len > 1), cases


@pytest.mark.parametrize("policy", POLICIES)
@pytest.mark.parametrize("seed", [1, 2])
def test_two_fold_fab(bench_run, policy, seed):
    assert_runs_alike(parse_scenario(bench_run.fab_text(2)), policy, seed)


def test_randomized_scenarios():
    # Criterion 6's scenarios and run seeds.
    gen = random.Random(1234)
    cases = {policy: set() for policy in POLICIES}
    for i in range(200):
        scenario = random_scenario(gen)
        for policy in POLICIES:
            cases[policy] |= set(assert_runs_alike(scenario, policy, 1000 + i))
    assert cases["baseline"] == {"0 partial batches", "1 partial batches"}, cases
    assert cases["flocking"] >= cases["baseline"] | {"walk", "reshuffle"}, cases


def test_both_guards_fire_at_one_tick():
    # One lot waits out a 300-tick timer, past the default 100-tick horizon.
    sc = parse_scenario("machinetype 0 kind batch count 1 rpt_hours 0.1 bs 2 wt_hours 30\n"
                        "lottype 0 count 1 recipe 0\n")
    state = init_run(sc, make_policy("baseline"), 1)
    with pytest.raises(SimulationAbort):
        run_to_completion(state)
    with pytest.raises(Livelock, match=f"from tick 0 to {state.clock}$"):
        run_reference(sc, "baseline", 1)
