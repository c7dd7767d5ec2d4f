import gc
from collections import Counter

import pytest

from fabflock import baseline, engine
from fabflock.cli import make_policy
from fabflock.engine import (
    SimulationAbort,
    audit_state,
    init_run,
    run_to_completion,
    tick,
)
from fabflock.scenario import ScenarioError, build_small_fab, parse_scenario

from support import batch_type, checked_run, lots_spec, result_json, scenario_of, single_type


#: Runs a test once per policy name, under an id that names the policy.
each_policy = pytest.mark.parametrize("name", ["baseline", "flocking"],
                                      ids=["BaselinePolicy", "FlockingPolicy"])


def run(scenario, policy, seed, **kwargs):
    return run_to_completion(init_run(scenario, policy, seed), **kwargs)


class TestSingleStepSchedules:
    def test_one_lot_no_contention(self):
        sc = scenario_of([single_type(rpt=2)], [lots_spec(0, 1, [0])])
        result = run(sc, make_policy("baseline"), seed=1)
        assert result.makespan == 2
        assert result.lots[0].queue_ticks == 0
        assert result.lots[0].finish_time == 2

    def test_two_lots_share_one_machine(self):
        # Hand-computed serial schedule: the first lot starts at 0 and
        # finishes at 2, the second waits those 2 ticks and finishes at 4.
        sc = scenario_of([single_type(rpt=2)], [lots_spec(0, 2, [0])])
        result = run(sc, make_policy("baseline"), seed=1)
        assert result.makespan == 4
        assert sorted(rec.queue_ticks for rec in result.lots) == [0, 2]
        assert sorted(rec.finish_time for rec in result.lots) == [2, 4]

    def test_busy_ticks_equal_starts_times_rpt(self):
        # Count each machine's busy ticks while stepping by hand: a machine
        # holding a batch after a tick was busy during it.
        sc = scenario_of([single_type(0, rpt=2, count=2), batch_type(1, rpt=3, bs=2, wt=2)],
                         [lots_spec(0, 5, [0, 1, 0])])
        state = init_run(sc, make_policy("baseline"), seed=3)
        machines = [m for wc in state.workcenters.values() for m in wc.machines]
        counted = Counter()
        while len(state.finished) < len(state.lots):
            tick(state)
            counted.update(m.label for m in machines if m.current_batch)
        result = run_to_completion(state)
        assert result.busy_ticks == {m.label: counted[m.label] for m in machines}
        assert result.busy_ticks == {m.label: m.start_count * m.mtype.raw_process_ticks
                                     for m in machines}
        assert all(result.busy_ticks.values())


class TestBatchMachines:
    def test_full_batch_starts_without_consulting_timer(self):
        sc = scenario_of([batch_type(rpt=3, bs=2, wt=50)], [lots_spec(0, 2, [0])])
        result = run(sc, make_policy("baseline"), seed=1)
        assert result.makespan == 3
        assert all(rec.queue_ticks == 0 for rec in result.lots)

    def test_partial_batch_starts_when_timer_expires(self):
        # One lot can never fill a size-2 batch, so it starts after the
        # 3-tick timer: wait 3, finish 3 + 2.
        sc = scenario_of([batch_type(rpt=2, bs=2, wt=3)], [lots_spec(0, 1, [0])])
        result = run(sc, make_policy("baseline"), seed=1)
        assert result.lots[0].queue_ticks == 3
        assert result.lots[0].finish_time == 5

    def test_machine_waits_while_timer_runs(self):
        sc = scenario_of([batch_type(rpt=2, bs=2, wt=3)], [lots_spec(0, 1, [0])])
        state = init_run(sc, make_policy("baseline"), seed=1)
        machine = state.workcenters[0].machines[0]
        for _ in range(3):  # ticks 0..2: timer counts down, no start
            tick(state)
            assert not state.finished
        assert not machine.current_batch
        tick(state)  # tick 3: timer expired, partial batch starts
        assert machine.current_batch

    def test_timer_re_arms_at_release(self):
        # Hand-computed: the full batch of the first two lots starts at 0 and
        # releases at 5, which re-arms the timer for the leftover lot; it
        # starts 3 ticks later at 8, having waited 8, and finishes at 13.
        sc = scenario_of([batch_type(rpt=5, bs=2, wt=3)], [lots_spec(0, 3, [0])])
        result = run(sc, make_policy("baseline"), seed=1)
        assert sorted(rec.queue_ticks for rec in result.lots) == [0, 0, 8]
        assert sorted(rec.finish_time for rec in result.lots) == [5, 5, 13]
        assert result.makespan == 13

    def test_whole_batch_released_at_once(self):
        sc = scenario_of([batch_type(rpt=3, bs=4, wt=5)], [lots_spec(0, 4, [0])])
        result = run(sc, make_policy("baseline"), seed=1)
        assert [rec.finish_time for rec in result.lots] == [3, 3, 3, 3]

    def test_released_batch_feeds_downstream_same_tick(self):
        # Batch releases at tick 3; downstream single-step machines load the
        # released lots that same tick, so no gap tick appears anywhere.
        sc = scenario_of([batch_type(0, rpt=3, bs=2, wt=9), single_type(1, rpt=2, count=2)],
                         [lots_spec(0, 2, [0, 1])])
        result = run(sc, make_policy("baseline"), seed=1)
        assert sorted(rec.finish_time for rec in result.lots) == [5, 5]
        assert all(rec.queue_ticks == 0 for rec in result.lots)


class TestInitRun:
    def test_small_fab_population_lands_in_workcenter_0(self):
        state = init_run(build_small_fab(), make_policy("baseline"), seed=1)
        wc0 = state.workcenters[0]
        assert sum(len(q.lots) for q in wc0.queues) == 105
        for type_id, wc in state.workcenters.items():
            if type_id != 0:
                assert all(q.size == 0 for q in wc.queues)

    def test_same_seed_same_initial_queues(self):
        a = init_run(build_small_fab(), make_policy("baseline"), seed=42)
        b = init_run(build_small_fab(), make_policy("baseline"), seed=42)
        for type_id in a.workcenters:
            qa = [[l.id for l in q.lots] for q in a.workcenters[type_id].queues]
            qb = [[l.id for l in q.lots] for q in b.workcenters[type_id].queues]
            assert qa == qb

    def test_zero_lots_completes_immediately(self):
        sc = scenario_of([single_type()], [lots_spec(0, 0, [0])])
        result = run(sc, make_policy("baseline"), seed=1)
        assert result.makespan == 0
        assert result.lots == ()

    def test_rejects_recipe_with_unknown_machine_type(self):
        sc = scenario_of([single_type(0)], [lots_spec(0, 1, [0, 9])])
        with pytest.raises(Exception, match="unknown machine type"):
            init_run(sc, make_policy("baseline"), seed=1)

    def test_state_rejects_an_invalid_scenario_before_building_anything(self, monkeypatch):
        def build(*args, **kwargs):
            raise AssertionError("built from a scenario not yet validated")

        monkeypatch.setattr(engine, "Workcenter", build)
        monkeypatch.setattr(engine, "Lot", build)
        sc = scenario_of([single_type(0)], [lots_spec(0, 1, [0, 9])])
        with pytest.raises(ScenarioError,
                           match="^lot type 0: recipe references unknown machine type 9$"):
            engine.SimState(sc, make_policy("baseline"), 1)

    def test_rejects_scenario_beyond_a_size_limit(self):
        # Built in code, so no parser saw it; running it would not end.
        sc = scenario_of([single_type(0, rpt=10 ** 9)], [lots_spec(0, 1, [0])])
        with pytest.raises(ScenarioError, match="exceeds"):
            init_run(sc, make_policy("baseline"), seed=1)


class TestDeterminism:
    @each_policy
    def test_identical_runs_are_byte_identical(self, name):
        sc = build_small_fab()
        first = run(sc, make_policy(name), seed=7)
        second = run(sc, make_policy(name), seed=7)
        assert first == second
        assert result_json(first) == result_json(second)

    def test_different_seeds_differ(self):
        sc = build_small_fab()
        assert run(sc, make_policy("baseline"), seed=1) != run(sc, make_policy("baseline"), seed=2)


class TestRunInvariants:
    def test_small_fab_run_conserves_lots_every_tick(self):
        # audit_state after every tick checks all three invariants: lot
        # conservation, batch purity and size bounds, and finish = wait +
        # work. Single-step queues stay FIFO under the baseline.
        for name in ("baseline", "flocking"):
            result = checked_run(build_small_fab(), make_policy(name), seed=5,
                                 fifo_check=name == "baseline")
            assert len(result.lots) == 105

    def test_audit_rejects_a_finish_that_is_not_wait_plus_work(self):
        state = init_run(build_small_fab(), make_policy("baseline"), seed=5)
        run_to_completion(state)
        audit_state(state)
        done = state.finished[0]
        done.total_queue_ticks -= 1
        with pytest.raises(AssertionError, match=rf"^lot {done.id}: finish is not wait \+ work$"):
            audit_state(state)


class TestPerLotWork:
    @each_policy
    def test_every_decision_receives_a_workcenter_of_the_state(self, name,
                                                               monkeypatch):
        # The policy hooks and the batch rule read the very workcenter the
        # state holds, not a second object over its machines and queues.
        policy = make_policy(name)
        received = Counter()
        seen = []

        def recorded(rule, real, at):
            def hook(*args):
                received[rule] += 1
                seen.append(args[at])
                return real(*args)
            return hook

        monkeypatch.setattr(policy, "choose_single",
                            recorded("choose_single", policy.choose_single, 1))
        monkeypatch.setattr(policy, "take_single",
                            recorded("take_single", policy.take_single, 2))
        monkeypatch.setattr(baseline, "choose_batch",
                            recorded("choose_batch", baseline.choose_batch, 1))
        state = init_run(build_small_fab(), policy, seed=1)
        run_to_completion(state)
        assert set(received) == {"choose_single", "take_single", "choose_batch"}
        workcenters = list(state.workcenters.values())
        assert all(any(wc is held for held in workcenters) for wc in seen)

    def test_baseline_run_never_tracks_lot_types(self):
        # The index's lot-type counts and FLSQ marks serve only flocking;
        # a baseline run must never build them.
        state = init_run(build_small_fab(), make_policy("baseline"), seed=1)
        run_to_completion(state)
        for wc in state.workcenters.values():
            index = wc.index
            assert index.type_counts is None and index.changed is None
        audit_state(state)


class TestFinishedRunMemory:
    @each_policy
    def test_freed_without_the_cycle_collector_and_index_drained(self, name):
        # bench/run.py keeps every final state of a unit: a reference cycle
        # would leave each run to the cyclic collector, and leftover index
        # entries would stay resident with the state.
        gc.collect()
        gc.disable()
        try:
            state = init_run(build_small_fab(), make_policy(name), seed=1)
            run_to_completion(state)
            for wc in state.workcenters.values():
                index = wc.track_lot_types()
                assert index.buckets == {0: list(range(len(wc.machines)))}
                assert min(index.buckets) == 0
                assert index.type_counts == {} and index.partials == {}
            del state
            assert gc.collect() == 0
        finally:
            gc.enable()


class TestLivelockGuard:
    def test_starving_batch_machine_aborts(self):
        # A size-2 batch with a single lot starts only when its 10^6-tick
        # timer expires, at tick 10^6; the guard's 5-tick horizon ends the
        # run long before, instead of ticking on to it.
        sc = scenario_of([batch_type(rpt=1, bs=2, wt=10 ** 6)], [lots_spec(0, 1, [0])])
        with pytest.raises(SimulationAbort, match="no lot finished"):
            run(sc, make_policy("baseline"), seed=1, horizon_factor=5)

    TIMER_LONGER_THAN_WORK = ("machinetype 0 kind batch count 1 rpt_hours 0.1 bs 2 wt_hours 30\n"
                              "lottype 0 count 1 recipe 0\n")

    @pytest.mark.parametrize("factor, tick", [(100, 101), (300, 301)])
    def test_a_timer_outlasting_the_horizon_aborts_a_healthy_run(self, factor, tick):
        # One lot of 1 tick's work waits out a 300-tick timer: it would
        # start at tick 300 and finish at 301, past a horizon of 100 or 300
        # ticks. The message names the timer.
        state = init_run(parse_scenario(self.TIMER_LONGER_THAN_WORK), make_policy("baseline"),
                         seed=1)
        with pytest.raises(SimulationAbort, match=(
                rf"^aborted at tick {tick}: no lot finished since tick 0 \(0/1 lots done\); "
                rf"the 300-tick waiting timer of machine type 0 is no shorter than the "
                rf"{factor}-tick horizon")):
            run_to_completion(state, horizon_factor=factor)
        assert state.clock == tick

    def test_a_horizon_past_the_timer_lets_the_run_finish(self):
        result = run(parse_scenario(self.TIMER_LONGER_THAN_WORK), make_policy("baseline"), seed=1,
                     horizon_factor=301)
        assert result.makespan == 301

    @pytest.mark.parametrize("factor", [0, -5])
    def test_horizon_below_the_work_is_rejected_before_a_tick(self, factor):
        state = init_run(build_small_fab(), make_policy("baseline"), seed=1)
        with pytest.raises(ValueError, match="horizon_factor must be >= 1"):
            run_to_completion(state, horizon_factor=factor)
        assert state.clock == 0
