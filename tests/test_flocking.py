import random
import signal
from contextlib import contextmanager

import pytest
from hypothesis import example, given, strategies as st

from fabflock import flocking, model
from fabflock.baseline import BaselinePolicy
from fabflock.engine import init_run, run_to_completion
from fabflock.flocking import (
    FlockingPolicy,
    apply_pulls,
    first_same_type_distance,
    pull_from_totals,
    reshuffle_flsq,
)
from fabflock.metrics import RunResult
from fabflock.model import Lot, Workcenter

from reference_engine import (
    compute_pull,
    reference_reshuffle,
    reference_separation,
    same_type_distances,
)
from support import (
    batch_type,
    fill_queue,
    lot,
    lots_spec,
    machine_views,
    make_single_wc,
    scenario_of,
    set_idle,
    set_processing,
)


@contextmanager
def returns_within(seconds):
    """Raise TimeoutError in the block should it run ``seconds`` or longer."""

    def timed_out(signum, frame):
        raise TimeoutError(f"the call did not return within {seconds} s")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


class TestChooseSingle:
    def test_fewest_same_type_then_shortest(self):
        # same-type counts (2, 0, 0), total lengths (3, 4, 2): the two-stage
        # rule filters to machines 1 and 2, then picks the shorter queue.
        wc = make_single_wc(3)
        fill_queue(wc, 0, [7, 7, 1])
        fill_queue(wc, 1, [1, 2, 1, 2])
        fill_queue(wc, 2, [1, 2])
        assert flocking.choose_single(lot(7), wc, random.Random(1)) == 2

    def test_degenerates_to_shortest_queue_on_equal_counts(self):
        wc = make_single_wc(2)
        fill_queue(wc, 0, [7] + [1] * 4)
        fill_queue(wc, 1, [7] + [1] * 1)
        assert flocking.choose_single(lot(7), wc, random.Random(1)) == 1

    def test_empty_workcenter_uniform(self):
        wc = make_single_wc(3)
        picks = {flocking.choose_single(lot(7), wc, random.Random(s))
                 for s in range(60)}
        assert picks == {0, 1, 2}

    def test_choice_always_in_fewest_same_type_set(self):
        rng = random.Random(99)
        for _ in range(100):
            wc = make_single_wc(3)
            for i in range(3):
                fill_queue(wc, i, [rng.randrange(4) for _ in range(rng.randrange(6))])
            probe = lot(rng.randrange(4))
            held = wc.track_lot_types().type_counts.get(probe.lot_type, {})
            counts = [held.get(i, 0) for i in range(3)]
            choice = flocking.choose_single(probe, wc, rng)
            assert counts[choice] == min(counts)

    @staticmethod
    def assert_picks_as_the_scan(wc, lot_type):
        """Over many seeds, the rule picks what the scan picks, with the
        same draws; returns the picks."""
        picks = set()
        for seed in range(40):
            item = lot(lot_type)
            live, scanned = random.Random(seed), random.Random(seed)
            choice = flocking.choose_single(item, wc, live)
            assert choice == reference_separation(item, wc.queues, scanned)
            assert live.getstate() == scanned.getstate()
            picks.add(choice)
        return picks

    def test_unqueued_type_picks_among_the_shortest_as_the_scan(self):
        # No queue holds type 7, and no queue is empty: the shortest bucket,
        # machines 1, 2 and 4, gives the ties.
        wc = make_single_wc(5)
        for i, types in enumerate([[1, 2], [1], [2], [1, 1, 2], [3]]):
            fill_queue(wc, i, types)
        assert 7 not in wc.track_lot_types().type_counts
        assert self.assert_picks_as_the_scan(wc, 7) == {1, 2, 4}

    def test_empty_queues_tie_as_in_the_scan(self):
        # Machines 0 and 1 queue type 7, machine 5 only other types; the
        # empty queues 2, 3 and 4 hold none of it and are the shortest.
        wc = make_single_wc(6)
        for i, types in enumerate([[7], [7, 1], [], [], [], [1]]):
            fill_queue(wc, i, types)
        assert self.assert_picks_as_the_scan(wc, 7) == {2, 3, 4}

    def test_a_stale_zero_count_raises_instead_of_walking_on(self):
        # Both machines queue type 7, but one count reads 0: no bucket holds
        # a machine with 0 lots of the type, so the walk must stop after the
        # last bucket. The alarm fails the test should the walk not stop.
        wc = make_single_wc(2)
        fill_queue(wc, 0, [7])
        fill_queue(wc, 1, [7])
        wc.track_lot_types().type_counts[7][0] = 0
        with returns_within(5), pytest.raises(RuntimeError, match="stale index.type_counts"):
            flocking.choose_single(lot(7), wc, random.Random(1))


class TestFirstSameTypeDistance:
    def test_processing_counts_as_zero(self):
        wc = make_single_wc(2)
        set_processing(wc, 1, lot_type=7)
        fill_queue(wc, 1, [7, 7])  # queue content is shadowed by the machine
        assert first_same_type_distance(7, wc, 1, window_len=5) == 0

    def test_head_counts_as_one(self):
        wc = make_single_wc(2)
        fill_queue(wc, 1, [7, 1])
        assert first_same_type_distance(7, wc, 1, window_len=5) == 1

    def test_beyond_window_is_absent(self):
        wc = make_single_wc(2)
        fill_queue(wc, 1, [1, 1, 1, 1, 1, 7])  # first match at position 6
        assert first_same_type_distance(7, wc, 1, window_len=5) is None

    def test_no_match_is_absent(self):
        wc = make_single_wc(2)
        fill_queue(wc, 1, [1, 2])
        assert first_same_type_distance(7, wc, 1, window_len=5) is None


class TestComputePull:
    def test_closer_than_average_pulls_back(self):
        assert compute_pull(1, [2, 2]) == 1

    def test_farther_than_average_pulls_forward(self):
        assert compute_pull(2, [0, 0, 1]) == -1

    def test_no_peers_is_neutral(self):
        assert compute_pull(3, []) == 0

    def test_exact_average_is_neutral(self):
        assert compute_pull(2, [2, 2]) == 0
        assert compute_pull(2, [1, 3]) == 0

    @given(d=st.integers(0, 10), ds=st.lists(st.integers(0, 10), max_size=8),
           k=st.integers(1, 4))
    def test_mean_invariance_under_duplication(self, d, ds, k):
        assert compute_pull(d, ds) == compute_pull(d, ds * k)

    @given(d=st.integers(0, 10), ds=st.lists(st.integers(0, 10), max_size=8))
    def test_integer_form_compares_against_the_mean(self, d, ds):
        mean_rule = 0 if not ds else (d < sum(ds) / len(ds)) - (d > sum(ds) / len(ds))
        assert pull_from_totals(d, len(ds), sum(ds)) == mean_rule


@st.composite
def _window_case(draw):
    n = draw(st.integers(0, 8))
    types = draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    pulls = draw(st.lists(st.sampled_from([-1, 0, 1]), min_size=n, max_size=n))
    window = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 16))
    return types, pulls, window, seed


class TestApplyPulls:
    @given(_window_case())
    def test_permutes_only_the_window_prefix(self, case):
        types, pulls, window, seed = case
        lots = [Lot(id=i, lot_type=t) for i, t in enumerate(types)]
        before = list(lots)
        w = min(window, len(lots))
        apply_pulls(lots, {l.id: p for l, p in zip(before, pulls)}, window,
                    random.Random(seed))
        assert len(lots) == len(before)
        assert sorted(l.id for l in lots[:w]) == sorted(l.id for l in before[:w])
        assert all(a is b for a, b in zip(lots[w:], before[w:]))

    def test_opposing_pulls_swap_neighbours(self):
        # a wants one place back, b one place forward; both visit orders
        # commute to the same swap.
        for seed in range(10):
            a, b = Lot(id=0, lot_type=0), Lot(id=1, lot_type=1)
            lots = [a, b]
            apply_pulls(lots, {a.id: 1, b.id: -1}, 5, random.Random(seed))
            assert lots == [b, a]

    def test_neutral_pulls_leave_queue_unchanged(self):
        lots = [Lot(id=i, lot_type=0) for i in range(4)]
        before = list(lots)
        apply_pulls(lots, {l.id: 0 for l in lots}, 5, random.Random(3))
        assert lots == before

    def test_head_pull_is_clamped(self):
        a = Lot(id=0, lot_type=0)
        lots = [a, Lot(id=1, lot_type=1)]
        apply_pulls(lots, {a.id: -1}, 5, random.Random(3))
        assert lots[0] is a

    def test_moves_out_of_the_window_are_clamped_away(self):
        # A -1 pull at the head and a +1 pull at the window's last slot, the
        # window shorter and longer than the queue: nothing moves, whatever
        # the visit order.
        for window, n in ((3, 5), (5, 3)):
            lots = [Lot(id=i, lot_type=0) for i in range(n)]
            before = list(lots)
            last = lots[min(window, n) - 1]
            for seed in range(10):
                apply_pulls(lots, {before[0].id: -1, last.id: 1}, window,
                            random.Random(seed))
                assert all(a is b for a, b in zip(lots, before))


class TestReshuffle:
    def test_neutral_everywhere_is_identity(self):
        wc = make_single_wc(2)
        queued = fill_queue(wc, 0, [1, 2, 3])
        reshuffle_flsq(wc.queues[0], wc, own_index=0, rng=random.Random(1))
        assert wc.queues[0].lots == queued

    def test_peer_processing_pulls_same_type_to_head(self):
        wc = make_single_wc(2)
        queued = fill_queue(wc, 0, [1, 7, 2])
        set_processing(wc, 1, lot_type=7)
        reshuffle_flsq(wc.queues[0], wc, own_index=0, rng=random.Random(1))
        assert wc.queues[0].lots[0] is queued[1]

    def test_lots_beyond_window_never_move(self):
        wc = make_single_wc(2)
        queued = fill_queue(wc, 0, [1, 1, 1, 1, 1, 7, 7])
        set_processing(wc, 1, lot_type=7)
        reshuffle_flsq(wc.queues[0], wc, own_index=0, rng=random.Random(1),
                       window_len=5)
        assert wc.queues[0].lots[5:] == queued[5:]


N_TYPES = 4


@st.composite
def _workcenter_case(draw):
    """(queued types per machine, processing type or None per machine,
    own machine index, window length, seed)."""
    m = draw(st.integers(1, 6))
    queues = draw(st.lists(st.lists(st.integers(0, N_TYPES - 1), max_size=8),
                           min_size=m, max_size=m))
    processing = draw(st.lists(st.none() | st.integers(0, N_TYPES - 1),
                               min_size=m, max_size=m))
    own = draw(st.integers(0, m - 1))
    window = draw(st.integers(1, 6))
    seed = draw(st.integers(0, 2 ** 16))
    return queues, processing, own, window, seed


def _build(queues, processing):
    wc = make_single_wc(len(queues))
    for i, (types, proc) in enumerate(zip(queues, processing)):
        fill_queue(wc, i, types)
        if proc is not None:
            set_processing(wc, i, proc)
    return wc


class TestOnePassReshuffle:
    @given(_workcenter_case())
    def test_matches_the_per_lot_reference(self, case):
        queues, processing, own, window, seed = case
        wc = _build(queues, processing)
        distances = same_type_distances(machine_views(wc), own, window)
        for lot_type in range(N_TYPES + 1):  # N_TYPES is queued nowhere
            expected = [d for other in range(len(wc.machines)) if other != own
                        and (d := first_same_type_distance(lot_type, wc, other,
                                                           window)) is not None]
            assert distances.get(lot_type, []) == expected

        queue = wc.queues[own]
        expected = list(queue.lots)
        ref_rng = random.Random(seed)
        reference_reshuffle(expected, machine_views(wc), own, ref_rng, window)
        rng = random.Random(seed)
        reshuffle_flsq(queue, wc, own, rng, window)
        assert all(a is b for a, b in zip(queue.lots, expected))
        assert rng.getstate() == ref_rng.getstate()


def _check_index_against_reference(wc, window):
    """The index's maps equal ``first_same_type_distance``, and its (count,
    total) less each own machine's entry equal ``same_type_distances``."""
    maps, counts, sums = wc.distance_index(window)
    for own in range(len(wc.machines)):
        assert maps[own] == {t: d for t in range(N_TYPES) if (
            d := first_same_type_distance(t, wc, own, window)) is not None}
        reference = same_type_distances(machine_views(wc), own, window)
        for t in range(N_TYPES + 1):
            ds = reference.get(t, [])
            own_d = maps[own].get(t)
            got = (counts.get(t, 0) - (own_d is not None),
                   sums.get(t, 0) - (own_d or 0))
            assert got == (len(ds), sum(ds))


_M = 4
_step = st.one_of(
    st.tuples(st.just("add"), st.integers(0, _M - 1), st.integers(0, N_TYPES - 1)),
    # A burst of lots at one machine: repeated types, so that a later pop or
    # start moves a type's distance while the type stays in the window.
    st.tuples(st.just("fill"), st.integers(0, _M - 1),
              st.lists(st.integers(0, N_TYPES - 1), min_size=2, max_size=6)),
    st.tuples(st.just("pop"), st.integers(0, _M - 1)),
    st.tuples(st.just("reshuffle"), st.integers(0, _M - 1), st.integers(0, 2 ** 16)),
    st.tuples(st.just("start"), st.integers(0, _M - 1), st.integers(0, N_TYPES - 1)),
    st.tuples(st.just("release"), st.integers(0, _M - 1)),
    st.tuples(st.just("window"), st.integers(1, 6)),
)


class TestDistanceIndex:
    @given(st.lists(_step, max_size=40), st.integers(1, 6))
    # Distances that move while their type stays: 1 and 2 swap on the pop,
    # and type 2 goes from position 1 to 0 on the start.
    @example([("fill", 0, [1, 2, 1]), ("pop", 0), ("start", 0, 2)], 5)
    def test_stays_equal_to_the_reference_under_any_interleaving(self, steps, window):
        wc = make_single_wc(_M)
        _check_index_against_reference(wc, window)
        for step in steps:
            op, arg = step[0], step[1:]
            if op == "add":
                fill_queue(wc, arg[0], [arg[1]])
            elif op == "fill":
                fill_queue(wc, arg[0], arg[1])
            elif op == "pop" and wc.queues[arg[0]].lots:
                wc.queues[arg[0]].pop_head()
            elif op == "reshuffle":
                i, seed = arg
                queue = wc.queues[i]
                expected = list(queue.lots)
                ref_rng = random.Random(seed)
                reference_reshuffle(expected, machine_views(wc), i, ref_rng, window)
                rng = random.Random(seed)
                reshuffle_flsq(queue, wc, i, rng, window)
                assert all(a is b for a, b in zip(queue.lots, expected))
                assert rng.getstate() == ref_rng.getstate()
            elif op == "start" and not wc.machines[arg[0]].current_batch:
                set_processing(wc, arg[0], arg[1])
            elif op == "release":
                set_idle(wc, arg[0])
            elif op == "window":
                window = arg[0]
            _check_index_against_reference(wc, window)

    def test_a_take_re_derives_only_the_changed_machines(self, monkeypatch):
        # Full windows everywhere: rebuilding the picture per take would read
        # every machine. After a warm-up take, machines 0 (its head loaded),
        # 3 (one lot enqueued) and 5 (a lot started) changed; the next take,
        # at machine 2, must re-derive exactly those three.
        m = 6
        wc = make_single_wc(m)
        for i in range(m):
            fill_queue(wc, i, [(i + k) % 3 for k in range(7)])
        set_processing(wc, 1, 0)
        reshuffle_flsq(wc.queues[0], wc, 0, random.Random(1))
        wc.queues[0].pop_head()
        fill_queue(wc, 3, [1])
        set_processing(wc, 5, 2)

        derived = []
        real_machine_distances = model.machine_distances

        def machine_distances(machine, queue, window_len):
            derived.append(machine.index)
            return real_machine_distances(machine, queue, window_len)

        def reads(*args):
            raise AssertionError("a take read a machine through the workcenter")

        monkeypatch.setattr(model, "machine_distances", machine_distances)
        monkeypatch.setattr(Workcenter, "window_types", reads)
        monkeypatch.setattr(Workcenter, "processing_type", reads)
        reshuffle_flsq(wc.queues[2], wc, 2, random.Random(1))
        assert sorted(derived) == [0, 3, 5]
        derived.clear()
        reshuffle_flsq(wc.queues[2], wc, 2, random.Random(1), window_len=4)
        assert sorted(derived) == list(range(m))  # another window rebuilds all


class TestTakeSingle:
    def test_policy_rejects_an_empty_window(self):
        with pytest.raises(ValueError, match="^flsq_len must be >= 1, got 0$"):
            FlockingPolicy(flsq_len=0)

    def test_empty_queue(self):
        wc = make_single_wc(2)
        flocking.take_single(wc.machines[0], wc.queues[0], wc, random.Random(1))
        assert wc.queues[0].lots == []

    def test_single_lot(self):
        wc = make_single_wc(2)
        (x,) = fill_queue(wc, 0, [4])
        flocking.take_single(wc.machines[0], wc.queues[0], wc, random.Random(1))
        assert wc.queues[0].lots[0] is x

    def test_same_type_peer_promotes_lot(self):
        wc = make_single_wc(2)
        queued = fill_queue(wc, 0, [1, 7, 2])
        set_processing(wc, 1, lot_type=7)
        flocking.take_single(wc.machines[0], wc.queues[0], wc, random.Random(1))
        assert wc.queues[0].lots[0] is queued[1]

    def test_single_machine_workcenter_is_fifo(self):
        wc = make_single_wc(1)
        queued = fill_queue(wc, 0, [1, 7, 1, 7])
        flocking.take_single(wc.machines[0], wc.queues[0], wc, random.Random(1))
        assert wc.queues[0].lots[0] is queued[0]
        assert wc.queues[0].lots == queued


class TestBatchRulesUnderEveryPolicy:
    def test_a_batch_only_plant_runs_alike_under_both_policies(self):
        # The engine applies the baseline batch rules whatever the policy, so
        # where every workcenter batches, flocking changes nothing but its name.
        sc = scenario_of([batch_type(0, rpt=4, bs=3, wt=2, count=3),
                          batch_type(1, rpt=3, bs=2, wt=5, count=2)],
                         [lots_spec(t, 4 + t, [0, 1, 0]) for t in range(4)])
        for seed in range(5):
            base = run_to_completion(init_run(sc, BaselinePolicy(), seed))
            flock = run_to_completion(init_run(sc, FlockingPolicy(), seed))
            assert (base.algorithm, flock.algorithm) == ("baseline", "flocking")
            assert [getattr(flock, f) for f in RunResult.__slots__ if f != "algorithm"] \
                == [getattr(base, f) for f in RunResult.__slots__ if f != "algorithm"]
