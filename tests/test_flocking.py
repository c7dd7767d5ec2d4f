import random

from hypothesis import given, strategies as st

from fabflock import baseline, flocking
from fabflock.flocking import (
    FlockingPolicy,
    apply_pulls,
    compute_pull,
    first_same_type_distance,
    reshuffle_flsq,
)
from fabflock.model import Lot

from support import add_batch, fill_queue, lot, make_batch_wc, make_single_wc, set_processing


class TestChooseSingle:
    def test_fewest_same_type_then_shortest(self):
        # same-type counts (2, 0, 0), total lengths (3, 4, 2): the two-stage
        # rule filters to machines 1 and 2, then picks the shorter queue.
        wc = make_single_wc(3)
        fill_queue(wc, 0, [7, 7, 1])
        fill_queue(wc, 1, [1, 2, 1, 2])
        fill_queue(wc, 2, [1, 2])
        assert flocking.choose_single(lot(7), wc.view(), random.Random(1)) == 2

    def test_degenerates_to_shortest_queue_on_equal_counts(self):
        wc = make_single_wc(2)
        fill_queue(wc, 0, [7] + [1] * 4)
        fill_queue(wc, 1, [7] + [1] * 1)
        assert flocking.choose_single(lot(7), wc.view(), random.Random(1)) == 1

    def test_empty_workcenter_uniform(self):
        wc = make_single_wc(3)
        picks = {flocking.choose_single(lot(7), wc.view(), random.Random(s))
                 for s in range(60)}
        assert picks == {0, 1, 2}

    def test_choice_always_in_fewest_same_type_set(self):
        rng = random.Random(99)
        for _ in range(100):
            wc = make_single_wc(3)
            for i in range(3):
                fill_queue(wc, i, [rng.randrange(4) for _ in range(rng.randrange(6))])
            probe = lot(rng.randrange(4))
            view = wc.view()
            counts = [view.type_count(i, probe.lot_type) for i in range(3)]
            choice = flocking.choose_single(probe, view, rng)
            assert counts[choice] == min(counts)


class TestFirstSameTypeDistance:
    def test_processing_counts_as_zero(self):
        wc = make_single_wc(2)
        set_processing(wc, 1, lot_type=7)
        fill_queue(wc, 1, [7, 7])  # queue content is shadowed by the machine
        assert first_same_type_distance(7, wc.view(), 1, window_len=5) == 0

    def test_head_counts_as_one(self):
        wc = make_single_wc(2)
        fill_queue(wc, 1, [7, 1])
        assert first_same_type_distance(7, wc.view(), 1, window_len=5) == 1

    def test_beyond_window_is_absent(self):
        wc = make_single_wc(2)
        fill_queue(wc, 1, [1, 1, 1, 1, 1, 7])  # first match at position 6
        assert first_same_type_distance(7, wc.view(), 1, window_len=5) is None

    def test_no_match_is_absent(self):
        wc = make_single_wc(2)
        fill_queue(wc, 1, [1, 2])
        assert first_same_type_distance(7, wc.view(), 1, window_len=5) is None


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


class TestReshuffle:
    def test_neutral_everywhere_is_identity(self):
        wc = make_single_wc(2)
        queued = fill_queue(wc, 0, [1, 2, 3])
        reshuffle_flsq(wc.queues[0], wc.view(), own_index=0, rng=random.Random(1))
        assert wc.queues[0].lots == queued

    def test_peer_processing_pulls_same_type_to_head(self):
        wc = make_single_wc(2)
        queued = fill_queue(wc, 0, [1, 7, 2])
        set_processing(wc, 1, lot_type=7)
        reshuffle_flsq(wc.queues[0], wc.view(), own_index=0, rng=random.Random(1))
        assert wc.queues[0].lots[0] is queued[1]

    def test_lots_beyond_window_never_move(self):
        wc = make_single_wc(2)
        queued = fill_queue(wc, 0, [1, 1, 1, 1, 1, 7, 7])
        set_processing(wc, 1, lot_type=7)
        reshuffle_flsq(wc.queues[0], wc.view(), own_index=0, rng=random.Random(1),
                       window_len=5)
        assert wc.queues[0].lots[5:] == queued[5:]


class TestTakeSingle:
    def test_empty_queue(self):
        wc = make_single_wc(2)
        flocking.take_single(wc.machines[0], wc.queues[0], wc.view(), random.Random(1))
        assert wc.queues[0].lots == []

    def test_single_lot(self):
        wc = make_single_wc(2)
        (x,) = fill_queue(wc, 0, [4])
        flocking.take_single(wc.machines[0], wc.queues[0], wc.view(), random.Random(1))
        assert wc.queues[0].lots[0] is x

    def test_same_type_peer_promotes_lot(self):
        wc = make_single_wc(2)
        queued = fill_queue(wc, 0, [1, 7, 2])
        set_processing(wc, 1, lot_type=7)
        flocking.take_single(wc.machines[0], wc.queues[0], wc.view(), random.Random(1))
        assert wc.queues[0].lots[0] is queued[1]

    def test_single_machine_workcenter_is_fifo(self):
        wc = make_single_wc(1)
        queued = fill_queue(wc, 0, [1, 7, 1, 7])
        flocking.take_single(wc.machines[0], wc.queues[0], wc.view(), random.Random(1))
        assert wc.queues[0].lots[0] is queued[0]
        assert wc.queues[0].lots == queued


class TestBatchDelegation:
    def test_take_batch_matches_baseline(self):
        wc = make_batch_wc(1, bs=4)
        add_batch(wc, 0, lot_type=1, size=2)
        add_batch(wc, 0, lot_type=2, size=3)
        add_batch(wc, 0, lot_type=3, size=4)
        policy = FlockingPolicy()
        for expired in (False, True):
            expected = baseline.take_batch(wc.machines[0], wc.queues[0],
                                           random.Random(11), expired)
            got = policy.take_batch(wc.machines[0], wc.queues[0],
                                    random.Random(11), expired)
            assert got is expected

    def test_choose_queue_matches_baseline_on_batch_workcenters(self):
        wc = make_batch_wc(3, bs=4)
        add_batch(wc, 1, lot_type=7, size=3)
        probe = lot(7)
        expected = baseline.choose_batch(probe, wc.view(), random.Random(11))[0]
        got = FlockingPolicy().choose_queue(probe, wc.view(), random.Random(11))
        assert got == expected
