import random

from fabflock import baseline
from fabflock.baseline import BaselinePolicy
from fabflock.engine import init_run, tick

from support import (add_batch, fill_queue, lot, lots_spec, make_batch_wc, make_single_wc,
                     scenario_of, single_type)


class TestChooseSingle:
    def test_shortest_queue_wins(self):
        wc = make_single_wc(3)
        fill_queue(wc, 0, [0] * 3)
        fill_queue(wc, 1, [0] * 1)
        fill_queue(wc, 2, [0] * 2)
        assert baseline.choose_single(lot(0), wc.view(), random.Random(1)) == 1

    def test_tie_is_uniform_over_seeds(self):
        wc = make_single_wc(3)
        for i in range(3):
            fill_queue(wc, i, [0] * 2)
        picks = {baseline.choose_single(lot(0), wc.view(), random.Random(s))
                 for s in range(60)}
        assert picks == {0, 1, 2}

    def test_single_machine(self):
        wc = make_single_wc(1)
        assert baseline.choose_single(lot(0), wc.view(), random.Random(1)) == 0


class TestChooseBatch:
    def test_joins_batch_missing_fewest(self):
        wc = make_batch_wc(2, bs=4)
        add_batch(wc, 0, lot_type=7, size=2)
        add_batch(wc, 1, lot_type=7, size=3)
        choice, action = baseline.choose_batch(lot(7), wc.view(), random.Random(1))
        assert (choice, action) == (1, "join")

    def test_new_batch_at_shortest_overall_queue(self):
        wc = make_batch_wc(2, bs=4)
        add_batch(wc, 0, lot_type=1, size=4)
        add_batch(wc, 0, lot_type=2, size=2)
        add_batch(wc, 1, lot_type=3, size=2)
        choice, action = baseline.choose_batch(lot(7), wc.view(), random.Random(1))
        assert (choice, action) == (1, "new")

    def test_tied_partials_uniform(self):
        picks = set()
        for s in range(60):
            wc = make_batch_wc(2, bs=4)
            add_batch(wc, 0, lot_type=7, size=3)
            add_batch(wc, 1, lot_type=7, size=3)
            choice, action = baseline.choose_batch(lot(7), wc.view(), random.Random(s))
            assert action == "join"
            picks.add(choice)
        assert picks == {0, 1}

    def test_partial_at_busy_machine_is_joinable(self):
        wc = make_batch_wc(2, bs=4)
        wc.machines[0].current_batch = [lot(9) for _ in range(4)]
        wc.machines[0].busy_remaining = 5
        add_batch(wc, 0, lot_type=7, size=3)
        choice, action = baseline.choose_batch(lot(7), wc.view(), random.Random(1))
        assert (choice, action) == (0, "join")


class TestTakeSingle:
    """FIFO needs no code: the hook leaves the queue alone and the engine loads
    the head."""

    def test_head_of_queue(self):
        wc = make_single_wc(1)
        a, b, c = fill_queue(wc, 0, [1, 2, 3])
        BaselinePolicy().take_single(wc.machines[0], wc.queues[0], wc.view(), random.Random(1))
        assert wc.queues[0].lots == [a, b, c]  # policy only reorders, engine removes
        state = init_run(scenario_of([single_type(rpt=2)], [lots_spec(0, 3, [0])]),
                         BaselinePolicy(), seed=1)
        queued = list(state.workcenters[0].queues[0].lots)
        tick(state)
        assert state.workcenters[0].machines[0].current_batch == [queued[0]]
        assert state.workcenters[0].queues[0].lots == queued[1:]

    def test_empty_queue(self):
        wc = make_single_wc(1)
        BaselinePolicy().take_single(wc.machines[0], wc.queues[0], wc.view(), random.Random(1))
        assert wc.queues[0].lots == []

    def test_last_lot(self):
        wc = make_single_wc(1)
        (x,) = fill_queue(wc, 0, [1])
        BaselinePolicy().take_single(wc.machines[0], wc.queues[0], wc.view(), random.Random(1))
        assert wc.queues[0].lots[0] is x


class TestTakeBatch:
    def test_full_batch_preferred_over_timer(self):
        wc = make_batch_wc(1, bs=4)
        full = add_batch(wc, 0, lot_type=1, size=4)
        add_batch(wc, 0, lot_type=2, size=2)
        taken = baseline.take_batch(wc.machines[0], wc.queues[0], random.Random(1),
                                    wt_expired=False)
        assert taken is full

    def test_fullest_partial_after_expiry(self):
        wc = make_batch_wc(1, bs=4)
        add_batch(wc, 0, lot_type=1, size=2)
        bigger = add_batch(wc, 0, lot_type=2, size=3)
        taken = baseline.take_batch(wc.machines[0], wc.queues[0], random.Random(1),
                                    wt_expired=True)
        assert taken is bigger

    def test_waits_before_expiry(self):
        wc = make_batch_wc(1, bs=4)
        add_batch(wc, 0, lot_type=1, size=2)
        add_batch(wc, 0, lot_type=2, size=3)
        assert baseline.take_batch(wc.machines[0], wc.queues[0], random.Random(1),
                                   wt_expired=False) is None

    def test_tied_partials_uniform(self):
        picked = set()
        for s in range(60):
            wc = make_batch_wc(1, bs=4)
            add_batch(wc, 0, lot_type=1, size=3)
            add_batch(wc, 0, lot_type=2, size=3)
            taken = baseline.take_batch(wc.machines[0], wc.queues[0], random.Random(s),
                                        wt_expired=True)
            picked.add(taken.lot_type)
        assert picked == {1, 2}

    def test_empty_queue_waits_even_after_expiry(self):
        wc = make_batch_wc(1, bs=4)
        for expired in (False, True):
            assert baseline.take_batch(wc.machines[0], wc.queues[0], random.Random(1),
                                       wt_expired=expired) is None
