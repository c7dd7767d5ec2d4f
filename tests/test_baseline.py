import random

import pytest
from hypothesis import given, strategies as st

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
        assert baseline.choose_single(lot(0), wc, random.Random(1)) == 1

    def test_tie_is_uniform_over_seeds(self):
        wc = make_single_wc(3)
        for i in range(3):
            fill_queue(wc, i, [0] * 2)
        picks = {baseline.choose_single(lot(0), wc, random.Random(s))
                 for s in range(60)}
        assert picks == {0, 1, 2}

    def test_single_machine(self):
        wc = make_single_wc(1)
        assert baseline.choose_single(lot(0), wc, random.Random(1)) == 0


class TestChooseBatch:
    def test_joins_batch_missing_fewest(self):
        wc = make_batch_wc(2, bs=4)
        add_batch(wc, 0, lot_type=7, size=2)
        add_batch(wc, 1, lot_type=7, size=3)
        choice, action = baseline.choose_batch(lot(7), wc, random.Random(1))
        assert (choice, action) == (1, "join")

    def test_new_batch_at_shortest_overall_queue(self):
        wc = make_batch_wc(2, bs=4)
        add_batch(wc, 0, lot_type=1, size=4)
        add_batch(wc, 0, lot_type=2, size=2)
        add_batch(wc, 1, lot_type=3, size=2)
        choice, action = baseline.choose_batch(lot(7), wc, random.Random(1))
        assert (choice, action) == (1, "new")

    def test_tied_partials_uniform(self):
        picks = set()
        for s in range(60):
            wc = make_batch_wc(2, bs=4)
            add_batch(wc, 0, lot_type=7, size=3)
            add_batch(wc, 1, lot_type=7, size=3)
            choice, action = baseline.choose_batch(lot(7), wc, random.Random(s))
            assert action == "join"
            picks.add(choice)
        assert picks == {0, 1}

    def test_single_partial_owner_joins_without_drawing(self):
        wc = make_batch_wc(3, bs=4)
        add_batch(wc, 0, lot_type=3, size=2)
        add_batch(wc, 2, lot_type=7, size=2)
        add_batch(wc, 1, lot_type=7, size=4)  # full: not a candidate
        rng = random.Random(5)
        before = rng.getstate()
        assert baseline.choose_batch(lot(7), wc, rng) == (2, "join")
        assert rng.getstate() == before

    def test_partial_at_busy_machine_is_joinable(self):
        wc = make_batch_wc(2, bs=4)
        wc.machines[0].current_batch = [lot(9) for _ in range(4)]
        wc.machines[0].busy_remaining = 5
        add_batch(wc, 0, lot_type=7, size=3)
        choice, action = baseline.choose_batch(lot(7), wc, random.Random(1))
        assert (choice, action) == (0, "join")


def reference_choose_batch(item, queues, batch_size, rng):
    """The scanning ``choose_batch``: every machine's every batch, the
    partial ones of the lot's type ranked by the lots they still miss."""
    missing = [(i, batch_size - len(b.lots)) for i, q in enumerate(queues)
               for b in q.batches if b.lot_type == item.lot_type and len(b.lots) < batch_size]
    if missing:
        fewest = min(m for _, m in missing)
        ties = [i for i, m in missing if m == fewest]
        return (ties[0] if len(ties) == 1 else rng.choice(ties)), "join"
    sizes = [q.size for q in queues]
    shortest = [i for i, n in enumerate(sizes) if n == min(sizes)]
    return (shortest[0] if len(shortest) == 1 else rng.choice(shortest)), "new"


@st.composite
def _batch_workcenter(draw):
    """(batch size, per machine a list of (lot type, size) batches with at
    most one partial per type, the full ones first, arriving lot type,
    seed). A machine holds a partial batch of type 0 with odds 3 in 4 and
    of types 1 and 2 with odds 1 in 4, so type 0 has several; type 3 is
    never queued. Full batches come first because ``support.add_batch``
    would top a partial batch of the type up instead of opening a new one."""
    bs = draw(st.integers(2, 6))
    machines = []
    for _ in range(draw(st.integers(1, 8))):
        batches = [(t, bs) for t in draw(st.lists(st.integers(0, 2), max_size=3))]
        for t, odds in enumerate((3, 1, 1)):
            if draw(st.integers(0, 3)) < odds:
                batches.append((t, draw(st.integers(1, bs - 1))))
        machines.append(sorted(draw(st.permutations(batches)), key=lambda b: b[1] < bs))
    return bs, machines, draw(st.integers(0, 3)), draw(st.integers(0, 2 ** 16))


class TestChooseBatchMatchesTheScan:
    @given(_batch_workcenter())
    def test_index_tag_and_draws_equal_the_scanning_rule(self, case):
        bs, machines, arriving, seed = case
        wc = make_batch_wc(len(machines), bs=bs)
        for i, batches in enumerate(machines):
            for lot_type, size in batches:
                add_batch(wc, i, lot_type, size)
        item = lot(arriving)
        live, scanned = random.Random(seed), random.Random(seed)
        assert baseline.choose_batch(item, wc, live) == \
            reference_choose_batch(item, wc.queues, bs, scanned)
        assert live.getstate() == scanned.getstate()


class TestTakeSingle:
    """FIFO needs no code: the hook leaves the queue alone and the engine loads
    the head."""

    def test_head_of_queue(self):
        wc = make_single_wc(1)
        a, b, c = fill_queue(wc, 0, [1, 2, 3])
        BaselinePolicy().take_single(wc.machines[0], wc.queues[0], wc, random.Random(1))
        assert wc.queues[0].lots == [a, b, c]  # policy only reorders, engine removes
        state = init_run(scenario_of([single_type(rpt=2)], [lots_spec(0, 3, [0])]),
                         BaselinePolicy(), seed=1)
        queued = list(state.workcenters[0].queues[0].lots)
        tick(state)
        assert state.workcenters[0].machines[0].current_batch == [queued[0]]
        assert state.workcenters[0].queues[0].lots == queued[1:]

    def test_empty_queue(self):
        wc = make_single_wc(1)
        BaselinePolicy().take_single(wc.machines[0], wc.queues[0], wc, random.Random(1))
        assert wc.queues[0].lots == []

    def test_last_lot(self):
        wc = make_single_wc(1)
        (x,) = fill_queue(wc, 0, [1])
        BaselinePolicy().take_single(wc.machines[0], wc.queues[0], wc, random.Random(1))
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


class TestDrawPrimitives:
    # The primitives replace Random.shuffle and Random.choice; they must
    # draw the same bits in the same order, leaving the same generator state.
    @given(st.integers(0, 300), st.integers())
    def test_shuffle_matches_the_stdlib(self, n, seed):
        ours, stdlib = random.Random(seed), random.Random(seed)
        items, expected = list(range(n)), list(range(n))
        baseline.shuffle(items, ours)
        stdlib.shuffle(expected)
        assert items == expected
        assert ours.getstate() == stdlib.getstate()

    @given(st.integers(2, 300), st.integers())
    def test_pick_uniform_matches_choice(self, n, seed):
        ours, stdlib = random.Random(seed), random.Random(seed)
        items = [object() for _ in range(n)]
        assert baseline.pick_uniform(items, ours) is stdlib.choice(items)
        assert ours.getstate() == stdlib.getstate()

    @given(st.integers())
    def test_one_element_draws_nothing(self, seed):
        rng = random.Random(seed)
        before = rng.getstate()
        items = ["only"]
        assert baseline.pick_uniform(items, rng) == "only"
        baseline.shuffle(items, rng)
        assert items == ["only"]
        assert rng.getstate() == before

    def test_pick_from_empty_raises(self):
        with pytest.raises(IndexError):
            baseline.pick_uniform([], random.Random(1))
