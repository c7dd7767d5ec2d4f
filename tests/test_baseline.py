import random

import pytest
from hypothesis import given, strategies as st

from fabflock import baseline
from fabflock.cli import make_policy
from fabflock.engine import init_run, tick

from reference_engine import reference_choose_batch
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
    def test_a_second_partial_owner_is_rejected_unchanged(self):
        # A workcenter holds at most one partial batch per type, so the
        # paper's "fewest missing" rank never has two candidates to rank.
        wc = make_batch_wc(2, bs=4)
        owned = add_batch(wc, 0, lot_type=7, size=2)
        add_batch(wc, 1, lot_type=3, size=1)
        sizes = [q.size for q in wc.queues]
        buckets = {n: list(ms) for n, ms in wc.index.buckets.items()}
        partials = dict(wc.index.partials)
        with pytest.raises(ValueError, match="partial batch of type 7"):
            wc.queues[1].add_lot(lot(7))
        assert [q.size for q in wc.queues] == sizes
        assert wc.index.buckets == buckets
        assert wc.index.partials == partials
        assert [len(b.lots) for b in wc.queues[1].batches] == [1]
        assert len(owned.lots) == 2
        assert baseline.choose_batch(lot(7), wc, random.Random(1)) == (0, "join")

    def test_new_batch_at_shortest_overall_queue(self):
        wc = make_batch_wc(2, bs=4)
        add_batch(wc, 0, lot_type=1, size=4)
        add_batch(wc, 0, lot_type=2, size=2)
        add_batch(wc, 1, lot_type=3, size=2)
        choice, action = baseline.choose_batch(lot(7), wc, random.Random(1))
        assert (choice, action) == (1, "new")

    def test_single_partial_owner_joins_without_drawing(self):
        wc = make_batch_wc(3, bs=4)
        add_batch(wc, 0, lot_type=3, size=2)
        add_batch(wc, 1, lot_type=7, size=4)  # full: not a candidate
        add_batch(wc, 2, lot_type=7, size=2)
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


@st.composite
def _batch_workcenter(draw):
    """(batch size, per machine its full batches' lot types, the partial
    batches as (machine, lot type, size), arriving lot type, seed). The
    workcenter holds a partial batch of type 0 with odds 3 in 4 and of
    types 1 and 2 with odds 1 in 4, each at a drawn machine; type 3 is never
    queued. The full batches go in first, as a run has them: a partial
    batch queued earlier would be topped up, at most one exists per type,
    and a lot of its type could join no other machine."""
    bs = draw(st.integers(2, 6))
    n = draw(st.integers(1, 8))
    fulls = [draw(st.lists(st.integers(0, 2), max_size=3)) for _ in range(n)]
    partials = [(draw(st.integers(0, n - 1)), t, draw(st.integers(1, bs - 1)))
                for t, odds in enumerate((3, 1, 1)) if draw(st.integers(0, 3)) < odds]
    return bs, fulls, partials, draw(st.integers(0, 3)), draw(st.integers(0, 2 ** 16))


class TestChooseBatchMatchesTheScan:
    @given(_batch_workcenter())
    def test_index_tag_and_draws_equal_the_scanning_rule(self, case):
        bs, fulls, partials, arriving, seed = case
        wc = make_batch_wc(len(fulls), bs=bs)
        for i, lot_types in enumerate(fulls):
            for lot_type in lot_types:
                add_batch(wc, i, lot_type, bs)
        for i, lot_type, size in partials:
            add_batch(wc, i, lot_type, size)
        item = lot(arriving)
        live, scanned = random.Random(seed), random.Random(seed)
        assert baseline.choose_batch(item, wc, live) == \
            reference_choose_batch(item, wc.queues, bs, scanned)
        assert live.getstate() == scanned.getstate()


class TestTakeSingle:
    """FIFO needs no code: the rule leaves the queue alone and the engine loads
    the head."""

    def test_head_of_queue(self):
        wc = make_single_wc(1)
        a, b, c = fill_queue(wc, 0, [1, 2, 3])
        baseline.take_single(wc.machines[0], wc.queues[0], wc, random.Random(1), 5)
        assert wc.queues[0].lots == [a, b, c]  # policy only reorders, engine removes
        state = init_run(scenario_of([single_type(rpt=2)], [lots_spec(0, 3, [0])]),
                         make_policy("baseline"), seed=1)
        queued = list(state.workcenters[0].queues[0].lots)
        tick(state)
        assert state.workcenters[0].machines[0].current_batch == [queued[0]]
        assert state.workcenters[0].queues[0].lots == queued[1:]

    def test_empty_queue(self):
        wc = make_single_wc(1)
        baseline.take_single(wc.machines[0], wc.queues[0], wc, random.Random(1), 5)
        assert wc.queues[0].lots == []

    def test_last_lot(self):
        wc = make_single_wc(1)
        (x,) = fill_queue(wc, 0, [1])
        baseline.take_single(wc.machines[0], wc.queues[0], wc, random.Random(1), 5)
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
    def test_empty_or_one_element_draws_nothing(self, seed):
        # Phase 2 shuffles the released lots even when there are none.
        rng = random.Random(seed)
        before = rng.getstate()
        items = ["only"]
        assert baseline.pick_uniform(items, rng) == "only"
        baseline.shuffle(items, rng)
        assert items == ["only"]
        empty = []
        baseline.shuffle(empty, rng)
        assert empty == []
        assert rng.getstate() == before

    def test_pick_from_empty_raises(self):
        with pytest.raises(IndexError):
            baseline.pick_uniform([], random.Random(1))
