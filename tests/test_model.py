import random

import pytest
from hypothesis import given, strategies as st

from fabflock import baseline, flocking
from fabflock.model import (
    Batch,
    ConfigError,
    Lot,
    MachineKind,
    MachineType,
    MultiQueue,
    next_step,
)
from fabflock.scenario import build_small_fab

from reference_engine import queue_length, reference_separation, reference_shortest_queue
from support import add_batch, fill_queue, lot, make_batch_wc, make_single_wc


class TestNextStep:
    RECIPES = {7: (0, 1, 2, 3)}

    def test_mid_recipe(self):
        assert next_step(Lot(id=0, lot_type=7, step_cursor=2), self.RECIPES) == 2

    def test_finished(self):
        assert next_step(Lot(id=0, lot_type=7, step_cursor=4), self.RECIPES) is None

    def test_small_fab_lots_start_at_workcenter_0(self):
        recipes = build_small_fab().recipes()
        for t in range(10):
            assert next_step(Lot(id=0, lot_type=t), recipes) == 0

    def test_unknown_lot_type(self):
        with pytest.raises(ConfigError):
            next_step(Lot(id=0, lot_type=99), self.RECIPES)


class TestQueueTotalLen:
    def test_batch_queue_sums_batches(self):
        wc = make_batch_wc(1)
        add_batch(wc, 0, lot_type=0, size=2)
        add_batch(wc, 0, lot_type=1, size=4)
        assert wc.queues[0].size == 6

    def test_empty(self):
        wc = make_batch_wc(1)
        assert wc.queues[0].size == 0
        assert make_single_wc(1).queues[0].size == 0

    def test_single_step_counts_lots(self):
        wc = make_single_wc(1)
        fill_queue(wc, 0, [0] * 7)
        assert wc.queues[0].size == 7


class TestQueueStartsEmpty:
    def test_constructor_takes_no_lots_or_batches(self):
        wc = make_single_wc(1)
        with pytest.raises(TypeError):
            MultiQueue(owner=wc.machines[0], index=wc.index, lots=[Lot(0, 3), Lot(1, 3)])
        wc = make_batch_wc(1)
        with pytest.raises(TypeError):
            MultiQueue(owner=wc.machines[0], index=wc.index, batches=[Batch(3, [Lot(0, 3)])])

    def test_counts_agree_for_lots_added_one_by_one(self):
        wc = make_single_wc(1)
        fill_queue(wc, 0, [3, 3])
        assert wc.track_lot_types().type_counts == {3: {0: 2}}
        assert [q.size for q in wc.queues] == [2]


#: A valid single-step and a valid batch machine type.
SINGLE_TYPE = {"id": 0, "kind": MachineKind.SINGLE_STEP, "raw_process_ticks": 1}
BATCH_TYPE = {"id": 0, "kind": MachineKind.BATCH, "raw_process_ticks": 2, "batch_size": 2,
              "wt_ticks": 1}

#: Per rule ``MachineType`` enforces: one of the types above with the field
#: that breaks only that rule, and the exact ``ConfigError`` message.
BAD_MACHINE_TYPES = {
    "single_step_rejects_batch_size": (
        {**SINGLE_TYPE, "batch_size": 4},
        "machine type 0: single-step machines have batch_size 1"),
    "single_step_rejects_waiting_timer": (
        {**SINGLE_TYPE, "wt_ticks": 3},
        "machine type 0: single-step machines have no waiting timer"),
    "batch_needs_size_two": (
        {**BATCH_TYPE, "batch_size": 1},
        "machine type 0: batch machines need batch_size >= 2"),
    "rpt_at_least_one": (
        {**SINGLE_TYPE, "raw_process_ticks": 0},
        "machine type 0: raw_process_ticks must be >= 1"),
    "machine_count_at_least_one": (
        {**SINGLE_TYPE, "machine_count": 0},
        "machine type 0: machine_count must be >= 1"),
    "batch_waiting_timer_not_negative": (
        {**BATCH_TYPE, "wt_ticks": -1},
        "machine type 0: wt_ticks must be >= 0"),
    # The engine arms a waiting timer only for MachineKind.BATCH, while the
    # queues treat every kind but SINGLE_STEP as batch.
    "kind_must_be_a_machine_kind": (
        {**BATCH_TYPE, "kind": "batch"},
        "machine type 0: kind must be a MachineKind, got 'batch'"),
    "integer_field-id-0": (
        {**BATCH_TYPE, "id": "0"},
        "machine type '0': id must be an int, got '0'"),
    # A countdown from 2.5 never reaches 0.
    "integer_field-raw_process_ticks-2.5": (
        {**BATCH_TYPE, "raw_process_ticks": 2.5},
        "machine type 0: raw_process_ticks must be an int, got 2.5"),
    "integer_field-batch_size-2.0": (
        {**BATCH_TYPE, "batch_size": 2.0},
        "machine type 0: batch_size must be an int, got 2.0"),
    "integer_field-wt_ticks-1.0": (
        {**BATCH_TYPE, "wt_ticks": 1.0},
        "machine type 0: wt_ticks must be an int, got 1.0"),
    "integer_field-machine_count-True": (
        {**BATCH_TYPE, "machine_count": True},
        "machine type 0: machine_count must be an int, got True"),
}


class TestMachineTypeValidation:
    def test_single_step_defaults_ok(self):
        MachineType(0, MachineKind.SINGLE_STEP, raw_process_ticks=1)

    @pytest.mark.parametrize("fields, message", BAD_MACHINE_TYPES.values(),
                             ids=list(BAD_MACHINE_TYPES))
    def test_rejected(self, fields, message):
        with pytest.raises(ConfigError) as rejected:
            MachineType(**fields)
        assert str(rejected.value) == message


class TestMultiQueueAddLot:
    def test_tops_up_partial_batch(self):
        wc = make_batch_wc(1, bs=4)
        batch = add_batch(wc, 0, lot_type=5, size=2)
        wc.queues[0].add_lot(lot(5))
        assert len(batch.lots) == 3
        assert len(wc.queues[0].batches) == 1

    def test_opens_new_batch_when_partial_is_full(self):
        wc = make_batch_wc(1, bs=4)
        add_batch(wc, 0, lot_type=5, size=4)
        wc.queues[0].add_lot(lot(5))
        assert [len(b.lots) for b in wc.queues[0].batches] == [4, 1]

    def test_opens_new_batch_for_new_type(self):
        wc = make_batch_wc(1, bs=4)
        add_batch(wc, 0, lot_type=5, size=2)
        wc.queues[0].add_lot(lot(6))
        assert [(b.lot_type, len(b.lots)) for b in wc.queues[0].batches] == [(5, 2), (6, 1)]

    def test_never_mixes_types(self):
        wc = make_batch_wc(1, bs=4)
        for t in (1, 2, 1, 2, 1):
            wc.queues[0].add_lot(lot(t))
        for b in wc.queues[0].batches:
            assert len({x.lot_type for x in b.lots}) == 1

    def test_keeps_one_partial_batch_per_type_within_batch_size(self):
        wc = make_batch_wc(1, bs=4)
        queue = wc.queues[0]
        for n in range(1, 11):
            queue.add_lot(lot(2))
            partial = [b for b in queue.batches if len(b.lots) < 4]
            assert all(1 <= len(b.lots) <= 4 for b in queue.batches)
            assert len(partial) == (1 if n % 4 else 0)
            assert wc.index.partials.get(2) == ((0, partial[0]) if partial else None)
        assert queue.size == 10

    def test_single_step_queue_keeps_lots_not_batches(self):
        wc = make_single_wc(1)
        queued = [lot(0), lot(0)]
        for item in queued:
            wc.queues[0].add_lot(item)
        assert wc.queues[0].lots == queued
        assert wc.queues[0].batches == []
        assert wc.index.partials == {}


class TestMultiQueueRemoveBatch:
    def test_refuses_a_batch_of_another_queue_unchanged(self):
        wc = make_batch_wc(2, bs=4)
        add_batch(wc, 0, lot_type=1, size=4)
        other = add_batch(wc, 1, lot_type=2, size=2)
        with pytest.raises(ValueError, match="^batch not in this queue$"):
            wc.queues[0].remove_batch(other)
        assert [q.size for q in wc.queues] == [4, 2]
        assert wc.index.partials == {2: (1, other)}


class TestWorkcenterView:
    def test_partial_batches_excludes_full_and_other_types(self):
        wc = make_batch_wc(2, bs=4)
        add_batch(wc, 0, lot_type=1, size=4)  # full
        wanted = add_batch(wc, 0, lot_type=1, size=2)
        add_batch(wc, 1, lot_type=2, size=3)  # other type
        assert wc.index.partials[1] == (0, wanted)

    def test_type_count_and_window(self):
        wc = make_single_wc(1)
        fill_queue(wc, 0, [3, 1, 3, 2, 3, 3])
        wc.track_lot_types()
        assert wc.index.type_counts[3][0] == 4
        assert wc.window_types(0, 4) == [3, 1, 3, 2]

    def test_processing_type(self):
        wc = make_single_wc(2)
        wc.machines[0].current_batch = [lot(9)]
        wc.machines[0].busy_remaining = 2
        assert wc.processing_type(0) == 9
        assert wc.processing_type(1) is None


# Reference: the scanning reads the queue counters replaced, kept to check them.
# The queue length and the dispatch rules' scans are ``reference_engine``'s.

def reference_has_full_batch(queue):
    bs = queue.owner.mtype.batch_size
    return any(len(b.lots) == bs for b in queue.batches)


def reference_partial_batches(queues, lot_type, batch_size):
    found = []
    for i, q in enumerate(queues):
        for b in q.batches:
            if b.lot_type == lot_type and 0 < len(b.lots) < batch_size:
                found.append((i, b))
    return found


def reference_add_lot(batches, item, batch_size):
    """The scanning ``add_lot`` on a list of (lot type, lot ids) pairs."""
    for lot_type, ids in batches:
        if lot_type == item.lot_type and 0 < len(ids) < batch_size:
            ids.append(item.id)
            return
    batches.append((item.lot_type, [item.id]))


N_TYPES = 3
N_MACHINES = 3
_ops = st.lists(st.tuples(st.sampled_from(["lot", "pop", "remove"]),
                          st.integers(0, N_MACHINES - 1),  # machine
                          st.integers(0, N_TYPES - 1),  # lot type
                          st.integers(0, 99),           # batch to remove, rng seed
                          st.integers(0, N_TYPES)),     # dispatched type; N_TYPES never queued
                max_size=60)


class TestQueueCountersMatchRecount:
    @given(st.booleans(), _ops)
    def test_counters_equal_a_recount(self, batching, ops):
        bs = 3
        n = N_MACHINES
        wc = make_batch_wc(n, bs=bs) if batching else make_single_wc(n)
        wc.track_lot_types()
        model = [[] for _ in range(n)]  # per machine: lot ids, or (lot type, lot ids) pairs
        for op, i, lot_type, pick, arriving in ops:
            queue = wc.queues[i]
            if op == "lot":
                item = lot(lot_type)
                held_elsewhere = batching and any(
                    t == lot_type and len(ids) < bs
                    for j, batches in enumerate(model) if j != i for t, ids in batches)
                if held_elsewhere:  # refused, and nothing may change
                    with pytest.raises(ValueError):
                        queue.add_lot(item)
                else:
                    queue.add_lot(item)
                    if batching:
                        reference_add_lot(model[i], item, bs)
                    else:
                        model[i].append(item.id)
            elif op == "pop" and not batching and model[i]:
                assert queue.pop_head().id == model[i].pop(0)
            elif op == "remove" and batching and model[i]:
                k = pick % len(model[i])
                queue.remove_batch(queue.batches[k])
                del model[i][k]

            for q, expected in zip(wc.queues, model):
                if batching:
                    assert [(b.lot_type, [l.id for l in b.lots]) for b in q.batches] == expected
                else:
                    assert [l.id for l in q.lots] == expected
                assert bool(q.full_batches()) == reference_has_full_batch(q)
            assert wc.index.type_counts == recount_type_counts(wc)
            assert [q.size for q in wc.queues] == [queue_length(q) for q in wc.queues]
            item = lot(arriving)
            for rule, reference in ((baseline.choose_single, reference_shortest_queue),
                                    (flocking.choose_single, reference_separation)):
                live, scanned = random.Random(pick), random.Random(pick)
                assert rule(item, wc, live) == reference(item, wc.queues, scanned)
                assert live.getstate() == scanned.getstate()
            buckets = {}
            for k, q in enumerate(wc.queues):
                buckets.setdefault(queue_length(q), []).append(k)
            assert wc.index.buckets == buckets
            for t in range(N_TYPES):
                entry = wc.index.partials.get(t)
                assert ([entry] if entry else []) == \
                    reference_partial_batches(wc.queues, t, bs)


@st.composite
def _every_machine_queues_the_type(draw):
    """(per machine its queued lot types, each holding type 0 at least
    once, whether tracking starts before the lots arrive, seed)."""
    queues = []
    for _ in range(draw(st.integers(2, 12))):
        types = [0] * draw(st.integers(1, 3)) + draw(st.lists(st.integers(1, 3), max_size=4))
        queues.append(draw(st.permutations(types)))
    return queues, draw(st.booleans()), draw(st.integers(0, 2 ** 16))


class TestSeparationFallback:
    @given(_every_machine_queues_the_type())
    def test_equals_the_scan_when_every_machine_queues_the_type(self, case):
        queues, track_first, seed = case
        wc = make_single_wc(len(queues))
        if track_first:
            wc.track_lot_types()
        for i, types in enumerate(queues):
            fill_queue(wc, i, types)
        item = lot(0)
        live, scanned = random.Random(seed), random.Random(seed)
        assert flocking.choose_single(item, wc, live) == \
            reference_separation(item, wc.queues, scanned)
        assert live.getstate() == scanned.getstate()


_single_ops = st.lists(st.tuples(st.booleans(),                 # add, else pop
                                 st.integers(0, N_MACHINES - 1),
                                 st.integers(0, N_TYPES - 1)),
                       max_size=40)


def recount_type_counts(wc):
    """Lot type -> {machine index: queued lots of the type}, no zeros."""
    counts = {}
    for i, q in enumerate(wc.queues):
        for item in q.lots:
            held = counts.setdefault(item.lot_type, {})
            held[i] = held.get(i, 0) + 1
    return counts


class TestLotTypeTracking:
    @given(_single_ops, _single_ops, st.integers(0, N_TYPES), st.integers(0, 99))
    def test_tracking_started_late_equals_a_recount(self, before, after, arriving, seed):
        wc = make_single_wc(N_MACHINES)

        def apply(ops):
            """Run the ops; returns the machines whose queue a mutator changed."""
            touched = set()
            for add, i, lot_type in ops:
                if add:
                    wc.queues[i].add_lot(lot(lot_type))
                elif wc.queues[i].lots:
                    wc.queues[i].pop_head()
                else:
                    continue
                touched.add(i)
            return touched

        def assert_counts_equal_a_recount():
            assert index.type_counts == recount_type_counts(wc)
            held = index.type_counts.get(arriving, {})
            assert [held.get(i, 0) for i in range(N_MACHINES)] == \
                [sum(l.lot_type == arriving for l in q.lots) for q in wc.queues]

        apply(before)
        index = wc.index
        assert index.type_counts is None and index.changed is None
        # Separation starts tracking on first use and still equals the scan.
        live, scanned = random.Random(seed), random.Random(seed)
        item = lot(arriving)
        assert flocking.choose_single(item, wc, live) == \
            reference_separation(item, wc.queues, scanned)
        assert live.getstate() == scanned.getstate()
        assert wc.track_lot_types() is index
        assert index.changed == set(range(N_MACHINES))
        assert_counts_equal_a_recount()
        # From then on the mutators keep the counts and mark what they touch.
        index.changed.clear()
        assert index.changed == apply(after)
        assert_counts_equal_a_recount()
