import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from fabflock import baseline, flocking
from fabflock.model import (
    Batch,
    ConfigError,
    Lot,
    Machine,
    MachineKind,
    MachineType,
    MultiQueue,
    Workcenter,
    next_step,
)
from fabflock.scenario import build_small_fab

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
        assert wc.queues[0].total_len() == 6

    def test_empty(self):
        wc = make_batch_wc(1)
        assert wc.queues[0].total_len() == 0
        assert make_single_wc(1).queues[0].total_len() == 0

    def test_single_step_counts_lots(self):
        wc = make_single_wc(1)
        fill_queue(wc, 0, [0] * 7)
        assert wc.queues[0].total_len() == 7


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


class TestMachineTypeValidation:
    def test_single_step_defaults_ok(self):
        MachineType(0, MachineKind.SINGLE_STEP, raw_process_ticks=1)

    def test_single_step_rejects_batch_size(self):
        with pytest.raises(ConfigError):
            MachineType(0, MachineKind.SINGLE_STEP, raw_process_ticks=1, batch_size=4)

    def test_single_step_rejects_waiting_timer(self):
        with pytest.raises(ConfigError):
            MachineType(0, MachineKind.SINGLE_STEP, raw_process_ticks=1, wt_ticks=3)

    def test_batch_needs_size_two(self):
        with pytest.raises(ConfigError):
            MachineType(0, MachineKind.BATCH, raw_process_ticks=1, batch_size=1)

    def test_rpt_at_least_one(self):
        with pytest.raises(ConfigError):
            MachineType(0, MachineKind.SINGLE_STEP, raw_process_ticks=0)

    def test_machine_count_at_least_one(self):
        with pytest.raises(ConfigError):
            MachineType(0, MachineKind.SINGLE_STEP, raw_process_ticks=1, machine_count=0)

    def test_kind_must_be_a_machine_kind(self):
        # The engine arms a waiting timer only for MachineKind.BATCH, while
        # the queues treat every kind but SINGLE_STEP as batch.
        with pytest.raises(ConfigError, match="kind"):
            MachineType(0, "batch", 2, batch_size=2, wt_ticks=1)

    @pytest.mark.parametrize("field, value", [
        ("id", "0"),
        ("raw_process_ticks", 2.5),  # a countdown from 2.5 never reaches 0
        ("batch_size", 2.0),
        ("wt_ticks", 1.0),
        ("machine_count", True),
    ])
    def test_integer_field_must_be_an_int(self, field, value):
        fields = dict(id=0, kind=MachineKind.BATCH, raw_process_ticks=2, batch_size=2,
                      wt_ticks=1, machine_count=1)
        MachineType(**fields)
        fields[field] = value
        with pytest.raises(ConfigError, match="must be an int"):
            MachineType(**fields)


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
        assert queue.total_len() == 10

    def test_single_step_queue_keeps_lots_not_batches(self):
        wc = make_single_wc(1)
        queued = [lot(0), lot(0)]
        for item in queued:
            wc.queues[0].add_lot(item)
        assert wc.queues[0].lots == queued
        assert wc.queues[0].batches == []
        assert wc.index.partials == {}


class TestWorkcenterView:
    def test_partial_batches_excludes_full_and_other_types(self):
        wc = make_batch_wc(2, bs=4)
        add_batch(wc, 0, lot_type=1, size=4)  # full
        wanted = add_batch(wc, 0, lot_type=1, size=2)
        add_batch(wc, 1, lot_type=2, size=3)  # other type
        assert wc.partial_batches(1) == [(0, wanted)]

    def test_type_count_and_window(self):
        wc = make_single_wc(1)
        fill_queue(wc, 0, [3, 1, 3, 2, 3, 3])
        assert wc.type_count(0, 3) == 4
        assert wc.window_types(0, 4) == [3, 1, 3, 2]

    def test_processing_type(self):
        wc = make_single_wc(2)
        wc.machines[0].current_batch = [lot(9)]
        wc.machines[0].busy_remaining = 2
        assert wc.processing_type(0) == 9
        assert wc.processing_type(1) is None


# Reference: the scanning reads the queue counters replaced, kept to check them.

def reference_total_len(queue):
    if queue.owner.mtype.kind is MachineKind.SINGLE_STEP:
        return len(queue.lots)
    return sum(len(b.lots) for b in queue.batches)


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


def reference_pick(items, rng):
    return items[0] if len(items) == 1 else rng.choice(items)


def reference_shortest_queue(item, queues, rng):
    """The scanning ``baseline.choose_single``."""
    lens = [reference_total_len(q) for q in queues]
    shortest = min(lens)
    return reference_pick([i for i, n in enumerate(lens) if n == shortest], rng)


def reference_separation(item, queues, rng):
    """The scanning ``flocking.choose_single``: fewest own-type lots, then
    the shortest queue."""
    counts = [sum(l.lot_type == item.lot_type for l in q.lots) for q in queues]
    least = min(counts)
    candidates = [i for i, c in enumerate(counts) if c == least]
    lens = [reference_total_len(q) for q in queues]
    shortest = min(lens[i] for i in candidates)
    return reference_pick([i for i in candidates if lens[i] == shortest], rng)


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
                assert q.total_len() == reference_total_len(q)
                assert q.is_empty() == (reference_total_len(q) == 0)
                assert q.has_full_batch() == reference_has_full_batch(q)
            assert wc.index.type_counts == recount_type_counts(wc)
            assert [q.size for q in wc.queues] == [reference_total_len(q) for q in wc.queues]
            item = lot(arriving)
            for rule, reference in ((baseline.choose_single, reference_shortest_queue),
                                    (flocking.choose_single, reference_separation)):
                live, scanned = random.Random(pick), random.Random(pick)
                assert rule(item, wc, live) == reference(item, wc.queues, scanned)
                assert live.getstate() == scanned.getstate()
            buckets = {}
            for k, q in enumerate(wc.queues):
                buckets.setdefault(reference_total_len(q), []).append(k)
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


class TestDispatchReads:
    def test_no_per_machine_list_outside_the_separation_fallback(self, monkeypatch):
        # Both rules read the queue index, and so does flocking's fallback,
        # when every machine already queues the lot's type: no rule lists
        # every machine.
        calls = Counter()
        real = Workcenter.type_count

        def counted(self, *args):
            calls["type_count"] += 1
            return real(self, *args)

        monkeypatch.setattr(Workcenter, "type_count", counted)
        n = 50
        wc = make_single_wc(n)
        rng = random.Random(3)
        for i in range(n - 1):
            fill_queue(wc, i, [0] + [rng.randrange(1, 4) for _ in range(rng.randrange(3))])
        for t in range(5):  # type 0 queued by all but one machine, type 4 by none
            assert baseline.choose_single(lot(t), wc, rng) == n - 1
            flocking.choose_single(lot(t), wc, rng)
        assert calls == Counter()

        for i in range(n):
            if i not in wc.index.type_counts[0]:
                fill_queue(wc, i, [0])
        assert len(wc.index.type_counts[0]) == n  # the fallback's case
        baseline.choose_single(lot(0), wc, rng)
        flocking.choose_single(lot(0), wc, rng)
        assert calls == Counter()
