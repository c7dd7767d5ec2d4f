import pytest

from fabflock.model import (
    Batch,
    ConfigError,
    Lot,
    MachineKind,
    MachineType,
    batch_missing,
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


class TestBatchMissing:
    def test_partial(self):
        assert batch_missing(Batch(0, [lot(0) for _ in range(3)]), 4) == 1

    def test_full(self):
        assert batch_missing(Batch(0, [lot(0) for _ in range(4)]), 4) == 0

    def test_empty(self):
        assert batch_missing(Batch(0, []), 4) == 4


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


class TestWorkcenterView:
    def test_partial_batches_excludes_full_and_other_types(self):
        wc = make_batch_wc(2, bs=4)
        wanted = add_batch(wc, 0, lot_type=1, size=2)
        add_batch(wc, 0, lot_type=1, size=4)  # full
        add_batch(wc, 1, lot_type=2, size=3)  # other type
        view = wc.view()
        assert view.partial_batches(1) == [(0, wanted)]

    def test_type_count_and_window(self):
        wc = make_single_wc(1)
        fill_queue(wc, 0, [3, 1, 3, 2, 3, 3])
        view = wc.view()
        assert view.type_count(0, 3) == 4
        assert view.window_types(0, 4) == [3, 1, 3, 2]

    def test_processing_type(self):
        wc = make_single_wc(2)
        wc.machines[0].current_batch = [lot(9)]
        wc.machines[0].busy_remaining = 2
        view = wc.view()
        assert view.processing_type(0) == 9
        assert view.processing_type(1) is None
