import pytest

from fabflock.model import MachineKind
from fabflock.scenario import (
    ScenarioError,
    build_small_fab,
    hours_to_ticks,
    parse_scenario,
    serialize_scenario,
    small_fab_recipe,
)

TINY = """\
# two-stage plant
scenario tiny
tick_hours 0.1

machinetype 0 kind single count 2 rpt_hours 0.2
machinetype 1 kind batch count 1 rpt_hours 0.4 bs 2 wt_hours 0.3
lottype 0 count 4 recipe 0 1
lottype 1 count 3 recipe 0 1 0
"""


class TestSmallFab:
    def test_machine_park(self):
        sc = build_small_fab()
        assert [mt.id for mt in sc.machine_types] == [0, 1, 2, 3, 4]
        assert [mt.machine_count for mt in sc.machine_types] == [5, 4, 6, 2, 2]
        assert sc.total_machines() == 19
        assert [mt.raw_process_ticks for mt in sc.machine_types] == [2, 2, 15, 2, 2]
        kinds = [mt.kind for mt in sc.machine_types]
        assert kinds[2] is MachineKind.BATCH
        assert all(k is MachineKind.SINGLE_STEP for i, k in enumerate(kinds) if i != 2)

    def test_batch_workcenter_parameters(self):
        batch = build_small_fab().machine_types[2]
        assert batch.batch_size == 4
        assert batch.wt_ticks == 3  # 0.3 h at 0.1 h ticks

    def test_lot_population(self):
        sc = build_small_fab()
        assert [ls.count for ls in sc.lot_specs] == list(range(6, 16))
        assert sc.total_lots() == 105

    def test_recipes(self):
        sc = build_small_fab()
        assert small_fab_recipe(0) == (0, 1, 2, 3, 0, 1, 2, 4, 0, 1, 2, 3, 0, 1, 2, 4)
        assert small_fab_recipe(1) == (0, 1, 2, 4, 0, 1, 2, 3, 0, 1, 2, 4, 0, 1, 2, 3)
        for ls in sc.lot_specs:
            assert len(ls.recipe) == 16
            assert ls.recipe.count(2) == 4  # one batch step per layer
            assert ls.recipe[:3] == (0, 1, 2)

    def test_work_content_is_84_ticks_for_every_type(self):
        sc = build_small_fab()
        for ls in sc.lot_specs:
            assert sc.rpt_ticks(ls.id) == 84  # 12 x 2 + 4 x 15

    def test_round_trips_through_the_file_format(self):
        sc = build_small_fab()
        assert parse_scenario(serialize_scenario(sc)) == sc


class TestHoursToTicks:
    def test_whole_ticks(self):
        assert hours_to_ticks(1.5, 0.1) == 15
        assert hours_to_ticks(0.3, 0.1) == 3
        assert hours_to_ticks(0.0, 0.1) == 0

    def test_fractional_ticks_rejected(self):
        with pytest.raises(ScenarioError, match="whole number"):
            hours_to_ticks(0.25, 0.1)


class TestParse:
    def test_tiny_scenario(self):
        sc = parse_scenario(TINY)
        assert sc.name == "tiny"
        assert sc.tick_hours == 0.1
        assert len(sc.machine_types) == 2
        assert sc.machine_types[1].kind is MachineKind.BATCH
        assert sc.machine_types[1].wt_ticks == 3
        assert sc.total_lots() == 7
        assert sc.recipes()[1] == (0, 1, 0)

    def test_round_trip(self):
        sc = parse_scenario(TINY)
        assert parse_scenario(serialize_scenario(sc)) == sc

    def test_zero_lots_is_valid(self):
        sc = parse_scenario("machinetype 0 kind single count 1 rpt_hours 0.2\n")
        assert sc.total_lots() == 0

    def test_non_integral_duration_rejected_with_line(self):
        cases = [("machinetype 0 kind single count 1 rpt_hours 0.25\n", 1)]
        for value in ("nan", "inf", "-inf"):  # never a whole number of ticks
            cases += [
                (f"scenario x\ntick_hours {value}\n", 2),
                (f"scenario x\nmachinetype 0 kind single count 1 rpt_hours {value}\n", 2),
                (f"scenario x\nmachinetype 0 kind batch count 1 rpt_hours 0.4 bs 2 "
                 f"wt_hours {value}\n", 2),
            ]
        for bad, line_no in cases:
            with pytest.raises(ScenarioError, match=f"line {line_no}:"):
                parse_scenario(bad)

    def test_unknown_recipe_step_rejected_with_line(self):
        bad = TINY + "lottype 2 count 1 recipe 0 9\n"
        with pytest.raises(ScenarioError, match="line 9.*unknown machine type 9"):
            parse_scenario(bad)

    def test_duplicate_machine_type_rejected(self):
        bad = TINY + "machinetype 0 kind single count 1 rpt_hours 0.2\n"
        with pytest.raises(ScenarioError, match="duplicate machine type"):
            parse_scenario(bad)

    def test_duplicate_lot_type_rejected(self):
        bad = TINY + "lottype 0 count 1 recipe 0\n"
        with pytest.raises(ScenarioError, match="duplicate lot type"):
            parse_scenario(bad)

    def test_batch_size_below_two_rejected(self):
        bad = "machinetype 0 kind batch count 1 rpt_hours 0.4 bs 1 wt_hours 0.3\n"
        with pytest.raises(ScenarioError, match="batch_size >= 2"):
            parse_scenario(bad)

    def test_single_step_with_timer_rejected(self):
        bad = "machinetype 0 kind single count 1 rpt_hours 0.2 wt_hours 0.3\n"
        with pytest.raises(ScenarioError, match="no bs/wt_hours"):
            parse_scenario(bad)

    def test_batch_without_size_rejected(self):
        bad = "machinetype 0 kind batch count 1 rpt_hours 0.4\n"
        with pytest.raises(ScenarioError, match="needs bs"):
            parse_scenario(bad)

    def test_unknown_directive_rejected(self):
        with pytest.raises(ScenarioError, match="unknown directive"):
            parse_scenario("machines 3\n")

    def test_duplicate_tick_hours_rejected(self):
        bad = "tick_hours 0.1\ntick_hours 0.2\n"
        with pytest.raises(ScenarioError, match="twice"):
            parse_scenario(bad)

    def test_empty_recipe_rejected(self):
        bad = "machinetype 0 kind single count 1 rpt_hours 0.2\nlottype 0 count 1 recipe\n"
        with pytest.raises(ScenarioError):
            parse_scenario(bad)

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# comment\nmachinetype 0 kind single count 1 rpt_hours 0.2  # trailing\n\n"
        sc = parse_scenario(text)
        assert sc.machine_types[0].raw_process_ticks == 2
