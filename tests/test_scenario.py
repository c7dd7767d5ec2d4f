import string
import sys

import pytest
from hypothesis import given, settings, strategies as st

from fabflock.model import MachineKind, MachineType
from fabflock.scenario import (
    MAX_LOTS,
    MAX_MACHINES,
    MAX_STEP_TICKS,
    MAX_WORK_TICKS,
    LotSpec,
    Scenario,
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

#: A file's first line declaring ``_single(0)`` at the default tick of 0.1 h.
_ONE_MACHINE = "machinetype 0 kind single count 1 rpt_hours 0.2\n"


def _single(mid, rpt=2, count=1):
    return MachineType(mid, MachineKind.SINGLE_STEP, rpt, machine_count=count)


def _unnamed(machine_types, lot_specs, tick_hours=0.1):
    """The scenario a file without a ``scenario`` line describes."""
    return Scenario("unnamed", tick_hours, machine_types, lot_specs)


class TestSmallFab:
    def test_machine_park(self):
        sc = build_small_fab()
        assert [mt.id for mt in sc.machine_types] == [0, 1, 2, 3, 4]
        assert [mt.machine_count for mt in sc.machine_types] == [5, 4, 6, 2, 2]
        assert sum(mt.machine_count for mt in sc.machine_types) == 19
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
        assert sum(ls.count for ls in sc.lot_specs) == 105

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
        rpt = sc.rpt_by_type()
        for ls in sc.lot_specs:
            assert rpt[ls.id] == 84  # 12 x 2 + 4 x 15

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
        assert [ls.count for ls in sc.lot_specs] == [4, 3]
        assert sc.recipes()[1] == (0, 1, 0)

    def test_round_trip(self):
        sc = parse_scenario(TINY)
        assert parse_scenario(serialize_scenario(sc)) == sc

    def test_zero_lots_is_valid(self):
        sc = parse_scenario("machinetype 0 kind single count 1 rpt_hours 0.2\n")
        assert sc.lot_specs == ()

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

    def test_size_limits_rejected_with_line(self):
        def fab(count=1, rpt=1, lots=1):
            return (f"tick_hours 1\nmachinetype 0 kind single count {count} "
                    f"rpt_hours {rpt}\nlottype 0 count {lots} recipe 0\n")

        at_limit = [fab(count=MAX_MACHINES, rpt=MAX_STEP_TICKS,
                        lots=MAX_WORK_TICKS // MAX_STEP_TICKS),
                    fab(lots=MAX_LOTS)]
        for text in at_limit:
            parse_scenario(text)
        cases = [
            (fab(rpt=MAX_STEP_TICKS + 1), 2, "ticks"),
            (fab(count=MAX_MACHINES + 1), 2, "machines"),
            (fab(lots=MAX_LOTS + 1), 3, "lots"),
            (fab(rpt=MAX_STEP_TICKS, lots=MAX_WORK_TICKS // MAX_STEP_TICKS + 1), 3, "work"),
            ("machinetype 0 kind single count 1 rpt_hours 1e300\n", 1, "ticks"),
            ("tick_hours 1e-300\nmachinetype 0 kind single count 1 rpt_hours 0.2\n", 2, "ticks"),
            ("machinetype 0 kind batch count 1 rpt_hours 0.4 bs 2 wt_hours 1e300\n", 1, "ticks"),
            ("machinetype 0 kind single count 1 rpt_hours -1e300\n", 1, "ticks"),
        ]
        for bad, line_no, what in cases:
            with pytest.raises(ScenarioError, match=f"line {line_no}:.*{what}"):
                parse_scenario(bad)

    def test_size_limits_checked_on_scenarios_built_in_code(self):
        def fab(count=1, rpt=1, wt=0, lots=1, recipe=(0,)):
            machines = [MachineType(0, MachineKind.SINGLE_STEP, raw_process_ticks=rpt,
                                    machine_count=count),
                        MachineType(1, MachineKind.BATCH, raw_process_ticks=1,
                                    batch_size=2, wt_ticks=wt)]
            return Scenario("limits", 1.0, tuple(machines), (LotSpec(0, lots, recipe),))

        work_at_limit = (0,) * (MAX_WORK_TICKS // MAX_STEP_TICKS)
        at_limit = [fab(rpt=MAX_STEP_TICKS), fab(wt=MAX_STEP_TICKS),
                    fab(count=MAX_MACHINES - 1), fab(lots=MAX_LOTS),
                    fab(rpt=MAX_STEP_TICKS, recipe=work_at_limit)]
        for sc in at_limit:
            sc.validate()
        cases = [
            (fab(rpt=MAX_STEP_TICKS + 1), "machine type 0: a duration exceeds"),
            (fab(wt=MAX_STEP_TICKS + 1), "machine type 1: a duration exceeds"),
            (fab(count=MAX_MACHINES), "machines"),
            (fab(lots=MAX_LOTS + 1), "lots"),
            (fab(rpt=MAX_STEP_TICKS, recipe=work_at_limit + (1,)), "work"),
        ]
        for sc, what in cases:
            with pytest.raises(ScenarioError, match=what):
                sc.validate()

    @pytest.mark.parametrize("text, line_no, scenario", [
        (_ONE_MACHINE + "machinetype 0 kind single count 1 rpt_hours 0.2\n", 2,
         _unnamed([_single(0), _single(0)], [])),
        (_ONE_MACHINE + "lottype 0 count 1 recipe 0\nlottype 0 count 1 recipe 0\n", 3,
         _unnamed([_single(0)], [LotSpec(0, 1, (0,)), LotSpec(0, 1, (0,))])),
        (_ONE_MACHINE + "lottype 0 count -1 recipe 0\n", 2,
         _unnamed([_single(0)], [LotSpec(0, -1, (0,))])),
        (_ONE_MACHINE + "lottype 0 count 1 recipe 0 9\n", 2,
         _unnamed([_single(0)], [LotSpec(0, 1, (0, 9))])),
        (f"tick_hours 1\nmachinetype 0 kind single count 1 rpt_hours {MAX_STEP_TICKS + 1}\n", 2,
         _unnamed([_single(0, rpt=MAX_STEP_TICKS + 1)], [], tick_hours=1.0)),
        (f"machinetype 0 kind single count {MAX_MACHINES} rpt_hours 0.2\n"
         "machinetype 1 kind single count 1 rpt_hours 0.2\n", 2,
         _unnamed([_single(0, count=MAX_MACHINES), _single(1)], [])),
        (_ONE_MACHINE + f"lottype 0 count {MAX_LOTS} recipe 0\nlottype 1 count 1 recipe 0\n", 3,
         _unnamed([_single(0)], [LotSpec(0, MAX_LOTS, (0,)), LotSpec(1, 1, (0,))])),
        (f"tick_hours 1\nmachinetype 0 kind single count 1 rpt_hours {MAX_STEP_TICKS}\n"
         f"lottype 0 count {MAX_WORK_TICKS // MAX_STEP_TICKS} recipe 0\n"
         "lottype 1 count 1 recipe 0\n", 4,
         _unnamed([_single(0, rpt=MAX_STEP_TICKS)],
                  [LotSpec(0, MAX_WORK_TICKS // MAX_STEP_TICKS, (0,)), LotSpec(1, 1, (0,))],
                  tick_hours=1.0)),
        # One tick of the largest float is finite, but written with 15
        # significant digits it rounds up to infinity.
        ("tick_hours 1.7976931348623157e308\n"
         "machinetype 0 kind single count 1 rpt_hours 1.7976931348623157e308\n", 2,
         _unnamed([_single(0, rpt=1)], [], tick_hours=sys.float_info.max)),
    ], ids=["duplicate_machine_type", "duplicate_lot_type", "negative_count",
            "unknown_recipe_step", "max_step_ticks", "max_machines", "max_lots", "max_work_ticks",
            "finite_hours"])
    def test_a_record_rule_has_one_message_prefixed_by_its_line(self, text, line_no, scenario):
        # The file and the scenario built in code break the same rule at the
        # same record, so the parser's message is validate's after the line.
        with pytest.raises(ScenarioError) as in_code:
            scenario.validate()
        with pytest.raises(ScenarioError) as in_file:
            parse_scenario(text)
        assert str(in_file.value) == f"line {line_no}: {in_code.value}"

    @pytest.mark.parametrize("text, message", [
        ("scenario x\nmachinetype 0 kind single count\n",
         "line 2: machinetype takes key/value pairs"),
        ("machinetype 0 kind single count 1 count 2 rpt_hours 0.2\n",
         "line 1: duplicate key 'count'"),
        ("scenario x\nmachinetype 0 kind triple count 1 rpt_hours 0.2\n",
         "line 2: kind must be 'single' or 'batch'"),
        ("machinetype 0 kind single rpt_hours 0.2\n",
         "line 1: machinetype needs count and rpt_hours"),
        ("scenario x\nmachinetype 0 kind single count 1\n",
         "line 2: machinetype needs count and rpt_hours"),
        ("machinetype 0 kind single count 1 rpt_hours 0.2 speed 3 colour red\n",
         "line 1: unknown keys ['colour', 'speed']"),
        ("scenario x\ntick_hours 0\n", "line 2: tick_hours must be positive"),
        ("scenario a\n" + _ONE_MACHINE + "scenario b\n", "line 3: scenario name given twice"),
        ("scenario x\nmachinetype 0 kind single count 1 rpt_hours fast\n",
         "line 2: rpt_hours must be a number, got 'fast'"),
        ("machinetype\n", "line 1: machinetype needs an id"),
        ("scenario x\nmachinetype zero kind single count 1 rpt_hours 0.2\n",
         "line 2: machine type id must be an integer, got 'zero'"),
        ("machinetype 0 kind batch count 1 rpt_hours 0.4 bs 1 wt_hours 0.3\n",
         "line 1: machine type 0: batch machines need batch_size >= 2"),
        ("machinetype 0 kind single count 1 rpt_hours 0.2 wt_hours 0.3\n",
         "line 1: single-step lines take no bs/wt_hours"),
        ("machinetype 0 kind batch count 1 rpt_hours 0.4\n",
         "line 1: batch machine type needs bs"),
        ("machines 3\n", "line 1: unknown directive 'machines'"),
        ("tick_hours 0.1\ntick_hours 0.2\n", "line 2: tick_hours given twice"),
        (_ONE_MACHINE + "lottype 0 count 1 recipe\n",
         "line 2: expected 'lottype <t> count <n> recipe <steps...>'"),
    ], ids=["odd_key_value_count", "duplicate_key", "unknown_kind", "missing_count",
            "missing_rpt_hours", "unknown_keys", "zero_tick_hours", "second_scenario_line",
            "non_numeric_float", "missing_id", "non_integer_id", "batch_size_below_two",
            "single_step_with_timer", "batch_without_size", "unknown_directive",
            "duplicate_tick_hours", "empty_recipe"])
    def test_a_malformed_line_is_rejected_with_its_line(self, text, message):
        with pytest.raises(ScenarioError) as rejected:
            parse_scenario(text)
        assert str(rejected.value) == message

    def test_comments_and_blank_lines_ignored(self):
        text = "\n# comment\nmachinetype 0 kind single count 1 rpt_hours 0.2  # trailing\n\n"
        sc = parse_scenario(text)
        assert sc.machine_types[0].raw_process_ticks == 2


#: Tokens the parser branches on, mixed with malformed numbers and words, so
#: generated text reaches past the first directive.
_TOKENS = ["scenario", "tick_hours", "machinetype", "lottype", "kind", "single",
           "batch", "count", "rpt_hours", "bs", "wt_hours", "recipe", "#", "0", "1",
           "2", "-1", "0.1", "0.2", "1e300", "1e-300", "-0", "nan", "inf", "1_0",
           "9" * 5000, "0x1", "", "\u00e9", "\u0663"]
_lines = st.lists(st.one_of(st.sampled_from(_TOKENS), st.text(max_size=6)), max_size=12)
_texts = st.one_of(st.text(), st.lists(_lines, max_size=10).map(
    lambda lines: "\n".join(" ".join(line) for line in lines)))


@st.composite
def _valid_scenarios(draw):
    """Scenarios ``Scenario.validate`` accepts, up to the ``MAX_*`` limits."""
    tick_hours = draw(st.floats(1e-6, 1e3) | st.integers(1, 2**53))
    machine_types = []
    ids = draw(st.lists(st.integers(-10, 10 ** 6), min_size=1, max_size=4, unique=True))
    for mid in ids:
        count = draw(st.integers(1, MAX_MACHINES // 4))
        rpt = draw(st.integers(1, MAX_STEP_TICKS))
        if draw(st.booleans()):
            machine_types.append(MachineType(mid, MachineKind.SINGLE_STEP, rpt,
                                             machine_count=count))
        else:
            machine_types.append(MachineType(
                mid, MachineKind.BATCH, rpt, batch_size=draw(st.integers(2, 8)),
                wt_ticks=draw(st.integers(0, MAX_STEP_TICKS)), machine_count=count))
    rpt = {mt.id: mt.raw_process_ticks for mt in machine_types}
    lot_specs = []
    lots = work = 0
    for lid in draw(st.lists(st.integers(-10, 10 ** 6), max_size=4, unique=True)):
        recipe = tuple(draw(st.lists(st.sampled_from(ids), min_size=1, max_size=6)))
        per_lot = sum(rpt[m] for m in recipe)
        count = draw(st.integers(0, min(MAX_LOTS - lots, (MAX_WORK_TICKS - work) // per_lot)))
        lots += count
        work += count * per_lot
        lot_specs.append(LotSpec(lid, count, recipe))
    words = st.text(string.ascii_letters + string.digits + "_-.", min_size=1, max_size=8)
    name = " ".join(draw(st.lists(words, min_size=1, max_size=3)))
    return Scenario(name, tick_hours, tuple(machine_types), tuple(lot_specs))


class TestValidateRejectsWhatTheFileCannotHold:
    @pytest.mark.parametrize("name", [
        "",  # written back as a bare "scenario" line, which does not parse
        "a#b",  # parses back as "a"
        "a  b",  # parses back as "a b"
        " a",
        "a\tb",
        "x\nmachinetype 9 kind single count 1 rpt_hours 0.1",  # a sixth machine type
        None,
    ])
    def test_name_rejected(self, name):
        fab = build_small_fab()
        sc = Scenario(name, fab.tick_hours, fab.machine_types, fab.lot_specs)
        with pytest.raises(ScenarioError, match="scenario name"):
            sc.validate()

    def test_spaced_name_round_trips(self):
        fab = build_small_fab()
        sc = Scenario("small fab 2", fab.tick_hours, fab.machine_types, fab.lot_specs)
        sc.validate()
        assert parse_scenario(serialize_scenario(sc)) == sc

    @pytest.mark.parametrize("spec", [
        LotSpec(0, 2.0, (0,)),  # init_run builds range(count) lots
        LotSpec("0", 2, (0,)),
        LotSpec(0, 2, (0.0,)),
    ])
    def test_lot_spec_fields_must_be_ints(self, spec):
        sc = Scenario("x", 0.1, (MachineType(0, MachineKind.SINGLE_STEP, 1),), (spec,))
        with pytest.raises(ScenarioError, match="int"):
            sc.validate()

    def test_empty_recipe_rejected_in_code(self):
        # A file cannot write an empty recipe: its lottype line would not parse.
        sc = Scenario("x", 0.1, (_single(0),), (LotSpec(0, 1, ()),))
        with pytest.raises(ScenarioError) as rejected:
            sc.validate()
        assert str(rejected.value) == "lot type 0: recipe must not be empty"
        assert rejected.value.record == 1

    @pytest.mark.parametrize("tick_hours", [float("nan"), float("inf"), True])
    def test_tick_hours_must_be_a_finite_number(self, tick_hours):
        fab = build_small_fab()
        sc = Scenario(fab.name, tick_hours, fab.machine_types, fab.lot_specs)
        with pytest.raises(ScenarioError, match="tick_hours"):
            sc.validate()

    @pytest.mark.parametrize("tick_hours", [
        10**308,     # an int product too large to format as a float
        1e308,       # a float product that overflows to inf
    ], ids=["int_10_pow_308", "float_1e308"])
    def test_every_duration_is_a_finite_number_of_hours(self, tick_hours):
        fab = build_small_fab()
        sc = Scenario(fab.name, tick_hours, fab.machine_types, fab.lot_specs)
        with pytest.raises(ScenarioError, match="finite number of hours"):
            sc.validate()

    @pytest.mark.parametrize("tick_hours", [10**300, 2**53 + 1],
                             ids=["int_10_pow_300", "int_2_pow_53_plus_1"])
    def test_an_int_tick_hours_must_equal_its_float(self, tick_hours):
        # The file holds tick_hours as a float, so such an int would parse
        # back as another scenario.
        fab = build_small_fab()
        sc = Scenario(fab.name, tick_hours, fab.machine_types, fab.lot_specs)
        with pytest.raises(ScenarioError, match="no float equals"):
            sc.validate()

    def test_a_duration_rounding_up_past_the_float_range_is_rejected(self):
        # One tick of sys.float_info.max hours is finite, but 15 significant
        # digits, as serialize_scenario writes it, round it up to infinity.
        steps = (MachineType(0, MachineKind.SINGLE_STEP, 1),)
        sc = Scenario("x", sys.float_info.max, steps, (LotSpec(0, 1, (0,)),))
        with pytest.raises(ScenarioError, match="finite number of hours"):
            sc.validate()
        sc = Scenario("x", 1e308, steps, (LotSpec(0, 1, (0,)),))
        sc.validate()
        assert parse_scenario(serialize_scenario(sc)) == sc


class TestRecordsStoreTuples:
    def test_lists_are_stored_as_tuples(self):
        fab = build_small_fab()
        sc = Scenario(fab.name, fab.tick_hours, list(fab.machine_types),
                      [LotSpec(ls.id, ls.count, list(ls.recipe)) for ls in fab.lot_specs])
        sc.validate()
        assert sc == fab and hash(sc) == hash(fab)
        assert parse_scenario(serialize_scenario(sc)) == sc


class TestParseProperties:
    @settings(max_examples=300, deadline=1000)
    @given(_texts)
    def test_any_text_parses_or_raises_scenario_error(self, text):
        # The deadline bounds the time of every example. Every error about
        # the file's content names a line; only a file without a machine
        # type fails as a whole.
        try:
            parse_scenario(text)
        except ScenarioError as exc:
            message = str(exc)
            assert message.startswith("line ") \
                or message == "at least one machine type is required", message

    @settings(max_examples=300, deadline=1000)
    @given(_valid_scenarios())
    def test_serialize_round_trips_valid_scenarios(self, sc):
        sc.validate()
        assert parse_scenario(serialize_scenario(sc)) == sc
