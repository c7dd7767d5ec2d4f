"""Scenario definition, the line-based file format, and the built-in small fab.

File format (UTF-8, ``#`` starts a comment, blank lines ignored):

    scenario <name>
    tick_hours 0.1
    machinetype <m> kind {single|batch} count <n> rpt_hours <x> [bs <k> wt_hours <y>]
    lottype <t> count <n> recipe <m1> <m2> ... <mk>

Durations are given in hours and must convert to whole ticks under
``tick_hours``; everything downstream runs on integer ticks. Durations,
machine and lot counts and the total work content are capped by the
``MAX_*`` limits below. ``parse_scenario`` checks each line's syntax; the
``MachineType`` constructor owns the kind, int-field and range rules of one
machine type, and ``Scenario.validate`` every other rule on the records, of
a file and of a scenario built in code alike. An error about a record of a
file names its line.
"""

from __future__ import annotations

import math
import sys

from .model import ConfigError, MachineKind, MachineType, Recipe, Record, _set


class ScenarioError(ConfigError):
    """Scenario file or definition rejected; messages about a file carry
    line numbers. ``record`` is the position in ``machine_types +
    lot_specs`` of the record ``Scenario.validate`` found at fault, if any."""

    def __init__(self, message: str, record: int | None = None):
        super().__init__(message)
        self.record = record


# Size limits on a scenario. They bound the bytes read from a file, the
# machines and lots a run holds in memory, each process and timer duration,
# and the work content that the livelock horizon is a multiple of, so no
# single huge number in a file or in code can keep the tick loop running
# without end. Each lies far above the small fab scaled ten times (190
# machines, 1050 lots, 15-tick steps, 88,200 work ticks).
#: Ticks of one process or waiting-timer duration.
MAX_STEP_TICKS = 1_000_000
#: Machines summed over all machine types.
MAX_MACHINES = 10_000
#: Lots summed over all lot types.
MAX_LOTS = 100_000
#: Total work content: raw process ticks summed over every lot's recipe.
MAX_WORK_TICKS = 10_000_000
#: Bytes of one scenario file; a paper-size plant (100 x 12 machines, 1500
#: products of 300 steps) takes about 1.35 MB.
MAX_FILE_BYTES = 64 * 2**20


class LotSpec(Record):
    """Lot population of one type: how many lots and which recipe. The
    recipe is stored as a tuple, so a spec built from a list still hashes
    and equals its parsed round trip."""

    __slots__ = ("id", "count", "recipe")

    def __init__(self, id: int, count: int, recipe: Recipe):
        _set(self, "id", id)
        _set(self, "count", count)
        _set(self, "recipe", tuple(recipe))


class Scenario(Record):
    """A plant and its lot population; ``validate`` checks it. The machine
    types and lot specs are stored as tuples, as ``LotSpec`` stores its
    recipe."""

    __slots__ = ("name", "tick_hours", "machine_types", "lot_specs")

    def __init__(self, name: str, tick_hours: float, machine_types: tuple[MachineType, ...],
                 lot_specs: tuple[LotSpec, ...]):
        _set(self, "name", name)
        _set(self, "tick_hours", tick_hours)
        _set(self, "machine_types", tuple(machine_types))
        _set(self, "lot_specs", tuple(lot_specs))

    def recipes(self) -> dict[int, Recipe]:
        return {ls.id: ls.recipe for ls in self.lot_specs}

    def rpt_ticks(self, lot_type: int) -> int:
        """Raw process ticks summed over the lot type's whole recipe."""
        return self.rpt_by_type()[lot_type]

    def rpt_by_type(self) -> dict[int, int]:
        """``rpt_ticks`` of every lot type, from one pass over the recipes."""
        rpt = {mt.id: mt.raw_process_ticks for mt in self.machine_types}
        return {lot_type: sum(rpt[m] for m in recipe)
                for lot_type, recipe in self.recipes().items()}

    def validate(self) -> None:
        """Raise ScenarioError on an inconsistent scenario or one beyond a
        ``MAX_*`` limit, naming the first record at fault in its ``record``.

        The name must be one ``serialize_scenario`` writes back unchanged:
        a nonempty string without ``#``, whose words are separated by single
        spaces. ``tick_hours`` must be a positive, finite ``int`` or
        ``float`` (a ``bool`` is rejected), an ``int`` one equal to its
        ``float`` so that it parses back equal. Then the machine types and
        the lot specs are visited in order. Ids must be unique, and every
        duration times ``tick_hours`` a finite float, also as
        ``serialize_scenario`` writes it. Lot type ids, counts and recipe
        steps must be ``int``s, counts at least 0, and recipes nonempty and
        of known machine types. The ``MAX_*`` totals are summed on the way.
        """
        name = self.name
        if not isinstance(name, str) or not name or "#" in name \
                or name != " ".join(name.split()):
            raise ScenarioError(
                f"scenario name {name!r} must be nonempty, without '#', and its "
                "words separated by single spaces")
        tick_hours = self.tick_hours
        if type(tick_hours) not in (int, float) or not 0 < tick_hours <= sys.float_info.max:
            raise ScenarioError(f"tick_hours must be a positive finite number, got {tick_hours!r}")
        if not self.machine_types:
            raise ScenarioError("at least one machine type is required")
        rpt: dict[int, int] = {}
        machines = 0
        for pos, mt in enumerate(self.machine_types):
            if mt.id in rpt:
                raise ScenarioError(f"duplicate machine type {mt.id}", pos)
            rpt[mt.id] = mt.raw_process_ticks
            longest = max(mt.raw_process_ticks, mt.wt_ticks)
            if longest > MAX_STEP_TICKS:
                raise ScenarioError(
                    f"machine type {mt.id}: a duration exceeds {MAX_STEP_TICKS} ticks", pos)
            hours = longest * tick_hours
            if not (hours <= sys.float_info.max and math.isfinite(float(_hours_text(hours)))):
                raise ScenarioError(
                    f"machine type {mt.id}: {longest} ticks of {tick_hours!r} h is not "
                    "a finite number of hours", pos)
            machines += mt.machine_count
            if machines > MAX_MACHINES:
                raise ScenarioError(
                    f"machine type {mt.id}: more than {MAX_MACHINES} machines in all", pos)
        if type(tick_hours) is int and float(tick_hours) != tick_hours:
            raise ScenarioError(f"tick_hours {tick_hours!r} is an int no float equals, "
                                "so the file cannot hold it")
        seen = set()
        lots = work = 0
        for pos, ls in enumerate(self.lot_specs, start=len(self.machine_types)):
            if type(ls.id) is not int or type(ls.count) is not int:
                raise ScenarioError(f"lot type {ls.id!r}: id and count must be ints", pos)
            if ls.id in seen:
                raise ScenarioError(f"duplicate lot type {ls.id}", pos)
            seen.add(ls.id)
            if ls.count < 0:
                raise ScenarioError(f"lot type {ls.id}: count must be >= 0", pos)
            if not ls.recipe:
                raise ScenarioError(f"lot type {ls.id}: recipe must not be empty", pos)
            per_lot = 0
            for step in ls.recipe:
                if type(step) is not int:
                    raise ScenarioError(
                        f"lot type {ls.id}: recipe step {step!r} is not an int", pos)
                if step not in rpt:
                    raise ScenarioError(
                        f"lot type {ls.id}: recipe references unknown machine type {step}", pos)
                per_lot += rpt[step]
            lots += ls.count
            if lots > MAX_LOTS:
                raise ScenarioError(f"lot type {ls.id}: more than {MAX_LOTS} lots in all", pos)
            work += ls.count * per_lot
            if work > MAX_WORK_TICKS:
                raise ScenarioError(
                    f"lot type {ls.id}: total work content exceeds {MAX_WORK_TICKS} ticks", pos)


def hours_to_ticks(hours: float, tick_hours: float) -> int:
    """Convert a duration to ticks, rejecting one that is not a whole number
    of ticks."""
    ticks = hours / tick_hours
    # A huge duration over a tiny tick overflows to inf, on which round() would raise.
    if not math.isfinite(ticks) or abs(ticks - round(ticks)) > 1e-6:
        raise ScenarioError(f"{hours} h is not a whole number of {tick_hours} h ticks")
    return round(ticks)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError on bad input.

    The parser checks each line's tokens, numbers and whole-tick durations,
    the ``MachineType`` constructor's rules, and directives given twice or
    unknown. ``Scenario.validate`` checks the rest and names the record at
    fault; its error is re-raised as ``line N: <validate's message>``.
    Errors come in this order: the ``tick_hours`` lines, the other lines in
    file order, then validate's rules in record order (machine types before
    lot types), so of two bad lines the first in the file may not be the
    one reported.
    """
    entries: list[tuple[int, list[str]]] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            entries.append((line_no, line.split()))

    tick_hours = 0.1
    tick_seen = False
    for line_no, tok in entries:
        if tok[0] != "tick_hours":
            continue
        if tick_seen:
            raise ScenarioError(f"line {line_no}: tick_hours given twice")
        if len(tok) != 2:
            raise ScenarioError(f"line {line_no}: tick_hours takes exactly one value")
        tick_hours = _parse_float(tok[1], line_no, "tick_hours")
        if tick_hours <= 0:
            raise ScenarioError(f"line {line_no}: tick_hours must be positive")
        tick_seen = True

    name = None
    machine_types: list[MachineType] = []
    lot_specs: list[LotSpec] = []
    machine_lines: list[int] = []
    lot_lines: list[int] = []
    for line_no, tok in entries:
        head = tok[0]
        if head == "machinetype":
            machine_types.append(_parse_machinetype(tok, line_no, tick_hours))
            machine_lines.append(line_no)
        elif head == "lottype":
            lot_specs.append(_parse_lottype(tok, line_no))
            lot_lines.append(line_no)
        elif head == "scenario":
            if name is not None:
                raise ScenarioError(f"line {line_no}: scenario name given twice")
            if len(tok) < 2:
                raise ScenarioError(f"line {line_no}: scenario needs a name")
            name = " ".join(tok[1:])
        elif head != "tick_hours":
            raise ScenarioError(f"line {line_no}: unknown directive {head!r}")

    scenario = Scenario(name or "unnamed", tick_hours,
                        tuple(machine_types), tuple(lot_specs))
    try:
        scenario.validate()
    except ScenarioError as exc:
        if exc.record is None:
            raise
        line_no = (machine_lines + lot_lines)[exc.record]
        raise ScenarioError(f"line {line_no}: {exc}") from None
    return scenario


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario in the file format; parse_scenario inverts it.

    ``tick_hours`` is written in its shortest exact form, so it parses back
    to the same float. A duration is written with 15 significant digits:
    enough for every whole tick count up to ``MAX_STEP_TICKS`` to parse back
    well within ``hours_to_ticks``' tolerance, and short for round values.
    """
    tick_hours = scenario.tick_hours
    lines = [
        f"scenario {scenario.name}",
        f"tick_hours {tick_hours!r}",
    ]
    for mt in scenario.machine_types:
        line = (f"machinetype {mt.id} kind {mt.kind.value} count {mt.machine_count}"
                f" rpt_hours {_hours_text(mt.raw_process_ticks * tick_hours)}")
        if mt.kind is MachineKind.BATCH:
            line += f" bs {mt.batch_size} wt_hours {_hours_text(mt.wt_ticks * tick_hours)}"
        lines.append(line)
    for ls in scenario.lot_specs:
        steps = " ".join(str(s) for s in ls.recipe)
        lines.append(f"lottype {ls.id} count {ls.count} recipe {steps}")
    return "\n".join(lines) + "\n"


def _hours_text(hours: float) -> str:
    """A duration in hours as ``serialize_scenario`` writes it."""
    return f"{hours:.15g}"


def _parse_int(token: str, line_no: int, what: str) -> int:
    try:
        return int(token)
    except ValueError:
        raise ScenarioError(f"line {line_no}: {what} must be an integer, got {token!r}") from None


def _parse_float(token: str, line_no: int, what: str) -> float:
    try:
        value = float(token)
    except ValueError:
        raise ScenarioError(f"line {line_no}: {what} must be a number, got {token!r}") from None
    if not math.isfinite(value):
        raise ScenarioError(f"line {line_no}: {what} must be finite, got {token!r}")
    return value


def _parse_machinetype(tok: list[str], line_no: int, tick_hours: float) -> MachineType:
    if len(tok) < 2:
        raise ScenarioError(f"line {line_no}: machinetype needs an id")
    mid = _parse_int(tok[1], line_no, "machine type id")
    rest = tok[2:]
    if len(rest) % 2 != 0:
        raise ScenarioError(f"line {line_no}: machinetype takes key/value pairs")
    kv: dict[str, str] = {}
    for key, value in zip(rest[0::2], rest[1::2]):
        if key in kv:
            raise ScenarioError(f"line {line_no}: duplicate key {key!r}")
        kv[key] = value

    kind_token = kv.pop("kind", None)
    if kind_token not in ("single", "batch"):
        raise ScenarioError(f"line {line_no}: kind must be 'single' or 'batch'")
    kind = MachineKind.SINGLE_STEP if kind_token == "single" else MachineKind.BATCH
    if "count" not in kv or "rpt_hours" not in kv:
        raise ScenarioError(f"line {line_no}: machinetype needs count and rpt_hours")
    count = _parse_int(kv.pop("count"), line_no, "count")
    rpt_hours = _parse_float(kv.pop("rpt_hours"), line_no, "rpt_hours")
    bs_token = kv.pop("bs", None)
    wt_token = kv.pop("wt_hours", None)
    if kv:
        raise ScenarioError(f"line {line_no}: unknown keys {sorted(kv)}")
    if kind is MachineKind.SINGLE_STEP:
        if bs_token is not None or wt_token is not None:
            raise ScenarioError(f"line {line_no}: single-step lines take no bs/wt_hours")
        batch_size, wt_hours = 1, 0.0
    else:
        if bs_token is None:
            raise ScenarioError(f"line {line_no}: batch machine type needs bs")
        batch_size = _parse_int(bs_token, line_no, "bs")
        wt_hours = _parse_float(wt_token, line_no, "wt_hours") if wt_token is not None else 0.0

    try:
        return MachineType(
            id=mid, kind=kind,
            raw_process_ticks=hours_to_ticks(rpt_hours, tick_hours),
            batch_size=batch_size,
            wt_ticks=hours_to_ticks(wt_hours, tick_hours),
            machine_count=count,
        )
    except ConfigError as exc:
        raise ScenarioError(f"line {line_no}: {exc}") from None


def _parse_lottype(tok: list[str], line_no: int) -> LotSpec:
    if len(tok) < 6 or tok[2] != "count" or tok[4] != "recipe":
        raise ScenarioError(
            f"line {line_no}: expected 'lottype <t> count <n> recipe <steps...>'")
    lid = _parse_int(tok[1], line_no, "lot type id")
    count = _parse_int(tok[3], line_no, "count")
    recipe = tuple(_parse_int(t, line_no, "recipe step") for t in tok[5:])
    return LotSpec(lid, count, recipe)


def small_fab_recipe(lot_type: int) -> Recipe:
    """Four layers, each workcenters 0 -> 1 -> 2 (batch) -> a finishing
    workcenter that alternates between 3 and 4 by the parity of lot type +
    layer, balancing their load."""
    steps: list[int] = []
    for layer in range(4):
        steps += [0, 1, 2, 3 + (lot_type + layer) % 2]
    return tuple(steps)


def build_small_fab() -> Scenario:
    """Built-in desk-scale plant: five workcenters, the third one batching,
    and ten lot types with 6..15 lots each (105 lots, 16-step recipes)."""
    single = MachineKind.SINGLE_STEP
    machine_types = (
        MachineType(0, single, raw_process_ticks=2, machine_count=5),
        MachineType(1, single, raw_process_ticks=2, machine_count=4),
        MachineType(2, MachineKind.BATCH, raw_process_ticks=15,
                    batch_size=4, wt_ticks=3, machine_count=6),
        MachineType(3, single, raw_process_ticks=2, machine_count=2),
        MachineType(4, single, raw_process_ticks=2, machine_count=2),
    )
    lot_specs = tuple(LotSpec(t, 6 + t, small_fab_recipe(t)) for t in range(10))
    return Scenario("smallfab", 0.1, machine_types, lot_specs)
