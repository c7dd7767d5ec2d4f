"""Scenario definition, the line-based file format, and the built-in small fab.

File format (UTF-8, ``#`` starts a comment, blank lines ignored):

    scenario <name>
    tick_hours 0.1
    machinetype <m> kind {single|batch} count <n> rpt_hours <x> [bs <k> wt_hours <y>]
    lottype <t> count <n> recipe <m1> <m2> ... <mk>

Durations are given in hours and must convert to whole ticks under
``tick_hours``; everything downstream runs on integer ticks.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .model import ConfigError, MachineKind, MachineType, Recipe


class ScenarioError(ConfigError):
    """Scenario file or definition rejected; messages carry line numbers."""


@dataclass(frozen=True)
class LotSpec:
    """Lot population of one type: how many lots and which recipe."""

    id: int
    count: int
    recipe: Recipe


@dataclass(frozen=True)
class Scenario:
    name: str
    tick_hours: float
    machine_types: tuple[MachineType, ...]
    lot_specs: tuple[LotSpec, ...]

    def types_by_id(self) -> dict[int, MachineType]:
        return {mt.id: mt for mt in self.machine_types}

    def recipes(self) -> dict[int, Recipe]:
        return {ls.id: ls.recipe for ls in self.lot_specs}

    def total_lots(self) -> int:
        return sum(ls.count for ls in self.lot_specs)

    def total_machines(self) -> int:
        return sum(mt.machine_count for mt in self.machine_types)

    def rpt_ticks(self, lot_type: int) -> int:
        """Raw process ticks summed over the lot type's whole recipe."""
        types = self.types_by_id()
        recipe = self.recipes()[lot_type]
        return sum(types[m].raw_process_ticks for m in recipe)

    def validate(self) -> None:
        if self.tick_hours <= 0:
            raise ScenarioError("tick_hours must be positive")
        if not self.machine_types:
            raise ScenarioError("at least one machine type is required")
        ids = [mt.id for mt in self.machine_types]
        if len(ids) != len(set(ids)):
            raise ScenarioError("duplicate machine type ids")
        known = set(ids)
        seen = set()
        for ls in self.lot_specs:
            if ls.id in seen:
                raise ScenarioError(f"duplicate lot type {ls.id}")
            seen.add(ls.id)
            if ls.count < 0:
                raise ScenarioError(f"lot type {ls.id}: count must be >= 0")
            if not ls.recipe:
                raise ScenarioError(f"lot type {ls.id}: recipe must not be empty")
            for step in ls.recipe:
                if step not in known:
                    raise ScenarioError(
                        f"lot type {ls.id}: recipe references unknown machine type {step}")


def hours_to_ticks(hours: float, tick_hours: float) -> int:
    """Convert a duration to ticks, rejecting non-integral results."""
    ticks = hours / tick_hours
    rounded = round(ticks)
    if abs(ticks - rounded) > 1e-6:
        raise ScenarioError(
            f"{hours} h is not a whole number of {tick_hours} h ticks")
    return rounded


def parse_scenario(text: str) -> Scenario:
    """Parse and validate a scenario file; raises ScenarioError on bad input."""
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
    machine_ids: set[int] = set()
    for line_no, tok in entries:
        head = tok[0]
        if head == "tick_hours":
            continue
        if head == "scenario":
            if name is not None:
                raise ScenarioError(f"line {line_no}: scenario name given twice")
            if len(tok) < 2:
                raise ScenarioError(f"line {line_no}: scenario needs a name")
            name = " ".join(tok[1:])
        elif head == "machinetype":
            mt = _parse_machinetype(tok, line_no, tick_hours)
            if mt.id in machine_ids:
                raise ScenarioError(f"line {line_no}: duplicate machine type {mt.id}")
            machine_ids.add(mt.id)
            machine_types.append(mt)
        elif head != "lottype":
            raise ScenarioError(f"line {line_no}: unknown directive {head!r}")

    lot_specs: list[LotSpec] = []
    lot_ids: set[int] = set()
    for line_no, tok in entries:
        if tok[0] != "lottype":
            continue
        ls = _parse_lottype(tok, line_no, machine_ids)
        if ls.id in lot_ids:
            raise ScenarioError(f"line {line_no}: duplicate lot type {ls.id}")
        lot_ids.add(ls.id)
        lot_specs.append(ls)

    scenario = Scenario(name or "unnamed", tick_hours,
                        tuple(machine_types), tuple(lot_specs))
    scenario.validate()
    return scenario


def serialize_scenario(scenario: Scenario) -> str:
    """Render a scenario in the file format; parse_scenario inverts it."""
    lines = [
        f"scenario {scenario.name}",
        f"tick_hours {scenario.tick_hours:g}",
    ]
    for mt in scenario.machine_types:
        line = (f"machinetype {mt.id} kind {mt.kind.value} count {mt.machine_count}"
                f" rpt_hours {mt.raw_process_ticks * scenario.tick_hours:g}")
        if mt.kind is MachineKind.BATCH:
            line += f" bs {mt.batch_size} wt_hours {mt.wt_ticks * scenario.tick_hours:g}"
        lines.append(line)
    for ls in scenario.lot_specs:
        steps = " ".join(str(s) for s in ls.recipe)
        lines.append(f"lottype {ls.id} count {ls.count} recipe {steps}")
    return "\n".join(lines) + "\n"


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


def _parse_lottype(tok: list[str], line_no: int, machine_ids: set[int]) -> LotSpec:
    if len(tok) < 6 or tok[2] != "count" or tok[4] != "recipe":
        raise ScenarioError(
            f"line {line_no}: expected 'lottype <t> count <n> recipe <steps...>'")
    lid = _parse_int(tok[1], line_no, "lot type id")
    count = _parse_int(tok[3], line_no, "count")
    if count < 0:
        raise ScenarioError(f"line {line_no}: count must be >= 0")
    recipe = tuple(_parse_int(t, line_no, "recipe step") for t in tok[5:])
    for step in recipe:
        if step not in machine_ids:
            raise ScenarioError(
                f"line {line_no}: recipe references unknown machine type {step}")
    return LotSpec(lid, count, recipe)


def default_divergence(lot_type: int, layer: int) -> int:
    """Finishing workcenter for one layer: alternates between types 3 and 4 by
    the parity of lot type + layer, balancing their load."""
    return 3 + (lot_type + layer) % 2


def small_fab_recipe(lot_type: int, layers: int = 4,
                     divergence: Callable[[int, int], int] = default_divergence) -> Recipe:
    """Per layer: workcenters 0 -> 1 -> 2 (batch) -> finishing workcenter."""
    steps: list[int] = []
    for layer in range(layers):
        steps += [0, 1, 2, divergence(lot_type, layer)]
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
