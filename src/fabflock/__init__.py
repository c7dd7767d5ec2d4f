"""Tick-based job-shop plant simulator with pluggable scheduling policies."""

from .baseline import Policy, pick_uniform, shuffle
from .engine import (
    SimState,
    SimulationAbort,
    audit_state,
    init_run,
    run_to_completion,
    tick,
)
from .flocking import DEFAULT_FLSQ_LEN
from .metrics import (
    LotRecord,
    MetricsSummary,
    RunResult,
    flow_factor,
    summarize,
    tardiness,
    utilization,
)
from .model import (
    Batch,
    ConfigError,
    Lot,
    Machine,
    MachineKind,
    MachineType,
    MultiQueue,
    Recipe,
    Workcenter,
)
from .scenario import (
    LotSpec,
    Scenario,
    ScenarioError,
    build_small_fab,
    parse_scenario,
    serialize_scenario,
    small_fab_recipe,
)

__version__ = "0.1.0"

__all__ = [
    "Batch",
    "ConfigError",
    "DEFAULT_FLSQ_LEN",
    "Lot",
    "LotRecord",
    "LotSpec",
    "Machine",
    "MachineKind",
    "MachineType",
    "MetricsSummary",
    "MultiQueue",
    "Policy",
    "Recipe",
    "RunResult",
    "Scenario",
    "ScenarioError",
    "SimState",
    "SimulationAbort",
    "Workcenter",
    "audit_state",
    "build_small_fab",
    "flow_factor",
    "init_run",
    "parse_scenario",
    "pick_uniform",
    "run_to_completion",
    "serialize_scenario",
    "shuffle",
    "small_fab_recipe",
    "summarize",
    "tardiness",
    "tick",
    "utilization",
]
