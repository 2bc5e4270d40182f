"""Deterministic discrete-event simulator for role-based mutual monitoring
in a lossy cyber-physical sensor network."""

from .kernel import Engine, FaultKind, FaultSpec
from .metrics import ComparisonReport, Recorder, RunReport
from .model import (
    BROADCAST,
    CMU_ID,
    Category,
    Cause,
    Envelope,
    EnvelopeKind,
    Notification,
    NodeStatus,
    Role,
    Severity,
    SimError,
)
from .protocol import (
    MonitorState,
    Network,
    RoleChange,
    RoleChangeReason,
    SuccessionTable,
    assign_initial_roles,
    record_packet_outcome,
)
from .runner import RunResult, build_simulation, compare_profiles, run_scenario
from .scenario import ScenarioConfig, ScenarioError, load_scenario, parse_scenario
from .security import KeyRegistry, ProfileKind, SecurityProfile

__version__ = "0.1.0"

__all__ = [
    "BROADCAST",
    "CMU_ID",
    "Category",
    "Cause",
    "ComparisonReport",
    "Engine",
    "Envelope",
    "EnvelopeKind",
    "FaultKind",
    "FaultSpec",
    "KeyRegistry",
    "MonitorState",
    "Network",
    "NodeStatus",
    "Notification",
    "ProfileKind",
    "Recorder",
    "Role",
    "RoleChange",
    "RoleChangeReason",
    "RunReport",
    "RunResult",
    "ScenarioConfig",
    "ScenarioError",
    "SecurityProfile",
    "Severity",
    "SimError",
    "SuccessionTable",
    "assign_initial_roles",
    "build_simulation",
    "compare_profiles",
    "load_scenario",
    "parse_scenario",
    "record_packet_outcome",
    "run_scenario",
]
