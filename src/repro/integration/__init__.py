"""Integrated-research-infrastructure scenarios (Req 10)."""

from .incast import (
    IncastConfig,
    IncastError,
    IncastReport,
    grid_configs,
    run_grid,
    run_incast,
    small_grid,
)
from .multiflow import MultiFlowConfig, MultiFlowOrchestrator, MultiFlowReport
from .orchestrator import InstrumentRegistration, Orchestrator, TriggerRecord
from .transport import MmtTriggerTransport, TRIGGER_EXPERIMENT, decode_trigger, encode_trigger
from .supernova import (
    ALERT_TOPIC,
    CANDIDATE_BYTES,
    SupernovaConfig,
    SupernovaResult,
    SupernovaScenario,
    compare,
)

__all__ = [
    "ALERT_TOPIC",
    "CANDIDATE_BYTES",
    "IncastConfig",
    "IncastError",
    "IncastReport",
    "InstrumentRegistration",
    "MmtTriggerTransport",
    "MultiFlowConfig",
    "MultiFlowOrchestrator",
    "MultiFlowReport",
    "TRIGGER_EXPERIMENT",
    "Orchestrator",
    "SupernovaConfig",
    "SupernovaResult",
    "SupernovaScenario",
    "TriggerRecord",
    "compare",
    "decode_trigger",
    "encode_trigger",
    "grid_configs",
    "run_grid",
    "run_incast",
    "small_grid",
]
