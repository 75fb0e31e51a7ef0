"""The 4-way in-order superscalar timing simulator of Table 5."""

from repro.pipeline.btb import BranchTargetBuffer
from repro.pipeline.config import MachineConfig
from repro.pipeline.pipeline import (
    PipelineSimulator,
    SiteCounters,
    simulate_program,
)
from repro.pipeline.result import SimResult
from repro.pipeline.tracer import TracedRun, trace_program

__all__ = [
    "BranchTargetBuffer",
    "MachineConfig",
    "PipelineSimulator",
    "SimResult",
    "SiteCounters",
    "simulate_program",
    "TracedRun",
    "trace_program",
]
