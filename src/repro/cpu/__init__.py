"""Functional (architectural) simulator for the extended-MIPS target."""

from repro.cpu.executor import CPU, TraceRecord
from repro.cpu.state import ArchState
from repro.cpu.tracefile import (
    record_trace,
    replay_into,
    simulate_trace,
)

__all__ = ["CPU", "TraceRecord", "ArchState",
           "record_trace", "replay_into", "simulate_trace"]
