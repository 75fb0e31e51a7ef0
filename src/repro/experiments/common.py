"""Shared infrastructure for the experiment harnesses.

Results are served through the farm artifact store
(:mod:`repro.farm.api`): one functional trace per (benchmark, compile
flavour) drives every analysis and timing replay, each cell persists as
a ``repro.metrics/1`` snapshot keyed by a deterministic fingerprint, and
warm re-runs -- including a second harness reading the same cells, or a
whole resumed sweep -- are cache hits. Only a small bounded window of
deserialized results is held in memory, so the full 19-benchmark x
8-flavour sweep no longer accumulates every ``SimResult`` and
``TraceAnalysis`` at once (the old unbounded ``lru_cache``s did).

All cells execute on the predecoded fast-dispatch engine
(:mod:`repro.cpu.predecode`): traces are captured through
:meth:`CPU.run_trace` and replayed through
:func:`repro.cpu.tracefile.replay_into`, which is bit-for-bit equivalent
to the ``step()`` spec interpreter (see docs/performance.md) -- snapshots
produced before this engine existed remain valid cache hits.

Set ``REPRO_SUITE`` to a comma-separated subset (e.g.
``REPRO_SUITE=compress,alvinn``) to bound harness run time,
``REPRO_FARM_DIR`` to relocate the artifact store, and ``REPRO_FARM=off``
to disable persistence entirely. ``repro farm run`` fills the same store
in parallel; see docs/experiments.md.
"""

from __future__ import annotations

import os

from repro.analysis.prediction import TraceAnalysis
from repro.fac.config import FacConfig
from repro.farm import api as farm
from repro.pipeline.config import MachineConfig
from repro.pipeline.result import SimResult
from repro.workloads.suite import BENCHMARKS, FP_BENCHMARKS, INT_BENCHMARKS

MAX_INSTRUCTIONS = 10_000_000

# Machine flavours used across the experiments.
MACHINES: dict[str, MachineConfig] = {
    "base": MachineConfig(),
    "1cyc": MachineConfig(one_cycle_loads=True),
    "perfect": MachineConfig(perfect_dcache=True),
    "1cyc+perfect": MachineConfig(one_cycle_loads=True, perfect_dcache=True),
    "fac16": MachineConfig(fac=FacConfig(block_size=16)),
    "fac32": MachineConfig(fac=FacConfig(block_size=32)),
    "fac16norr": MachineConfig(fac=FacConfig(block_size=16, speculate_reg_reg=False)),
    "fac32norr": MachineConfig(fac=FacConfig(block_size=32, speculate_reg_reg=False)),
}


def suite_names(benchmarks=None) -> tuple[str, ...]:
    """The benchmarks to run: an explicit list, $REPRO_SUITE, or all 19."""
    if benchmarks:
        return tuple(benchmarks)
    env = os.environ.get("REPRO_SUITE", "").strip()
    if env:
        names = tuple(n.strip() for n in env.split(",") if n.strip())
        unknown = [n for n in names if n not in BENCHMARKS]
        if unknown:
            raise KeyError(f"unknown benchmarks in REPRO_SUITE: {unknown}")
        return names
    return tuple(BENCHMARKS)


def analysis_for(name: str, software_support: bool) -> TraceAnalysis:
    """Store-backed functional-trace analysis of one benchmark build."""
    return farm.analysis_for(name, software_support,
                             max_instructions=MAX_INSTRUCTIONS)


def sim_for(name: str, software_support: bool, machine: str) -> SimResult:
    """Store-backed timing simulation of one benchmark on one flavour."""
    return farm.sim_for(name, software_support, MACHINES[machine],
                        label=machine, max_instructions=MAX_INSTRUCTIONS)


def clear_caches() -> None:
    """Drop the bounded in-memory window (not the on-disk store)."""
    farm.clear_memo()


def weighted_average(names, values: dict[str, float],
                     weights: dict[str, float]) -> float:
    """Run-time (cycle) weighted average, as the paper's Int/FP-Avg bars."""
    total_weight = sum(weights[n] for n in names)
    if total_weight == 0:
        return 0.0
    return sum(values[n] * weights[n] for n in names) / total_weight


def split_by_category(names) -> tuple[list[str], list[str]]:
    ints = [n for n in names if n in INT_BENCHMARKS]
    fps = [n for n in names if n in FP_BENCHMARKS]
    return ints, fps
