"""Simulator-throughput gate and micro-benchmarks.

The predecoded fast-dispatch engine (:mod:`repro.cpu.predecode`) must
beat the legacy ``step()`` interpreter by the targets this PR shipped
with: **>=2.5x** functional-simulator throughput and **>=1.5x**
end-to-end timing-simulator throughput. The legacy engine's rates are
recorded in ``benchmarks/sim_baseline.json``; like
``benchmarks/obs_baseline.json`` the file carries a host fingerprint,
and on a different interpreter or machine the gate re-measures the
legacy engine -- the ``step()`` spec interpreter, driven by an inline
loop here -- and re-records instead of comparing apples to oranges.
Delete the file to force re-recording.

The timing measurement runs a detached pipeline (no flight ring, no
site tap), so the gate doubles as the "no new per-instruction
observability overhead" check for the streaming path (the feed-loop
equivalent lives in ``test_obs_overhead.py``).

The ``pytest-benchmark`` micro-benchmarks at the bottom report absolute
rates for both engines and the predictor circuit.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.cpu import CPU
from repro.fac import FacConfig, FastAddressCalculator
from repro.pipeline import MachineConfig, PipelineSimulator
from repro.workloads import build_benchmark

sys.path.insert(0, str(Path(__file__).parent))
from _host import fingerprint  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "sim_baseline.json"
BASELINE_SCHEMA = "repro.sim-baseline/1"
WORKLOADS = ("yacr2", "compress")
FUNCTIONAL_TARGET = 2.5
TIMING_TARGET = 1.5
REPEATS = 3


def _programs():
    return [build_benchmark(name) for name in WORKLOADS]


def step_run(cpu, max_instructions: int = 100_000_000) -> None:
    """Run ``cpu`` to exit on the ``step()`` interpreter under an
    instruction budget."""
    step = cpu.step
    budget = max_instructions
    while not cpu.halted and budget > 0:
        step()
        budget -= 1


def functional_rate(programs, engine: str) -> float:
    """Best-of-N architectural-simulation throughput (instr/s)."""
    best = 0.0
    for __ in range(REPEATS):
        instructions = 0
        start = time.perf_counter()
        for program in programs:
            cpu = CPU(program)
            if engine == "step":
                step_run(cpu)
            else:
                cpu.run()
            instructions += cpu.instructions_retired
        elapsed = time.perf_counter() - start
        best = max(best, instructions / elapsed)
    return best


def timing_rate(programs, engine: str) -> float:
    """Best-of-N end-to-end timing-simulation throughput (instr/s),
    functional execution included, with a null observer attached."""
    best = 0.0
    for __ in range(REPEATS):
        instructions = 0
        start = time.perf_counter()
        for program in programs:
            cpu = CPU(program)
            pipe = PipelineSimulator(MachineConfig(fac=FacConfig()))
            if engine == "step":
                feed = pipe.feed
                step = cpu.step
                while not cpu.halted:
                    feed(step())
            else:
                cpu.run_trace(pipe)
            instructions += pipe.finalize().instructions
        elapsed = time.perf_counter() - start
        best = max(best, instructions / elapsed)
    return best


def record_baseline(programs) -> dict:
    payload = {
        "schema": BASELINE_SCHEMA,
        "workloads": list(WORKLOADS),
        "engine": "step",
        "functional_instructions_per_second":
            functional_rate(programs, "step"),
        "timing_instructions_per_second": timing_rate(programs, "step"),
        "fingerprint": fingerprint(),
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                             + "\n")
    return payload


def step_baseline(programs) -> dict:
    """The legacy engine's recorded rates, re-measured off-host."""
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        if (baseline.get("schema") == BASELINE_SCHEMA
                and baseline.get("fingerprint") == fingerprint()
                and tuple(baseline.get("workloads", ())) == WORKLOADS):
            return baseline
    return record_baseline(programs)


def test_functional_speedup_target():
    programs = _programs()
    baseline = step_baseline(programs)
    reference = baseline["functional_instructions_per_second"]
    rate = functional_rate(programs, "predecoded")
    speedup = rate / reference
    assert speedup >= FUNCTIONAL_TARGET, (
        f"predecoded functional simulator runs at {rate:.0f} instr/s vs "
        f"the legacy baseline {reference:.0f} instr/s ({speedup:.2f}x < "
        f"{FUNCTIONAL_TARGET}x target)")


def test_timing_speedup_target():
    programs = _programs()
    baseline = step_baseline(programs)
    reference = baseline["timing_instructions_per_second"]
    rate = timing_rate(programs, "predecoded")
    speedup = rate / reference
    assert speedup >= TIMING_TARGET, (
        f"predecoded timing simulator runs at {rate:.0f} instr/s vs "
        f"the legacy baseline {reference:.0f} instr/s ({speedup:.2f}x < "
        f"{TIMING_TARGET}x target)")


# ------------------------------------------------------------------ #
# pytest-benchmark micro-benchmarks (absolute rates, both engines)

def test_functional_simulator_throughput(benchmark):
    program = build_benchmark("yacr2")

    def run():
        cpu = CPU(program)
        cpu.run(10_000_000)
        return cpu.instructions_retired

    retired = benchmark(run)
    assert retired > 10_000


def test_functional_simulator_throughput_legacy(benchmark):
    program = build_benchmark("yacr2")

    def run():
        cpu = CPU(program)
        step_run(cpu, 10_000_000)
        return cpu.instructions_retired

    retired = benchmark(run)
    assert retired > 10_000


def test_timing_simulator_throughput(benchmark):
    program = build_benchmark("yacr2")

    def run():
        cpu = CPU(program)
        pipe = PipelineSimulator(MachineConfig(fac=FacConfig()))
        cpu.run_trace(pipe)
        return pipe.finalize().instructions

    instructions = benchmark(run)
    assert instructions > 10_000


def test_timing_simulator_throughput_legacy(benchmark):
    program = build_benchmark("yacr2")

    def run():
        cpu = CPU(program)
        pipe = PipelineSimulator(MachineConfig(fac=FacConfig()))
        while not cpu.halted:
            pipe.feed(cpu.step())
        return pipe.finalize().instructions

    instructions = benchmark(run)
    assert instructions > 10_000


def test_predictor_throughput(benchmark):
    fac = FastAddressCalculator(FacConfig())
    cases = [(0x10000000 + i * 52, (i * 37) % 4096 - 64, i % 3 == 0)
             for i in range(1000)]

    def run():
        hits = 0
        for base, offset, is_reg in cases:
            hits += fac.predict(base, offset, is_reg).success
        return hits

    hits = benchmark(run)
    assert 0 < hits <= 1000
