"""Whole-stack equivalence against the spec oracles on a real suite
benchmark.

The production paths -- the predecoded interpreter, the tracefile, and
the columnar analyzer -- must be bit-for-bit equivalent to the
``step()`` spec interpreter and the scalar ``TraceAnalyzer`` everywhere
results leave the simulator: ``repro.metrics/1`` snapshots, stdout,
executor state and trace records. ``tools/check_sim_equivalence.py``
runs the same checks over the whole suite (the CI ``sim-equivalence``
job); this keeps one benchmark's worth in tier-1.
"""

import json

import pytest

from repro.analysis.prediction import analyze_program, analyze_trace
from repro.cpu import CPU
from repro.cpu.tracefile import record_trace, simulate_trace
from repro.fac import FacConfig
from repro.farm.snapshots import analysis_to_snapshot, sim_to_snapshot
from repro.pipeline import MachineConfig, simulate_program
from repro.workloads import build_benchmark
from tests.oracles import (
    MODES_ASM,
    asm_program,
    record_fields,
    replay_records,
    step_analysis,
    step_records,
    step_simulation,
)

BENCH = "compress"
BUDGET = 120_000


@pytest.fixture(scope="module")
def program():
    return build_benchmark(BENCH, software_support=False)


def canon(snapshot):
    return json.dumps(snapshot, sort_keys=True)


def test_tracefiles_and_state_identical(program, tmp_path):
    path = str(tmp_path / "trace.fact.gz")
    cpu = CPU(program)
    count = record_trace(program, path, BUDGET, cpu=cpu)
    spec, live = step_records(program, BUDGET)
    assert count == len(live)
    assert [record_fields(r) for r in replay_records(program, path)] == \
        [record_fields(r) for r in live]
    assert cpu.state.snapshot() == spec.state.snapshot()
    assert cpu.stdout() == spec.stdout()
    assert cpu.instructions_retired == spec.instructions_retired
    assert cpu.memory_usage == spec.memory_usage


def test_analysis_snapshots_identical(program, tmp_path):
    spec = canon(analysis_to_snapshot(
        step_analysis(program, per_pc=True, budget=BUDGET),
        meta={"cell": "equivalence"}))
    live = canon(analysis_to_snapshot(
        analyze_program(program, per_pc=True, max_instructions=BUDGET),
        meta={"cell": "equivalence"}))
    assert live == spec

    path = tmp_path / "trace.fact.gz"
    cpu = CPU(program)
    record_trace(program, str(path), BUDGET, cpu=cpu)
    replayed = canon(analysis_to_snapshot(
        analyze_trace(program, str(path), per_pc=True,
                      memory_usage=cpu.memory_usage, stdout=cpu.stdout()),
        meta={"cell": "equivalence"}))
    assert live == replayed


def test_sim_snapshots_identical(program, tmp_path):
    path = tmp_path / "trace.fact.gz"
    cpu = CPU(program)
    record_trace(program, str(path), BUDGET, cpu=cpu)
    for machine in (MachineConfig(), MachineConfig(fac=FacConfig())):
        spec = canon(sim_to_snapshot(
            step_simulation(program, machine, BUDGET),
            meta={"cell": "equivalence"}))
        live = canon(sim_to_snapshot(
            simulate_program(program, machine, max_instructions=BUDGET),
            meta={"cell": "equivalence"}))
        assert live == spec
        traced = canon(sim_to_snapshot(
            simulate_trace(program, str(path), machine,
                           memory_usage=cpu.memory_usage),
            meta={"cell": "equivalence"}))
        assert live == traced


@pytest.mark.parametrize("block_size", (16, 32))
@pytest.mark.parametrize("target", ("modes", BENCH))
def test_live_analysis_equals_spec(target, block_size, program, tmp_path):
    """``analyze_program`` (recorded straight into columns) equals the
    step-driven spec analyzer and the analysis of a recorded file:
    snapshot and per-PC tables."""
    if target == "modes":
        program = asm_program(MODES_ASM)
    sizes = (block_size,)
    live = analyze_program(program, block_sizes=sizes, per_pc=True,
                           max_instructions=BUDGET)
    spec = step_analysis(program, sizes, per_pc=True, budget=BUDGET)
    path = str(tmp_path / "trace.fact.gz")
    cpu = CPU(program)
    record_trace(program, path, BUDGET, cpu=cpu)
    replayed = analyze_trace(program, path, block_sizes=sizes, per_pc=True,
                             memory_usage=cpu.memory_usage,
                             stdout=cpu.stdout())
    assert live.instructions > 0 and live.per_pc[block_size]
    for other in (spec, replayed):
        assert canon(analysis_to_snapshot(live)) == \
            canon(analysis_to_snapshot(other))
        assert live.per_pc == other.per_pc
