#!/usr/bin/env python3
"""Spec-oracle equivalence checker: ``CPU.step`` vs the production paths.

``CPU.step`` is the specification interpreter and ``TraceAnalyzer`` the
specification analyzer; no production path calls either. For each
requested benchmark this drives them directly and verifies, bit for
bit:

1. the tracefile: ``replay_into`` on a ``record_trace`` file hands over
   exactly the ``CPU.step`` record stream, field for field, and the
   recording executor ends in the step loop's architectural state,
   stdout, retired count and memory usage,
2. ``TraceAnalysis`` ``repro.metrics/1`` snapshots from a step-driven
   ``TraceAnalyzer``, from ``analyze_program`` (live, columnar) *and*
   from ``analyze_trace`` on the recorded tracefile,
3. ``SimResult`` snapshots from a step-and-feed pipeline loop, from
   ``simulate_program`` and from the trace-replay path, across several
   machine flavours.

Run with no arguments for one representative benchmark (the CI
``sim-equivalence`` job), name benchmarks explicitly, or pass ``all``
for the full 19-program suite::

    python tools/check_sim_equivalence.py
    python tools/check_sim_equivalence.py compress tomcatv
    python tools/check_sim_equivalence.py --max-instructions 500000 all

Exits non-zero on the first benchmark with any divergence.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

os.environ.setdefault("REPRO_FARM", "off")

from repro.analysis.prediction import (
    TraceAnalyzer,
    analyze_program,
    analyze_trace,
)
from repro.cpu.executor import CPU
from repro.cpu.tracefile import record_trace, replay_into, simulate_trace
from repro.fac.config import FacConfig
from repro.farm.snapshots import analysis_to_snapshot, sim_to_snapshot
from repro.pipeline.config import MachineConfig
from repro.pipeline.pipeline import PipelineSimulator, simulate_program
from repro.workloads.suite import BENCHMARKS, build_benchmark

MACHINES = {
    "base": MachineConfig(),
    "fac32": MachineConfig(fac=FacConfig(block_size=32)),
    "fac16norr": MachineConfig(fac=FacConfig(block_size=16,
                                             speculate_reg_reg=False)),
}


def canon(snapshot: dict) -> str:
    return json.dumps(snapshot, sort_keys=True)


def fields(rec) -> tuple:
    return (rec.pc, id(rec.inst), rec.ea, rec.base_value, rec.offset_value,
            rec.taken, rec.next_pc)


class StepLockstep:
    """Replay consumer that steps a spec CPU alongside the recorded
    stream and counts records whose fields differ."""

    def __init__(self, program, max_instructions: int):
        self.cpu = CPU(program)
        self.budget = max_instructions
        self.mismatches = 0

    def _check(self, got: tuple) -> None:
        if self.cpu.halted or self.budget <= 0:
            self.mismatches += 1    # the recording ran past the spec
            return
        self.budget -= 1
        if fields(self.cpu.step()) != got:
            self.mismatches += 1

    def trace_plain(self, pc, inst) -> None:
        self._check((pc, id(inst), None, 0, 0, None, pc + 4))

    def trace_mem(self, rec) -> None:
        self._check(fields(rec))

    trace_branch = trace_mem


def check_benchmark(name: str, max_instructions: int, scratch: str) -> list[str]:
    problems: list[str] = []
    program = build_benchmark(name, software_support=False)

    # 1. tracefile records + final executor state
    path = os.path.join(scratch, f"{name}.fact.gz")
    cpu = CPU(program)
    record_trace(program, path, max_instructions, cpu=cpu)
    lockstep = StepLockstep(program, max_instructions)
    replay_into(program, path, lockstep)
    spec = lockstep.cpu
    if lockstep.mismatches or (not spec.halted and lockstep.budget > 0):
        problems.append("replayed records differ from the step stream")
    if (cpu.instructions_retired != spec.instructions_retired
            or cpu.stdout() != spec.stdout()
            or cpu.memory_usage != spec.memory_usage
            or cpu.state.snapshot() != spec.state.snapshot()):
        problems.append("executor state differs after record_trace")

    # 2. analysis snapshots: step-driven spec, live, replay
    analyzer = TraceAnalyzer(per_pc=True)
    spec = CPU(program)
    budget = max_instructions
    while not spec.halted and budget > 0:
        analyzer.observe(spec.step())
        budget -= 1
    meta = {"cell": "equivalence"}
    stepped = canon(analysis_to_snapshot(
        analyzer.result(memory_usage=spec.memory_usage,
                        stdout=spec.stdout()), meta=meta))
    live = canon(analysis_to_snapshot(
        analyze_program(program, per_pc=True,
                        max_instructions=max_instructions), meta=meta))
    replayed = canon(analysis_to_snapshot(
        analyze_trace(program, path, per_pc=True,
                      memory_usage=cpu.memory_usage, stdout=cpu.stdout()),
        meta=meta))
    if stepped != live:
        problems.append("analysis snapshot differs between step and live")
    if live != replayed:
        problems.append("analysis snapshot differs between live and replay")

    # 3. timing snapshots: step-and-feed, live, replay; several flavours
    for label, machine in MACHINES.items():
        spec = CPU(program)
        pipe = PipelineSimulator(machine)
        budget = max_instructions
        while not spec.halted and budget > 0:
            pipe.feed(spec.step())
            budget -= 1
        stepped = canon(sim_to_snapshot(
            pipe.finalize(memory_usage=spec.memory_usage), meta=meta))
        live = canon(sim_to_snapshot(
            simulate_program(program, machine,
                             max_instructions=max_instructions), meta=meta))
        traced = canon(sim_to_snapshot(
            simulate_trace(program, path, machine,
                           memory_usage=cpu.memory_usage), meta=meta))
        if stepped != live:
            problems.append(f"sim snapshot differs step vs live ({label})")
        if live != traced:
            problems.append(f"sim snapshot differs live vs replay ({label})")
    return problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("benchmarks", nargs="*", default=["compress"],
                        help="benchmark names, or 'all' (default: compress)")
    parser.add_argument("--max-instructions", type=int, default=300_000)
    args = parser.parse_args(argv)

    names = tuple(args.benchmarks)
    if names == ("all",):
        names = tuple(BENCHMARKS)
    unknown = [n for n in names if n not in BENCHMARKS]
    if unknown:
        parser.error(f"unknown benchmarks: {unknown}")

    failures = 0
    with tempfile.TemporaryDirectory(prefix="sim-equivalence-") as scratch:
        for name in names:
            problems = check_benchmark(name, args.max_instructions, scratch)
            if problems:
                failures += 1
                for problem in problems:
                    print(f"{name}: FAIL - {problem}")
            else:
                print(f"{name}: ok")
    if failures:
        print(f"{failures}/{len(names)} benchmarks diverged", file=sys.stderr)
        return 1
    print(f"all {len(names)} benchmarks bit-for-bit equivalent to the spec")
    return 0


if __name__ == "__main__":
    sys.exit(main())
