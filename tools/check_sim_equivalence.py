#!/usr/bin/env python3
"""Spec-oracle equivalence checker: ``CPU.step`` vs the production paths.

``CPU.step`` is the specification interpreter and ``TraceAnalyzer`` the
specification analyzer; no production path calls either. For each
requested benchmark this drives them directly and verifies, bit for
bit:

1. the tracefile: ``replay_into`` on a ``record_trace`` file hands over
   exactly the ``CPU.step`` record stream, field for field, and both
   the recording executor and a consumer-less ``CPU.run`` end in the
   step loop's architectural state, stdout, retired count and memory
   usage,
2. ``TraceAnalysis`` ``repro.metrics/1`` snapshots from a step-driven
   ``TraceAnalyzer``, from ``analyze_program`` (live, columnar) *and*
   from ``analyze_trace`` on the recorded tracefile,
3. ``SimResult`` snapshots from a step-and-feed pipeline loop, from
   ``simulate_program`` (the live-fed engine) and from the production
   timing job's shape -- one grouped ``time_flavours`` call that
   decodes the trace once for all eight Table 5 flavours of
   ``repro.experiments.common.MACHINES``,
4. ``profile_program``'s per-site D-cache accesses, misses and FAC
   replays and its ``profile.load_latency`` histogram, against the
   step-fed pipeline's counter tap (``tests.oracles.SiteCounters``),
5. ``repro trace --format jsonl`` (``repro.obs.trace.trace_program``):
   each instruction's pc, issue, ready and cache-access cycles, FAC
   outcome and hit/mispredict flag, against the step-fed pipeline's
   per-instruction tap (``tests.oracles.FlightTap``).

Run with no arguments for one representative benchmark, name
benchmarks explicitly (the CI ``sim-equivalence`` job checks
``compress tomcatv xlisp``), or pass ``all`` for the full 19-program
suite::

    python tools/check_sim_equivalence.py
    python tools/check_sim_equivalence.py compress tomcatv xlisp
    python tools/check_sim_equivalence.py --max-instructions 500000 all

Each benchmark's line also reports the recurrence memos of one shared
``Front`` over the same eight flavours (``Front.memo_stats``): the
windows looked up and hit, the lowest flavour's hit rate and the
largest memo.

Exits non-zero if any benchmark diverges.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

os.environ.setdefault("REPRO_FARM", "off")
# the shared oracles live in the repository's test package
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(
    __file__))))

from repro.analysis.prediction import (
    TraceAnalyzer,
    analyze_program,
    analyze_trace,
)
from repro.cpu.executor import CPU
from repro.cpu.tracefile import record_trace, replay_into
from repro.errors import SimulationError
from repro.experiments.common import MACHINES
from repro.fac.config import FacConfig
from repro.farm.snapshots import analysis_to_snapshot, sim_to_snapshot
from repro.isa.opcodes import Op
from repro.obs.flight import FAC_NONE, FAC_NOSPEC, FAC_PREDICT, FAC_REPLAY
from repro.obs.profile import profile_program
from repro.obs.trace import trace_program
from repro.pipeline.config import MachineConfig
from repro.pipeline.pipeline import PipelineSimulator, simulate_program
from repro.pipeline.replay import Front, time_flavours
from repro.workloads.suite import BENCHMARKS, build_benchmark
from tests.oracles import FlightTap, SiteCounters

#: the machine ``profile_program`` times on (its defaults)
PROFILE_MACHINE = MachineConfig(fac=FacConfig(cache_size=16 * 1024,
                                              block_size=32))
#: the machine ``repro trace`` times on (its default)
TRACE_MACHINE = MachineConfig(fac=FacConfig())


def canon(snapshot: dict) -> str:
    return json.dumps(snapshot, sort_keys=True)


def fields(rec) -> tuple:
    return (rec.pc, id(rec.inst), rec.ea, rec.base_value, rec.offset_value,
            rec.taken, rec.next_pc)


def same_end_state(a: CPU, b: CPU) -> bool:
    return (a.instructions_retired == b.instructions_retired
            and a.stdout() == b.stdout()
            and a.memory_usage == b.memory_usage
            and a.state.snapshot() == b.state.snapshot())


def bare_run(program, max_instructions: int) -> CPU:
    """A ``CPU.run`` with no consumer; stopping on the budget is not a
    divergence (the step loop stops there too)."""
    cpu = CPU(program)
    try:
        cpu.run(max_instructions)
    except SimulationError:
        if cpu.halted or cpu.instructions_retired != max_instructions:
            raise
    return cpu


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

    def retire(self, pc, inst, rec) -> None:
        if rec is None:
            self._check((pc, id(inst), None, 0, 0, None, pc + 4))
        else:
            self._check(fields(rec))


def trace_rows(program, lines):
    """``repro trace`` JSONL lines as :class:`FlightTap` rows: each
    ``inst.retired`` with the ``mem.access`` or ``branch`` record
    written before it (a direct jump has neither; its flag is 0)."""
    before = None
    for line in lines:
        record = json.loads(line)
        event = record["event"]
        if event in ("mem.access", "branch"):
            before = record
        elif event == "inst.retired":
            pc = record["pc"]
            fac, flag = FAC_NONE, -1
            if before is not None and before["event"] == "mem.access":
                fac = (FAC_NOSPEC if not before["speculated"]
                       else FAC_PREDICT if before["fac_success"]
                       else FAC_REPLAY)
                flag = int(before["hit"])
            elif before is not None:
                flag = int(before["mispredicted"])
            elif program.instruction_at(pc).op in (Op.J, Op.JAL):
                flag = 0
            yield (pc, record["issue"], record["ready"], record["mem"],
                   fac, flag)
            before = None


def memo_report(stats: dict) -> str:
    """One line summing a front's per-flavour memo statistics."""
    windows = sum(s["windows"] for s in stats.values())
    hits = sum(s["hits"] for s in stats.values())
    lowest = min(s["hits"] / s["windows"] if s["windows"] else 0.0
                 for s in stats.values())
    peak = max(s["entries"] for s in stats.values())
    rate = hits / windows if windows else 0.0
    return (f"memo {hits}/{windows} windows hit ({rate:.3f}, lowest "
            f"flavour {lowest:.3f}), at most {peak} entries")


def check_benchmark(name: str, max_instructions: int, scratch: str
                    ) -> tuple[list[str], str]:
    problems: list[str] = []
    program = build_benchmark(name, software_support=False)

    # 1. tracefile records + final executor state, recording and bare
    path = os.path.join(scratch, f"{name}.fact.gz")
    cpu = CPU(program)
    record_trace(program, path, max_instructions, cpu=cpu)
    lockstep = StepLockstep(program, max_instructions)
    replay_into(program, path, lockstep)
    spec = lockstep.cpu
    if lockstep.mismatches or (not spec.halted and lockstep.budget > 0):
        problems.append("replayed records differ from the step stream")
    if not same_end_state(cpu, spec):
        problems.append("executor state differs after record_trace")
    if not same_end_state(bare_run(program, max_instructions), spec):
        problems.append("executor state differs after a bare CPU.run")

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

    # 3. timing snapshots on every flavour: one step loop feeding a
    # pipeline per flavour (and the site tap on the profiler's machine,
    # the per-instruction tap on the tracer's), live runs, and one
    # grouped replay
    pipes = [PipelineSimulator(machine) for machine in MACHINES.values()]
    tap = SiteCounters(PROFILE_MACHINE)
    flight = FlightTap(TRACE_MACHINE)
    pipes += [tap, flight]
    spec = CPU(program)
    budget = max_instructions
    while not spec.halted and budget > 0:
        rec = spec.step()
        for pipe in pipes:
            pipe.feed(rec)
        budget -= 1
    grouped = time_flavours(program, path, list(MACHINES.values()),
                            memory_usage=cpu.memory_usage)
    for (label, machine), pipe, traced in zip(MACHINES.items(), pipes,
                                              grouped):
        stepped = canon(sim_to_snapshot(
            pipe.finalize(memory_usage=spec.memory_usage), meta=meta))
        live = canon(sim_to_snapshot(
            simulate_program(program, machine,
                             max_instructions=max_instructions), meta=meta))
        if stepped != live:
            problems.append(f"sim snapshot differs step vs live ({label})")
        if stepped != canon(sim_to_snapshot(traced, meta=meta)):
            problems.append(
                f"sim snapshot differs step vs grouped replay ({label})")

    # 4. the profiler's per-site rows and load latencies
    profile = profile_program(program, name=name,
                              max_instructions=max_instructions)
    rows = {site.pc: [site.timing_accesses, site.misses, site.replays]
            for site in profile.sites}
    if rows != tap.per_pc:
        problems.append("profile site rows differ from the step site tap")
    latency = profile.registry.histogram("profile.load_latency")
    if dict(latency.items()) != tap.load_latency:
        problems.append("profile load latencies differ from the step tap")

    # 5. repro trace's per-instruction records
    jsonl = os.path.join(scratch, f"{name}.trace.jsonl")
    with open(jsonl, "w") as stream:
        trace_program(program, stream, fmt="jsonl",
                      max_instructions=max_instructions)
    with open(jsonl) as stream:
        if list(trace_rows(program, stream)) != flight.rows:
            problems.append("repro trace records differ from the step "
                            "per-instruction tap")
    os.unlink(jsonl)

    # the memo statistics, from a front of their own: time_flavours
    # does not hand out its fronts
    front = Front(program, path, MACHINES.values())
    front.result(front.machines[0])
    return problems, memo_report(front.memo_stats)


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
            problems, memo = check_benchmark(name, args.max_instructions,
                                             scratch)
            if problems:
                failures += 1
                for problem in problems:
                    print(f"{name}: FAIL - {problem}")
            else:
                print(f"{name}: ok; {memo}")
    if failures:
        print(f"{failures}/{len(names)} benchmarks diverged", file=sys.stderr)
        return 1
    print(f"all {len(names)} benchmarks bit-for-bit equivalent to the spec")
    return 0


if __name__ == "__main__":
    sys.exit(main())
