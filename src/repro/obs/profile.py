"""Source-level FAC profiling: the engine behind ``repro profile``.

One functional execution (:meth:`CPU.run_trace`) feeds two consumers
at once, and a static pass adds the lint view; together they make a
per-site table:

* the **functional** view: the run is recorded in memory straight into
  numpy columns (:class:`repro.cpu.coltrace.ColumnRecorder`) and the
  vectorized analyzer runs on them
  (:func:`repro.analysis.batch.analyze_trace_columns` with
  ``per_pc=True``). It supplies exact per-PC access and
  prediction-failure counts at every requested block size -- by
  construction these agree with the Tables 3/4 numbers, and the test
  suite asserts it;
* the **timing** view: the same run feeds the replay engine's front
  live (:func:`repro.pipeline.replay.time_live`), on the FAC machine
  at the primary block size. The recurrence reports each memory
  access's outcome (accessed in EX, in MEM, or replayed) as a column,
  and :class:`SiteTally` sums it per site with ``np.bincount``,
  together with the front's static-index and D-miss columns, chunk by
  chunk: cache misses, FAC replays and load latencies as the pipeline
  actually scheduled them;
* the **static** pass (:func:`repro.analysis.analyze_static`) supplies
  the lint verdict for each site, so hot mispredicting sites can be
  cross-checked against ``repro lint`` (an ALWAYS site with a measured
  misprediction would be a soundness bug).

The same functional columns also yield the load-use-distance histogram
(:func:`repro.analysis.batch.load_use_distances`: instructions between
a load and the first consumer of its result) and the registry snapshot
embedded in ``to_json()``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.prediction import TraceAnalysis
from repro.analysis.static_fac import analyze_static
from repro.fac.config import FacConfig
from repro.isa.disassembler import disassemble
from repro.isa.opcodes import OP_INFO
from repro.isa.program import Program
from repro.obs.metrics import Histogram, MetricsRegistry, safe_ratio
from repro.pipeline.config import MachineConfig
from repro.pipeline.result import SimResult

#: Structural schema (JSON-Schema subset) for ``repro profile --json``;
#: validate with :func:`repro.analysis.reporting.validate_against_schema`.
PROFILE_SCHEMA = {
    "type": "object",
    "required": ["schema", "program", "block_sizes", "primary_block_size",
                 "summary", "sites", "metrics"],
    "properties": {
        "schema": {"type": "string"},
        "program": {"type": "string"},
        "block_sizes": {"type": "array", "items": {"type": "integer"}},
        "primary_block_size": {"type": "integer"},
        "summary": {
            "type": "object",
            "required": ["instructions", "cycles", "sites",
                         "replay_cycles", "accesses"],
            "properties": {
                "instructions": {"type": "integer"},
                "cycles": {"type": "integer"},
                "sites": {"type": "integer"},
                "replay_cycles": {"type": "integer"},
                "accesses": {"type": "integer"},
            },
        },
        "sites": {
            "type": "array",
            "items": {
                "type": "object",
                "required": ["pc", "disasm", "is_store", "accesses",
                             "failures", "prediction_rate", "misses",
                             "miss_rate", "replay_cycles", "verdict",
                             "counts"],
                "properties": {
                    "pc": {"type": "integer"},
                    "disasm": {"type": "string"},
                    "source": {"type": ["string", "null"]},
                    "function": {"type": ["string", "null"]},
                    "is_store": {"type": "boolean"},
                    "accesses": {"type": "integer"},
                    "failures": {"type": "integer"},
                    "prediction_rate": {"type": "number"},
                    "misses": {"type": "integer"},
                    "miss_rate": {"type": "number"},
                    "replay_cycles": {"type": "integer"},
                    "verdict": {"type": ["string", "null"]},
                    "counts": {"type": "object"},
                },
            },
        },
        "metrics": {"type": "object"},
    },
}


@dataclass
class SiteProfile:
    """One static load/store site, with everything the profiler knows."""

    pc: int
    disasm: str
    source: str | None          # "file:line" from Program.line_table
    function: str | None        # enclosing symbol, from the static pass
    is_store: bool
    accesses: int               # functional count at the primary geometry
    failures: int               # prediction failures, same pass
    misses: int                 # timing-pass dcache misses
    timing_accesses: int        # timing-pass accesses (policy-filtered)
    replays: int                # timing-pass MEM replays
    replay_cycles: int          # cycles lost to those replays
    verdict: str | None         # static lint verdict ('always', ...)
    # {block_size: (accesses, failures)} across every requested geometry
    counts: dict[int, tuple[int, int]] = field(default_factory=dict)

    @property
    def failure_rate(self) -> float:
        return safe_ratio(self.failures, self.accesses)

    @property
    def prediction_rate(self) -> float:
        return 1.0 - self.failure_rate

    @property
    def miss_rate(self) -> float:
        return safe_ratio(self.misses, self.timing_accesses)


@dataclass
class ProfileResult:
    """Output of :func:`profile_program`."""

    program_name: str
    block_sizes: tuple[int, ...]
    primary_block_size: int
    sites: list[SiteProfile]
    sim: SimResult
    analysis: TraceAnalysis
    registry: MetricsRegistry

    @property
    def replay_cycles(self) -> int:
        return sum(site.replay_cycles for site in self.sites)

    #: ``--sort`` orders. Every key ends in ``s.pc`` so ties (including
    #: all-zero columns) break deterministically by address.
    SORT_KEYS = {
        "replays": lambda s: (-s.replay_cycles, -s.accesses, s.pc),
        "misses": lambda s: (-s.misses, -s.accesses, s.pc),
        "predict_rate": lambda s: (s.prediction_rate, -s.accesses, s.pc),
    }

    def hottest(self, top: int | None = None,
                sort: str = "replays") -> list[SiteProfile]:
        """Sites ranked by ``sort`` -- replay cost (default), dcache
        misses, or worst prediction rate first -- tie-broken by pc."""
        try:
            key = self.SORT_KEYS[sort]
        except KeyError:
            raise ValueError(
                f"unknown sort {sort!r}; choose from "
                f"{sorted(self.SORT_KEYS)}") from None
        ranked = sorted(self.sites, key=key)
        return ranked[:top] if top else ranked

    def to_json(self, top: int | None = None,
                sort: str = "replays") -> dict:
        sites = [
            {
                "pc": site.pc,
                "disasm": site.disasm,
                "source": site.source,
                "function": site.function,
                "is_store": site.is_store,
                "accesses": site.accesses,
                "failures": site.failures,
                "prediction_rate": round(site.prediction_rate, 6),
                "misses": site.misses,
                "miss_rate": round(site.miss_rate, 6),
                "replay_cycles": site.replay_cycles,
                "verdict": site.verdict,
                "counts": {
                    str(bs): list(pair)
                    for bs, pair in sorted(site.counts.items())
                },
            }
            for site in self.hottest(top, sort)
        ]
        return {
            "schema": "repro.profile/1",
            "program": self.program_name,
            "block_sizes": list(self.block_sizes),
            "primary_block_size": self.primary_block_size,
            "summary": {
                "instructions": self.analysis.instructions,
                "cycles": self.sim.cycles,
                "sites": len(self.sites),
                "replay_cycles": self.replay_cycles,
                "accesses": sum(site.accesses for site in self.sites),
            },
            "sites": sites,
            "metrics": self.registry.snapshot(
                meta={"program": self.program_name,
                      "block_size": self.primary_block_size}
            ),
        }

    def render_text(self, top: int = 20, sort: str = "replays") -> str:
        from repro.analysis.reporting import format_table

        rows = []
        for site in self.hottest(top, sort):
            rows.append((
                f"0x{site.pc:08x}",
                site.disasm,
                site.source or "?",
                site.accesses,
                f"{100 * site.prediction_rate:.1f}%",
                f"{100 * site.miss_rate:.1f}%",
                site.replay_cycles,
                site.verdict or "?",
            ))
        header = (f"{self.program_name}: {self.analysis.instructions} "
                  f"instructions, {self.sim.cycles} cycles, "
                  f"{self.replay_cycles} replay cycles over "
                  f"{len(self.sites)} sites "
                  f"(block size {self.primary_block_size})")
        table = format_table(
            ("pc", "instruction", "source", "accesses", "predict",
             "miss", "replay cyc", "lint"),
            rows,
        )
        return header + "\n" + table

    def site_at(self, pc: int) -> SiteProfile | None:
        for site in self.sites:
            if site.pc == pc:
                return site
        return None


class SiteTally:
    """Per-site timing counts of one flavour: a
    :class:`~repro.pipeline.replay.Front` outcome watcher that sums each
    chunk's static-index, D-miss, outcome and issue/ready columns with
    ``np.bincount``. The columns carry all of the flavour's timing."""

    def __init__(self, program: Program):
        import numpy as np

        infos = [OP_INFO[inst.op] for inst in program.instructions]
        self._memory = np.array([i.is_load or i.is_store for i in infos])
        self._load = np.array([i.is_load for i in infos])
        size = len(infos)
        #: per static instruction index: D-cache accesses, misses and
        #: FAC replays
        self.accesses = np.zeros(size, np.int64)
        self.misses = np.zeros(size, np.int64)
        self.replays = np.zeros(size, np.int64)
        #: load latency in cycles (result ready - issue) -> load count
        self.load_latency: dict[int, int] = {}

    def __call__(self, indices, flags, outcomes, issues, readies) -> None:
        import numpy as np

        from repro.pipeline.replay import DMISS, REPLAYED

        size = len(self.accesses)
        index = np.frombuffer(indices, np.uint32)
        memory = self._memory[index]
        site = index[memory]
        miss = np.frombuffer(flags, np.uint8)[memory] & DMISS != 0
        outcome = np.frombuffer(outcomes, np.uint8)
        self.accesses += np.bincount(site, minlength=size)
        self.misses += np.bincount(site[miss], minlength=size)
        self.replays += np.bincount(site[outcome == REPLAYED],
                                    minlength=size)
        load = self._load[index]
        latency = np.frombuffer(readies, np.int64)[load] \
            - np.frombuffer(issues, np.int64)[load]
        counts = self.load_latency
        for cycles, loads in enumerate(np.bincount(latency).tolist()):
            if loads:
                counts[cycles] = counts.get(cycles, 0) + loads


def _execute(program: Program, machine: MachineConfig,
             block_sizes: tuple[int, ...], cache_size: int,
             distances: Histogram, max_instructions: int
             ) -> tuple[TraceAnalysis, SimResult, SiteTally]:
    """Execute ``program`` once: record the run into columns for the
    vectorized analyzer and the load-use kernel (which fills
    ``distances``), and time the same run live on ``machine`` with a
    :class:`SiteTally` watching its memory accesses."""
    from repro.analysis.batch import analyze_trace_columns, load_use_distances
    from repro.cpu.coltrace import ColumnRecorder
    from repro.pipeline.replay import time_live

    recorder = ColumnRecorder(program)
    tally = SiteTally(program)
    (sim,), cpu = time_live(program, (machine,), max_instructions,
                            tee=recorder, outcomes={machine: tally})
    cols = recorder.columns()
    analysis = analyze_trace_columns(
        program, cols, block_sizes=block_sizes, cache_size=cache_size,
        per_pc=True, memory_usage=cpu.memory_usage, stdout=cpu.stdout())
    load_use_distances(program, cols, distances)
    return analysis, sim, tally


def profile_program(
    program: Program,
    name: str = "program",
    block_sizes: tuple[int, ...] = (16, 32),
    primary_block_size: int = 32,
    cache_size: int = 16 * 1024,
    max_instructions: int = 50_000_000,
) -> ProfileResult:
    """Profile every load/store site of ``program``. See module docstring."""
    if primary_block_size not in block_sizes:
        block_sizes = tuple(sorted(set(block_sizes) | {primary_block_size}))

    # 1. one execution: exact per-PC prediction counts and the load-use
    # histogram from its columns, misses, replays and load latencies
    # from timing it live
    registry = MetricsRegistry()
    distances = registry.histogram("profile.load_use_distance")
    fac = FacConfig(cache_size=cache_size, block_size=primary_block_size)
    analysis, sim, tally = _execute(program, MachineConfig(fac=fac),
                                    block_sizes, cache_size, distances,
                                    max_instructions)

    # 2. static pass: lint verdict per site
    static = analyze_static(program, fac)

    # ---- join the three views, one row per functionally-touched site
    per_pc = analysis.per_pc or {}
    primary = per_pc.get(primary_block_size, {})
    replay_hist = registry.histogram("profile.replay_cycles")
    sites = []
    for pc in sorted(primary):
        accesses, failures = primary[pc]
        site_report = static.by_addr.get(pc)
        source = program.source_of(pc)
        index = (pc - program.text_base) >> 2
        timing_accesses = int(tally.accesses[index])
        misses = int(tally.misses[index])
        replays = int(tally.replays[index])
        # a FAC replay re-runs the access in MEM: one cycle each
        replay_cycles = replays
        if replay_cycles:
            replay_hist.record(replay_cycles)
        sites.append(SiteProfile(
            pc=pc,
            disasm=disassemble(program.instruction_at(pc)),
            source=f"{source[0]}:{source[1]}" if source else None,
            function=site_report.function if site_report else None,
            is_store=program.instruction_at(pc).info.is_store,
            accesses=accesses,
            failures=failures,
            misses=misses,
            timing_accesses=timing_accesses,
            replays=replays,
            replay_cycles=replay_cycles,
            verdict=site_report.verdict.value if site_report else None,
            counts={bs: tuple(counts.get(pc, [0, 0]))
                    for bs, counts in per_pc.items()},
        ))

    load_latency = registry.histogram("profile.load_latency")
    for cycles, loads in tally.load_latency.items():
        load_latency.record(cycles, loads)
    sim.to_registry(registry, prefix="sim")
    return ProfileResult(
        program_name=name,
        block_sizes=tuple(block_sizes),
        primary_block_size=primary_block_size,
        sites=sites,
        sim=sim,
        analysis=analysis,
        registry=registry,
    )
