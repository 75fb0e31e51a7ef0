"""Trace-level prediction-failure accounting (Tables 3 and 4).

One functional pass per program collects, simultaneously:

* Table 1 reference behaviour (via :class:`ReferenceProfile`),
* prediction failure rates for loads and stores at 16- and 32-byte block
  sizes ("the prediction circuitry performs 4 or 5 bits of full addition
  in the block offset portion"),
* the same rates excluding register+register-mode accesses (Table 4's
  "No R+R" columns),
* I- and D-cache miss ratios and TLB behaviour for the Table 3/4 columns.

This is much faster than the full timing model and is exactly what the
paper's Tables 3 and 4 report (the timing-dependent columns -- cycles --
come from :mod:`repro.pipeline`).

:func:`analyze_program` and :func:`analyze_trace` run the vectorized
analyzer of :mod:`repro.analysis.batch` over trace columns.
:class:`TraceAnalyzer` is the record-at-a-time specification of the
same analysis; no production path calls it, and the test suite drives
it from ``CPU.step`` or ``replay_into`` as the oracle the batch
analyzer must match snapshot for snapshot.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.refclass import ReferenceProfile
from repro.cache.cache import Cache, CacheConfig
from repro.cache.tlb import TLB
from repro.cpu.executor import CPU, TraceRecord
from repro.fac.config import FacConfig
from repro.fac.predictor import FastAddressCalculator
from repro.isa.opcodes import OP_INFO
from repro.isa.program import Program
from repro.utils.bits import to_signed32


@dataclass
class PredictionStats:
    """Failure counts for one predictor geometry."""

    block_size: int = 32
    loads: int = 0
    stores: int = 0
    load_failures: int = 0
    store_failures: int = 0
    # excluding register+register mode accesses
    norr_loads: int = 0
    norr_stores: int = 0
    norr_load_failures: int = 0
    norr_store_failures: int = 0
    # which verification signal fired (a failure can raise several)
    signal_counts: dict = field(default_factory=lambda: {
        "overflow": 0, "gen_carry": 0, "large_neg_const": 0,
        "neg_index_reg": 0, "tag_mismatch": 0,
    })

    @property
    def load_failure_rate(self) -> float:
        return self.load_failures / self.loads if self.loads else 0.0

    @property
    def store_failure_rate(self) -> float:
        return self.store_failures / self.stores if self.stores else 0.0

    @property
    def norr_load_failure_rate(self) -> float:
        return self.norr_load_failures / self.norr_loads if self.norr_loads else 0.0

    @property
    def norr_store_failure_rate(self) -> float:
        return self.norr_store_failures / self.norr_stores if self.norr_stores else 0.0

    @property
    def overall_failure_rate(self) -> float:
        total = self.loads + self.stores
        failed = self.load_failures + self.store_failures
        return failed / total if total else 0.0


@dataclass
class TraceAnalysis:
    """Everything one functional pass produces."""

    profile: ReferenceProfile
    predictions: dict[int, PredictionStats]  # keyed by block size
    icache_miss_ratio: float = 0.0
    dcache_miss_ratio: float = 0.0
    tlb_miss_ratio: float = 0.0
    memory_usage: int = 0
    instructions: int = 0
    stdout: str = ""
    # {block_size: {pc: [accesses, failures]}} when per-PC tracking is on
    per_pc: dict[int, dict[int, list[int]]] | None = None


class TraceAnalyzer:
    """Single-pass, record-at-a-time trace analyzer (the spec)."""

    def __init__(self, block_sizes: tuple[int, ...] = (16, 32),
                 cache_size: int = 16 * 1024, full_tag_add: bool = True,
                 per_pc: bool = False):
        self.profile = ReferenceProfile()
        # optional {block_size: {pc: [accesses, failures]}} tracking, used
        # by the static-analysis soundness checks (repro.analysis.static_fac)
        self.per_pc: dict[int, dict[int, list[int]]] | None = (
            {bs: {} for bs in block_sizes} if per_pc else None
        )
        self.predictors = {
            bs: FastAddressCalculator(
                FacConfig(cache_size=cache_size, block_size=bs,
                          full_tag_add=full_tag_add)
            )
            for bs in block_sizes
        }
        self.stats = {bs: PredictionStats(block_size=bs) for bs in block_sizes}
        self.icache = Cache(CacheConfig(size=16 * 1024, block_size=32,
                                        name="icache"))
        self.dcache = Cache(CacheConfig(size=16 * 1024, block_size=32,
                                        name="dcache"))
        self.tlb = TLB()
        self._last_iblock = -1

    def observe(self, rec: TraceRecord) -> None:
        self.profile.observe(rec)
        iblock = rec.pc >> 5
        if iblock != self._last_iblock:
            self._last_iblock = iblock
            self.icache.access(rec.pc)
        inst = rec.inst
        info = OP_INFO[inst.op]
        if not info.mem_width:
            return
        self.dcache.access(rec.ea, info.is_store)
        self.tlb.access(rec.ea)
        mode = info.mem_mode
        if mode == "p":
            failed = False  # address needs no addition: always correct
            offset = 0
        else:
            offset = rec.offset_value if mode == "c" \
                else to_signed32(rec.offset_value)
        for block_size, predictor in self.predictors.items():
            stats = self.stats[block_size]
            if mode == "p":
                failed = False
            else:
                # allocation-free verdict first; only failures (rare)
                # materialize the Prediction for its signal breakdown
                failed = predictor.fails(rec.base_value, offset, mode == "x")
                if failed:
                    signals = predictor.predict(
                        rec.base_value, offset, mode == "x"
                    ).signals
                    counts = stats.signal_counts
                    counts["overflow"] += signals.overflow
                    counts["gen_carry"] += signals.gen_carry
                    counts["large_neg_const"] += signals.large_neg_const
                    counts["neg_index_reg"] += signals.neg_index_reg
                    counts["tag_mismatch"] += signals.tag_mismatch
            if self.per_pc is not None:
                entry = self.per_pc[block_size].setdefault(rec.pc, [0, 0])
                entry[0] += 1
                entry[1] += failed
            if info.is_load:
                stats.loads += 1
                stats.load_failures += failed
                if mode != "x":
                    stats.norr_loads += 1
                    stats.norr_load_failures += failed
            else:
                stats.stores += 1
                stats.store_failures += failed
                if mode != "x":
                    stats.norr_stores += 1
                    stats.norr_store_failures += failed

    # ------------------------------------------------------------------ #
    # streaming trace protocol (CPU.run_trace / tracefile.replay_into)

    def retire(self, pc, inst, rec) -> None:
        """:meth:`observe` ``rec``; for a record-free (plain)
        instruction that reduces to counting it and probing the icache
        model."""
        if rec is not None:
            self.observe(rec)
            return
        self.profile.instructions += 1
        iblock = pc >> 5
        if iblock != self._last_iblock:
            self._last_iblock = iblock
            self.icache.access(pc)

    def result(self, memory_usage: int = 0, stdout: str = "") -> TraceAnalysis:
        """Finish the analysis. The functional facts the records do not
        carry are passed in explicitly."""
        return TraceAnalysis(
            profile=self.profile,
            predictions=self.stats,
            icache_miss_ratio=self.icache.miss_ratio,
            dcache_miss_ratio=self.dcache.miss_ratio,
            tlb_miss_ratio=self.tlb.miss_ratio,
            memory_usage=memory_usage,
            instructions=self.profile.instructions,
            stdout=stdout,
            per_pc=self.per_pc,
        )


def analyze_program(program: Program, block_sizes: tuple[int, ...] = (16, 32),
                    max_instructions: int = 50_000_000,
                    per_pc: bool = False) -> TraceAnalysis:
    """Run ``program`` functionally and collect the full analysis: the
    execution is recorded straight into columns
    (:func:`repro.cpu.coltrace.record_columns`) and analyzed by the
    vectorized batch analyzer."""
    from repro.analysis.batch import analyze_trace_columns
    from repro.cpu.coltrace import record_columns

    cpu = CPU(program)
    cols = record_columns(program, max_instructions, cpu=cpu)
    return analyze_trace_columns(
        program, cols, block_sizes=block_sizes, per_pc=per_pc,
        memory_usage=cpu.memory_usage, stdout=cpu.stdout())


def analyze_trace(program: Program, trace_path: str,
                  block_sizes: tuple[int, ...] = (16, 32),
                  per_pc: bool = False, memory_usage: int = 0,
                  stdout: str = "") -> TraceAnalysis:
    """Collect the full analysis from a recorded trace
    (:mod:`repro.cpu.tracefile`) instead of a live execution.

    One functional capture drives any number of analyzer geometries
    without re-interpreting the program; ``memory_usage`` and ``stdout``
    come from the trace artifact's metadata when available. The trace
    is decoded into columns and analyzed by the vectorized batch
    analyzer (:mod:`repro.analysis.batch`)."""
    from repro.analysis.batch import analyze_trace_columns
    from repro.cpu.coltrace import decode_tracefile

    return analyze_trace_columns(
        program, decode_tracefile(program, trace_path),
        block_sizes=block_sizes, per_pc=per_pc,
        memory_usage=memory_usage, stdout=stdout)
