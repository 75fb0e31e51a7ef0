"""Trace-driven timing model of the Table 5 machine.

The functional simulator (:class:`repro.cpu.CPU`) supplies retired
instructions in program order; this module assigns each one an issue
cycle under the machine's constraints and accumulates cycle counts.
The model captures:

* 4-wide in-order issue with out-of-order completion (a scoreboard of
  per-register ready cycles),
* functional-unit structural hazards (counts per class; non-pipelined
  integer/FP divide),
* fetch constraints: 4 contiguous instructions per cycle, issue-group
  breaks at taken branches, BTB-driven 2-cycle misprediction bubbles,
  I-cache misses,
* the dual-read-ported / single-write-ported non-blocking data cache
  (two loads *or* one store per cycle) with a 16-entry non-merging store
  buffer that retires entries during unused cache cycles,
* **fast address calculation**: speculative cache access in EX when the
  predictor allows it, replay in MEM on misprediction, and the Section
  5.5 issue policy -- accesses issued the cycle after a misprediction do
  not speculate, except a load directly after a misspeculated load.

Timing for a load issued at cycle ``t`` (hit):

==============================  =============================
baseline                        result ready at ``t + 2``
1-cycle loads (Figure 2)        result ready at ``t + 1``
FAC, predicted correctly        result ready at ``t + 1``
FAC, mispredicted               result ready at ``t + 2``
==============================  =============================

A miss adds ``dcache.miss_latency`` cycles in every case (the cache is
non-blocking: only dependents stall).

The model has two observation points, both None when detached: the
flight-recorder ring (``_flight``, :mod:`repro.obs.flight`), its one
per-instruction hook, and the per-site counter tap (``sites``,
:class:`SiteCounters`), filled per memory op. It emits no events.
"""

from __future__ import annotations

from collections import deque

from repro.cache.cache import Cache
from repro.cpu.executor import CPU, TraceRecord
from repro.fac.predictor import FastAddressCalculator
from repro.isa.opcodes import Op, OpClass, OP_INFO
from repro.isa.program import Program
from repro.pipeline.btb import BranchTargetBuffer
from repro.pipeline.config import MachineConfig
from repro.pipeline.deps import NUM_SLOTS, sources_and_dests
from repro.pipeline.result import SimResult
from repro.utils.bits import to_signed32

_FU_CLASS = {
    OpClass.ALU: "alu",
    OpClass.BRANCH: "alu",
    OpClass.JUMP: "alu",
    OpClass.SYSTEM: "alu",
    OpClass.LOAD: "ldst",
    OpClass.STORE: "ldst",
    OpClass.IMULT: "imd",
    OpClass.IDIV: "imd",
    OpClass.FPADD: "fpa",
    OpClass.FPMULT: "fpm",
    OpClass.FPDIV: "fpm",
}


class SiteCounters:
    """Per-site counter tap: what the pipeline scheduled at each load or
    store pc, counted inline by :meth:`PipelineSimulator._execute_memory`.

    Attach with ``pipe.sites = SiteCounters()``. Only memory ops touch
    the tap, so a tapped pipeline keeps its ``trace_plain`` fast lane.
    """

    __slots__ = ("per_pc", "load_latency")

    def __init__(self):
        #: pc -> [dcache accesses, dcache misses, FAC replays]
        self.per_pc: dict[int, list[int]] = {}
        #: load latency in cycles (result ready - issue) -> load count
        self.load_latency: dict[int, int] = {}


class PipelineSimulator:
    """Issue-cycle assignment engine; feed() one trace record at a time."""

    def __init__(self, config: MachineConfig | None = None):
        self.config = config or MachineConfig()
        cfg = self.config
        self.icache = Cache(cfg.icache)
        self.dcache = Cache(cfg.dcache)
        self.btb = BranchTargetBuffer(cfg.btb_entries)
        self.fac = FastAddressCalculator(cfg.fac) if cfg.fac is not None else None
        self.result = SimResult()

        self._fu_limit = {
            "alu": cfg.int_alus,
            "ldst": cfg.load_store_units,
            "imd": cfg.int_mult_div_units,
            "fpa": cfg.fp_adders,
            "fpm": cfg.fp_mult_div_units,
        }
        # per-static-instruction facts, keyed by id(inst); the tuple keeps
        # the instruction alive so the id can never be recycled
        self._facts: dict[int, tuple] = {}
        self._non_pipelined = cfg.non_pipelined
        self._reg_ready = [0] * NUM_SLOTS
        self._cur_cycle = 0
        self._issued_in_cycle = 0
        self._fu_used = {"alu": 0, "ldst": 0, "imd": 0, "fpa": 0, "fpm": 0}
        self._unit_free = {"imd": 0, "fpm": 0}  # non-pipelined busy-until
        self._fetch_ready = 0
        self._last_iblock = -1
        self._iblock_shift = cfg.icache.offset_bits
        # cache port usage per cycle: cycle -> [loads, stores]
        self._ports: dict[int, list[int]] = {}
        # store buffer: deque of ready cycles; cursor for retirement scan
        self._store_buffer: deque[int] = deque()
        self._sb_cursor = 0
        # FAC issue policy: cycle and kind of the last misprediction
        self._mispredict_cycle = -2
        self._mispredict_was_load = False
        self._mem_plan: tuple[bool, int] = (False, 0)
        self._final_cycle = 0
        # The pipeline's two observation points, both None when detached.
        # The flight-recorder ring tap, (slots, cap, seq_cell), is the one
        # per-instruction hook (see repro.obs.flight): the hot loops
        # write ring slots inline, so the recorder adds no call frames;
        # detached cost is one attribute test per instruction.
        self._flight: tuple | None = None
        # per-site counter tap (SiteCounters); detached cost is one
        # attribute test per memory op, none on the fast lane
        self.sites: SiteCounters | None = None
        # FAC outcome of the last memory op: None (not speculated),
        # True (prediction held) or False (replayed)
        self._fac_outcome: bool | None = None

    # ------------------------------------------------------------------ #
    # resource helpers

    def _ports_at(self, cycle: int) -> list[int]:
        usage = self._ports.get(cycle)
        if usage is None:
            usage = [0, 0]
            self._ports[cycle] = usage
            if len(self._ports) > 128:
                floor = self._cur_cycle
                for key in [k for k in self._ports if k < floor]:
                    del self._ports[key]
        return usage

    def _load_port_free(self, cycle: int) -> bool:
        usage = self._ports_at(cycle)
        return usage[1] == 0 and usage[0] < self.config.dcache_read_ports

    def _store_port_free(self, cycle: int) -> bool:
        usage = self._ports_at(cycle)
        return usage[0] == 0 and usage[1] < self.config.dcache_write_ports

    def _claim_load_port(self, cycle: int) -> None:
        self._ports_at(cycle)[0] += 1

    def _claim_store_port(self, cycle: int) -> None:
        self._ports_at(cycle)[1] += 1

    def _cycle_unused(self, cycle: int) -> bool:
        usage = self._ports.get(cycle)
        return usage is None or (usage[0] == 0 and usage[1] == 0)

    def _advance_cycle(self, cycle: int) -> None:
        if cycle > self._cur_cycle:
            self._cur_cycle = cycle
            self._issued_in_cycle = 0
            for key in self._fu_used:
                self._fu_used[key] = 0

    def _drain_store_buffer(self, upto: int) -> None:
        """Retire buffered stores during unused cache cycles before ``upto``."""
        if not self._store_buffer:
            self._sb_cursor = max(self._sb_cursor, upto)
            return
        cycle = self._sb_cursor
        while self._store_buffer and cycle < upto:
            if self._store_buffer[0] <= cycle and self._cycle_unused(cycle):
                self._store_buffer.popleft()
            cycle += 1
        self._sb_cursor = max(self._sb_cursor, min(cycle, upto))

    # ------------------------------------------------------------------ #
    # per-instruction facts

    def _make_facts(self, inst) -> tuple:
        """Precompute everything ``feed`` needs that is static per
        instruction: functional unit, limits, latency, dependence slots.
        Cached by ``id(inst)``; the tuple holds ``inst`` to pin the id."""
        info = OP_INFO[inst.op]
        klass = info.klass
        fu = _FU_CLASS[klass]
        sources, dests = sources_and_dests(inst)
        facts = (
            inst, info, fu, self._fu_limit[fu],
            self.config.result_latency(klass),
            klass in self._non_pipelined,       # occupies its unit
            fu in self._unit_free,              # unit has a busy-until
            sources, dests,
            info.is_load, info.is_store,
            klass is OpClass.BRANCH or klass is OpClass.JUMP,
        )
        self._facts[id(inst)] = facts
        return facts

    # ------------------------------------------------------------------ #

    def feed(self, rec: TraceRecord) -> int:
        """Assign an issue cycle to one retired instruction."""
        cfg = self.config
        inst = rec.inst
        facts = self._facts.get(id(inst))
        if facts is None:
            facts = self._make_facts(inst)
        (_, info, fu, fu_limit, latency, non_pipelined, unit_tracked,
         sources, dests, is_load, is_store, is_ctrl) = facts

        # ---- fetch constraints ------------------------------------------
        iblock = rec.pc >> self._iblock_shift
        if iblock != self._last_iblock:
            self._last_iblock = iblock
            self.result.icache_accesses += 1
            if not self.icache.access(rec.pc):
                self.result.icache_misses += 1
                self._fetch_ready = max(self._fetch_ready, self._cur_cycle) \
                    + cfg.icache.miss_latency

        earliest = max(self._fetch_ready, self._cur_cycle)
        # ---- data hazards ------------------------------------------------
        reg_ready = self._reg_ready
        for slot in sources:
            ready = reg_ready[slot]
            if ready > earliest:
                earliest = ready

        # ---- structural hazards -----------------------------------------
        cycle = earliest
        while True:
            if cycle <= self._cur_cycle and (
                    self._issued_in_cycle >= cfg.issue_width
                    or self._fu_used[fu] >= fu_limit):
                cycle += 1
                continue
            if unit_tracked and self._unit_free[fu] > cycle:
                cycle = self._unit_free[fu]
                continue
            if is_load or is_store:
                plan = self._plan_access(rec, cycle, is_store, info)
                if plan is None:
                    cycle += 1
                    continue
                if is_store and len(self._store_buffer) >= cfg.store_buffer_entries:
                    self._drain_store_buffer(cycle)
                    if len(self._store_buffer) >= cfg.store_buffer_entries:
                        # forced retirement stalls the pipeline one cycle
                        self.result.store_buffer_full_stalls += 1
                        self._store_buffer.popleft()
                        cycle += 1
                        continue
                self._mem_plan = plan
            break

        self._advance_cycle(cycle)
        self._issued_in_cycle += 1
        self._fu_used[fu] += 1
        if non_pipelined:
            self._unit_free[fu] = cycle + latency

        # ---- execute ------------------------------------------------------
        fr = self._flight
        pre = 0
        if is_load or is_store:
            if fr is not None:
                pre = self.result.dcache_misses
            ready = self._execute_memory(rec, cycle, is_store, info)
            if is_load:
                self.result.load_latency_sum += ready - cycle
        else:
            ready = cycle + latency
            if is_ctrl:
                if fr is not None:
                    pre = self.result.branch_mispredicts
                self._execute_branch(rec, cycle)
        for slot in dests:
            reg_ready[slot] = ready

        self.result.instructions += 1
        if fr is not None:
            slots, cap, cell = fr
            seq = cell[0]
            slot = slots[seq % cap]
            slot[0] = rec.pc
            slot[3] = cycle
            slot[4] = ready
            if is_load or is_store:
                slot[1] = rec
                slot[2] = 1
                slot[5] = self._mem_plan[1]
                slot[6] = self._fac_outcome
                slot[7] = 0 if self.result.dcache_misses != pre else 1
            elif is_ctrl:
                slot[1] = rec
                slot[2] = 2
                slot[6] = None
                slot[7] = 1 if self.result.branch_mispredicts != pre else 0
            else:
                slot[1] = rec.inst
                slot[2] = 0
            cell[0] = seq + 1
        if ready > self._final_cycle:
            self._final_cycle = ready
        if cycle + 1 > self._final_cycle:
            self._final_cycle = cycle + 1
        self._drain_store_buffer(cycle)
        return cycle

    # ------------------------------------------------------------------ #
    # streaming trace protocol (CPU.run_trace consumers)

    # memory and control-flow instructions need the full record; the
    # generic path already handles them
    trace_mem = feed
    trace_branch = feed

    def trace_plain(self, pc, inst) -> None:
        """Record-free fast lane for instructions that are neither
        memory ops nor branches: the ALU/mult/FP/system subset of
        :meth:`feed`, cycle-for-cycle identical, with the memory and
        control-flow arms compiled out."""
        facts = self._facts.get(id(inst))
        if facts is None:
            facts = self._make_facts(inst)
        (_, _, fu, fu_limit, latency, non_pipelined, unit_tracked,
         sources, dests, _, _, _) = facts

        # ---- fetch constraints ----
        iblock = pc >> self._iblock_shift
        if iblock != self._last_iblock:
            self._last_iblock = iblock
            self.result.icache_accesses += 1
            if not self.icache.access(pc):
                self.result.icache_misses += 1
                self._fetch_ready = max(self._fetch_ready, self._cur_cycle) \
                    + self.config.icache.miss_latency

        # ---- data hazards ----
        cur = self._cur_cycle
        earliest = self._fetch_ready
        if cur > earliest:
            earliest = cur
        reg_ready = self._reg_ready
        for slot in sources:
            ready = reg_ready[slot]
            if ready > earliest:
                earliest = ready

        # ---- structural hazards ----
        cycle = earliest
        while True:
            if cycle <= cur and (
                    self._issued_in_cycle >= self.config.issue_width
                    or self._fu_used[fu] >= fu_limit):
                cycle += 1
                continue
            if unit_tracked and self._unit_free[fu] > cycle:
                cycle = self._unit_free[fu]
                continue
            break

        if cycle > cur:
            # inlined _advance_cycle + the issue bookkeeping
            self._cur_cycle = cycle
            self._issued_in_cycle = 1
            fu_used = self._fu_used
            for key in fu_used:
                fu_used[key] = 0
            fu_used[fu] = 1
        else:
            self._issued_in_cycle += 1
            self._fu_used[fu] += 1
        if non_pipelined:
            self._unit_free[fu] = cycle + latency

        # ---- execute ----
        ready = cycle + latency
        for slot in dests:
            reg_ready[slot] = ready
        self.result.instructions += 1
        if ready > self._final_cycle:
            self._final_cycle = ready
        if cycle + 1 > self._final_cycle:
            self._final_cycle = cycle + 1
        if self._store_buffer:
            self._drain_store_buffer(cycle)
        elif cycle > self._sb_cursor:
            self._sb_cursor = cycle
        fr = self._flight
        if fr is not None:
            slots, cap, cell = fr
            seq = cell[0]
            slot = slots[seq % cap]
            slot[0] = pc
            slot[1] = inst
            slot[2] = 0
            slot[3] = cycle
            slot[4] = ready
            cell[0] = seq + 1

    # ------------------------------------------------------------------ #
    # memory

    def _plan_access(self, rec: TraceRecord, cycle: int,
                     is_store: bool, info) -> tuple[bool, int] | None:
        """Decide (speculate?, cache-access cycle) for an access issuing
        at ``cycle``, honouring port availability.

        A FAC access that cannot get an EX-stage port falls back to the
        ordinary MEM-stage access rather than stalling issue -- the
        Section 5.5 policy frees the following cycle's port for replays
        in exactly the same way. Returns None when no port is available
        at all (the instruction must stall).
        """
        port_free = self._store_port_free if is_store else self._load_port_free
        if self.config.one_cycle_loads:
            return (False, cycle) if port_free(cycle) else None
        if self.fac is not None and self._would_speculate(rec, cycle, info) \
                and port_free(cycle):
            return (True, cycle)
        if port_free(cycle + 1):
            return (False, cycle + 1)
        return None

    def _would_speculate(self, rec: TraceRecord, cycle: int, info) -> bool:
        if info.mem_mode == "p":
            return True  # address is the raw base register: always exact
        if not self.fac.should_speculate(info.mem_mode == "x", info.is_store):
            return False
        # Section 5.5 policy: after a misprediction in cycle c, accesses
        # issued in c+1 do not speculate -- except a load right after a
        # misspeculated load.
        if self._mispredict_cycle == cycle - 1:
            if not (info.is_load and self._mispredict_was_load):
                return False
        return True

    def _execute_memory(self, rec: TraceRecord, cycle: int,
                        is_store: bool, info) -> int:
        cfg = self.config
        if is_store:
            self.result.stores += 1
        else:
            self.result.loads += 1
        self.result.dcache_accesses += 1
        hit = self.dcache.access(rec.ea, is_store)
        if not hit:
            self.result.dcache_misses += 1
        miss_penalty = 0 if (hit or cfg.perfect_dcache) else cfg.dcache.miss_latency

        speculate, access_cycle = self._mem_plan
        if not speculate:
            self._claim_port(is_store, access_cycle)
            if self.fac is not None and not cfg.one_cycle_loads:
                self.result.fac_not_speculated += 1
            self._fac_outcome = None
            result_ready = access_cycle + 1 + miss_penalty
        else:
            result_ready = self._execute_fac_memory(rec, cycle, is_store,
                                                    miss_penalty, info)
        sites = self.sites
        if sites is not None:
            row = sites.per_pc.get(rec.pc)
            if row is None:
                row = sites.per_pc[rec.pc] = [0, 0, 0]
            row[0] += 1
            if not hit:
                row[1] += 1
            if self._fac_outcome is False:
                row[2] += 1
            if not is_store:
                latency = sites.load_latency
                cycles = result_ready - cycle
                latency[cycles] = latency.get(cycles, 0) + 1
        if is_store:
            # the store's "result" is its tag probe; dependents (none,
            # stores write no register) are unaffected. Buffer the data.
            self._store_buffer.append(result_ready)
            result_ready = cycle + 1
        return result_ready

    def _claim_port(self, is_store: bool, cycle: int) -> None:
        if is_store:
            self._claim_store_port(cycle)
        else:
            self._claim_load_port(cycle)

    def _execute_fac_memory(self, rec: TraceRecord, cycle: int, is_store: bool,
                            miss_penalty: int, info) -> int:
        """FAC machine: speculative access in EX, replay in MEM on failure."""
        if info.mem_mode == "p":
            # post-increment: the effective address IS the base register.
            self._claim_port(is_store, cycle)
            self._fac_outcome = True
            return cycle + 1 + miss_penalty
        offset = rec.offset_value if info.mem_mode == "c" \
            else to_signed32(rec.offset_value)
        # allocation-free verdict; the full Prediction (with its
        # FailureSignals) is rebuilt from the recorded operands when a
        # flight-recorder entry is decoded
        failed = self.fac.fails(rec.base_value, offset, info.mem_mode == "x")
        self.result.fac_speculated += 1
        self._claim_port(is_store, cycle)
        if not failed:
            self._fac_outcome = True
            return cycle + 1 + miss_penalty
        # replay with the non-speculative address in MEM
        self.result.fac_mispredicted += 1
        if is_store:
            self.result.fac_store_mispredicted += 1
        else:
            self.result.fac_load_mispredicted += 1
        self._mispredict_cycle = cycle
        self._mispredict_was_load = not is_store
        self._claim_port(is_store, cycle + 1)
        self._fac_outcome = False
        return cycle + 2 + miss_penalty

    # ------------------------------------------------------------------ #
    # control flow

    def _execute_branch(self, rec: TraceRecord, cycle: int) -> None:
        cfg = self.config
        op = rec.inst.op
        if op in (Op.J, Op.JAL):
            # direct unconditional jumps redirect at decode: the group
            # simply breaks at the taken jump.
            self._fetch_ready = max(self._fetch_ready, cycle + 1)
            return
        taken = bool(rec.taken)
        self.result.branches += 1
        correct = self.btb.update(rec.pc, taken, rec.next_pc)
        if not correct:
            self.result.branch_mispredicts += 1
            self._fetch_ready = max(
                self._fetch_ready, cycle + 1 + cfg.branch_mispredict_penalty
            )
        elif taken:
            self._fetch_ready = max(self._fetch_ready, cycle + 1)

    # ------------------------------------------------------------------ #

    def finalize(self, memory_usage: int = 0) -> SimResult:
        """Complete the run and return the statistics."""
        # drain the store buffer
        cycle = max(self._final_cycle, self._sb_cursor)
        while self._store_buffer:
            ready = self._store_buffer.popleft()
            cycle = max(cycle, ready) + 1
        result = self.result
        result.cycles = max(self._final_cycle, cycle)
        result.memory_usage = memory_usage
        result.extras["btb_accuracy"] = self.btb.accuracy
        return result


def simulate_program(
    program: Program,
    config: MachineConfig | None = None,
    max_instructions: int = 50_000_000,
) -> SimResult:
    """Run ``program`` functionally and time it on the pipeline model:
    the predecoded interpreter streams straight into the pipeline's
    trace hooks."""
    cpu = CPU(program)
    pipe = PipelineSimulator(config)
    cpu.run_trace(pipe, max_instructions)
    return pipe.finalize(memory_usage=cpu.memory_usage)
