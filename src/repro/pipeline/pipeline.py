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

Every production timing path -- :func:`simulate_program`, the farm,
``repro stats``/``profile``/``trace``/``pipeview`` and the Figure 1
tracer -- runs on the columnar replay engine
(:mod:`repro.pipeline.replay`), which matches this model cycle for
cycle. :class:`PipelineSimulator` is that engine's oracle: the
equivalence tests and tools feed it record by record, and it has no
observation hooks.
"""

from __future__ import annotations

from collections import deque

from repro.cache.cache import Cache
from repro.cpu.executor import TraceRecord
from repro.fac.predictor import FastAddressCalculator
from repro.isa.opcodes import Op, OpClass, OP_INFO
from repro.isa.program import Program
from repro.pipeline.btb import BranchTargetBuffer
from repro.pipeline.config import MachineConfig
from repro.pipeline.deps import NUM_SLOTS, sources_and_dests
from repro.pipeline.result import SimResult
from repro.utils.bits import to_signed32

#: Port-table size at which stale cycles are pruned; the oracle's copy
#: of :data:`repro.pipeline.replay.PORT_LIMIT`.
PORT_LIMIT = 128

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


class PipelineSimulator:
    """Issue-cycle assignment engine: ``retire`` (or ``feed``) one
    retired instruction at a time, in program order."""

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

    # ------------------------------------------------------------------ #
    # resource helpers

    def _ports_at(self, cycle: int) -> list[int]:
        usage = self._ports.get(cycle)
        if usage is None:
            usage = self._ports[cycle] = [0, 0]
            # the engine's prune rule (repro.pipeline.replay._new_ports)
            if not len(self._ports) % PORT_LIMIT:
                floor = min(self._cur_cycle, self._sb_cursor)
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
        """Precompute everything ``retire`` needs that is static per
        instruction: functional unit, limits, latency, dependence slots
        and the predecode kind (0 plain, 1 memory, 2 branch/jump).
        Cached by ``id(inst)``; the tuple holds ``inst`` to pin the id."""
        info = OP_INFO[inst.op]
        klass = info.klass
        fu = _FU_CLASS[klass]
        sources, dests = sources_and_dests(inst)
        kind = (1 if info.is_load or info.is_store
                else 2 if klass is OpClass.BRANCH or klass is OpClass.JUMP
                else 0)
        facts = (
            inst, info, fu, self._fu_limit[fu],
            self.config.result_latency(klass),
            klass in self._non_pipelined,       # occupies its unit
            fu in self._unit_free,              # unit has a busy-until
            sources, dests, kind, info.is_store,
        )
        self._facts[id(inst)] = facts
        return facts

    # ------------------------------------------------------------------ #

    def retire(self, pc, inst, rec) -> int:
        """Assign an issue cycle to one retired instruction and return it.

        The ``CPU.run_trace`` / ``replay_into`` consumer hook: ``rec`` is
        the :class:`TraceRecord` for loads, stores, branches and jumps
        and None for every other instruction (a record passed for one
        of those is ignored)."""
        facts = self._facts.get(id(inst))
        if facts is None:
            facts = self._make_facts(inst)
        (_, info, fu, fu_limit, latency, non_pipelined, unit_tracked,
         sources, dests, kind, is_store) = facts
        result = self.result

        # ---- fetch constraints ----
        iblock = pc >> self._iblock_shift
        if iblock != self._last_iblock:
            self._last_iblock = iblock
            result.icache_accesses += 1
            if not self.icache.access(pc):
                result.icache_misses += 1
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
            if kind == 1:
                plan = self._plan_access(cycle, is_store, info)
                if plan is None:
                    cycle += 1
                    continue
                if is_store and len(self._store_buffer) \
                        >= self.config.store_buffer_entries:
                    self._drain_store_buffer(cycle)
                    if len(self._store_buffer) \
                            >= self.config.store_buffer_entries:
                        # forced retirement stalls the pipeline one cycle
                        result.store_buffer_full_stalls += 1
                        self._store_buffer.popleft()
                        cycle += 1
                        continue
                self._mem_plan = plan
            break

        # ---- issue bookkeeping ----
        if cycle > cur:
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
        if kind == 1:
            ready = self._execute_memory(rec, cycle, is_store, info)
            if not is_store:
                result.load_latency_sum += ready - cycle
        else:
            ready = cycle + latency
            if kind == 2:
                self._execute_branch(rec, cycle)
        for slot in dests:
            reg_ready[slot] = ready
        result.instructions += 1
        if ready > self._final_cycle:
            self._final_cycle = ready
        if cycle + 1 > self._final_cycle:
            self._final_cycle = cycle + 1
        if self._store_buffer:
            self._drain_store_buffer(cycle)
        elif cycle > self._sb_cursor:
            self._sb_cursor = cycle
        return cycle

    def feed(self, rec: TraceRecord) -> int:
        """:meth:`retire` for step-driven callers holding a full record."""
        return self.retire(rec.pc, rec.inst, rec)

    # ------------------------------------------------------------------ #
    # memory

    def _plan_access(self, cycle: int, is_store: bool,
                     info) -> tuple[bool, int] | None:
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
        if self.fac is not None and self._would_speculate(cycle, info) \
                and port_free(cycle):
            return (True, cycle)
        if port_free(cycle + 1):
            return (False, cycle + 1)
        return None

    def _would_speculate(self, cycle: int, info) -> bool:
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
            result_ready = access_cycle + 1 + miss_penalty
        else:
            result_ready = self._execute_fac_memory(rec, cycle, is_store,
                                                    miss_penalty, info)
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
            return cycle + 1 + miss_penalty
        offset = rec.offset_value if info.mem_mode == "c" \
            else to_signed32(rec.offset_value)
        failed = self.fac.fails(rec.base_value, offset, info.mem_mode == "x")
        self.result.fac_speculated += 1
        self._claim_port(is_store, cycle)
        if not failed:
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
    """Run ``program`` functionally and time it on ``config``: the
    predecoded interpreter feeds the replay engine's front live
    (:func:`repro.pipeline.replay.time_live`)."""
    from repro.pipeline.replay import time_live

    (result,), _ = time_live(program, (config or MachineConfig(),),
                             max_instructions)
    return result
