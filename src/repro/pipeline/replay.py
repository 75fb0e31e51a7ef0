"""Time one recorded trace on many machine flavours from one decode.

Timing a trace on the Table 5 machine splits into two halves:

* The **front** is the same on every flavour that shares the caches
  and the BTB. The I-cache, D-cache and BTB are touched in program
  order, and a FAC verdict (:meth:`FastAddressCalculator.fails`)
  depends only on an access's operands and the predictor geometry
  ``(cache_size, block_size, full_tag_add)``. One :func:`replay_into`
  consumer drives them once and emits compact per-record columns:
  the static instruction index, a flags byte (I-cache miss, D-cache
  miss, fetch redirect, BTB mispredict) and one fail bit per distinct
  FAC geometry. The front also yields every flavour-independent
  :class:`SimResult` counter.
* The **recurrence** runs once per flavour: register readiness, issue
  width, functional-unit limits, non-pipelined units, cache ports, the
  store buffer and the Section 5.5 speculation policy, over ints held
  in locals. No :class:`TraceRecord` is built; the only calls are to
  claim a new cycle's cache ports and to scan a non-empty store buffer.

Records flow in chunks of :data:`CHUNK`: the front fills one chunk,
every flavour's recurrence (a generator that keeps its state between
chunks) consumes it, and the chunk is reused, so memory stays bounded
whatever the trace length.

The result is cycle-for-cycle that of
:class:`~repro.pipeline.pipeline.PipelineSimulator`, which remains the
live engine and the oracle (``tests/pipeline/test_replay.py`` and
``tools/check_sim_equivalence.py`` hold the snapshots identical).
:func:`repro.cpu.tracefile.simulate_trace` times one flavour on this
engine; :func:`time_flavours` times many, one front per distinct
(caches, BTB) group.
"""

from __future__ import annotations

from array import array
from collections import deque

from repro.cache.cache import Cache
from repro.cpu.tracefile import replay_into
from repro.fac.config import FacConfig
from repro.fac.predictor import FastAddressCalculator
from repro.isa.opcodes import Op, OpClass, OP_INFO
from repro.isa.program import Program
from repro.pipeline.btb import BranchTargetBuffer
from repro.pipeline.config import MachineConfig
from repro.pipeline.deps import NUM_SLOTS, sources_and_dests
from repro.pipeline.result import SimResult
from repro.utils.bits import to_signed32

#: Records per column chunk.
CHUNK = 1 << 16

# flags byte of one record
IMISS = 1        # I-cache miss on entering a new fetch block
DMISS = 2        # D-cache miss
REDIRECT = 4     # fetch resumes at issue + 1 (taken or direct jump)
MISPREDICT = 8   # fetch resumes at issue + 1 + the mispredict penalty

# functional units, by index: alu, ldst, imd, fpa, fpm
_FU = {
    OpClass.ALU: 0, OpClass.BRANCH: 0, OpClass.JUMP: 0, OpClass.SYSTEM: 0,
    OpClass.LOAD: 1, OpClass.STORE: 1,
    OpClass.IMULT: 2, OpClass.IDIV: 2,
    OpClass.FPADD: 3,
    OpClass.FPMULT: 4, OpClass.FPDIV: 4,
}
_TRACKED_FUS = (2, 4)   # units with a busy-until (non-pipelined divides)

# what the front does with a record, per static instruction
_PLAIN, _LOAD, _STORE, _JUMP, _BRANCH = range(5)


def front_key(config: MachineConfig) -> tuple:
    """What a front depends on: flavours with equal keys share one."""
    return (config.icache, config.dcache, config.btb_entries)


def _geometry(fac: FacConfig) -> tuple[int, int, bool]:
    return (fac.cache_size, fac.block_size, fac.full_tag_add)


# ------------------------------------------------------------------ #
# front


class _FrontTap:
    """The front's :func:`replay_into` consumer.

    ``retire`` touches the caches, the BTB and every FAC geometry's
    verdict in program order and appends one record to the current
    chunk; a full chunk is sent to every sink. ``flush`` sends the last
    partial chunk.
    """

    __slots__ = ("retire", "flush")

    def __init__(self, program: Program, config: MachineConfig,
                 icache: Cache, dcache: Cache, btb: BranchTargetBuffer,
                 verdicts: tuple, sinks: list):
        text_base = program.text_base
        shift = config.icache.offset_bits
        icache_access = icache.access
        dcache_access = dcache.access
        btb_update = btb.update
        what_of, mode_of = [], []
        for inst in program.instructions:
            info = OP_INFO[inst.op]
            mode_of.append(info.mem_mode)
            what_of.append(
                _LOAD if info.is_load else _STORE if info.is_store
                else _JUMP if inst.op in (Op.J, Op.JAL)
                else _BRANCH if info.klass in (OpClass.BRANCH, OpClass.JUMP)
                else _PLAIN)
        indices = array("I")
        flag_col = bytearray()
        fail_col = bytearray() if len(verdicts) <= 8 else []
        chunk = (indices, flag_col, fail_col)
        add_index, add_flags, add_fails = \
            indices.append, flag_col.append, fail_col.append
        last_iblock = -1

        def retire(pc, inst, rec):
            nonlocal last_iblock
            flags = 0
            iblock = pc >> shift
            if iblock != last_iblock:
                last_iblock = iblock
                if not icache_access(pc):
                    flags = IMISS
            index = (pc - text_base) >> 2
            failed = 0
            if rec is not None:
                what = what_of[index]
                if what == _BRANCH:
                    taken = bool(rec.taken)
                    if not btb_update(pc, taken, rec.next_pc):
                        flags |= MISPREDICT
                    elif taken:
                        flags |= REDIRECT
                elif what == _JUMP:
                    flags |= REDIRECT
                elif what:
                    if not dcache_access(rec.ea, what == _STORE):
                        flags |= DMISS
                    mode = mode_of[index]
                    if verdicts and mode != "p":
                        base = rec.base_value
                        offset = rec.offset_value if mode == "c" \
                            else to_signed32(rec.offset_value)
                        is_x = mode == "x"
                        bit = 1
                        for fails in verdicts:
                            if fails(base, offset, is_x):
                                failed |= bit
                            bit <<= 1
            add_index(index)
            add_flags(flags)
            add_fails(failed)
            if len(flag_col) >= CHUNK:
                flush()

        def flush():
            if flag_col:
                for sink in sinks:
                    sink.send(chunk)
                del indices[:], flag_col[:], fail_col[:]

        self.retire = retire
        self.flush = flush


class Front:
    """The shared half of timing one trace on a group of flavours.

    ``machines`` must share :func:`front_key`. The trace is decoded the
    first time :meth:`result` is asked for, and every flavour's
    recurrence runs in that same pass; later calls only read results.
    """

    def __init__(self, program: Program, path, machines):
        self.program = program
        self.path = str(path)
        self.machines = tuple(dict.fromkeys(machines))
        if len({front_key(m) for m in self.machines}) != 1:
            raise ValueError("one front times flavours that share their "
                             "caches and BTB")
        self.geometries = tuple(dict.fromkeys(
            _geometry(m.fac) for m in self.machines if m.fac is not None))
        self._shared: dict | None = None
        self._own: dict = {}
        self._btb_accuracy = 0.0

    def result(self, config: MachineConfig,
               memory_usage: int = 0) -> SimResult:
        """``config``'s :class:`SimResult` (a fresh object per call)."""
        if config not in self.machines:
            raise ValueError("this front was not built for that machine")
        if self._shared is None:
            self._run()
        result = SimResult(memory_usage=memory_usage, **self._shared,
                           **self._own[config])
        result.extras["btb_accuracy"] = self._btb_accuracy
        return result

    def _run(self) -> None:
        config = self.machines[0]
        icache = Cache(config.icache)
        dcache = Cache(config.dcache)
        btb = BranchTargetBuffer(config.btb_entries)
        verdicts = tuple(
            FastAddressCalculator(FacConfig(
                cache_size=size, block_size=block,
                full_tag_add=full)).fails
            for size, block, full in self.geometries)
        flavours = []
        for machine in self.machines:
            fbit = 0 if machine.fac is None \
                else 1 << self.geometries.index(_geometry(machine.fac))
            flavour = _recurrence(self.program, machine, fbit)
            next(flavour)
            flavours.append(flavour)
        tap = _FrontTap(self.program, config, icache, dcache, btb,
                        verdicts, flavours)
        count = replay_into(self.program, self.path, tap)
        tap.flush()
        for machine, flavour in zip(self.machines, flavours):
            try:
                flavour.send(None)
            except StopIteration as done:
                self._own[machine] = done.value
        self._shared = {
            "instructions": count,
            "loads": dcache.read_accesses,
            "stores": dcache.write_accesses,
            "dcache_accesses": dcache.accesses,
            "dcache_misses": dcache.misses,
            "icache_accesses": icache.accesses,
            "icache_misses": icache.misses,
            "branches": btb.lookups,
            "branch_mispredicts": btb.mispredicts,
        }
        self._btb_accuracy = btb.accuracy


def time_flavours(program: Program, path, machines,
                  memory_usage: int = 0) -> list[SimResult]:
    """Time the trace at ``path`` on every machine in ``machines``.

    Flavours that share their caches and BTB share one :class:`Front`,
    so the trace is decoded once per group; each flavour is then timed
    by :func:`repro.cpu.tracefile.simulate_trace` on its group's front.
    Results come back in ``machines`` order.
    """
    from repro.cpu import tracefile

    groups: dict[tuple, list] = {}
    for machine in machines:
        groups.setdefault(front_key(machine), []).append(machine)
    fronts = {key: Front(program, path, group)
              for key, group in groups.items()}
    return [tracefile.simulate_trace(program, fronts[front_key(machine)],
                                     machine, memory_usage)
            for machine in machines]


# ------------------------------------------------------------------ #
# recurrence


def _static_facts(program: Program, config: MachineConfig) -> list[tuple]:
    """Per static instruction: (memory?, unit, unit limit, latency,
    non-pipelined?, unit has a busy-until?, source slots, dest slots,
    store?, speculation code). The code is 0 (never speculated), 1
    (speculated unless the Section 5.5 policy says no) or 2 (always:
    a post-increment address is the base register itself)."""
    limits = (config.int_alus, config.load_store_units,
              config.int_mult_div_units, config.fp_adders,
              config.fp_mult_div_units)
    non_pipelined = config.non_pipelined
    fac = FastAddressCalculator(config.fac) \
        if config.fac is not None else None
    facts = []
    for inst in program.instructions:
        info = OP_INFO[inst.op]
        klass = info.klass
        fu = _FU[klass]
        memory = info.is_load or info.is_store
        if not memory or fac is None:
            spec = 0
        elif info.mem_mode == "p":
            spec = 2
        else:
            spec = 1 if fac.should_speculate(info.mem_mode == "x",
                                             info.is_store) else 0
        sources, dests = sources_and_dests(inst)
        facts.append((memory, fu, limits[fu], config.result_latency(klass),
                       klass in non_pipelined, fu in _TRACKED_FUS,
                       sources, dests, int(info.is_store), spec))
    return facts


def _new_ports(ports: dict, cycle: int, floor: int) -> list[int]:
    """Start ``cycle``'s [loads, stores] port usage; past 128 tracked
    cycles, forget those before ``floor`` (the current issue cycle)."""
    usage = ports[cycle] = [0, 0]
    if len(ports) > 128:
        for key in [k for k in ports if k < floor]:
            del ports[key]
    return usage


def _drain(sb: deque, ports: dict, cursor: int, upto: int) -> int:
    """Retire buffered stores during unused cache cycles before
    ``upto``, one per cycle; returns the new scan cursor."""
    if not sb:
        return cursor if cursor > upto else upto
    cycle = cursor
    while cycle < upto:
        if sb[0] <= cycle:
            usage = ports.get(cycle)
            if usage is None or not (usage[0] or usage[1]):
                sb.popleft()
                if not sb:
                    cycle += 1
                    break
        cycle += 1
    return cycle


def _recurrence(program: Program, config: MachineConfig, fbit: int):
    """One flavour's issue recurrence, as a generator: send it column
    chunks, then None; it returns the flavour's own counters."""
    facts = _static_facts(program, config)
    width = config.issue_width
    read_ports = config.dcache_read_ports
    write_ports = config.dcache_write_ports
    sb_entries = config.store_buffer_entries
    imiss_latency = config.icache.miss_latency
    dmiss_latency = 0 if config.perfect_dcache \
        else config.dcache.miss_latency
    penalty = config.branch_mispredict_penalty
    one_cycle = config.one_cycle_loads
    count_unspeculated = config.fac is not None and not one_cycle

    reg_ready = [0] * NUM_SLOTS
    fu_used = [0] * 5
    unit_free = [0] * 5
    ports: dict[int, list[int]] = {}
    sb: deque[int] = deque()
    cur = issued = fetch_ready = sb_cursor = final = 0
    mis_cycle = -2
    mis_load = False
    speculated = mispredicted = unspeculated = 0
    load_mispredicted = store_mispredicted = stalls = latency_sum = 0

    chunk = yield
    while chunk is not None:
        for index, flags, failed in zip(*chunk):
            (memory, fu, limit, latency, non_pipelined, tracked, sources,
             dests, is_store, spec) = facts[index]
            if flags & IMISS:
                fetch_ready = (fetch_ready if fetch_ready > cur else cur) \
                    + imiss_latency
            cycle = fetch_ready if fetch_ready > cur else cur
            for slot in sources:
                ready = reg_ready[slot]
                if ready > cycle:
                    cycle = ready

            # ---- structural hazards ----
            if not memory:
                if cycle == cur and (issued >= width or fu_used[fu] >= limit):
                    cycle += 1
                if tracked and unit_free[fu] > cycle:
                    cycle = unit_free[fu]
            else:
                while True:
                    if cycle == cur and (issued >= width
                                         or fu_used[fu] >= limit):
                        cycle += 1
                        continue
                    # (speculate?, access cycle); a FAC access without an
                    # EX-stage port falls back to the MEM-stage access
                    speculate = not one_cycle and (
                        spec == 2 or spec == 1 and (
                            mis_cycle != cycle - 1
                            or mis_load and not is_store))
                    access = cycle if speculate or one_cycle else cycle + 1
                    while True:
                        usage = ports.get(access) \
                            or _new_ports(ports, access, cur)
                        if is_store:
                            free = not usage[0] and usage[1] < write_ports
                        else:
                            free = not usage[1] and usage[0] < read_ports
                        if free or not speculate:
                            break
                        speculate = False
                        access = cycle + 1
                    if not free:
                        cycle += 1
                        continue
                    if is_store and len(sb) >= sb_entries:
                        sb_cursor = _drain(sb, ports, sb_cursor, cycle)
                        if len(sb) >= sb_entries:
                            # forced retirement stalls issue one cycle
                            stalls += 1
                            sb.popleft()
                            cycle += 1
                            continue
                    break

            # ---- issue ----
            if cycle > cur:
                cur = cycle
                issued = 1
                fu_used = [0, 0, 0, 0, 0]
                fu_used[fu] = 1
            else:
                issued += 1
                fu_used[fu] += 1
            if non_pipelined:
                unit_free[fu] = cycle + latency

            # ---- execute ----
            if not memory:
                ready = cycle + latency
                if flags & (REDIRECT | MISPREDICT):
                    resume = cycle + 1 + penalty if flags & MISPREDICT \
                        else cycle + 1
                    if resume > fetch_ready:
                        fetch_ready = resume
            else:
                miss = dmiss_latency if flags & DMISS else 0
                if not speculate:
                    (ports.get(access) or _new_ports(ports, access, cur)
                     )[is_store] += 1
                    if count_unspeculated:
                        unspeculated += 1
                    ready = access + 1 + miss
                else:
                    (ports.get(cycle) or _new_ports(ports, cycle, cur)
                     )[is_store] += 1
                    if spec == 2:
                        ready = cycle + 1 + miss
                    elif not failed & fbit:
                        speculated += 1
                        ready = cycle + 1 + miss
                    else:
                        # replay with the non-speculative address in MEM
                        speculated += 1
                        mispredicted += 1
                        if is_store:
                            store_mispredicted += 1
                        else:
                            load_mispredicted += 1
                        mis_cycle = cycle
                        mis_load = not is_store
                        (ports.get(cycle + 1)
                         or _new_ports(ports, cycle + 1, cur))[is_store] += 1
                        ready = cycle + 2 + miss
                if is_store:
                    sb.append(ready)
                    ready = cycle + 1
                else:
                    latency_sum += ready - cycle
            for slot in dests:
                reg_ready[slot] = ready
            if ready > final:
                final = ready
            if cycle >= final:
                final = cycle + 1
            if sb:
                sb_cursor = _drain(sb, ports, sb_cursor, cycle)
            elif cycle > sb_cursor:
                sb_cursor = cycle
        chunk = yield

    # drain the store buffer
    end = final if final > sb_cursor else sb_cursor
    while sb:
        ready = sb.popleft()
        end = (end if end > ready else ready) + 1
    return {
        "cycles": final if final > end else end,
        "fac_speculated": speculated,
        "fac_mispredicted": mispredicted,
        "fac_not_speculated": unspeculated,
        "fac_load_mispredicted": load_mispredicted,
        "fac_store_mispredicted": store_mispredicted,
        "store_buffer_full_stalls": stalls,
        "load_latency_sum": latency_sum,
    }
