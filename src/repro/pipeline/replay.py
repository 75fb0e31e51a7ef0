"""Time one run on many machine flavours from one pass over it.

Timing a run on the Table 5 machine splits into two halves:

* The **front** is the same on every flavour that shares the caches
  and the BTB. The I-cache, D-cache and BTB are touched in program
  order, and a FAC verdict (:meth:`FastAddressCalculator.fails`)
  depends only on an access's operands and the predictor geometry
  ``(cache_size, block_size, full_tag_add)``. One ``retire`` consumer
  drives them once and emits compact per-record columns:
  the static instruction index, a flags byte (I-cache miss, D-cache
  miss, fetch redirect, BTB mispredict) and one fail bit per distinct
  FAC geometry. The front also yields every flavour-independent
  :class:`SimResult` counter.
* The **recurrence** runs once per flavour: register readiness, issue
  width, functional-unit limits, non-pipelined units, cache ports, the
  store buffer and the Section 5.5 speculation policy, over ints held
  in locals. No :class:`TraceRecord` is built; the only calls are to
  claim a new cycle's cache ports and to scan a non-empty store buffer.

A recurrence takes a chunk window by window: a window starts at a
record and grows by whole straight-line runs until it holds
:data:`WINDOW` records. Its key is the window's static-index, flags
and fail-bit columns plus the state its records can read, counted
from the issue cycle ``cur`` and clamped where an earlier value acts
like ``cur``; state that the rest of the key implies is left out. The
first time a key is met the window is stepped and its state changes
are kept; later they are replayed. Each flavour's memo holds at most
:data:`MEMO_LIMIT` windows, and a window that would cross the end of
its chunk is stepped.

Records flow in chunks of :data:`CHUNK`: the front fills one chunk,
every flavour's recurrence (a generator that keeps its state between
chunks) consumes it, and the chunk is reused, so memory stays bounded
whatever the trace length.

A front is fed either by :func:`replay_into` from a recorded trace or
live, by :meth:`CPU.run_trace` (:func:`time_live`): both speak the one
``retire(pc, inst, rec)`` hook, so both feeds share the front and the
recurrence. On request a recurrence also reports, chunk by chunk,
each record's issue and result-ready cycles and each memory access's
outcome (see :data:`IN_MEM`), so per-site and per-instruction views
(``repro profile``, ``repro trace``, ``repro pipeview``, Figure 1) are
columns of the same run.

The result is cycle-for-cycle that of
:class:`~repro.pipeline.pipeline.PipelineSimulator`, which remains the
oracle (``tests/pipeline/test_replay.py`` and
``tools/check_sim_equivalence.py`` hold the snapshots identical).
:func:`repro.cpu.tracefile.simulate_trace` times one flavour of a
recorded trace; :func:`time_flavours` times many, one front per
distinct (caches, BTB) group; :func:`time_live` times a live run.
"""

from __future__ import annotations

import sys
from array import array
from collections import deque

from repro.cache.cache import Cache
from repro.cpu.executor import CPU
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

#: Each time the port table (cycle -> [loads, stores]) reaches a
#: multiple of this many cycles, it forgets those no reader can reach.
PORT_LIMIT = 128

#: A memo window grows by whole straight-line runs until it holds at
#: least this many records.
WINDOW = 32

#: Entries one flavour's memo may hold; 0 steps every record.
MEMO_LIMIT = 1 << 11

# flags byte of one record
IMISS = 1        # I-cache miss on entering a new fetch block
DMISS = 2        # D-cache miss
REDIRECT = 4     # fetch resumes at issue + 1 (taken or direct jump)
MISPREDICT = 8   # fetch resumes at issue + 1 + the mispredict penalty

# outcome byte of one memory access (a recurrence's optional column)
IN_EX = 0        # accessed in EX: a speculation that held, or 1-cycle loads
IN_MEM = 1       # not speculated: accessed in MEM
REPLAYED = 2     # speculated, mispredicted and re-accessed in MEM

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

# the classes that end a straight-line run
_ENDS_RUN = frozenset((OpClass.BRANCH, OpClass.JUMP, OpClass.SYSTEM))


def front_key(config: MachineConfig) -> tuple:
    """What a front depends on: flavours with equal keys share one."""
    return (config.icache, config.dcache, config.btb_entries)


def _geometry(fac: FacConfig) -> tuple[int, int, bool]:
    return (fac.cache_size, fac.block_size, fac.full_tag_add)


# ------------------------------------------------------------------ #
# front


class _FrontTap:
    """The front's ``retire`` consumer, fed by :func:`replay_into` or
    live by :meth:`CPU.run_trace`.

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
    """The shared half of timing one run on a group of flavours.

    ``machines`` must share :func:`front_key`. With a trace ``path``,
    the trace is decoded the first time :meth:`result` is asked for and
    every flavour's recurrence runs in that same pass; later calls only
    read results. With ``path=None`` the front is fed live: :meth:`open`
    returns its ``retire`` consumer for :meth:`CPU.run_trace` and
    :meth:`close` ends the run.

    ``outcomes`` maps flavours to callables that watch their flavour's
    run: after the flavour's recurrence consumes a chunk, the callable
    gets ``(indices, flags, outcomes, issues, readies)`` -- the front's
    static-index and flags columns, a bytearray holding one outcome
    byte (:data:`IN_EX`, :data:`IN_MEM` or :data:`REPLAYED`) per load
    or store in the chunk, in record order, and per record the issue
    cycle and the result-ready cycle (``array('q')``; a store's ready
    cycle is issue + 1, as its dependents see it). The columns are
    reused for the next chunk, so the callable must not keep them.

    After the run, :attr:`memo_stats` maps each flavour to its
    recurrence's memo statistics: the windows looked up, the hits and
    the entries held (kept out of :class:`SimResult`).
    """

    def __init__(self, program: Program, path, machines, outcomes=None):
        self.program = program
        self.path = None if path is None else str(path)
        self.machines = tuple(dict.fromkeys(machines))
        if len({front_key(m) for m in self.machines}) != 1:
            raise ValueError("one front times flavours that share their "
                             "caches and BTB")
        self.outcomes = dict(outcomes or {})
        if not self.outcomes.keys() <= set(self.machines):
            raise ValueError("outcomes watch a machine this front does "
                             "not time")
        self.geometries = tuple(dict.fromkeys(
            _geometry(m.fac) for m in self.machines if m.fac is not None))
        self._running: tuple | None = None
        self._shared: dict | None = None
        self._own: dict = {}
        self.memo_stats: dict = {}
        self._btb_accuracy = 0.0

    def result(self, config: MachineConfig,
               memory_usage: int = 0) -> SimResult:
        """``config``'s :class:`SimResult` (a fresh object per call)."""
        if config not in self.machines:
            raise ValueError("this front was not built for that machine")
        if self._shared is None:
            if self.path is None:
                raise ValueError("a live front has no result before close()")
            tap = self.open()
            self.close(replay_into(self.program, self.path, tap))
        result = SimResult(memory_usage=memory_usage, **self._shared,
                           **self._own[config])
        result.extras["btb_accuracy"] = self._btb_accuracy
        return result

    def open(self) -> _FrontTap:
        """Start the run: set up the caches, the BTB, every geometry's
        verdict and every flavour's recurrence, and return the
        ``retire`` consumer to feed the run to, in program order."""
        if self._running is not None or self._shared is not None:
            raise ValueError("a front times one run")
        config = self.machines[0]
        icache = Cache(config.icache)
        dcache = Cache(config.dcache)
        btb = BranchTargetBuffer(config.btb_entries)
        verdicts = tuple(
            FastAddressCalculator(FacConfig(
                cache_size=size, block_size=block,
                full_tag_add=full)).fails
            for size, block, full in self.geometries)
        paths = _Paths(self.program)
        flavours = []
        for machine in self.machines:
            fbit = 0 if machine.fac is None \
                else 1 << self.geometries.index(_geometry(machine.fac))
            flavour = _recurrence(self.program, machine, fbit,
                                  self.outcomes.get(machine), paths)
            next(flavour)
            flavours.append(flavour)
        tap = _FrontTap(self.program, config, icache, dcache, btb,
                        verdicts, flavours)
        self._running = (tap, icache, dcache, btb, flavours)
        return tap

    def close(self, count: int) -> None:
        """End the run of ``count`` records fed to :meth:`open`'s tap."""
        tap, icache, dcache, btb, flavours = self._running
        self._running = None
        tap.flush()
        for machine, flavour in zip(self.machines, flavours):
            try:
                flavour.send(None)
            except StopIteration as done:
                self._own[machine], self.memo_stats[machine] = done.value
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


def _groups(machines) -> dict[tuple, list]:
    """``machines`` by :func:`front_key`, in first-seen order."""
    groups: dict[tuple, list] = {}
    for machine in machines:
        groups.setdefault(front_key(machine), []).append(machine)
    return groups


def time_flavours(program: Program, path, machines,
                  memory_usage: int = 0) -> list[SimResult]:
    """Time the trace at ``path`` on every machine in ``machines``.

    Flavours that share their caches and BTB share one :class:`Front`,
    so the trace is decoded once per group; each flavour is then timed
    by :func:`repro.cpu.tracefile.simulate_trace` on its group's front.
    Results come back in ``machines`` order.
    """
    from repro.cpu import tracefile

    fronts = {key: Front(program, path, group)
              for key, group in _groups(machines).items()}
    return [tracefile.simulate_trace(program, fronts[front_key(machine)],
                                     machine, memory_usage)
            for machine in machines]


def _pair(first, second):
    def retire(pc, inst, rec):
        first(pc, inst, rec)
        second(pc, inst, rec)
    return retire


class _FanOut:
    """One ``retire`` consumer that hands every record to several, in
    order: their ``retire`` calls are folded into nested two-call
    closures, so no record pays for a loop."""

    __slots__ = ("retire",)

    def __init__(self, consumers):
        retires = [consumer.retire for consumer in consumers]
        retire = retires.pop()
        while retires:
            retire = _pair(retires.pop(), retire)
        self.retire = retire


def time_live(program: Program, machines,
              max_instructions: int = 50_000_000, *, tee=None,
              outcomes=None, cpu: CPU | None = None
              ) -> tuple[list[SimResult], CPU]:
    """Execute ``program`` once and time the run on every machine in
    ``machines``, without a trace file.

    One :meth:`CPU.run_trace` of ``cpu`` (a fresh :class:`CPU` by
    default) feeds a live :class:`Front` per (caches, BTB) group and,
    when given, ``tee``: any other ``retire`` consumer (a trace writer,
    say) that should see the same run. The tee sees each record before
    the fronts do, so a watcher that a full chunk reaches mid-``retire``
    finds the chunk's last record already teed. ``outcomes`` maps
    machines to :class:`Front` outcome watchers. Returns the results in
    ``machines`` order, and the CPU (memory usage, stdout).
    """
    outcomes = outcomes or {}
    if not outcomes.keys() <= set(machines):
        raise ValueError("outcomes watch a machine that is not timed")
    fronts = {key: Front(program, None, group,
                         {m: outcomes[m] for m in group if m in outcomes})
              for key, group in _groups(machines).items()}
    consumers = [front.open() for front in fronts.values()]
    if tee is not None:
        consumers.insert(0, tee)
    if cpu is None:
        cpu = CPU(program)
    count = cpu.run_trace(_FanOut(consumers), max_instructions)
    for front in fronts.values():
        front.close(count)
    return [fronts[front_key(machine)].result(machine, cpu.memory_usage)
            for machine in machines], cpu


# ------------------------------------------------------------------ #
# recurrence


class _Paths:
    """What the memo needs of a program's text, built once per front
    and shared by its flavours: ``runs[i]`` counts the instructions
    from static index ``i`` to the end of its straight-line run (a
    BRANCH, JUMP or SYSTEM instruction ends one), ``deps[i]`` holds its
    (source slots, dest slots), and :meth:`slots` caches, per window
    path, the register slots the window reads and writes."""

    __slots__ = ("runs", "deps", "_known")

    def __init__(self, program: Program):
        self.deps = [sources_and_dests(inst) for inst in program.instructions]
        runs = [0] * len(self.deps)
        run = 0
        for index in range(len(runs) - 1, -1, -1):
            run = 1 if OP_INFO[program.instructions[index].op].klass \
                in _ENDS_RUN else run + 1
            runs[index] = run
        self.runs = runs
        self._known: dict[bytes, tuple] = {}

    def slots(self, path: bytes) -> tuple[bytes, tuple, tuple]:
        """``(path, live-in slots, written slots)`` of the window whose
        static-index column is ``path``: the slots read before the
        window writes them, and every slot it writes. The path returned
        is the first one seen, so every flavour's memo keys share it."""
        known = self._known.get(path)
        if known is None:
            deps = self.deps
            live: list[int] = []
            written: set[int] = set()
            for index in array("I", path):
                sources, dests = deps[index]
                for slot in sources:
                    if slot not in written and slot not in live:
                        live.append(slot)
                written.update(dests)
            known = (path, tuple(live), tuple(sorted(written)))
            if len(self._known) < MEMO_LIMIT:
                self._known[path] = known
        return known


def _static_facts(program: Program, config: MachineConfig,
                  deps: list) -> list[tuple]:
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
    for inst, (sources, dests) in zip(program.instructions, deps):
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
        facts.append((memory, fu, limits[fu], config.result_latency(klass),
                       klass in non_pipelined, fu in _TRACKED_FUS,
                       sources, dests, int(info.is_store), spec))
    return facts


def _new_ports(ports: dict, cycle: int, cur: int,
               sb_cursor: int) -> list[int]:
    """Start ``cycle``'s [loads, stores] port usage. When the table
    reaches a multiple of :data:`PORT_LIMIT` cycles, forget those before
    both the current issue cycle ``cur`` and the store-buffer drain's
    cursor: no port check or drain reads them again, so the prune is
    unobservable."""
    usage = ports[cycle] = [0, 0]
    if not len(ports) % PORT_LIMIT:
        floor = cur if cur < sb_cursor else sb_cursor
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


def _busy_ports(ports: dict, cur: int, origin: int) -> tuple:
    """The non-zero port entries at ``cur`` and ``cur + 1``, as
    (cycle - ``origin``, loads, stores). A record issued by ``cur``
    claims no later port, and none before ``cur`` is read again."""
    busy = []
    for cycle in (cur, cur + 1):
        usage = ports.get(cycle)
        if usage is not None and (usage[0] or usage[1]):
            busy.append((cycle - origin, usage[0], usage[1]))
    return tuple(busy)


def _lanes(count: int) -> int:
    """An int with a 1 in each of ``count`` 64-bit lanes: ``c`` times it,
    added to a packed column of non-negative ``array('q')`` values,
    adds ``c`` to each value at once."""
    return ((1 << 64 * count) - 1) // ((1 << 64) - 1)


def _recurrence(program: Program, config: MachineConfig, fbit: int,
                watch, paths: _Paths):
    """One flavour's issue recurrence, as a generator: send it column
    chunks, then None; it returns the flavour's own counters and its
    memo statistics. With a ``watch`` callable (or None), each chunk's
    memory-access outcomes and issue and ready cycles are collected and
    handed to it (see :class:`Front`).

    Records are taken window by window: a window starts at a record and
    takes whole straight-line runs (``paths``, shared by the front's
    flavours) until it holds
    :data:`WINDOW` records. The first time a window's records, flags,
    fail bits and starting state relative to the issue cycle ``cur``
    are seen, it is stepped and its state changes are kept; after that
    they are replayed. A window that would cross the end of its chunk
    is stepped."""
    facts = _static_facts(program, config, paths.deps)
    runs, slots_of = paths.runs, paths.slots
    memo_limit = MEMO_LIMIT
    memo: dict[tuple, tuple] = {}
    windows = hits = 0
    to_bit = bytes(1 if byte & fbit else 0 for byte in range(256))
    outcomes, issues, readies = bytearray(), array("q"), array("q")
    add_outcome = add_issue = add_ready = None
    if watch is not None:
        add_outcome, add_issue, add_ready = \
            outcomes.append, issues.append, readies.append
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
        indices, flag_col, fail_col = chunk
        n = len(flag_col)
        if memo_limit:
            path_col = indices.tobytes()
            flags_key = bytes(flag_col)
            if not fbit:
                fails_key = b""
            elif isinstance(fail_col, bytearray):
                fails_key = bytes(fail_col).translate(to_bit)
            else:
                fails_key = bytes(1 if failed & fbit else 0
                                  for failed in fail_col)
        pos = 0
        while pos < n:
            key = None
            end = n
            if memo_limit:
                end = pos
                while end - pos < WINDOW and end < n:
                    end += runs[indices[end]]
                if end - pos < WINDOW or end > n:
                    end = n
                else:
                    path, live, written = slots_of(
                        path_col[4 * pos:4 * end])
                    # the path fixes how many live-in slots there are,
                    # and the busy ports are tuples, so the buffer's
                    # entries can end the key. ``mis_load`` is left out:
                    # after a replayed store, the next cycle's port
                    # holds the store, so a load there goes to MEM
                    # anyway. The drain cursor is left out: it is at
                    # ``cur``, or with the buffer empty acts as ``cur``.
                    key = (path, flags_key[pos:end], fails_key[pos:end],
                           fetch_ready - cur if fetch_ready > cur else 0,
                           unit_free[2] - cur if unit_free[2] > cur else 0,
                           unit_free[4] - cur if unit_free[4] > cur else 0,
                           *fu_used,        # (issued is their sum)
                           mis_cycle - cur if mis_cycle >= cur - 1 else -2,
                           *[ready - cur if ready > cur else 0
                             for ready in map(reg_ready.__getitem__, live)],
                           *_busy_ports(ports, cur, cur),
                           *[entry - cur if entry > cur else 0
                             for entry in sb])
                    windows += 1
                    done = memo.get(key)
                    if done is not None:
                        hits += 1
                        (advance, issued, fu_done, fetch, free2, free4,
                         mis, mis_load, buffered, busy, values, counts,
                         top, columns) = done
                        origin = cur
                        for slot, ready in zip(written, values):
                            reg_ready[slot] = origin + ready
                        cur = origin + advance
                        fu_used = list(fu_done)
                        fetch_ready = origin + fetch
                        unit_free[2] = origin + free2
                        unit_free[4] = origin + free4
                        mis_cycle = -2 if mis is None else origin + mis
                        sb = deque([cur + entry for entry in buffered])
                        sb_cursor = cur
                        ports = {origin + cycle: [loads, stores]
                                 for cycle, loads, stores in busy}
                        (s1, s2, s3, s4, s5, s6, s7) = counts
                        speculated += s1
                        mispredicted += s2
                        unspeculated += s3
                        load_mispredicted += s4
                        store_mispredicted += s5
                        stalls += s6
                        latency_sum += s7
                        if origin + top > final:
                            final = origin + top
                        if columns is not None:
                            outs, issue_col, ready_col, lanes, size = columns
                            outcomes += outs
                            shift = origin * lanes
                            issues.frombytes((issue_col + shift).to_bytes(
                                size, sys.byteorder))
                            readies.frombytes((ready_col + shift).to_bytes(
                                size, sys.byteorder))
                        pos = end
                        continue
                    origin, top, final = cur, final, 0
                    before = (speculated, mispredicted, unspeculated,
                              load_mispredicted, store_mispredicted,
                              stalls, latency_sum)
                    marks = (len(outcomes), len(issues))

            for index, flags, failed in zip(indices[pos:end],
                                            flag_col[pos:end],
                                            fail_col[pos:end]):
                (memory, fu, limit, latency, non_pipelined, tracked,
                 sources, dests, is_store, spec) = facts[index]
                if flags & IMISS:
                    fetch_ready = (fetch_ready if fetch_ready > cur
                                   else cur) + imiss_latency
                cycle = fetch_ready if fetch_ready > cur else cur
                for slot in sources:
                    ready = reg_ready[slot]
                    if ready > cycle:
                        cycle = ready

                # ---- structural hazards ----
                if not memory:
                    if cycle == cur and (issued >= width
                                         or fu_used[fu] >= limit):
                        cycle += 1
                    if tracked and unit_free[fu] > cycle:
                        cycle = unit_free[fu]
                else:
                    while True:
                        if cycle == cur and (issued >= width
                                             or fu_used[fu] >= limit):
                            cycle += 1
                            continue
                        # (speculate?, access cycle); a FAC access
                        # without an EX-stage port falls back to the
                        # MEM-stage access
                        speculate = not one_cycle and (
                            spec == 2 or spec == 1 and (
                                mis_cycle != cycle - 1
                                or mis_load and not is_store))
                        access = cycle if speculate or one_cycle \
                            else cycle + 1
                        while True:
                            usage = ports.get(access) \
                                or _new_ports(ports, access, cur,
                                              sb_cursor)
                            if is_store:
                                free = not usage[0] \
                                    and usage[1] < write_ports
                            else:
                                free = not usage[1] \
                                    and usage[0] < read_ports
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
                        resume = cycle + 1 + penalty \
                            if flags & MISPREDICT else cycle + 1
                        if resume > fetch_ready:
                            fetch_ready = resume
                else:
                    miss = dmiss_latency if flags & DMISS else 0
                    if not speculate:
                        (ports.get(access)
                         or _new_ports(ports, access, cur, sb_cursor)
                         )[is_store] += 1
                        if count_unspeculated:
                            unspeculated += 1
                        ready = access + 1 + miss
                    else:
                        (ports.get(cycle)
                         or _new_ports(ports, cycle, cur, sb_cursor)
                         )[is_store] += 1
                        if spec == 2:
                            ready = cycle + 1 + miss
                        elif not failed & fbit:
                            speculated += 1
                            ready = cycle + 1 + miss
                        else:
                            # replay with the non-speculative address
                            # in MEM
                            speculated += 1
                            mispredicted += 1
                            if is_store:
                                store_mispredicted += 1
                            else:
                                load_mispredicted += 1
                            mis_cycle = cycle
                            mis_load = not is_store
                            (ports.get(cycle + 1)
                             or _new_ports(ports, cycle + 1, cur,
                                           sb_cursor)
                             )[is_store] += 1
                            ready = cycle + 2 + miss
                    if add_outcome is not None:
                        add_outcome(IN_EX if ready == cycle + 1 + miss
                                    else REPLAYED if speculate else IN_MEM)
                    if is_store:
                        sb.append(ready)
                        ready = cycle + 1
                    else:
                        latency_sum += ready - cycle
                for slot in dests:
                    reg_ready[slot] = ready
                if add_issue is not None:
                    add_issue(cycle)
                    add_ready(ready)
                if ready > final:
                    final = ready
                if cycle >= final:
                    final = cycle + 1
                if sb:
                    sb_cursor = _drain(sb, ports, sb_cursor, cycle)
                elif cycle > sb_cursor:
                    sb_cursor = cycle

            if key is not None:
                top, final = final - origin, max(top, final)
                if len(memo) < memo_limit:
                    columns = None
                    if add_issue is not None:
                        # the issue and ready columns, packed into ints
                        # less ``origin`` in each 64-bit lane
                        lanes = _lanes(end - pos)
                        shift = origin * lanes
                        columns = (
                            bytes(outcomes[marks[0]:]),
                            int.from_bytes(issues[marks[1]:].tobytes(),
                                           sys.byteorder) - shift,
                            int.from_bytes(readies[marks[1]:].tobytes(),
                                           sys.byteorder) - shift,
                            lanes, 8 * (end - pos))
                    relevant = mis_cycle >= cur - 1
                    memo[key] = (
                        cur - origin, issued, tuple(fu_used),
                        (fetch_ready if fetch_ready > cur else cur) - origin,
                        (unit_free[2] if unit_free[2] > cur else cur)
                        - origin,
                        (unit_free[4] if unit_free[4] > cur else cur)
                        - origin,
                        mis_cycle - origin if relevant else None,
                        relevant and mis_load,
                        tuple([entry - cur if entry > cur else 0
                               for entry in sb]),
                        _busy_ports(ports, cur, origin),
                        tuple([reg_ready[slot] - origin
                               for slot in written]),
                        (speculated - before[0], mispredicted - before[1],
                         unspeculated - before[2],
                         load_mispredicted - before[3],
                         store_mispredicted - before[4],
                         stalls - before[5], latency_sum - before[6]),
                        top, columns)
            pos = end
        if watch is not None:
            watch(chunk[0], chunk[1], outcomes, issues, readies)
            del outcomes[:], issues[:], readies[:]
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
    }, {"windows": windows, "hits": hits, "entries": len(memo)}
