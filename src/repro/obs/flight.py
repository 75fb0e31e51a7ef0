"""Pipeline flight recorder: the timing model's one per-instruction
hook. A bounded ring buffer of recent pipeline activity is rendered as
an ANSI waterfall (``repro pipeview``) or exported to the Chrome-trace
sink with named per-stage tracks; an unbounded recorder keeps every
instruction and feeds ``repro trace`` (:mod:`repro.obs.trace`) and the
Figure 1 stage charts (:mod:`repro.pipeline.tracer`).

The recorder is a ``run_trace`` *consumer* that taps a
:class:`~repro.pipeline.pipeline.PipelineSimulator`. It hands the
pipeline a preallocated ring (``pipe._flight``) whose slots the
pipeline's ``retire`` overwrites in place -- a handful of int stores
per retired instruction, no call frames, no allocation, and plain
instructions stay record-free; the detached pipeline pays one
attribute test per instruction for the hook. Without ``--around``
triggers the bounded recorder's ``retire`` *is* the pipeline's bound
method, so recording adds zero dispatch overhead.

Each ring slot captures, per retired instruction:

* the five-stage occupancy window IF/ID/EX/MEM/WB, reconstructed from
  the issue cycle the pipeline assigned (IF = issue-2, ID = issue-1,
  EX = issue), the planned cache-access cycle, and the result-ready
  cycle,
* the issue-frontier advance since the previous instruction (hazard /
  structural stalls show up as advances greater than the steady-state
  group rotation),
* the FAC outcome -- not speculated, predicted, or replayed -- and, for
  replays, the *specific* verification signal that fired (recomputed
  lazily at dump time from the recorded :class:`TraceRecord`, so the
  record path stays allocation-free).

The ring holds ``window_cycles * issue_width`` slots; ``entries()``
additionally clips to the trailing ``window_cycles`` of issue cycles.
``--around`` support: a pc trigger keeps recording for half a window
after the trigger pc retires, a cycle trigger freezes once issue passes
``cycle + window/2``; in both cases the recorder keeps *driving* the
wrapped pipeline so timing is unaffected.

With ``window_cycles=None`` the recorder keeps every instruction: its
``retire`` wraps the pipeline's and, each time the ring fills, decodes
it in retirement order and hands the chunk to ``on_drain`` (by default kept
for ``entries()``; ``repro trace`` writes each chunk out instead, so
memory stays bounded). Sequence numbers, stall gaps and issue slots
continue across drains; call :meth:`FlightRecorder.flush` after the run
to drain the partly filled ring.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.cpu.executor import CPU, TraceRecord
from repro.fac.config import FacConfig
from repro.isa.disassembler import disassemble
from repro.isa.program import Program
from repro.obs.sinks import ChromeTraceSink
from repro.pipeline.config import MachineConfig
from repro.pipeline.pipeline import PipelineSimulator
from repro.pipeline.result import SimResult
from repro.utils.bits import to_signed32

#: Pipeline stages, in track order for the Chrome export.
STAGE_NAMES = ("IF", "ID", "EX", "MEM", "WB")

# FAC outcome codes, decoded into :class:`FlightEntry.fac`. The ring
# slot itself stores the pipeline's raw success flag (None / True /
# False); the mapping happens at decode time.
FAC_NONE = 0      # not a memory access
FAC_NOSPEC = 1    # access not speculated (policy, or FAC-less machine)
FAC_PREDICT = 2   # speculated, verification passed
FAC_REPLAY = 3    # speculated, verification failed -> MEM-stage replay
FAC_CODES = {FAC_NONE: "-", FAC_NOSPEC: "nospec",
             FAC_PREDICT: "predict", FAC_REPLAY: "replay"}

# Ring slot field indices (written by the pipeline's inline ring tap,
# see PipelineSimulator._flight). The retirement sequence number, the
# issue-frontier advance and the issue slot are not stored: slots are
# placed at ``seq % cap`` and issue is in order, so all three fall out
# of the ring position at decode time.
_PC, _PAYLOAD, _KIND, _ISSUE, _READY, _MEM, _FAC, _FLAG = range(8)

# Ring size of an unbounded recorder: it is drained each time it fills.
_UNBOUNDED_SLOTS = 256


@dataclass(frozen=True)
class FlightEntry:
    """One decoded ring slot, in retirement order."""

    seq: int            # retirement sequence number (monotonic)
    pc: int
    kind: int           # predecode kind: 0 plain, 1 mem, 2 ctrl
    disasm: str
    issue: int          # EX stage cycle; IF = issue-2, ID = issue-1
    ready: int          # result-ready (WB) cycle; a store's is issue+1
    mem: int | None     # cache-access cycle (mem ops only)
    stall: int          # issue-frontier advance over the predecessor
    fac: int            # FAC_* code
    reason: str | None  # verification signal name (replays only)
    flag: int           # mem: 1 hit / 0 miss; ctrl: 1 mispredict; else -1
    op: str             # mnemonic
    is_store: bool
    slot: int           # issue slot within the issue cycle; issue is in
                        # order, so this is the entry's position among
                        # entries with the same issue cycle (a bounded
                        # window counts from its oldest surviving slot)
    record: TraceRecord | None  # the CPU's record (mem and ctrl only):
                                # ea, taken, operand values

    @property
    def fac_name(self) -> str:
        return FAC_CODES[self.fac]


class FlightRecorder:
    """Bounded recorder of recent per-instruction pipeline activity."""

    __slots__ = ("_pipe", "window_cycles", "_cap", "_slots", "_seqcell",
                 "_frozen", "_around_pc", "_freeze_cycle", "_countdown",
                 "_watch", "_retire", "_disasm",
                 "_drained", "_full_at", "_last", "_kept", "on_drain",
                 "retire")

    def __init__(self, pipe: PipelineSimulator,
                 window_cycles: int | None = 256,
                 around_pc: int | None = None,
                 around_cycle: int | None = None):
        self._pipe = pipe
        if window_cycles is None:
            if around_pc is not None or around_cycle is not None:
                raise ValueError("--around triggers need a bounded window")
            self.window_cycles = None
            cap = _UNBOUNDED_SLOTS
        else:
            self.window_cycles = max(1, window_cycles)
            cap = max(16, self.window_cycles * pipe.config.issue_width)
        self._cap = cap
        # preallocated slots, overwritten in place at seq % cap; the
        # sentinel kind -1 marks never-written
        self._slots = [[0, None, -1, 0, 0, -1, None, -1]
                       for _ in range(cap)]
        # ring cursor in a cell shared with the pipeline's ring tap
        self._seqcell = [0]
        self._frozen = False
        self._around_pc = around_pc
        self._freeze_cycle = (None if around_cycle is None
                              else around_cycle + self.window_cycles // 2)
        self._countdown = -1
        self._watch = around_pc is not None or around_cycle is not None
        # the wrapped pipeline's bound hook, looked up once
        self._retire = pipe.retire
        self._disasm: dict[int, str] = {}   # pc -> disassembly
        # unbounded mode: first undrained seq, the seq at which the ring
        # is full, and the (issue, slot) of the last drained entry
        self._drained = 0
        self._full_at = cap
        self._last: tuple[int | None, int] = (None, 0)
        self._kept: list[FlightEntry] = []
        #: unbounded mode: receives each drained chunk of entries
        self.on_drain = self._kept.extend
        # hand the ring to the pipeline: its hot loops write the slots
        # inline (see PipelineSimulator._flight)
        pipe._flight = (self._slots, cap, self._seqcell)
        if self.window_cycles is None:
            self.retire = self._retire_drain
        elif self._watch:
            self.retire = self._retire_watch
        else:
            # no trigger can ever freeze the ring, so the recorder adds
            # nothing at all on top of the pipeline's inline ring tap:
            # run_trace drives the pipeline's own hook directly
            self.retire = pipe.retire

    @property
    def retired(self) -> int:
        """Instructions written to the ring so far."""
        return self._seqcell[0]

    # -------------------------------------------------------------- #
    # run_trace consumer hook (unbounded mode): drain a full ring

    def _retire_drain(self, pc, inst, rec) -> None:
        self._retire(pc, inst, rec)
        if self._seqcell[0] == self._full_at:
            self.flush()

    def flush(self) -> None:
        """Unbounded mode: decode the slots written since the last drain
        and hand them to ``on_drain`` in retirement order."""
        total = self._seqcell[0]
        if total == self._drained:
            return
        chunk, self._last = self._decode(self._drained, total, self._last)
        self._drained = total
        self._full_at = total + self._cap
        self.on_drain(chunk)

    # -------------------------------------------------------------- #
    # run_trace consumer hook (``--around`` watch mode only)
    #
    # The ring itself is written by the pipeline; this wrapper only
    # watches for the trigger and detaches the ring tap once the
    # trailing half-window has been captured.

    def _retire_watch(self, pc, inst, rec) -> None:
        issue = self._retire(pc, inst, rec)
        if self._watch:
            self._check_trigger(pc, issue)

    def _freeze(self) -> None:
        self._frozen = True
        self._watch = False
        self._pipe._flight = None   # stop recording, keep simulating

    def _check_trigger(self, pc: int, issue: int) -> None:
        if self._countdown >= 0:
            self._countdown -= 1
            if self._countdown < 0:
                self._freeze()
        elif self._around_pc is not None and pc == self._around_pc:
            self._countdown = self._cap // 2
            self._around_pc = None
        elif self._freeze_cycle is not None and issue >= self._freeze_cycle:
            self._freeze()

    # -------------------------------------------------------------- #
    # decoding

    def entries(self) -> list[FlightEntry]:
        """Decode the ring into retirement order, clipped to the last
        ``window_cycles`` issue cycles. Lazy work (sequence numbers,
        stall and issue-slot reconstruction, FAC failure signals,
        disassembly) happens here. An unbounded recorder drains the ring
        and returns every entry kept so far (none when ``on_drain`` was
        replaced)."""
        if self.window_cycles is None:
            self.flush()
            return list(self._kept)
        total = self._seqcell[0]
        if total == 0:
            return []
        first = max(0, total - self._cap)
        out, _ = self._decode(first, total, (None, 0))
        floor = out[-1].issue - self.window_cycles
        return [e for e in out if e.issue > floor]

    def _decode(self, first: int, total: int,
                last: tuple[int | None, int]
                ) -> tuple[list[FlightEntry], tuple[int | None, int]]:
        """Decode ring positions ``first .. total - 1``. ``last`` is the
        (issue cycle, issue slot) of the entry before ``first`` -- None
        for none -- and the pair for the last decoded entry is returned
        with the entries, so a drained run continues seamlessly."""
        pipe = self._pipe
        facts = pipe._facts
        slots = self._slots
        cap = self._cap
        disasm = self._disasm
        prev_issue, issue_slot = last
        out = []
        for seq in range(first, total):
            slot = slots[seq % cap]
            pc = slot[_PC]
            issue = slot[_ISSUE]
            # issue is in order: an entry issuing in its predecessor's
            # cycle takes the next slot, a later cycle starts at slot 0
            if issue == prev_issue:
                issue_slot += 1
                stall = 0
            else:
                # the oldest decoded record has no predecessor to diff
                stall = 0 if prev_issue is None else issue - prev_issue
                issue_slot = 0
            prev_issue = issue
            kind = slot[_KIND]
            payload = slot[_PAYLOAD]
            # plain slots hold the bare instruction and leave
            # _MEM/_FAC/_FLAG stale; the others hold the TraceRecord
            record = None if kind == 0 else payload
            inst = payload if kind == 0 else payload.inst
            info = facts[id(inst)][1]
            text = disasm.get(pc)
            if text is None:
                text = disasm[pc] = disassemble(inst)
            fac = FAC_NONE
            mem = None
            reason = None
            flag = -1
            if kind == 1:
                success = slot[_FAC]
                fac = (FAC_NOSPEC if success is None
                       else FAC_PREDICT if success else FAC_REPLAY)
                mem = slot[_MEM]
                flag = slot[_FLAG]
                if fac == FAC_REPLAY:
                    mode = info.mem_mode
                    offset = (record.offset_value if mode == "c"
                              else to_signed32(record.offset_value))
                    prediction = pipe.fac.predict(record.base_value, offset,
                                                  mode == "x")
                    reason = prediction.signals.primary_reason
            elif kind == 2:
                flag = slot[_FLAG]
            out.append(FlightEntry(
                seq=seq, pc=pc, kind=kind, disasm=text, issue=issue,
                ready=slot[_READY], mem=mem, stall=stall, fac=fac,
                reason=reason, flag=flag, op=info.mnemonic,
                is_store=info.is_store, slot=issue_slot, record=record,
            ))
        return out, (prev_issue, issue_slot)

    # -------------------------------------------------------------- #
    # text dump (golden-file tested: deterministic, no colour)

    def dump(self) -> str:
        """One line per entry, fixed-width, deterministic."""
        lines = []
        for e in self.entries():
            mem = f"{e.mem:d}" if e.mem is not None else "-"
            if e.kind == 1:
                flag = "hit" if e.flag == 1 else "miss"
            elif e.kind == 2:
                flag = "mispred" if e.flag == 1 else "ok"
            else:
                flag = "-"
            lines.append(
                f"{e.seq:>8} 0x{e.pc:08x} i={e.issue:<8d} r={e.ready:<8d} "
                f"m={mem:<8s} +{e.stall:<3d} {e.fac_name:<7s} {flag:<7s} "
                f"{e.reason or '-':<21s} {e.disasm}"
            )
        return "\n".join(lines) + ("\n" if lines else "")

    # -------------------------------------------------------------- #
    # ANSI waterfall

    def render(self, color: bool = False, max_span: int = 120) -> str:
        """Pipeline waterfall: one row per instruction, one column per
        cycle. Stage letters: F(etch) D(ecode) X(execute) S(peculative
        EX-stage cache access) R(eplay) M(em-stage access) W(riteback);
        ``m`` fills miss-wait cycles."""
        entries = self.entries()
        if not entries:
            return "(flight recorder is empty)\n"
        hi = max(max(e.ready, e.issue + 1) for e in entries)
        lo = min(e.issue - 2 for e in entries)
        if hi - lo + 1 > max_span:
            lo = hi - max_span + 1
            entries = [e for e in entries if e.issue - 2 >= lo]
        span = hi - lo + 1

        def paint(text, code):
            if not color:
                return text
            return f"\x1b[{code}m{text}\x1b[0m"

        gutter = 40
        # cycle ruler, one tick per 10 columns
        ruler = [" "] * span
        for col in range(span):
            cycle = lo + col
            if cycle % 10 == 0:
                tick = str(cycle)
                for j, ch in enumerate(tick):
                    if col + j < span:
                        ruler[col + j] = ch
        lines = ["cycle".ljust(gutter) + "".join(ruler)]

        for e in entries:
            cells = {}
            cells[e.issue - 2 - lo] = "F"
            cells[e.issue - 1 - lo] = "D"
            if e.kind == 1:
                if e.fac == FAC_REPLAY:
                    cells[e.issue - lo] = paint("S", "31")      # red
                    cells[e.issue + 1 - lo] = paint("R", "31;1")
                    first_wait = e.issue + 2
                elif e.fac == FAC_PREDICT:
                    cells[e.issue - lo] = paint("S", "32")      # green
                    first_wait = e.issue + 1
                else:
                    cells[e.issue - lo] = "X"
                    if e.mem is not None and e.mem != e.issue:
                        cells[e.mem - lo] = (paint("M", "33")
                                             if e.flag == 0 else "M")
                    first_wait = (e.mem if e.mem is not None else e.issue) + 1
                for c in range(first_wait, e.ready):
                    cells.setdefault(c - lo, paint("m", "33"))
                cells.setdefault(e.ready - lo, "W")
            else:
                for c in range(e.issue, e.ready):
                    cells.setdefault(c - lo, "X")
                cells.setdefault(e.ready - lo, "W")
            row = [" "] * span
            for col, ch in cells.items():
                if 0 <= col < span:
                    row[col] = ch
            note = ""
            if e.reason is not None:
                note = "  <- " + e.reason
                if color:
                    note = paint(note, "31")
            elif e.kind == 2 and e.flag == 1:
                note = "  <- branch-mispredict"
            elif e.kind == 1 and e.flag == 0:
                note = "  <- dcache-miss"
            label = f"{e.seq:>7} 0x{e.pc:08x} {e.disasm}"
            if len(label) > gutter - 1:
                label = label[:gutter - 2] + "…"
            lines.append(label.ljust(gutter) + "".join(row) + note)
        return "\n".join(lines) + "\n"

    # -------------------------------------------------------------- #
    # Chrome export: named per-stage tracks

    def to_chrome(self, stream) -> None:
        """Write the window as Chrome trace JSON with one named track
        per pipeline stage (process "pipeline stages", pid 1)."""
        sink = ChromeTraceSink(stream)
        sink.register_process(1, "pipeline stages", sort_index=1)
        for tid, stage in enumerate(STAGE_NAMES):
            sink.register_track(1, tid, stage, sort_index=tid)
        for e in self.entries():
            args = {"pc": f"0x{e.pc:08x}", "seq": e.seq}
            if e.fac != FAC_NONE:
                args["fac"] = e.fac_name
            if e.reason is not None:
                args["reason"] = e.reason
            name = e.disasm
            sink.emit_slice(name, "stage", e.issue - 2, 1, 1, 0, args)
            sink.emit_slice(name, "stage", e.issue - 1, 1, 1, 1, args)
            if e.kind == 1:
                ex_dur = 2 if e.fac == FAC_REPLAY else 1
                sink.emit_slice(name, "stage", e.issue, ex_dur, 1, 2, args)
                if e.mem is not None:
                    mem_dur = max(1, e.ready - e.mem)
                    sink.emit_slice(name, "stage", e.mem, mem_dur, 1, 3, args)
            else:
                sink.emit_slice(name, "stage",
                                e.issue, max(1, e.ready - e.issue), 1, 2, args)
            sink.emit_slice(name, "stage", e.ready, 1, 1, 4, args)
        sink.close()


# ------------------------------------------------------------------ #


def record_flight(
    program: Program,
    config: MachineConfig | None = None,
    window_cycles: int = 256,
    around_pc: int | None = None,
    around_cycle: int | None = None,
    max_instructions: int = 50_000_000,
) -> tuple[FlightRecorder, SimResult]:
    """Run ``program`` on the FAC machine with a flight recorder
    attached; returns the recorder (holding the trailing window) and
    the timing result."""
    if config is None:
        config = MachineConfig(fac=FacConfig())
    cpu = CPU(program)
    pipe = PipelineSimulator(config)
    recorder = FlightRecorder(pipe, window_cycles=window_cycles,
                              around_pc=around_pc, around_cycle=around_cycle)
    cpu.run_trace(recorder, max_instructions)
    result = pipe.finalize(memory_usage=cpu.memory_usage)
    return recorder, result
