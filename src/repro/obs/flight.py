"""Pipeline flight recorder: per-instruction views of one timed run.

A bounded window of recent pipeline activity is rendered as an ANSI
waterfall (``repro pipeview``) or exported to the Chrome-trace sink
with named per-stage tracks; an unbounded recorder keeps every
instruction and feeds ``repro trace`` (:mod:`repro.obs.trace`) and the
Figure 1 stage charts (:mod:`repro.pipeline.tracer`).

The recorder times nothing itself. It rides on the replay engine's live
run (:func:`repro.pipeline.replay.time_live`) as a *tee*
(:attr:`FlightRecorder.retire`), which keeps the CPU's
:class:`TraceRecord` of each record of the current chunk (effective
address, branch outcome, operand values), and an *outcome watcher* (the
recorder itself), which receives each chunk's static-index, flags,
per-access outcome, issue and result-ready columns. An entry's stages
follow from them: IF = issue-2, ID = issue-1, EX = issue, MEM = the
cache-access cycle (issue, or issue + 1 for an access in MEM), WB =
ready; a replay's verification signal is recomputed lazily from its
recorded operands.

A bounded recorder keeps the raw column entries of the trailing
``window_cycles * issue_width`` retirements and decodes them lazily;
``entries()`` additionally clips to the trailing ``window_cycles`` of
issue cycles. ``--around``: a pc trigger ends the window half a window
of retirements after the pc first retires, a cycle trigger at the first
retirement issuing at ``cycle + window/2`` or later; the run goes on
to its end, so timing is unaffected.

With ``window_cycles=None`` the recorder keeps every instruction: it
decodes each column chunk as it arrives and hands it to ``on_drain``
(by default kept for ``entries()``; ``repro trace`` writes each chunk
out instead, so memory stays bounded). Sequence numbers, stall gaps and
issue slots continue across chunks.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from dataclasses import dataclass

from repro.cpu.executor import CPU, TraceRecord
from repro.fac.config import FacConfig
from repro.fac.predictor import FastAddressCalculator
from repro.isa.disassembler import disassemble
from repro.isa.opcodes import OP_INFO, OpClass
from repro.isa.program import Program
from repro.obs.sinks import ChromeTraceSink
from repro.pipeline.config import MachineConfig
from repro.pipeline.replay import DMISS, IN_MEM, MISPREDICT, time_live
from repro.pipeline.result import SimResult
from repro.utils.bits import to_signed32

#: Pipeline stages, in track order for the Chrome export.
STAGE_NAMES = ("IF", "ID", "EX", "MEM", "WB")

# FAC outcome codes, decoded into :class:`FlightEntry.fac` from the
# recurrence's outcome byte and the machine.
FAC_NONE = 0      # not a memory access
FAC_NOSPEC = 1    # access not speculated (policy, or FAC-less machine)
FAC_PREDICT = 2   # speculated, verification passed
FAC_REPLAY = 3    # speculated, verification failed -> MEM-stage replay
FAC_CODES = {FAC_NONE: "-", FAC_NOSPEC: "nospec",
             FAC_PREDICT: "predict", FAC_REPLAY: "replay"}


@dataclass(frozen=True)
class FlightEntry:
    """One decoded retirement, in retirement order."""

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
                        # window counts from its oldest surviving entry)
    record: TraceRecord | None  # the CPU's record (mem and ctrl only):
                                # ea, taken, operand values

    @property
    def fac_name(self) -> str:
        return FAC_CODES[self.fac]


class FlightRecorder:
    """Recorder of per-instruction pipeline activity of one run of
    ``program`` on ``config`` (the FAC machine by default): a
    :func:`~repro.pipeline.replay.time_live` tee (:attr:`retire`) and
    outcome watcher (the recorder). :meth:`run` drives the run."""

    def __init__(self, program: Program,
                 config: MachineConfig | None = None,
                 window_cycles: int | None = 256,
                 around_pc: int | None = None,
                 around_cycle: int | None = None):
        self.program = program
        self.config = config = config or MachineConfig(fac=FacConfig())
        if window_cycles is None:
            if around_pc is not None or around_cycle is not None:
                raise ValueError("--around triggers need a bounded window")
            self.window_cycles = self.capacity = None
        else:
            self.window_cycles = max(1, window_cycles)
            self.capacity = max(16, self.window_cycles * config.issue_width)
        # the trigger pc as a static index (None: it never retires)
        self._around_index = None
        if around_pc is not None:
            index, misaligned = divmod(around_pc - program.text_base, 4)
            if not misaligned and 0 <= index < len(program.instructions):
                self._around_index = index
        self._freeze_cycle = (None if around_cycle is None
                              else around_cycle + self.window_cycles // 2)
        #: the seq of the retirement the window ends at, once a trigger
        #: has fixed it; ``frozen`` once the run has reached it
        self._freeze_at: int | None = None
        self.frozen = False
        self._fac = FastAddressCalculator(config.fac) \
            if config.fac is not None else None
        # outcome byte -> FAC code: only a machine that speculates turns
        # an access in EX into a prediction
        self._fac_codes = ((FAC_PREDICT, FAC_NOSPEC, FAC_REPLAY)
                           if config.fac is not None
                           and not config.one_cycle_loads
                           else (FAC_NOSPEC,) * 3)
        infos = (OP_INFO[inst.op] for inst in program.instructions)
        self._kind = [1 if info.is_load or info.is_store
                      else 2 if info.klass in (OpClass.BRANCH, OpClass.JUMP)
                      else 0 for info in infos]
        self._disasm: dict[int, str] = {}   # pc -> disassembly
        # the tee's records of the current chunk, and the seq of the first
        self._records: list = []
        self._seq = 0
        # bounded: the raw entries of the trailing ``capacity`` records
        self._window: deque = deque(maxlen=self.capacity)
        # unbounded: the (issue, slot) of the last decoded entry
        self._last: tuple[int | None, int] = (None, 0)
        self._kept: list[FlightEntry] = []
        #: unbounded mode: receives each decoded chunk of entries
        self.on_drain = self._kept.extend

        add = self._records.append

        def retire(pc, inst, rec):
            add(rec)

        #: the tee: one record (or None) per retired instruction
        self.retire = retire

    @property
    def retired(self) -> int:
        """Instructions teed so far."""
        return self._seq + len(self._records)

    def run(self, max_instructions: int = 50_000_000,
            cpu: CPU | None = None) -> SimResult:
        """Execute the program (on ``cpu``, a fresh :class:`CPU` by
        default) and time it live with the recorder attached; returns
        the timing result."""
        (result,), _ = time_live(self.program, (self.config,),
                                 max_instructions, tee=self,
                                 outcomes={self.config: self}, cpu=cpu)
        return result

    # -------------------------------------------------------------- #
    # outcome watcher

    def __call__(self, indices, flags, outcomes, issues, readies) -> None:
        """Take one chunk's columns (and the tee's records for it)."""
        first = self._seq
        count = len(indices)
        self._seq = first + count
        if self.window_cycles is None:
            entries, self._last = self._decode(
                self._raw(first, indices, flags, outcomes, issues,
                          readies, 0, count), self._last)
            self.on_drain(entries)
        elif not self.frozen:
            end = count
            if self._freeze_at is None:
                self._trigger(first, indices, issues)
            if self._freeze_at is not None and self._freeze_at < first + count:
                end = self._freeze_at - first + 1
                self.frozen = True
            self._window.extend(self._raw(
                first, indices, flags, outcomes, issues, readies,
                max(0, end - self.capacity), end))
        del self._records[:count]

    def _trigger(self, first: int, indices, issues) -> None:
        """Fix the retirement the window ends at if a trigger fires in
        this chunk: a cycle trigger at the first retirement issuing at
        its cycle or later, the pc trigger half a window after the pc
        first retires; the earlier trigger wins, the pc trigger a tie."""
        at_pc = at_cycle = len(indices)
        if self._around_index is not None:
            try:
                at_pc = indices.index(self._around_index)
            except ValueError:
                pass
        if self._freeze_cycle is not None:
            # issue is in order: bisect for the first late issue
            at_cycle = bisect_left(issues, self._freeze_cycle, 0, at_pc)
        if at_cycle < at_pc:
            self._freeze_at = first + at_cycle
        elif at_pc < len(indices):
            self._freeze_at = first + at_pc + self.capacity // 2 + 1

    def _raw(self, first, indices, flags, outcomes, issues, readies,
             start, end):
        """Raw entries ``(seq, index, flags, outcome, issue, ready,
        record)`` of chunk positions ``start .. end - 1``; ``outcome``
        is -1 for a record that is not a memory access."""
        kind = self._kind
        records = self._records
        # the outcome column holds one byte per memory access: find the
        # first at or after ``start`` by counting back from the end
        k = len(outcomes) - sum(kind[index] == 1
                                for index in indices[start:]) \
            if start else 0
        for pos in range(start, end):
            index = indices[pos]
            outcome = -1
            if kind[index] == 1:
                outcome = outcomes[k]
                k += 1
            yield (first + pos, index, flags[pos], outcome, issues[pos],
                   readies[pos], records[pos])

    # -------------------------------------------------------------- #
    # decoding

    def entries(self) -> list[FlightEntry]:
        """Decode the window into retirement order, clipped to the last
        ``window_cycles`` issue cycles. Lazy work (stall and issue-slot
        reconstruction, FAC failure signals, disassembly) happens here.
        An unbounded recorder returns every entry kept so far (none when
        ``on_drain`` was replaced)."""
        if self.window_cycles is None:
            return list(self._kept)
        if not self._window:
            return []
        out, _ = self._decode(self._window, (None, 0))
        floor = out[-1].issue - self.window_cycles
        return [e for e in out if e.issue > floor]

    def _decode(self, raw, last: tuple[int | None, int]
                ) -> tuple[list[FlightEntry], tuple[int | None, int]]:
        """Decode raw entries. ``last`` is the (issue cycle, issue slot)
        of the entry before the first -- None for none -- and the pair
        for the last decoded entry is returned with the entries, so an
        unbounded run continues seamlessly across chunks."""
        program = self.program
        text_base = program.text_base
        instructions = program.instructions
        kinds = self._kind
        fac_codes = self._fac_codes
        disasm = self._disasm
        prev_issue, issue_slot = last
        out = []
        for seq, index, flags, outcome, issue, ready, record in raw:
            pc = text_base + (index << 2)
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
            inst = instructions[index]
            info = OP_INFO[inst.op]
            text = disasm.get(pc)
            if text is None:
                text = disasm[pc] = disassemble(inst)
            kind = kinds[index]
            fac = FAC_NONE
            mem = None
            reason = None
            flag = -1
            if kind == 1:
                fac = fac_codes[outcome]
                mem = issue + (outcome == IN_MEM)
                flag = 0 if flags & DMISS else 1
                if fac == FAC_REPLAY:
                    mode = info.mem_mode
                    offset = (record.offset_value if mode == "c"
                              else to_signed32(record.offset_value))
                    prediction = self._fac.predict(record.base_value,
                                                   offset, mode == "x")
                    reason = prediction.signals.primary_reason
            elif kind == 2:
                flag = 1 if flags & MISPREDICT else 0
            out.append(FlightEntry(
                seq=seq, pc=pc, kind=kind, disasm=text, issue=issue,
                ready=ready, mem=mem, stall=stall, fac=fac,
                reason=reason, flag=flag, op=info.mnemonic,
                is_store=info.is_store, slot=issue_slot,
                record=None if kind == 0 else record,
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
    recorder = FlightRecorder(program, config, window_cycles=window_cycles,
                              around_pc=around_pc, around_cycle=around_cycle)
    return recorder, recorder.run(max_instructions)
