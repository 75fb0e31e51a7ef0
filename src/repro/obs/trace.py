"""Per-instruction trace export: the engine behind ``repro trace``.

Runs one timing simulation with an unbounded flight recorder
(:class:`~repro.obs.flight.FlightRecorder` with ``window_cycles=None``)
and writes every retired instruction, chunk by chunk as the ring
drains, to a file-like object: either as JSON Lines (one record per
line, in retirement order) or as a Chrome trace-event JSON document
loadable in Perfetto (https://ui.perfetto.dev) or ``chrome://tracing``.

Per instruction the JSONL stream holds, in this order: ``fac.predict``
(one speculative EX-stage address calculation; post-increment accesses,
whose address is the base register, have none), ``fac.replay``,
``mem.access``, ``branch`` (conditional branches and register jumps),
then ``inst.retired``. The functional CPU's ``syscall`` events arrive
through an :class:`~repro.obs.events.EventBus` and are written just
before their own instruction's ``inst.retired``.

The ring records neither tag-store activity nor store-buffer occupancy,
so there are no ``cache.access``, ``sb.insert`` or ``sb.full_stall``
records; ``SimResult.store_buffer_full_stalls`` still counts the stalls.
"""

from __future__ import annotations

import json
from collections import deque

from repro.cpu.executor import CPU
from repro.fac.config import FacConfig
from repro.isa.opcodes import OP_INFO, Op
from repro.isa.program import Program
from repro.obs.events import EventBus
from repro.obs.flight import FAC_NOSPEC, FAC_REPLAY, FlightRecorder
from repro.obs.sinks import ChromeTraceSink
from repro.pipeline.config import MachineConfig
from repro.pipeline.pipeline import PipelineSimulator
from repro.pipeline.result import SimResult

FORMATS = ("chrome", "jsonl")

# direct jumps redirect at decode: the BTB never resolves them
_DIRECT_JUMPS = (Op.J, Op.JAL)

# Chrome tracks of the "repro pipeline" process besides the issue slots
_FAC_TID = 100
_MISS_TID = 101
_SYSCALL_TID = 102
_TRACK_NAMES = {_FAC_TID: "FAC replays", _MISS_TID: "cache misses",
                _SYSCALL_TID: "syscalls"}

_dumps = json.JSONEncoder(separators=(",", ":")).encode


class _SyscallTap:
    """Bus sink that tags each syscall with the retirement seq of its own
    instruction: the CPU runs the handler before the pipeline retires
    the instruction, so the ring's count is that instruction's seq."""

    __slots__ = ("recorder", "pending")

    def __init__(self, recorder: FlightRecorder):
        self.recorder = recorder
        self.pending: deque = deque()

    def handle(self, event) -> None:
        self.pending.append((self.recorder.retired, event))


class _Writer:
    """Writes drained ring entries, each preceded by its syscalls."""

    def __init__(self, stream, config: MachineConfig, pending: deque):
        self.stream = stream
        self.pending = pending
        self.miss_penalty = (0 if config.perfect_dcache
                             else config.dcache.miss_latency)

    def write(self, entries) -> None:
        pending = self.pending
        for entry in entries:
            while pending and pending[0][0] <= entry.seq:
                self.syscall(pending.popleft()[1])
            self.entry(entry)

    def close(self) -> None:
        while self.pending:
            self.syscall(self.pending.popleft()[1])


class _JsonlWriter(_Writer):
    def syscall(self, event) -> None:
        self.stream.write(_dumps(event.as_dict()) + "\n")

    def entry(self, e) -> None:
        lines = []
        pc = e.pc
        if e.kind == 1:
            rec = e.record
            speculated = e.fac != FAC_NOSPEC
            replay = e.fac == FAC_REPLAY
            hit = e.flag == 1
            if speculated and OP_INFO[rec.inst.op].mem_mode != "p":
                lines.append(_dumps({
                    "event": "fac.predict", "pc": pc, "cycle": e.issue,
                    "is_store": e.is_store, "success": not replay,
                    "reason": e.reason}))
            if replay:
                lines.append(_dumps({
                    "event": "fac.replay", "pc": pc, "cycle": e.issue + 1,
                    "penalty": 1}))
            ready = e.ready
            if e.is_store:
                # the result before the store enters the store buffer
                ready = e.mem + 1 + replay + (0 if hit else self.miss_penalty)
            lines.append(_dumps({
                "event": "mem.access", "pc": pc, "cycle": e.issue,
                "ea": rec.ea, "is_store": e.is_store, "hit": hit,
                "speculated": speculated,
                "fac_success": (not replay) if speculated else None,
                "fac_reason": e.reason, "result_ready": ready}))
        elif e.kind == 2 and e.record.inst.op not in _DIRECT_JUMPS:
            lines.append(_dumps({
                "event": "branch", "pc": pc, "cycle": e.issue,
                "taken": bool(e.record.taken), "mispredicted": e.flag == 1}))
        lines.append(_dumps({
            "event": "inst.retired", "seq": e.seq, "pc": pc, "op": e.op,
            "issue": e.issue, "ready": e.ready, "mem": e.mem,
            "slot": e.slot}))
        self.stream.write("\n".join(lines) + "\n")


class _ChromeWriter(_Writer):
    """One process ("repro pipeline"), one simulated cycle per µs: a
    complete slice per instruction on the track of its issue slot, from
    IF through WB, and instants for FAC replays, D-cache misses and
    syscalls on tracks of their own."""

    def __init__(self, stream, config: MachineConfig, pending: deque):
        super().__init__(stream, config, pending)
        self.sink = ChromeTraceSink(stream)
        self.sink.register_process(0, "repro pipeline", 0)
        self.tracks: set[int] = set()

    def _track(self, tid: int) -> None:
        if tid not in self.tracks:
            self.tracks.add(tid)
            self.sink.register_track(
                0, tid, _TRACK_NAMES.get(tid, f"issue slot {tid}"), tid)

    def syscall(self, event) -> None:
        self._track(_SYSCALL_TID)
        self.sink.emit_instant(
            f"syscall {event.name}", "os", 0, 0, _SYSCALL_TID,
            {"pc": f"0x{event.pc:08x}", "service": event.service})

    def entry(self, e) -> None:
        sink = self.sink
        pc = f"0x{e.pc:08x}"
        if e.fac == FAC_REPLAY:
            self._track(_FAC_TID)
            sink.emit_instant("FAC replay", "fac", e.issue + 1, 0, _FAC_TID,
                              {"pc": pc, "penalty": 1})
        if e.kind == 1 and e.flag == 0:
            self._track(_MISS_TID)
            sink.emit_instant("dcache miss", "cache", e.issue, 0, _MISS_TID,
                              {"pc": pc, "ea": f"0x{e.record.ea:08x}",
                               "write": e.is_store})
        args = {"pc": pc, "issue": e.issue, "ready": e.ready}
        if e.mem is not None:
            args["mem"] = e.mem
        self._track(e.slot)
        start = e.issue - 2
        sink.emit_slice(e.disasm or e.op, "pipeline", start,
                        max(e.ready, e.issue + 1) - start, 0, e.slot, args)

    def close(self) -> None:
        super().close()
        self.sink.close()


def trace_program(
    program: Program,
    stream,
    fmt: str = "chrome",
    config: MachineConfig | None = None,
    max_instructions: int = 50_000_000,
) -> SimResult:
    """Simulate ``program`` on the FAC machine, streaming its trace to
    ``stream`` in the requested format. Returns the timing result."""
    if fmt not in FORMATS:
        raise ValueError(f"unknown trace format {fmt!r}; choose from {FORMATS}")
    if config is None:
        config = MachineConfig(fac=FacConfig())
    pipe = PipelineSimulator(config)
    recorder = FlightRecorder(pipe, window_cycles=None)
    syscalls = _SyscallTap(recorder)
    cpu = CPU(program, obs=EventBus([syscalls]))
    writer_cls = _ChromeWriter if fmt == "chrome" else _JsonlWriter
    writer = writer_cls(stream, config, syscalls.pending)
    recorder.on_drain = writer.write
    cpu.run_trace(recorder, max_instructions)
    recorder.flush()
    writer.close()
    return pipe.finalize(memory_usage=cpu.memory_usage)
