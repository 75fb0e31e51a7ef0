"""Binary trace files: record one functional execution, replay it into
many timing configurations.

The classic trace-driven workflow (which the paper's own tooling used):
the architectural simulation is the expensive part, so capture its
output once and drive every timing experiment from the file. A trace
stores only what the timing model needs per retired instruction --
``(text index, effective address, base value, offset value, branch
outcome, next pc)`` -- and is replayed against the *same* linked
program, which supplies the instruction objects. A CRC of the text
segment guards against replaying a trace into the wrong binary.

Format: gzip-compressed stream of fixed-size little-endian records after
a small header. ~19 bytes/record before compression. One writer opens
the stream: :func:`trace_writer` yields a ``retire`` consumer, which
:func:`record_trace` runs alone (or a caller tees beside other
consumers of a live run). Two readers share one header check:
:func:`replay_into` streams records into a consumer's ``retire`` hook,
and :func:`repro.cpu.coltrace.decode_tracefile` decodes them into
columns. :func:`simulate_trace` times a trace on the shared-front
engine of :mod:`repro.pipeline.replay`, whose front is a
``replay_into`` consumer: one decode serves every machine flavour that
shares the caches and the BTB.

The farm does not write this format: a build's analysis reads only
the columns of :mod:`repro.cpu.recorder`, which a run job records
beside its timing fronts at a fraction of this writer's cost and
analyzes in memory.
"""

from __future__ import annotations

import gzip
import struct
import zlib
from contextlib import contextmanager

from repro.cpu.executor import CPU, TraceRecord
from repro.errors import SimulationError
from repro.isa.opcodes import OP_INFO
from repro.isa.program import Program

_MAGIC = b"FACT"   # Fast Address Calculation Trace
_VERSION = 1
_HEADER = struct.Struct("<4sHHIII")   # magic, version, pad, crc, reserved, entry
# index(u32) ea(u32) base(u32) offset(i32) flags(u8) next_delta(i16)
_RECORD = struct.Struct("<IIIiBh")

_FLAG_HAS_EA = 1
_FLAG_TAKEN = 2
_FLAG_HAS_TAKEN = 4
_FLAG_FAR_TARGET = 8   # next pc stored as an extra u32

_U32 = struct.Struct("<I")

#: zlib level of the stream: the default. On mdljdp2 it writes 4% more
#: bytes than level 9, and ``record_trace`` takes 24% less time.
COMPRESSLEVEL = 6


def program_crc(program: Program) -> int:
    """A cheap fingerprint of the text segment."""
    crc = zlib.crc32(struct.pack("<III", program.text_base, program.entry,
                                 len(program.instructions)))
    for inst in program.instructions[:256]:
        crc = zlib.crc32(struct.pack("<IB", inst.addr, int(inst.op) & 0xFF), crc)
    return crc & 0xFFFFFFFF


class _TraceWriter:
    """Streaming ``retire`` consumer (see :meth:`CPU.run_trace`) that
    writes the v1 header, then serializes records as they retire.

    A plain record's bytes depend only on its pc -- ``(index, 0, 0, 0,
    flags=0, delta=1)`` -- so they are packed once per static
    instruction and reused. Writes are batched; zlib's output is
    independent of write chunking, so the file bytes are too.
    """

    __slots__ = ("_stream", "_text_base", "_plain", "_chunks", "count")

    _FLUSH_EVERY = 4096  # records buffered between stream writes

    def __init__(self, stream, program: Program):
        stream.write(_HEADER.pack(_MAGIC, _VERSION, 0, program_crc(program),
                                  0, program.entry))
        self._stream = stream
        self._text_base = program.text_base
        self._plain: dict[int, bytes] = {}
        self._chunks: list[bytes] = []
        self.count = 0

    def retire(self, pc, inst, rec) -> None:
        chunks = self._chunks
        if rec is None:
            data = self._plain.get(pc)
            if data is None:
                data = self._plain[pc] = _RECORD.pack(
                    (pc - self._text_base) >> 2, 0, 0, 0, 0, 1)
            chunks.append(data)
        else:
            flags = 0
            ea = 0
            if rec.ea is not None:
                flags |= _FLAG_HAS_EA
                ea = rec.ea
            if rec.taken is not None:
                flags |= _FLAG_HAS_TAKEN
                if rec.taken:
                    flags |= _FLAG_TAKEN
            delta = rec.next_pc - pc
            far = not (-32768 <= delta // 4 < 32768) or delta % 4 != 0
            if far:
                flags |= _FLAG_FAR_TARGET
            chunks.append(_RECORD.pack(
                (pc - self._text_base) >> 2, ea, rec.base_value,
                rec.offset_value if -(2**31) <= rec.offset_value < 2**31
                else rec.offset_value - 2**32,
                flags, 0 if far else delta // 4,
            ))
            if far:
                chunks.append(_U32.pack(rec.next_pc))
        self.count += 1
        if len(chunks) >= self._FLUSH_EVERY:
            self._stream.write(b"".join(chunks))
            del chunks[:]

    def flush(self) -> None:
        if self._chunks:
            self._stream.write(b"".join(self._chunks))
            del self._chunks[:]


@contextmanager
def trace_writer(path: str, program: Program):
    """Open a v1 trace of ``program`` at ``path`` and yield its
    :class:`_TraceWriter`, a ``retire`` consumer for
    :meth:`CPU.run_trace` (alone, or teed beside other consumers); its
    ``count`` is the number of records written.

    The gzip header is written with a zero mtime and no embedded
    filename, so the bytes are a pure function of the execution. The
    buffered records are flushed when the block exits normally; on an
    exception the partial file is left for the caller to discard."""
    with open(path, "wb") as raw, \
            gzip.GzipFile(filename="", mode="wb", fileobj=raw, mtime=0,
                          compresslevel=COMPRESSLEVEL) as stream:
        writer = _TraceWriter(stream, program)
        yield writer
        writer.flush()


def record_trace(program: Program, path: str,
                 max_instructions: int = 50_000_000,
                 cpu: CPU | None = None) -> int:
    """Execute ``program`` and write its trace to ``path``; returns the
    number of instructions recorded.

    Pass a fresh ``cpu`` to keep the executor afterwards (its
    ``memory_usage`` and captured stdout, say)."""
    with trace_writer(path, program) as writer:
        (cpu if cpu is not None else CPU(program)).run_trace(
            writer, max_instructions)
    return writer.count


def _read(stream, size: int, path: str) -> bytes:
    """Read from the compressed stream, converting gzip-level corruption
    (bad magic, CRC failure, truncated member) into SimulationError."""
    try:
        return stream.read(size)
    except (OSError, EOFError) as exc:
        raise SimulationError(f"{path}: corrupt trace file ({exc})") from exc


def _check_header(header: bytes, path: str, program: Program) -> None:
    """Validate a v1 trace header against ``program``: magic, version,
    text CRC and entry point."""
    if len(header) != _HEADER.size:
        raise SimulationError(f"{path}: truncated trace header")
    magic, version, __, crc, __reserved, entry = _HEADER.unpack(header)
    if magic != _MAGIC:
        raise SimulationError(f"{path}: not a trace file")
    if version != _VERSION:
        raise SimulationError(f"{path}: unsupported trace version {version}")
    if crc != program_crc(program):
        raise SimulationError(
            f"{path}: trace was recorded against a different program")
    if entry != program.entry:
        raise SimulationError(f"{path}: entry point mismatch")


def replay_into(program: Program, path: str, consumer) -> int:
    """Stream a recorded trace into ``consumer.retire(pc, inst, rec)``.

    The consumer protocol is :meth:`CPU.run_trace`'s: ``rec`` is a
    :class:`TraceRecord` for loads, stores, branches and jumps and None
    for every other instruction, for which no record is allocated. A
    consumer without ``retire`` only has the trace decoded and counted.
    The stream is parsed from a buffered window instead of two reads
    per record. Returns the total number of records in the trace.
    """
    instructions = program.instructions
    text_base = program.text_base
    retire = getattr(consumer, "retire", None)
    # index-register offsets are register *values*: restore the
    # executor's unsigned view (constants stay signed)
    is_x = [OP_INFO[inst.op].mem_mode == "x" for inst in instructions]
    rec_size = _RECORD.size
    unpack = _RECORD.unpack_from
    count = 0
    with gzip.open(path, "rb") as stream:
        _check_header(_read(stream, _HEADER.size, path), path, program)
        buf = b""
        pos = 0
        while True:
            if len(buf) - pos < rec_size + 4:
                buf = buf[pos:] + _read(stream, 1 << 18, path)
                pos = 0
                if not buf:
                    return count
                if len(buf) < rec_size:
                    raise SimulationError(f"{path}: truncated trace record")
            index, ea, base, offset, flags, delta = unpack(buf, pos)
            pos += rec_size
            pc = text_base + index * 4
            if flags & _FLAG_FAR_TARGET:
                if len(buf) - pos < 4:
                    buf = buf[pos:] + _read(stream, 1 << 18, path)
                    pos = 0
                    if len(buf) < 4:
                        raise SimulationError(
                            f"{path}: truncated far-target record"
                        )
                next_pc = _U32.unpack_from(buf, pos)[0]
                pos += 4
            else:
                next_pc = pc + delta * 4
            count += 1
            if retire is None:
                continue
            inst = instructions[index]
            if flags & _FLAG_HAS_EA:
                if offset < 0 and is_x[index]:
                    offset &= 0xFFFFFFFF
                retire(pc, inst, TraceRecord(pc, inst, ea, base, offset,
                                             None, next_pc))
            elif flags & _FLAG_HAS_TAKEN:
                retire(pc, inst, TraceRecord(pc, inst, None, base, offset,
                                             bool(flags & _FLAG_TAKEN),
                                             next_pc))
            else:
                retire(pc, inst, None)


def simulate_trace(program: Program, trace, config=None,
                   memory_usage: int = 0):
    """Time a recorded trace on one machine flavour.

    ``trace`` is a trace file path, or a
    :class:`~repro.pipeline.replay.Front` built on one and shared by
    several flavours of the same build, in which case the trace is
    decoded once for all of them.

    ``memory_usage`` is not in the trace (it is a property of the
    functional run, not of any one record); callers that captured it at
    record time pass it through so the resulting
    :class:`~repro.pipeline.result.SimResult` matches a live
    :func:`~repro.pipeline.pipeline.simulate_program` run exactly."""
    from repro.pipeline.config import MachineConfig
    from repro.pipeline.replay import Front

    config = config or MachineConfig()
    if not isinstance(trace, Front):
        trace = Front(program, trace, (config,))
    return trace.result(config, memory_usage)
