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
a small header. ~19 bytes/record before compression. Two readers share
one header check: :func:`replay_into` streams records into trace hooks,
and :func:`repro.cpu.coltrace.decode_tracefile` decodes them into
columns.
"""

from __future__ import annotations

import gzip
import struct
import zlib

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


def program_crc(program: Program) -> int:
    """A cheap fingerprint of the text segment."""
    crc = zlib.crc32(struct.pack("<III", program.text_base, program.entry,
                                 len(program.instructions)))
    for inst in program.instructions[:256]:
        crc = zlib.crc32(struct.pack("<IB", inst.addr, int(inst.op) & 0xFF), crc)
    return crc & 0xFFFFFFFF


class _TraceWriter:
    """Streaming consumer (see :meth:`CPU.run_trace`) that serializes
    records as they retire.

    A plain record's bytes depend only on its pc -- ``(index, 0, 0, 0,
    flags=0, delta=1)`` -- so they are packed once per static
    instruction and reused. Writes are batched; zlib's output is
    independent of write chunking, so the file bytes are too.
    """

    __slots__ = ("_stream", "_text_base", "_plain", "_chunks", "count")

    _FLUSH_EVERY = 4096  # records buffered between stream writes

    def __init__(self, stream, text_base: int):
        self._stream = stream
        self._text_base = text_base
        self._plain: dict[int, bytes] = {}
        self._chunks: list[bytes] = []
        self.count = 0

    def trace_plain(self, pc, inst) -> None:
        data = self._plain.get(pc)
        if data is None:
            data = self._plain[pc] = _RECORD.pack(
                (pc - self._text_base) >> 2, 0, 0, 0, 0, 1)
        chunks = self._chunks
        chunks.append(data)
        self.count += 1
        if len(chunks) >= self._FLUSH_EVERY:
            self._stream.write(b"".join(chunks))
            del chunks[:]

    def _append(self, rec) -> None:
        flags = 0
        ea = 0
        if rec.ea is not None:
            flags |= _FLAG_HAS_EA
            ea = rec.ea
        if rec.taken is not None:
            flags |= _FLAG_HAS_TAKEN
            if rec.taken:
                flags |= _FLAG_TAKEN
        delta = rec.next_pc - rec.pc
        far = not (-32768 <= delta // 4 < 32768) or delta % 4 != 0
        if far:
            flags |= _FLAG_FAR_TARGET
        chunks = self._chunks
        chunks.append(_RECORD.pack(
            (rec.pc - self._text_base) >> 2, ea, rec.base_value,
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

    trace_mem = _append
    trace_branch = _append

    def flush(self) -> None:
        if self._chunks:
            self._stream.write(b"".join(self._chunks))
            del self._chunks[:]


def _write_trace(stream, program: Program, max_instructions: int,
                 cpu: CPU) -> int:
    """Run ``cpu`` and write its v1 header and records to ``stream``;
    returns the number of records written."""
    stream.write(_HEADER.pack(_MAGIC, _VERSION, 0, program_crc(program),
                              0, program.entry))
    writer = _TraceWriter(stream, program.text_base)
    cpu.run_trace(writer, max_instructions)
    writer.flush()
    return writer.count


def record_trace(program: Program, path: str,
                 max_instructions: int = 50_000_000,
                 cpu: CPU | None = None) -> int:
    """Execute ``program`` and write its trace to ``path``; returns the
    number of instructions recorded.

    Pass a fresh ``cpu`` to keep the executor afterwards -- the farm
    reads ``memory_usage`` and captured stdout off it for the trace
    artifact's metadata. The gzip header is written with a zero mtime
    and no embedded filename, so the bytes are a pure function of the
    execution."""
    with open(path, "wb") as raw, \
            gzip.GzipFile(filename="", mode="wb", fileobj=raw,
                          mtime=0) as stream:
        return _write_trace(stream, program, max_instructions,
                            cpu if cpu is not None else CPU(program))


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
    """Stream a recorded trace into ``consumer``'s trace hooks.

    The consumer protocol matches :meth:`CPU.run_trace`: optional
    ``trace_plain(pc, inst)`` / ``trace_mem(rec)`` / ``trace_branch(rec)``
    methods, looked up once. No :class:`TraceRecord` is allocated for
    plain records (nor for any record whose hook is absent), and the
    stream is parsed from a buffered window instead of two reads per
    record. Returns the total number of records in the trace.
    """
    instructions = program.instructions
    text_base = program.text_base
    plain_cb = getattr(consumer, "trace_plain", None)
    mem_cb = getattr(consumer, "trace_mem", None)
    branch_cb = getattr(consumer, "trace_branch", None)
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
            if flags & _FLAG_HAS_EA:
                if mem_cb is not None:
                    if offset < 0 and is_x[index]:
                        offset &= 0xFFFFFFFF
                    mem_cb(TraceRecord(pc, instructions[index], ea, base,
                                       offset, None, next_pc))
            elif flags & _FLAG_HAS_TAKEN:
                if branch_cb is not None:
                    branch_cb(TraceRecord(pc, instructions[index], None,
                                          base, offset,
                                          bool(flags & _FLAG_TAKEN), next_pc))
            elif plain_cb is not None:
                plain_cb(pc, instructions[index])


def simulate_trace(program: Program, path: str, config=None,
                   memory_usage: int = 0):
    """Time a recorded trace on the pipeline model.

    ``memory_usage`` is not in the trace (it is a property of the
    functional run, not of any one record); callers that captured it at
    record time pass it through so the resulting
    :class:`~repro.pipeline.result.SimResult` matches a live
    :func:`~repro.pipeline.pipeline.simulate_program` run exactly."""
    from repro.pipeline.pipeline import PipelineSimulator

    pipe = PipelineSimulator(config)
    replay_into(program, path, pipe)
    return pipe.finalize(memory_usage=memory_usage)
