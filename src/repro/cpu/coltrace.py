"""Columnar trace decoding: one vectorized pass over a v1 tracefile.

The record-stream format (:mod:`repro.cpu.tracefile`) is ideal for
*writing* -- the functional simulator streams records as they retire --
but every analysis that replays it pays one Python callback per record.
This module decodes a trace **once** into a structured set of numpy
column arrays (:class:`TraceColumns`): pc-index, effective address,
base value, offset, flags, and next pc. Whole-trace analyses
(:mod:`repro.analysis.batch`) then run as a handful of vectorized
passes over the columns instead of millions of interpreter callbacks.
A live analysis skips the file: :func:`record_columns` writes the same
record stream to memory and decodes it with the same code.

Columns serialize to a versioned byte container
(:data:`COLTRACE_SCHEMA` = ``repro.coltrace/1``): a fixed header, a
JSON descriptor with sorted keys, then the raw little-endian column
buffers in descriptor order. The encoding is deterministic -- a pure
function of the trace. The farm stores only the tracefile; its
analysis cell decodes that straight into columns.
"""

from __future__ import annotations

import gzip
import io
import json
import struct
from dataclasses import dataclass, field

try:
    import numpy as np
except ImportError as exc:  # pragma: no cover - exercised only without numpy
    raise ImportError(
        "repro.cpu.coltrace requires numpy>=1.24, a declared runtime "
        "dependency of this package (see pyproject.toml / setup.cfg). "
        "Install it with `pip install -e .` from the repository root, or "
        "`pip install 'numpy>=1.24'` directly; docs/performance.md "
        "('Columnar analysis') describes what it is used for."
    ) from exc

from repro.cpu.executor import CPU
from repro.cpu.tracefile import (
    _FLAG_FAR_TARGET,
    _FLAG_HAS_EA,
    _FLAG_HAS_TAKEN,
    _FLAG_TAKEN,
    _HEADER,
    _RECORD,
    _TraceWriter,
    _check_header,
    program_crc,
)
from repro.errors import SimulationError
from repro.isa.program import Program

#: Version tag of the columnar byte container. Bump when the column
#: set or encoding changes incompatibly.
COLTRACE_SCHEMA = "repro.coltrace/1"

_COL_MAGIC = b"FACL"   # Fast Address Calculation coLumns
_COL_VERSION = 1
_COL_HEADER = struct.Struct("<4sHHI")   # magic, version, pad, json length

#: (name, little-endian dtype) of every stored column, in file order.
_COLUMNS = (
    ("index", "<u4"),     # text-segment word index (pc = text_base + 4*index)
    ("ea", "<u4"),        # effective address (memory records, else 0)
    ("base", "<u4"),      # base register value (memory records, else 0)
    ("offset", "<i4"),    # signed offset / index-register value as stored
    ("flags", "<u1"),     # record flags (HAS_EA / TAKEN / HAS_TAKEN)
    ("next_pc", "<u4"),   # fully resolved next pc (far targets included)
)

#: The packed 19-byte record layout of the v1 stream, as a numpy dtype.
_RECORD_DTYPE = np.dtype({
    "names": ["index", "ea", "base", "offset", "flags", "delta"],
    "formats": ["<u4", "<u4", "<u4", "<i4", "<u1", "<i2"],
    "offsets": [0, 4, 8, 12, 16, 17],
    "itemsize": _RECORD.size,
})

_U32LE = struct.Struct("<I")


@dataclass
class TraceColumns:
    """One decoded trace as column arrays (all the same length).

    ``flags`` keeps the stream's record-type bits verbatim (far-target
    bits are resolved into ``next_pc`` and cleared), so the record kind
    masks below recover exactly which records
    :func:`repro.cpu.tracefile.replay_into` hands over as a
    :class:`~repro.cpu.executor.TraceRecord` (memory and branch) and
    which as None (the rest).
    """

    text_base: int
    entry: int
    crc: int
    index: np.ndarray       # uint32
    ea: np.ndarray          # uint32
    base: np.ndarray        # uint32
    offset: np.ndarray      # int32
    flags: np.ndarray       # uint8
    next_pc: np.ndarray     # uint32
    _pc: np.ndarray | None = field(default=None, repr=False)

    @property
    def count(self) -> int:
        return len(self.index)

    def __len__(self) -> int:
        return self.count

    @property
    def pc(self) -> np.ndarray:
        """Per-record pc (uint32), derived from the index column."""
        if self._pc is None:
            self._pc = (self.text_base
                        + self.index.astype(np.int64) * 4).astype(np.uint32)
        return self._pc

    @property
    def is_mem(self) -> np.ndarray:
        """Memory-record mask (loads and stores)."""
        return (self.flags & _FLAG_HAS_EA) != 0

    @property
    def is_branch(self) -> np.ndarray:
        """Branch-record mask (branches and jumps)."""
        return ((self.flags & _FLAG_HAS_TAKEN) != 0) & ~self.is_mem

    @property
    def taken(self) -> np.ndarray:
        return (self.flags & _FLAG_TAKEN) != 0

    def verify(self, program: Program) -> None:
        """Raise :class:`SimulationError` unless these columns were
        decoded from a trace of ``program`` (same text CRC and entry)."""
        if self.crc != program_crc(program):
            raise SimulationError(
                "columns were decoded from a trace of a different program")
        if self.entry != program.entry:
            raise SimulationError("columns entry point mismatch")


class ColumnRecorder:
    """``retire`` consumer (see :meth:`CPU.run_trace`) that writes the
    v1 record stream to memory (no gzip); :meth:`columns` decodes it
    exactly as :func:`decode_tracefile` decodes a file. Hand it to a
    run that also feeds other consumers (``repro profile`` times the
    same run live) or use :func:`record_columns`."""

    def __init__(self, program: Program):
        self._program = program
        self._buffer = io.BytesIO()
        self._writer = _TraceWriter(self._buffer, program)
        self.retire = self._writer.retire

    def columns(self) -> TraceColumns:
        """The recorded run, as columns. This ends the recording: the
        stream's buffer is freed once it is decoded."""
        self._writer.flush()
        blob = self._buffer.getbuffer()
        try:
            return _decode_v1(self._program, blob, "<memory>")
        finally:
            blob.release()
            self._buffer.close()


def record_columns(program: Program, max_instructions: int = 50_000_000,
                   cpu: CPU | None = None) -> TraceColumns:
    """Execute ``program`` and return its trace as columns, without a
    file (:class:`ColumnRecorder`).

    Pass a fresh ``cpu`` to keep the executor afterwards (memory usage,
    stdout)."""
    recorder = ColumnRecorder(program)
    (cpu if cpu is not None else CPU(program)).run_trace(
        recorder, max_instructions)
    return recorder.columns()


def decode_tracefile(program: Program, path: str) -> TraceColumns:
    """Decode one v1 tracefile into :class:`TraceColumns`.

    Header validation is :func:`repro.cpu.tracefile.replay_into`'s
    (magic, version, program CRC, entry point). The record stream is
    reinterpreted through a packed structured dtype in one
    ``frombuffer`` per far-target segment -- far targets are the only
    variable-length element, and they are rare (indirect jumps whose
    delta does not fit 16 bits), so decode cost is dominated by the
    gzip inflate.
    """
    try:
        with gzip.open(path, "rb") as stream:
            blob = stream.read()
    except (OSError, EOFError) as exc:
        raise SimulationError(f"{path}: corrupt trace file ({exc})") from exc
    return _decode_v1(program, blob, path)


def _decode_v1(program: Program, blob, path: str) -> TraceColumns:
    """Decode an uncompressed v1 stream (header included)."""
    _check_header(blob[:_HEADER.size], path, program)
    body = memoryview(blob)[_HEADER.size:]
    rec_size = _RECORD.size

    segments: list[np.ndarray] = []
    far_positions: list[int] = []   # record ordinal of each far record
    far_targets: list[int] = []     # its resolved next pc
    pos = 0
    decoded = 0
    while True:
        remaining = len(body) - pos
        n = remaining // rec_size
        if n == 0:
            if remaining:
                raise SimulationError(f"{path}: truncated trace record")
            break
        arr = np.frombuffer(body, dtype=_RECORD_DTYPE, count=n, offset=pos)
        far = np.flatnonzero(arr["flags"] & _FLAG_FAR_TARGET)
        if far.size == 0:
            segments.append(arr)
            decoded += n
            pos += n * rec_size
            continue
        # take records up to and including the first far record, then
        # consume its trailing u32 target and rescan from there
        first = int(far[0])
        segments.append(arr[:first + 1])
        pos += (first + 1) * rec_size
        if len(body) - pos < 4:
            raise SimulationError(f"{path}: truncated far-target record")
        far_positions.append(decoded + first)
        far_targets.append(_U32LE.unpack_from(body, pos)[0])
        decoded += first + 1
        pos += 4

    if segments:
        records = np.concatenate(segments) if len(segments) > 1 \
            else segments[0].copy()
    else:
        records = np.empty(0, dtype=_RECORD_DTYPE)
    index = np.ascontiguousarray(records["index"])
    flags = np.ascontiguousarray(records["flags"])
    pc = program.text_base + index.astype(np.int64) * 4
    next_pc = (pc + records["delta"].astype(np.int64) * 4).astype(np.uint32)
    if far_positions:
        next_pc[np.asarray(far_positions)] = np.asarray(far_targets,
                                                        dtype=np.uint32)
        flags = flags & np.uint8(0xFF ^ _FLAG_FAR_TARGET)
    return TraceColumns(
        text_base=program.text_base,
        entry=program.entry,
        crc=program_crc(program),
        index=index,
        ea=np.ascontiguousarray(records["ea"]),
        base=np.ascontiguousarray(records["base"]),
        offset=np.ascontiguousarray(records["offset"]),
        flags=flags,
        next_pc=next_pc,
    )


# ------------------------------------------------------------------ #
# byte container (repro.coltrace/1)

def columns_to_bytes(cols: TraceColumns) -> bytes:
    """Serialize columns as a deterministic ``repro.coltrace/1`` blob."""
    descriptor = {
        "schema": COLTRACE_SCHEMA,
        "text_base": cols.text_base,
        "entry": cols.entry,
        "crc": cols.crc,
        "count": cols.count,
        "columns": [list(col) for col in _COLUMNS],
    }
    encoded = json.dumps(descriptor, sort_keys=True,
                         separators=(",", ":")).encode()
    parts = [_COL_HEADER.pack(_COL_MAGIC, _COL_VERSION, 0, len(encoded)),
             encoded]
    for name, dtype in _COLUMNS:
        array = getattr(cols, name)
        parts.append(np.ascontiguousarray(array,
                                          dtype=np.dtype(dtype)).tobytes())
    return b"".join(parts)


def columns_from_bytes(data: bytes, label: str = "<bytes>") -> TraceColumns:
    """Inverse of :func:`columns_to_bytes`.

    Raises :class:`SimulationError` on any structural corruption; pair
    with :meth:`TraceColumns.verify` before analyzing against a program.
    """
    if len(data) < _COL_HEADER.size:
        raise SimulationError(f"{label}: truncated columnar trace header")
    magic, version, __, desc_len = _COL_HEADER.unpack_from(data)
    if magic != _COL_MAGIC:
        raise SimulationError(f"{label}: not a columnar trace")
    if version != _COL_VERSION:
        raise SimulationError(
            f"{label}: unsupported columnar trace version {version}")
    pos = _COL_HEADER.size
    if len(data) < pos + desc_len:
        raise SimulationError(f"{label}: truncated columnar descriptor")
    try:
        descriptor = json.loads(data[pos:pos + desc_len])
    except ValueError as exc:
        raise SimulationError(
            f"{label}: corrupt columnar descriptor ({exc})") from exc
    if descriptor.get("schema") != COLTRACE_SCHEMA:
        raise SimulationError(
            f"{label}: unsupported columnar schema "
            f"{descriptor.get('schema')!r}")
    pos += desc_len
    count = int(descriptor["count"])
    arrays = {}
    for entry in descriptor["columns"]:
        name, dtype_str = entry
        dtype = np.dtype(dtype_str)
        nbytes = count * dtype.itemsize
        if len(data) < pos + nbytes:
            raise SimulationError(
                f"{label}: truncated columnar payload ({name})")
        arrays[name] = np.frombuffer(data, dtype=dtype, count=count,
                                     offset=pos).copy()
        pos += nbytes
    if pos != len(data):
        raise SimulationError(f"{label}: trailing bytes in columnar trace")
    missing = [name for name, __ in _COLUMNS if name not in arrays]
    if missing:
        raise SimulationError(
            f"{label}: columnar trace missing columns {missing}")
    return TraceColumns(
        text_base=int(descriptor["text_base"]),
        entry=int(descriptor["entry"]),
        crc=int(descriptor["crc"]),
        **{name: arrays[name] for name, __ in _COLUMNS},
    )

