"""Record a run as the columns its analysis reads, without numpy.

The paper's functional tables (Table 1, Figure 3, Tables 3-4) need four
facts per memory access: which static instruction ran, its effective
address, its base and its offset.
:class:`ArrayRecorder` is a ``retire`` consumer (see
:meth:`CPU.run_trace`) that keeps exactly those, appended to ``array``
columns as the run retires:

* ``index``: the static (text-word) index of every retired
  instruction;
* ``ea``, ``base`` and ``offset``: the effective address, base value and
  offset of every load and store. The offset is kept as its 32-bit
  two's-complement bit pattern: read as a signed word, an index
  register holding a value >= 2**31 becomes negative, exactly as the v1
  trace writer (:mod:`repro.cpu.tracefile`) stores it.

:meth:`ArrayRecorder.to_bytes` packs the columns into the farm's trace
payload (:data:`CONTAINER`): a little-endian header -- magic, version,
program CRC, entry point, record count and memory-record count --
followed by the four little-endian columns, the whole deflated by one
``zlib.compress`` at :data:`COMPRESSLEVEL`. The bytes are a pure
function of the run. :func:`repro.cpu.coltrace.load_columns` reads
them back as numpy columns, and
:meth:`repro.cpu.coltrace.AccessColumns.of` views a live recorder
without copying.

This module imports no numpy: farm sim jobs tee the recorder beside
the timing fronts of a live run, and a process that only times builds
must not pay for the numpy import.
"""

from __future__ import annotations

import struct
import sys
import zlib
from array import array

from repro.cpu.tracefile import program_crc
from repro.isa.program import Program

#: Format tag of the container, folded into the farm's trace keys.
CONTAINER = "repro.columns/1"

MAGIC = b"FACC"   # Fast Address Calculation Columns
VERSION = 1
#: magic, version, pad, program crc, entry, records, memory records
HEADER = struct.Struct("<4sHHIIII")

#: zlib level of the container: the default. On mdljdp2's 1.52 MB of
#: columns, level 6 writes 63 KB in 23 ms and level 1 writes 111 KB in
#: 5.5 ms; both inflate in about 2 ms.
COMPRESSLEVEL = 6

#: ``array`` type code of an unsigned 32-bit word.
U32 = next(code for code in "IL" if array(code).itemsize == 4)


class ArrayRecorder:
    """``retire`` consumer appending a run's analysis columns to
    ``array``s; see the module docstring. Feed it to a run alone
    (:meth:`CPU.run_trace`) or teed beside other consumers
    (:func:`repro.pipeline.replay.time_live`'s ``tee``)."""

    def __init__(self, program: Program):
        self.program = program
        self.index = array(U32)
        self.ea = array(U32)
        self.base = array(U32)
        self.offset = array(U32)   # the signed offset's bit pattern
        text_base = program.text_base
        put_index = self.index.append
        put_ea = self.ea.append
        put_base = self.base.append
        put_offset = self.offset.append

        def retire(pc, inst, rec):
            put_index((pc - text_base) >> 2)
            if rec is not None:
                ea = rec.ea
                if ea is not None:
                    put_ea(ea)
                    put_base(rec.base_value)
                    put_offset(rec.offset_value & 0xFFFFFFFF)

        self.retire = retire

    @property
    def count(self) -> int:
        """Records retired so far."""
        return len(self.index)

    def to_bytes(self) -> bytes:
        """The recorded run as one deflated :data:`CONTAINER`."""
        program = self.program
        header = HEADER.pack(MAGIC, VERSION, 0, program_crc(program),
                             program.entry, len(self.index), len(self.ea))
        columns = [self.index, self.ea, self.base, self.offset]
        if sys.byteorder != "little":
            columns = [array(U32, column) for column in columns]
            for column in columns:
                column.byteswap()
        return zlib.compress(b"".join([header, *columns]), COMPRESSLEVEL)
