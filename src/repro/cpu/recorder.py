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

:meth:`repro.cpu.coltrace.AccessColumns.of` views a recorder's columns
as numpy arrays without copying, for the analyses to read in memory.

This module imports no numpy: a farm run job tees the recorder beside
the timing fronts of a live run when the build's analysis is missing,
and numpy is imported only when that analysis is computed.
"""

from __future__ import annotations

from array import array

from repro.isa.program import Program

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
