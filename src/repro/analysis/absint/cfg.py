"""Basic-block control-flow graph over a linked program's text segment.

The graph is the shared substrate of every analysis in
:mod:`repro.analysis.absint`: block boundaries come from branch/jump/
call/return instructions plus every text symbol (so a function entry is
always a block leader, even when it is only reached indirectly), and
the function table partitions the text segment by symbol spans.

Blocks are identified by dense integer ids in text order; block ``bid``
covers instruction indexes ``[starts[bid], ends[bid])``.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Optional

from repro.isa import dataflow as df
from repro.isa.instruction import Instruction
from repro.isa.program import Program


@dataclass(frozen=True)
class FunctionSpan:
    """One text symbol's span: ``[start, end)`` instruction indexes."""

    name: str
    address: int
    start: int               # first instruction index
    end: int                 # one past the last instruction index
    entry_block: int         # block id of the entry leader
    blocks: tuple[int, ...]  # every block id whose start lies in the span


class ControlFlowGraph:
    """Immutable CFG for one :class:`~repro.isa.program.Program`."""

    def __init__(self, program: Program):
        self.program = program
        self.insts: list[Instruction] = program.instructions
        self.text_base = program.text_base
        self.n = len(self.insts)
        self.func_syms = sorted(
            (s.address, s.name)
            for s in program.symbols.values()
            if s.section == "text"
        )
        self._build_blocks()
        self._build_functions()

    # ------------------------------------------------------------------ #
    # address <-> index <-> block

    def index_of(self, addr: int) -> int:
        return (addr - self.text_base) >> 2

    def addr_of(self, index: int) -> int:
        return self.text_base + 4 * index

    def block_at(self, addr: int) -> int:
        return self.block_of_start[self.index_of(addr)]

    def in_text(self, addr: int) -> bool:
        """True when ``addr`` is a valid instruction address."""
        return (self.text_base <= addr < self.text_base + 4 * self.n
                and (addr - self.text_base) % 4 == 0)

    # ------------------------------------------------------------------ #
    # construction

    def _build_blocks(self) -> None:
        leaders = {self.index_of(self.program.entry)}
        for addr, _name in self.func_syms:
            leaders.add(self.index_of(addr))
        for i, inst in enumerate(self.insts):
            if df.ends_block(inst):
                if i + 1 < self.n:
                    leaders.add(i + 1)
                for target in df.static_targets(inst):
                    leaders.add(self.index_of(target))
        self.starts = sorted(i for i in leaders if 0 <= i < self.n)
        self.block_of_start = {s: bid for bid, s in enumerate(self.starts)}
        self.ends = [
            self.starts[bid + 1] if bid + 1 < len(self.starts) else self.n
            for bid in range(len(self.starts))
        ]
        self.func_entry_blocks = [
            self.block_of_start[self.index_of(addr)]
            for addr, _name in self.func_syms
            if self.index_of(addr) in self.block_of_start
        ]

    def _build_functions(self) -> None:
        spans: list[FunctionSpan] = []
        by_name: dict[str, FunctionSpan] = {}
        count = len(self.func_syms)
        for pos, (addr, name) in enumerate(self.func_syms):
            start = self.index_of(addr)
            end = (self.index_of(self.func_syms[pos + 1][0])
                   if pos + 1 < count else self.n)
            if not 0 <= start < self.n or start not in self.block_of_start:
                continue
            entry = self.block_of_start[start]
            blocks = tuple(
                bid for bid in range(entry, len(self.starts))
                if self.starts[bid] < end
            )
            span = FunctionSpan(name, addr, start, end, entry, blocks)
            spans.append(span)
            by_name[name] = span
        self.functions = spans
        self.function_by_name = by_name

    # ------------------------------------------------------------------ #
    # queries

    @property
    def num_blocks(self) -> int:
        return len(self.starts)

    def function_of(self, addr: int) -> Optional[str]:
        """Name of the text symbol whose span contains ``addr``."""
        pos = bisect_right(self.func_syms, (addr, "￿")) - 1
        if pos < 0:
            return None
        return self.func_syms[pos][1]

    def function_at(self, addr: int) -> Optional[FunctionSpan]:
        """The function span containing ``addr``, if any."""
        name = self.function_of(addr)
        return self.function_by_name.get(name) if name else None


def build_cfg(program: Program) -> ControlFlowGraph:
    """Build (or fetch the cached) CFG for ``program``.

    The graph depends only on the immutable linked text segment, so it
    is cached on the program object and shared by every client analysis
    (`repro lint`, `repro sanitize`, ...).
    """
    cached = getattr(program, "_absint_cfg", None)
    if cached is None:
        cached = ControlFlowGraph(program)
        program._absint_cfg = cached
    return cached
