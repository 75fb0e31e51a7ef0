"""Relocatable object units and fully-linked programs.

An :class:`ObjectUnit` is what the assembler produces from one source
file: a list of instructions with relocation records, data definitions,
and exported symbols. The linker (:mod:`repro.linker`) merges units,
lays out the global region, resolves relocations, and returns a
:class:`Program` ready for simulation.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum

from repro.isa.instruction import Instruction


class RelocKind(Enum):
    """Relocation kinds understood by the linker."""

    HI16 = "hi16"        # imm <- %hi(sym+addend), with low-half carry
    LO16 = "lo16"        # imm <- %lo(sym+addend)
    GPREL16 = "gprel16"  # imm <- (sym+addend) - gp_value
    CALL26 = "call26"    # target <- address of sym  (jal/j to extern)
    WORD32 = "word32"    # 32-bit data word <- address of sym + addend


@dataclass
class Relocation:
    """One pending fix-up against a symbol."""

    offset: int          # instruction index (text) or byte offset (data)
    kind: RelocKind
    symbol: str
    addend: int = 0


@dataclass
class DataDef:
    """One named datum in the data segment.

    ``gp_addressable`` is a *hint* from the compiler: the linker places all
    hinted symbols (and any symbol that is the target of a GPREL16
    relocation) into the global region near the global pointer.
    """

    name: str
    payload: bytearray
    align: int = 4
    relocs: list[Relocation] = field(default_factory=list)
    gp_addressable: bool = False
    is_bss: bool = False  # .comm / zero-initialized

    @property
    def size(self) -> int:
        return len(self.payload)


@dataclass
class Symbol:
    """A resolved symbol in a linked program."""

    name: str
    address: int
    size: int = 0
    section: str = "data"


@dataclass(frozen=True)
class FrameFacts:
    """Stack-frame layout facts for one compiled function.

    Recorded by the compiler's code generator and carried through the
    object unit into the linked program so static analyses (for example
    :mod:`repro.analysis.static_fac`) can reason about stack alignment
    without re-deriving the prologue.
    """

    name: str
    frame_size: int          # bytes subtracted from $sp (post rounding)
    frame_align: int         # the FacSoftwareOptions.frame_align in force
    variable_frame: bool     # prologue re-aligns $sp with an AND mask
    align_target: int        # alignment the prologue guarantees for $sp


@dataclass(frozen=True)
class LinkFacts:
    """Placement facts recorded by the linker.

    These are the linker-controlled inputs to fast-address-calculation
    predictability: where the gp-addressable global region landed, how it
    was aligned, and the initial stack pointer's guaranteed alignment.
    """

    gp_value: int            # value loaded into $gp
    gp_region_base: int      # base address of the global region
    gp_region_size: int      # bytes of gp-addressable data
    align_gp: bool           # paper Section 4 power-of-two relocation?
    sp_value: int            # initial stack pointer
    stack_align: int         # guaranteed alignment of the initial $sp
    # segment extents for the sanitizer's memory map (0 = unrecorded,
    # for LinkFacts built before these fields existed)
    data_base: int = 0       # first address of the data segment
    data_end: int = 0        # one past the last placed datum
    stack_top: int = 0       # exclusive upper bound of the stack region


@dataclass
class ObjectUnit:
    """Assembled but not yet linked translation unit."""

    name: str = "unit"
    text: list[Instruction] = field(default_factory=list)
    text_relocs: list[Relocation] = field(default_factory=list)
    data: list[DataDef] = field(default_factory=list)
    exported: set[str] = field(default_factory=set)
    # local text labels resolved to instruction indexes by the assembler
    text_labels: dict[str, int] = field(default_factory=dict)
    # layout metadata from the compiler (empty for hand-written assembly)
    frame_facts: dict[str, FrameFacts] = field(default_factory=dict)
    struct_facts: dict[str, int] = field(default_factory=dict)  # name -> size
    # source attribution from ``.loc`` directives: (inst index, file, line).
    # Each mark covers instructions until the next mark (or unit end).
    line_marks: list[tuple[int, str, int]] = field(default_factory=list)


class Program:
    """A fully linked program image.

    Attributes:
        instructions: text segment, one entry per word.
        text_base: address of ``instructions[0]``.
        data_image: list of ``(address, bytes)`` initialized spans.
        bss_spans: list of ``(address, size)`` zero-initialized spans.
        symbols: name -> :class:`Symbol`.
        entry: address of the first instruction to execute.
        gp_value: value the loader must place in ``$gp``.
        sp_value: initial stack pointer.
        brk: initial program break (start of the heap).
    """

    def __init__(
        self,
        instructions: list[Instruction],
        text_base: int,
        entry: int,
        gp_value: int,
        sp_value: int,
        brk: int,
    ):
        self.instructions = instructions
        self.text_base = text_base
        self.entry = entry
        self.gp_value = gp_value
        self.sp_value = sp_value
        self.brk = brk
        self.data_image: list[tuple[int, bytes]] = []
        self.bss_spans: list[tuple[int, int]] = []
        self.symbols: dict[str, Symbol] = {}
        # optional layout metadata for static analyses
        self.frame_facts: dict[str, FrameFacts] = {}
        self.struct_facts: dict[str, int] = {}
        self.link_facts: LinkFacts | None = None
        # merged source line table: (address, file, line), address-sorted.
        # A ``file`` of "" marks an attribution gap (hand-written startup
        # code, units assembled without ``.loc`` directives).
        self.line_table: list[tuple[int, str, int]] = []

    def instruction_at(self, address: int) -> Instruction:
        """Fetch the instruction stored at ``address``."""
        index = (address - self.text_base) >> 2
        return self.instructions[index]

    @property
    def text_size(self) -> int:
        return len(self.instructions) * 4

    def symbol_address(self, name: str) -> int:
        return self.symbols[name].address

    def source_of(self, address: int) -> tuple[str, int] | None:
        """Map a text address to ``(file, line)`` via the line table.

        Returns None for addresses outside the text segment, in an
        attribution gap, or when the program was linked without any
        ``.loc`` information.
        """
        if not self.line_table:
            return None
        if not self.text_base <= address < self.text_base + self.text_size:
            return None
        index = bisect_right(self.line_table, (address, "￿", 0)) - 1
        if index < 0:
            return None
        _, file, line = self.line_table[index]
        if not file:
            return None
        return file, line

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return (
            f"<Program {len(self.instructions)} insts, "
            f"entry=0x{self.entry:08x}, gp=0x{self.gp_value:08x}>"
        )
