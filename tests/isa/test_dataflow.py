"""Control-flow metadata (:mod:`repro.isa.dataflow`) and the integer
def/use table (:func:`repro.pipeline.deps.sources_and_dests`) cross-checked,
for every opcode, against the assembler operand-format table
(``OpInfo.fmt``).

The expectations below restate, independently of the def/use table's
implementation, which integer register *fields* each assembler format
populates and which of those an execution reads or writes. Any opcode
added to ``OP_INFO`` without a matching entry here fails loudly.
"""

from __future__ import annotations

import pytest

from repro.isa import dataflow as df
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OP_INFO, Op
from repro.isa.registers import Reg
from repro.pipeline.deps import sources_and_dests

# Sentinel register numbers, all distinct, none $zero.
RD, RS, RT, RX = 10, 11, 12, 13


def _inst(op: Op) -> Instruction:
    return Instruction(op, rd=RD, rs=RS, rt=RT, rx=RX,
                       fd=2, fs=4, ft=6, imm=8, target=0x400000)


def _int_slots(slots: tuple[int, ...]) -> set[int]:
    """The integer-register slots (1-31) of a scoreboard slot tuple."""
    return {s for s in slots if 1 <= s <= 31}


def _expected(op: Op) -> tuple[set[int], set[int]]:
    """(reads, writes) implied by the operand format + implicit regs."""
    info = OP_INFO[op]
    fmt = info.fmt
    if fmt == "r3":
        return {RS, RT}, {RD}
    if fmt == "sh":                       # rd, rt, shamt
        return {RT}, {RD}
    if fmt == "i2":                       # rt, rs, imm
        return {RS}, {RT}
    if fmt == "lui":
        return set(), {RT}
    if fmt == "md":                       # mult/div write HI/LO only
        return {RS, RT}, set()
    if fmt == "mf":                       # mfhi/mflo
        return set(), {RD}
    if fmt == "mc":
        return ({RS, RT}, set()) if info.is_store else ({RS}, {RT})
    if fmt == "mx":
        return ({RS, RX, RT}, set()) if info.is_store else ({RS, RX}, {RT})
    if fmt == "mp":                       # post-increment updates the base
        return ({RS, RT}, {RS}) if info.is_store else ({RS}, {RT, RS})
    if fmt == "fmc":                      # FP value side is not an int reg
        return {RS}, set()
    if fmt == "fmx":
        return {RS, RX}, set()
    if fmt == "b2":
        return {RS, RT}, set()
    if fmt == "b1":
        return {RS}, set()
    if fmt == "j":
        return set(), ({Reg.RA} if op == Op.JAL else set())
    if fmt == "jr":
        return {RS}, set()
    if fmt == "jalr":
        return {RS}, {RD}
    if fmt in ("f3", "f2", "fcmp", "fb"):
        return set(), set()
    if fmt == "mtc1":
        return {RT}, set()
    if fmt == "mfc1":
        return set(), {RD}
    if fmt == "none":
        if op == Op.SYSCALL:
            return {Reg.V0, Reg.A0}, {Reg.V0}
        return set(), set()
    raise AssertionError(f"no expectation for format {fmt!r}")


@pytest.mark.parametrize("op", sorted(OP_INFO), ids=lambda op: op.name)
def test_def_use_matches_operand_table(op):
    inst = _inst(op)
    reads, writes = _expected(op)
    sources, dests = sources_and_dests(inst)
    assert _int_slots(sources) == reads
    assert _int_slots(dests) == writes


@pytest.mark.parametrize("op", sorted(OP_INFO), ids=lambda op: op.name)
def test_zero_register_never_written(op):
    inst = Instruction(op, rd=0, rs=0, rt=0, rx=0)
    assert Reg.ZERO not in sources_and_dests(inst)[1]


def test_control_flow_predicates():
    assert df.is_branch(_inst(Op.BEQ))
    assert df.is_branch(_inst(Op.BC1F))
    assert not df.is_branch(_inst(Op.J))
    assert df.is_return(Instruction(Op.JR, rs=Reg.RA))
    assert not df.is_return(Instruction(Op.JR, rs=RS))


@pytest.mark.parametrize("op", sorted(OP_INFO), ids=lambda op: op.name)
def test_block_enders_are_exactly_the_control_transfers(op):
    expected = (op in df.CONDITIONAL_BRANCHES
                or op in (Op.J, Op.JAL, Op.JR, Op.JALR, Op.BREAK))
    assert df.ends_block(_inst(op)) == expected


def test_static_targets():
    assert df.static_targets(_inst(Op.BEQ)) == (0x400000,)
    assert df.static_targets(_inst(Op.J)) == (0x400000,)
    assert df.static_targets(_inst(Op.JAL)) == (0x400000,)
    # indirect transfers encode no target
    assert df.static_targets(Instruction(Op.JR, rs=RS)) == ()
    unresolved = Instruction(Op.BEQ, rs=RS, rt=RT)   # target still None
    assert df.static_targets(unresolved) == ()
