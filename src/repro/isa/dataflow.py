"""Per-instruction control-flow metadata for static analyses.

These helpers answer, from the :class:`~repro.isa.instruction.Instruction`
record alone, how an instruction transfers control: whether it is a
conditional branch or a return, whether it ends a basic block, and which
targets it encodes. The CFG builder and solver of
:mod:`repro.analysis.absint` and the sanitizer's checks are built on
them. Register def/use for the timing model, the oracle and the
load-use kernel comes from :func:`repro.pipeline.deps.sources_and_dests`.
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.opcodes import Op
from repro.isa.registers import Reg

CONDITIONAL_BRANCHES = frozenset((
    Op.BEQ, Op.BNE,
    Op.BLEZ, Op.BGTZ, Op.BLTZ, Op.BGEZ,
    Op.BC1T, Op.BC1F,
))


def is_branch(inst: Instruction) -> bool:
    """Conditional branch (falls through when not taken)."""
    return inst.op in CONDITIONAL_BRANCHES


def is_return(inst: Instruction) -> bool:
    """``jr $ra`` -- the conventional function return."""
    return inst.op == Op.JR and inst.rs == Reg.RA


def ends_block(inst: Instruction) -> bool:
    """True when control cannot simply fall into the next instruction
    without this instruction having a say (branch, jump, call, return,
    or trap)."""
    return (
        is_branch(inst)
        or inst.op in (Op.J, Op.JAL, Op.JR, Op.JALR, Op.BREAK)
    )


def static_targets(inst: Instruction) -> tuple[int, ...]:
    """Absolute branch/jump target addresses encoded in the instruction."""
    if inst.target is None:
        return ()
    if is_branch(inst) or inst.op in (Op.J, Op.JAL):
        return (inst.target,)
    return ()
