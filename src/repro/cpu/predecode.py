"""Predecode + threaded-dispatch execution engine.

The legacy :meth:`CPU.step` re-decodes every instruction on every
execution: a ~60-arm ``if/elif`` chain of ``Enum.__eq__`` tests plus
``inst.info`` attribute chases. This module moves all of that work to
*program load time*: one pass over ``Program.instructions`` compiles
each static instruction into a closure with its operand fields
(``rs``/``rt``/``rd``/``imm``/``target``), its :class:`OpInfo`
properties, and the architectural containers (register file list,
memory bound-methods) captured as locals. Executing an instruction is
then one list index plus one call into straight-line arithmetic.

Plain handlers communicate control flow through their return value --
the precomputed *text index* of the next instruction, or ``HALT`` when
an exit syscall retired (``state.pc`` already set) -- so the driving
loop (:meth:`CPU.run_trace`) never touches ``state.pc`` except at entry
and exit. A transfer outside the text segment makes the loop stop with
``OFF_TEXT`` (``state.pc`` holding the errant target).

One closure is compiled per instruction. Loads, stores, branches and
jumps return the same :class:`~repro.cpu.executor.TraceRecord` the
legacy ``step()`` would have, and the driving loop derives the next
index from it. The ~60-70% of instructions that are neither return
the next index and get no record allocated at all; streaming
consumers receive their ``(pc, inst)`` directly (see
``CPU.run_trace``).

Equivalence invariants the compilers below preserve, bit for bit:

* writes to ``$zero`` are compiled out, but their *side effects*
  (memory reads that can fault, ``int()`` conversions that can raise)
  still execute;
* the ``$sp``-minimum / stack-overflow tracking is only compiled into
  memory handlers whose base register is ``$sp`` (the legacy code
  tested ``inst.rs == Reg.SP`` per access -- same observable effect);
* an exit syscall leaves ``state.pc`` on the instruction *after* the
  syscall, exactly as the legacy loop did;
* ``jalr $0, $0`` reads the just-written link value, reproducing the
  legacy write-then-read through ``regs[0]``.

Handlers capture ``state.regs``/``state.fregs`` directly, which is why
:meth:`ArchState.reset` mutates those lists in place instead of
rebinding them.
"""

from __future__ import annotations

import weakref

from repro.errors import SimulationError
from repro.cpu.syscalls import handle_syscall
from repro.isa.opcodes import OP_INFO, Op
from repro.isa.registers import Reg
from repro.mem.layout import STACK_LIMIT
from repro.utils.bits import to_signed32

MASK32 = 0xFFFFFFFF
SIGN32 = 0x80000000

# Instruction kinds, as seen by streaming trace consumers.
KIND_PLAIN = 0   # ALU / mult-div / FP / system: no TraceRecord needed
KIND_MEM = 1     # loads & stores: always fall through, carry an ea
KIND_CTRL = 2    # branches & jumps: carry the taken/next-pc outcome

# Negative sentinels in place of a next-instruction index.
HALT = -1
OFF_TEXT = -2


def build_tables(cpu):
    """Compile per-CPU handler tables for ``cpu.program``.

    Returns ``(handlers, kinds, pcs)``, each indexed by text index: the
    instruction's handler, its ``KIND_*`` code (a bytearray) and its
    static pc. Plain handlers return the next index; memory and
    control-flow handlers return their :class:`TraceRecord`. No handler
    holds a strong reference to ``cpu``, which holds the tables, so a
    ``CPU`` is freed as soon as it is dropped.
    """
    from repro.cpu.executor import TraceRecord

    program = cpu.program
    insts = program.instructions
    state = cpu.state
    regs = state.regs
    fregs = state.fregs
    mem = cpu.memory
    text_base = program.text_base
    n_insts = len(insts)
    sp_value = program.sp_value
    sp_min = cpu._sp_min
    cpu_ref = weakref.ref(cpu)

    mem_read = mem.read
    mem_write = mem.write
    read_u32 = mem.read_u32
    write_u32 = mem.write_u32
    read_double = mem.read_double
    write_double = mem.write_double

    handlers = []
    kinds = bytearray(n_insts)
    pcs = []

    for i, inst in enumerate(insts):
        op = inst.op
        info = OP_INFO[op]
        ni = i + 1
        pc = text_base + (i << 2)
        pc4 = pc + 4
        rd = inst.rd
        rs = inst.rs
        rt = inst.rt
        imm = inst.imm
        pcs.append(pc)
        handler = None

        # ---------------- integer ALU ----------------
        if op is Op.ADDU or op is Op.ADD:
            if rd:
                def handler(regs=regs, rd=rd, rs=rs, rt=rt, ni=ni):
                    regs[rd] = (regs[rs] + regs[rt]) & MASK32
                    return ni
        elif op is Op.ADDIU or op is Op.ADDI:
            if rt:
                def handler(regs=regs, rt=rt, rs=rs, imm=imm, ni=ni):
                    regs[rt] = (regs[rs] + imm) & MASK32
                    return ni
        elif op is Op.SUBU or op is Op.SUB:
            if rd:
                def handler(regs=regs, rd=rd, rs=rs, rt=rt, ni=ni):
                    regs[rd] = (regs[rs] - regs[rt]) & MASK32
                    return ni
        elif op is Op.AND:
            if rd:
                def handler(regs=regs, rd=rd, rs=rs, rt=rt, ni=ni):
                    regs[rd] = regs[rs] & regs[rt]
                    return ni
        elif op is Op.OR:
            if rd:
                def handler(regs=regs, rd=rd, rs=rs, rt=rt, ni=ni):
                    regs[rd] = regs[rs] | regs[rt]
                    return ni
        elif op is Op.XOR:
            if rd:
                def handler(regs=regs, rd=rd, rs=rs, rt=rt, ni=ni):
                    regs[rd] = regs[rs] ^ regs[rt]
                    return ni
        elif op is Op.NOR:
            if rd:
                def handler(regs=regs, rd=rd, rs=rs, rt=rt, ni=ni):
                    regs[rd] = ~(regs[rs] | regs[rt]) & MASK32
                    return ni
        elif op is Op.SLT:
            if rd:
                def handler(regs=regs, rd=rd, rs=rs, rt=rt, ni=ni,
                            s32=to_signed32):
                    regs[rd] = int(s32(regs[rs]) < s32(regs[rt]))
                    return ni
        elif op is Op.SLTU:
            if rd:
                def handler(regs=regs, rd=rd, rs=rs, rt=rt, ni=ni):
                    regs[rd] = int(regs[rs] < regs[rt])
                    return ni
        elif op is Op.SLTI:
            if rt:
                def handler(regs=regs, rt=rt, rs=rs, imm=imm, ni=ni,
                            s32=to_signed32):
                    regs[rt] = int(s32(regs[rs]) < imm)
                    return ni
        elif op is Op.SLTIU:
            if rt:
                uimm = imm & MASK32
                def handler(regs=regs, rt=rt, rs=rs, uimm=uimm, ni=ni):
                    regs[rt] = int(regs[rs] < uimm)
                    return ni
        elif op is Op.ANDI:
            if rt:
                m = imm & 0xFFFF
                def handler(regs=regs, rt=rt, rs=rs, m=m, ni=ni):
                    regs[rt] = regs[rs] & m
                    return ni
        elif op is Op.ORI:
            if rt:
                m = imm & 0xFFFF
                def handler(regs=regs, rt=rt, rs=rs, m=m, ni=ni):
                    regs[rt] = regs[rs] | m
                    return ni
        elif op is Op.XORI:
            if rt:
                m = imm & 0xFFFF
                def handler(regs=regs, rt=rt, rs=rs, m=m, ni=ni):
                    regs[rt] = regs[rs] ^ m
                    return ni
        elif op is Op.LUI:
            if rt:
                value = (imm & 0xFFFF) << 16
                def handler(regs=regs, rt=rt, value=value, ni=ni):
                    regs[rt] = value
                    return ni
        elif op is Op.SLL:
            if rd:
                sh = imm & 31
                def handler(regs=regs, rd=rd, rt=rt, sh=sh, ni=ni):
                    regs[rd] = (regs[rt] << sh) & MASK32
                    return ni
        elif op is Op.SRL:
            if rd:
                sh = imm & 31
                def handler(regs=regs, rd=rd, rt=rt, sh=sh, ni=ni):
                    regs[rd] = regs[rt] >> sh
                    return ni
        elif op is Op.SRA:
            if rd:
                sh = imm & 31
                def handler(regs=regs, rd=rd, rt=rt, sh=sh, ni=ni,
                            s32=to_signed32):
                    regs[rd] = (s32(regs[rt]) >> sh) & MASK32
                    return ni
        elif op is Op.SLLV:
            if rd:
                def handler(regs=regs, rd=rd, rs=rs, rt=rt, ni=ni):
                    regs[rd] = (regs[rs] << (regs[rt] & 31)) & MASK32
                    return ni
        elif op is Op.SRLV:
            if rd:
                def handler(regs=regs, rd=rd, rs=rs, rt=rt, ni=ni):
                    regs[rd] = regs[rs] >> (regs[rt] & 31)
                    return ni
        elif op is Op.SRAV:
            if rd:
                def handler(regs=regs, rd=rd, rs=rs, rt=rt, ni=ni,
                            s32=to_signed32):
                    regs[rd] = (s32(regs[rs]) >> (regs[rt] & 31)) & MASK32
                    return ni

        # ---------------- loads and stores ----------------
        elif info.mem_width:
            kinds[i] = KIND_MEM
            handler = _compile_mem(
                sp_min, inst, info, TraceRecord, regs, fregs,
                mem_read, mem_write, read_u32, write_u32,
                read_double, write_double, sp_value, pc,
            )

        # ---------------- branches ----------------
        elif op in (Op.BEQ, Op.BNE, Op.BLEZ, Op.BGTZ, Op.BLTZ, Op.BGEZ,
                    Op.BC1T, Op.BC1F):
            kinds[i] = KIND_CTRL
            handler = _compile_branch(op, inst, TraceRecord, state, regs, pc)

        # ---------------- jumps ----------------
        elif op in (Op.J, Op.JAL, Op.JR, Op.JALR):
            kinds[i] = KIND_CTRL
            handler = _compile_jump(op, inst, TraceRecord, regs, pc)

        # ---------------- multiply / divide ----------------
        elif op is Op.MULT:
            def handler(regs=regs, state=state, rs=rs, rt=rt, ni=ni,
                        s32=to_signed32):
                product = s32(regs[rs]) * s32(regs[rt])
                state.lo = product & MASK32
                state.hi = (product >> 32) & MASK32
                return ni
        elif op is Op.MULTU:
            def handler(regs=regs, state=state, rs=rs, rt=rt, ni=ni):
                product = regs[rs] * regs[rt]
                state.lo = product & MASK32
                state.hi = (product >> 32) & MASK32
                return ni
        elif op is Op.DIV:
            def handler(regs=regs, state=state, rs=rs, rt=rt, ni=ni,
                        s32=to_signed32):
                dividend = s32(regs[rs])
                divisor = s32(regs[rt])
                if divisor == 0:
                    state.lo = 0
                    state.hi = 0
                else:
                    quotient = abs(dividend) // abs(divisor)
                    if (dividend < 0) != (divisor < 0):
                        quotient = -quotient
                    state.lo = quotient & MASK32
                    state.hi = (dividend - quotient * divisor) & MASK32
                return ni
        elif op is Op.DIVU:
            def handler(regs=regs, state=state, rs=rs, rt=rt, ni=ni):
                divisor = regs[rt]
                if divisor == 0:
                    state.lo = 0
                    state.hi = 0
                else:
                    state.lo = regs[rs] // divisor
                    state.hi = regs[rs] % divisor
                return ni
        elif op is Op.MFHI:
            if rd:
                def handler(regs=regs, state=state, rd=rd, ni=ni):
                    regs[rd] = state.hi
                    return ni
        elif op is Op.MFLO:
            if rd:
                def handler(regs=regs, state=state, rd=rd, ni=ni):
                    regs[rd] = state.lo
                    return ni

        # ---------------- floating point ----------------
        elif op is Op.ADD_D:
            fd, fs, ft = inst.fd, inst.fs, inst.ft
            def handler(fregs=fregs, fd=fd, fs=fs, ft=ft, ni=ni):
                fregs[fd] = float(fregs[fs]) + float(fregs[ft])
                return ni
        elif op is Op.SUB_D:
            fd, fs, ft = inst.fd, inst.fs, inst.ft
            def handler(fregs=fregs, fd=fd, fs=fs, ft=ft, ni=ni):
                fregs[fd] = float(fregs[fs]) - float(fregs[ft])
                return ni
        elif op is Op.MUL_D:
            fd, fs, ft = inst.fd, inst.fs, inst.ft
            def handler(fregs=fregs, fd=fd, fs=fs, ft=ft, ni=ni):
                fregs[fd] = float(fregs[fs]) * float(fregs[ft])
                return ni
        elif op is Op.DIV_D:
            fd, fs, ft = inst.fd, inst.fs, inst.ft
            def handler(fregs=fregs, fd=fd, fs=fs, ft=ft, ni=ni):
                divisor = float(fregs[ft])
                if divisor == 0.0:
                    fregs[fd] = (float("inf") if float(fregs[fs]) >= 0
                                 else float("-inf"))
                else:
                    fregs[fd] = float(fregs[fs]) / divisor
                return ni
        elif op is Op.NEG_D:
            fd, fs = inst.fd, inst.fs
            def handler(fregs=fregs, fd=fd, fs=fs, ni=ni):
                fregs[fd] = -float(fregs[fs])
                return ni
        elif op is Op.ABS_D:
            fd, fs = inst.fd, inst.fs
            def handler(fregs=fregs, fd=fd, fs=fs, ni=ni):
                fregs[fd] = abs(float(fregs[fs]))
                return ni
        elif op is Op.MOV_D:
            fd, fs = inst.fd, inst.fs
            def handler(fregs=fregs, fd=fd, fs=fs, ni=ni):
                fregs[fd] = fregs[fs]
                return ni
        elif op is Op.SQRT_D:
            fd, fs = inst.fd, inst.fs
            def handler(fregs=fregs, fd=fd, fs=fs, ni=ni):
                value = float(fregs[fs])
                if value < 0:
                    raise SimulationError("sqrt.d of negative value")
                fregs[fd] = value ** 0.5
                return ni
        elif op is Op.CVT_D_W:
            fd, fs = inst.fd, inst.fs
            def handler(fregs=fregs, fd=fd, fs=fs, ni=ni, s32=to_signed32):
                fregs[fd] = float(s32(int(fregs[fs])))
                return ni
        elif op is Op.CVT_W_D or op is Op.TRUNC_W_D:
            fd, fs = inst.fd, inst.fs
            def handler(fregs=fregs, fd=fd, fs=fs, ni=ni):
                fregs[fd] = int(float(fregs[fs]))
                return ni
        elif op is Op.MTC1:
            fs = inst.fs
            def handler(fregs=fregs, regs=regs, fs=fs, rt=rt, ni=ni):
                fregs[fs] = regs[rt]
                return ni
        elif op is Op.MFC1:
            fs = inst.fs
            if rd:
                def handler(regs=regs, fregs=fregs, rd=rd, fs=fs, ni=ni):
                    regs[rd] = int(fregs[fs]) & MASK32
                    return ni
            else:
                # destination is $zero: the int() conversion still runs
                # (it can raise on inf/nan, exactly as the legacy path).
                def handler(fregs=fregs, fs=fs, ni=ni):
                    int(fregs[fs])
                    return ni
        elif op is Op.C_EQ_D:
            fs, ft = inst.fs, inst.ft
            def handler(fregs=fregs, state=state, fs=fs, ft=ft, ni=ni):
                state.fcc = float(fregs[fs]) == float(fregs[ft])
                return ni
        elif op is Op.C_LT_D:
            fs, ft = inst.fs, inst.ft
            def handler(fregs=fregs, state=state, fs=fs, ft=ft, ni=ni):
                state.fcc = float(fregs[fs]) < float(fregs[ft])
                return ni
        elif op is Op.C_LE_D:
            fs, ft = inst.fs, inst.ft
            def handler(fregs=fregs, state=state, fs=fs, ft=ft, ni=ni):
                state.fcc = float(fregs[fs]) <= float(fregs[ft])
                return ni

        # ---------------- system ----------------
        elif op is Op.SYSCALL:
            def handler(cpu_ref=cpu_ref, state=state, pc=pc, pc4=pc4,
                        ni=ni):
                # legacy step() leaves state.pc at the syscall's own pc
                # while the handler runs (on_syscall reports it)
                state.pc = pc
                cpu = cpu_ref()
                handle_syscall(cpu)
                if cpu.halted:
                    state.pc = pc4
                    return HALT
                return ni
        elif op is Op.NOP:
            pass  # compiled to the shared fall-through below
        elif op is Op.BREAK:
            def handler(pc=pc):
                raise SimulationError(f"break at pc 0x{pc:08x}")
        else:  # pragma: no cover - opcode table is exhaustive
            name = op.name
            def handler(name=name):
                raise SimulationError(f"unimplemented opcode {name}")

        if handler is None:
            # architectural no-op (nop, or a write to $zero with no
            # observable side effect): just fall through
            def handler(ni=ni):
                return ni
        handlers.append(handler)

    return handlers, kinds, pcs


# ---------------------------------------------------------------------- #
# memory handlers


def _compile_mem(sp_min, inst, info, TraceRecord, regs, fregs,
                 mem_read, mem_write, read_u32, write_u32,
                 read_double, write_double, sp_value, pc):
    """Compile one load/store into a closure returning its record."""
    pc4 = pc + 4
    rs = inst.rs
    rt = inst.rt
    rx = inst.rx
    ft = inst.ft
    imm = inst.imm
    mode = info.mem_mode
    width = info.mem_width
    signed = info.mem_signed
    fp = info.mem_fp

    # One access closure: ea -> None (side effects only). The loaded
    # value is written to its destination inside; writes to $zero are
    # discarded but the read (and any fault it raises) still happens.
    if info.is_load:
        if fp:
            def access(ea, fregs=fregs, ft=ft, read_double=read_double):
                fregs[ft] = read_double(ea)
        elif width == 4:
            if rt:
                def access(ea, regs=regs, rt=rt, read_u32=read_u32):
                    # == read(ea, 4, signed=True) & MASK32
                    regs[rt] = read_u32(ea)
            else:
                def access(ea, read_u32=read_u32):
                    read_u32(ea)
        else:
            if rt:
                def access(ea, regs=regs, rt=rt, mem_read=mem_read,
                           width=width, signed=signed):
                    regs[rt] = mem_read(ea, width, signed) & MASK32
            else:
                def access(ea, mem_read=mem_read, width=width, signed=signed):
                    mem_read(ea, width, signed)
    else:
        if fp:
            def access(ea, fregs=fregs, ft=ft, write_double=write_double):
                write_double(ea, float(fregs[ft]))
        elif width == 4:
            def access(ea, regs=regs, rt=rt, write_u32=write_u32):
                write_u32(ea, regs[rt])
        else:
            def access(ea, regs=regs, rt=rt, mem_write=mem_write,
                       width=width):
                mem_write(ea, width, regs[rt])

    if rs == Reg.SP:
        def check_sp(base, sp_min=sp_min, sp_value=sp_value):
            if base < sp_min[0]:
                sp_min[0] = base
                if sp_value - base > STACK_LIMIT:
                    raise SimulationError("stack overflow")
    else:
        check_sp = None

    if mode == "c":
        if check_sp is None:
            def handler(regs=regs, rs=rs, imm=imm, access=access,
                        TR=TraceRecord, pc=pc, inst=inst, pc4=pc4):
                base = regs[rs]
                ea = (base + imm) & MASK32
                access(ea)
                return TR(pc, inst, ea, base, imm, None, pc4)
        else:
            def handler(regs=regs, rs=rs, imm=imm, access=access,
                        check_sp=check_sp, TR=TraceRecord, pc=pc,
                        inst=inst, pc4=pc4):
                base = regs[rs]
                ea = (base + imm) & MASK32
                access(ea)
                check_sp(base)
                return TR(pc, inst, ea, base, imm, None, pc4)
    elif mode == "x":
        def handler(regs=regs, rs=rs, rx=rx, access=access,
                    check_sp=check_sp, TR=TraceRecord, pc=pc, inst=inst,
                    pc4=pc4):
            base = regs[rs]
            offset = regs[rx]
            ea = (base + offset) & MASK32
            access(ea)
            if check_sp is not None:
                check_sp(base)
            return TR(pc, inst, ea, base, offset, None, pc4)
    else:  # post-increment: address is the raw base register
        postinc = rs != 0  # a $zero base is re-zeroed by the legacy loop

        def handler(regs=regs, rs=rs, imm=imm, access=access,
                    check_sp=check_sp, postinc=postinc, TR=TraceRecord,
                    pc=pc, inst=inst, pc4=pc4):
            base = regs[rs]
            access(base)
            if postinc:
                regs[rs] = (base + imm) & MASK32
            if check_sp is not None:
                check_sp(base)
            return TR(pc, inst, base, base, 0, None, pc4)

    return handler


# ---------------------------------------------------------------------- #
# control-flow handlers
#
# These return the record only; CPU.run_trace maps its ``next_pc`` to a
# text index, or stops with OFF_TEXT when the target lies outside text.


def _compile_branch(op, inst, TraceRecord, state, regs, pc):
    pc4 = pc + 4
    rs = inst.rs
    rt = inst.rt
    target = inst.target

    if op is Op.BEQ:
        def handler(regs=regs, rs=rs, rt=rt, TR=TraceRecord, pc=pc,
                    inst=inst, target=target, pc4=pc4):
            if regs[rs] == regs[rt]:
                return TR(pc, inst, None, 0, 0, True, target)
            return TR(pc, inst, None, 0, 0, False, pc4)
    elif op is Op.BNE:
        def handler(regs=regs, rs=rs, rt=rt, TR=TraceRecord, pc=pc,
                    inst=inst, target=target, pc4=pc4):
            if regs[rs] != regs[rt]:
                return TR(pc, inst, None, 0, 0, True, target)
            return TR(pc, inst, None, 0, 0, False, pc4)
    elif op is Op.BLEZ:
        # signed <= 0 on the unsigned view: zero, or sign bit set
        def handler(regs=regs, rs=rs, TR=TraceRecord, pc=pc, inst=inst,
                    target=target, pc4=pc4):
            if 0 < regs[rs] < SIGN32:
                return TR(pc, inst, None, 0, 0, False, pc4)
            return TR(pc, inst, None, 0, 0, True, target)
    elif op is Op.BGTZ:
        def handler(regs=regs, rs=rs, TR=TraceRecord, pc=pc, inst=inst,
                    target=target, pc4=pc4):
            if 0 < regs[rs] < SIGN32:
                return TR(pc, inst, None, 0, 0, True, target)
            return TR(pc, inst, None, 0, 0, False, pc4)
    elif op is Op.BLTZ:
        def handler(regs=regs, rs=rs, TR=TraceRecord, pc=pc, inst=inst,
                    target=target, pc4=pc4):
            if regs[rs] >= SIGN32:
                return TR(pc, inst, None, 0, 0, True, target)
            return TR(pc, inst, None, 0, 0, False, pc4)
    elif op is Op.BGEZ:
        def handler(regs=regs, rs=rs, TR=TraceRecord, pc=pc, inst=inst,
                    target=target, pc4=pc4):
            if regs[rs] < SIGN32:
                return TR(pc, inst, None, 0, 0, True, target)
            return TR(pc, inst, None, 0, 0, False, pc4)
    elif op is Op.BC1T:
        def handler(state=state, TR=TraceRecord, pc=pc, inst=inst,
                    target=target, pc4=pc4):
            if state.fcc:
                return TR(pc, inst, None, 0, 0, True, target)
            return TR(pc, inst, None, 0, 0, False, pc4)
    else:  # BC1F
        def handler(state=state, TR=TraceRecord, pc=pc, inst=inst,
                    target=target, pc4=pc4):
            if state.fcc:
                return TR(pc, inst, None, 0, 0, False, pc4)
            return TR(pc, inst, None, 0, 0, True, target)

    return handler


def _compile_jump(op, inst, TraceRecord, regs, pc):
    rd = inst.rd
    rs = inst.rs
    target = inst.target
    ra = (pc + 4) & MASK32

    if op is Op.JAL:
        def handler(regs=regs, ra=ra, TR=TraceRecord, pc=pc, inst=inst,
                    target=target):
            regs[31] = ra
            return TR(pc, inst, None, 0, 0, True, target)
    elif op is Op.J:
        def handler(TR=TraceRecord, pc=pc, inst=inst, target=target):
            return TR(pc, inst, None, 0, 0, True, target)
    elif op is Op.JALR and rd:
        # link first, then read the jump target -- so jalr with rd == rs
        # reads the just-written value, like the legacy write-then-read
        # through regs.
        def handler(regs=regs, rd=rd, rs=rs, ra=ra, TR=TraceRecord,
                    pc=pc, inst=inst):
            regs[rd] = ra
            return TR(pc, inst, None, 0, 0, True, regs[rs])
    elif op is Op.JALR and rs == 0:
        # jalr $0, $0: the legacy loop wrote pc+4 into regs[0], read it
        # back as the target, then re-zeroed regs[0].
        def handler(TR=TraceRecord, pc=pc, inst=inst, npc=ra):
            return TR(pc, inst, None, 0, 0, True, npc)
    else:
        # jr, or jalr with rd == $zero, whose link write was invisible
        def handler(regs=regs, rs=rs, TR=TraceRecord, pc=pc, inst=inst):
            return TR(pc, inst, None, 0, 0, True, regs[rs])
    return handler
