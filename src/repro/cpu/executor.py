"""The functional simulator.

``CPU.step()`` executes one instruction and returns a :class:`TraceRecord`
describing what happened -- the effective address and its ingredients for
memory operations, and the control-flow outcome for branches. It is the
specification interpreter; production paths run :meth:`CPU.run_trace`,
which hands its consumers the same records. The timing simulator
(:mod:`repro.pipeline`) and the reference-behaviour analyses
(:mod:`repro.analysis`) are both trace-driven consumers of these records.
"""

from __future__ import annotations

from repro.errors import SimulationError
from repro.cpu.state import ArchState
from repro.cpu.syscalls import handle_syscall
from repro.isa.opcodes import Op
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.mem.layout import STACK_LIMIT
from repro.mem.memory import Memory
from repro.utils.bits import to_signed32

MASK32 = 0xFFFFFFFF


class TraceRecord:
    """One retired instruction, as seen by trace-driven consumers."""

    __slots__ = ("pc", "inst", "ea", "base_value", "offset_value", "taken", "next_pc")

    def __init__(self, pc, inst, ea, base_value, offset_value, taken, next_pc):
        self.pc = pc
        self.inst = inst
        self.ea = ea                    # effective address or None
        self.base_value = base_value    # value of the base register
        self.offset_value = offset_value  # constant or index-register value
        self.taken = taken              # True/False for branches, None otherwise
        self.next_pc = next_pc

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        extra = f" ea=0x{self.ea:08x}" if self.ea is not None else ""
        return f"<TraceRecord pc=0x{self.pc:08x} {self.inst!r}{extra}>"


class CPU:
    """Architectural simulator bound to one linked program."""

    def __init__(self, program: Program, memory: Memory | None = None,
                 obs=None):
        self.program = program
        self.memory = memory or Memory()
        # Optional EventBus (repro.obs); used for Syscall events.
        self.obs = obs
        self.state = ArchState()
        self.output: list[str] = []
        self.halted = False
        self.exit_code = 0
        self.instructions_retired = 0
        self.heap_base = program.brk
        self.brk = program.brk
        self.heap_peak = program.brk
        self.sp_min = program.sp_value
        self._load_image()
        self.state.reset(program.entry, program.gp_value, program.sp_value)
        self._insts = program.instructions
        self._text_base = program.text_base
        # predecoded handler tables (repro.cpu.predecode), built lazily
        # on the first run_trace()
        self._tables = None

    def _load_image(self) -> None:
        for address, payload in self.program.data_image:
            self.memory.write_bytes(address, payload)
        for address, size in self.program.bss_spans:
            self.memory.reserve(address, size)

    # ------------------------------------------------------------------ #

    def stdout(self) -> str:
        """Everything the program printed, concatenated."""
        return "".join(self.output)

    @property
    def memory_usage(self) -> int:
        """Bytes of static data + peak heap + peak stack (Table 3 metric)."""
        static = sum(len(p) for _, p in self.program.data_image)
        static += sum(size for _, size in self.program.bss_spans)
        heap = self.heap_peak - self.heap_base
        stack = self.program.sp_value - self.sp_min
        return static + heap + stack

    def run(self, max_instructions: int = 100_000_000) -> int:
        """Run until exit or the instruction budget on the predecoded
        interpreter (:meth:`run_trace` with no consumer); returns the
        retired count."""
        executed = self.run_trace(None, max_instructions)
        if not self.halted and executed >= max_instructions > 0:
            raise SimulationError(
                f"instruction budget exhausted after {max_instructions} instructions"
            )
        return self.instructions_retired

    def _handler_tables(self):
        tables = self._tables
        if tables is None:
            from repro.cpu.predecode import build_tables
            tables = self._tables = build_tables(self)
        return tables

    def run_trace(self, consumer=None, max_instructions: int = 100_000_000) -> int:
        """Drive the predecoded engine, streaming outcomes to ``consumer``.

        The consumer declares what it needs by providing any of three
        optional methods (looked up once, before the loop starts):

        * ``trace_plain(pc, inst)`` -- called after every retired
          instruction that is neither a memory op nor a branch/jump; no
          :class:`TraceRecord` is allocated for these,
        * ``trace_mem(rec)`` -- called with a full :class:`TraceRecord`
          for every load/store,
        * ``trace_branch(rec)`` -- called with a full record for every
          branch/jump.

        A record handed to a hook is identical (field for field) to what
        the spec ``step()`` would have returned for that instruction.
        With ``consumer=None`` (or a consumer with none of the hooks)
        the loop runs architecture-only at full speed. Returns the
        number of instructions retired by this call; stops on halt or
        when ``max_instructions`` is reached, leaving ``state.pc`` ready
        for a subsequent ``step()``/``run_trace()``.
        """
        from repro.cpu.predecode import HALT, OFF_TEXT

        if self.halted:
            return 0
        run_table, trace_table = self._handler_tables()
        pre = self.program.predecoded()
        kinds = pre.kinds
        pcs = pre.pcs
        insts = self._insts
        state = self.state
        text_base = self._text_base
        n_insts = len(run_table)
        limit = max_instructions

        pc = state.pc
        index = (pc - text_base) >> 2
        if limit > 0 and not 0 <= index < n_insts:
            raise SimulationError(f"pc 0x{pc:08x} outside text segment")

        plain_cb = getattr(consumer, "trace_plain", None)
        mem_cb = getattr(consumer, "trace_mem", None)
        branch_cb = getattr(consumer, "trace_branch", None)

        n = 0
        try:
            if plain_cb is None and mem_cb is None and branch_cb is None:
                while index >= 0 and n < limit:
                    index = run_table[index]()
                    n += 1
            else:
                while index >= 0 and n < limit:
                    kind = kinds[index]
                    if kind == 0:
                        i0 = index
                        index = run_table[i0]()
                        n += 1
                        if plain_cb is not None:
                            plain_cb(pcs[i0], insts[i0])
                    elif kind == 1:
                        if mem_cb is not None:
                            rec = trace_table[index]()
                            index += 1
                            n += 1
                            mem_cb(rec)
                        else:
                            index = run_table[index]()
                            n += 1
                    else:
                        if branch_cb is not None:
                            rec = trace_table[index]()
                            n += 1
                            branch_cb(rec)
                            npc = rec.next_pc
                            idx = (npc - text_base) >> 2
                            if 0 <= idx < n_insts:
                                index = idx
                            else:
                                state.pc = npc
                                index = OFF_TEXT
                        else:
                            index = run_table[index]()
                            n += 1
        except IndexError:
            # a plain/memory handler fell off the end of the text segment
            if index >= n_insts:
                self.instructions_retired += n
                state.pc = text_base + (index << 2)
                raise SimulationError(
                    f"pc 0x{state.pc:08x} outside text segment"
                ) from None
            self.instructions_retired += n
            if 0 <= index < n_insts:
                state.pc = text_base + (index << 2)
            raise
        except BaseException:
            # faulting instruction did not retire; leave state.pc on it
            self.instructions_retired += n
            if 0 <= index < n_insts:
                state.pc = text_base + (index << 2)
            raise

        self.instructions_retired += n
        if index >= 0:
            state.pc = text_base + (index << 2)
        elif index == OFF_TEXT and n < limit:
            # the transfer retired (and was streamed); executing the
            # errant pc is what fails, exactly as a subsequent step()
            raise SimulationError(f"pc 0x{state.pc:08x} outside text segment")
        # on HALT the syscall handler placed state.pc after the syscall
        return n

    def step(self) -> TraceRecord:
        """Execute one instruction and return its trace record."""
        state = self.state
        pc = state.pc
        index = (pc - self._text_base) >> 2
        if index < 0:
            raise SimulationError(f"pc 0x{pc:08x} outside text segment")
        try:
            inst = self._insts[index]
        except IndexError:
            raise SimulationError(f"pc 0x{pc:08x} outside text segment") from None

        regs = state.regs
        op = inst.op
        next_pc = pc + 4
        ea = None
        base_value = 0
        offset_value = 0
        taken = None

        # ---------------- integer ALU ----------------
        if op == Op.ADDU or op == Op.ADD:
            regs[inst.rd] = (regs[inst.rs] + regs[inst.rt]) & MASK32
        elif op == Op.ADDIU or op == Op.ADDI:
            regs[inst.rt] = (regs[inst.rs] + inst.imm) & MASK32
        elif op == Op.SUBU or op == Op.SUB:
            regs[inst.rd] = (regs[inst.rs] - regs[inst.rt]) & MASK32
        elif op == Op.AND:
            regs[inst.rd] = regs[inst.rs] & regs[inst.rt]
        elif op == Op.OR:
            regs[inst.rd] = regs[inst.rs] | regs[inst.rt]
        elif op == Op.XOR:
            regs[inst.rd] = regs[inst.rs] ^ regs[inst.rt]
        elif op == Op.NOR:
            regs[inst.rd] = ~(regs[inst.rs] | regs[inst.rt]) & MASK32
        elif op == Op.SLT:
            regs[inst.rd] = int(to_signed32(regs[inst.rs]) < to_signed32(regs[inst.rt]))
        elif op == Op.SLTU:
            regs[inst.rd] = int(regs[inst.rs] < regs[inst.rt])
        elif op == Op.SLTI:
            regs[inst.rt] = int(to_signed32(regs[inst.rs]) < inst.imm)
        elif op == Op.SLTIU:
            regs[inst.rt] = int(regs[inst.rs] < (inst.imm & MASK32))
        elif op == Op.ANDI:
            regs[inst.rt] = regs[inst.rs] & (inst.imm & 0xFFFF)
        elif op == Op.ORI:
            regs[inst.rt] = regs[inst.rs] | (inst.imm & 0xFFFF)
        elif op == Op.XORI:
            regs[inst.rt] = regs[inst.rs] ^ (inst.imm & 0xFFFF)
        elif op == Op.LUI:
            regs[inst.rt] = (inst.imm & 0xFFFF) << 16
        elif op == Op.SLL:
            regs[inst.rd] = (regs[inst.rt] << (inst.imm & 31)) & MASK32
        elif op == Op.SRL:
            regs[inst.rd] = regs[inst.rt] >> (inst.imm & 31)
        elif op == Op.SRA:
            regs[inst.rd] = (to_signed32(regs[inst.rt]) >> (inst.imm & 31)) & MASK32
        elif op == Op.SLLV:
            # operand order follows the assembler: rd = rs << rt
            regs[inst.rd] = (regs[inst.rs] << (regs[inst.rt] & 31)) & MASK32
        elif op == Op.SRLV:
            regs[inst.rd] = regs[inst.rs] >> (regs[inst.rt] & 31)
        elif op == Op.SRAV:
            regs[inst.rd] = (to_signed32(regs[inst.rs]) >> (regs[inst.rt] & 31)) & MASK32

        # ---------------- loads and stores ----------------
        elif inst.is_mem:
            info = inst.info
            base_value = regs[inst.rs]
            mode = info.mem_mode
            if mode == "c":
                offset_value = inst.imm
                ea = (base_value + inst.imm) & MASK32
            elif mode == "x":
                offset_value = regs[inst.rx]
                ea = (base_value + offset_value) & MASK32
            else:  # post-increment: address is the raw base
                offset_value = 0
                ea = base_value
            if info.is_load:
                if info.mem_fp:
                    state.fregs[inst.ft] = self.memory.read_double(ea)
                else:
                    regs[inst.rt] = self.memory.read(ea, info.mem_width, info.mem_signed) & MASK32
            else:
                if info.mem_fp:
                    self.memory.write_double(ea, float(state.fregs[inst.ft]))
                else:
                    self.memory.write(ea, info.mem_width, regs[inst.rt])
            if mode == "p":
                regs[inst.rs] = (base_value + inst.imm) & MASK32
            if inst.rs == Reg.SP and base_value < self.sp_min:
                self.sp_min = base_value
                if self.program.sp_value - self.sp_min > STACK_LIMIT:
                    raise SimulationError("stack overflow")

        # ---------------- branches ----------------
        elif op == Op.BEQ:
            taken = regs[inst.rs] == regs[inst.rt]
            if taken:
                next_pc = inst.target
        elif op == Op.BNE:
            taken = regs[inst.rs] != regs[inst.rt]
            if taken:
                next_pc = inst.target
        elif op == Op.BLEZ:
            taken = to_signed32(regs[inst.rs]) <= 0
            if taken:
                next_pc = inst.target
        elif op == Op.BGTZ:
            taken = to_signed32(regs[inst.rs]) > 0
            if taken:
                next_pc = inst.target
        elif op == Op.BLTZ:
            taken = to_signed32(regs[inst.rs]) < 0
            if taken:
                next_pc = inst.target
        elif op == Op.BGEZ:
            taken = to_signed32(regs[inst.rs]) >= 0
            if taken:
                next_pc = inst.target
        elif op == Op.BC1T:
            taken = state.fcc
            if taken:
                next_pc = inst.target
        elif op == Op.BC1F:
            taken = not state.fcc
            if taken:
                next_pc = inst.target

        # ---------------- jumps ----------------
        elif op == Op.J:
            taken = True
            next_pc = inst.target
        elif op == Op.JAL:
            taken = True
            regs[Reg.RA] = (pc + 4) & MASK32
            next_pc = inst.target
        elif op == Op.JR:
            taken = True
            next_pc = regs[inst.rs]
        elif op == Op.JALR:
            taken = True
            regs[inst.rd] = (pc + 4) & MASK32
            next_pc = regs[inst.rs]

        # ---------------- multiply / divide ----------------
        elif op == Op.MULT:
            product = to_signed32(regs[inst.rs]) * to_signed32(regs[inst.rt])
            state.lo = product & MASK32
            state.hi = (product >> 32) & MASK32
        elif op == Op.MULTU:
            product = regs[inst.rs] * regs[inst.rt]
            state.lo = product & MASK32
            state.hi = (product >> 32) & MASK32
        elif op == Op.DIV:
            dividend = to_signed32(regs[inst.rs])
            divisor = to_signed32(regs[inst.rt])
            if divisor == 0:
                state.lo = 0
                state.hi = 0
            else:
                quotient = abs(dividend) // abs(divisor)
                if (dividend < 0) != (divisor < 0):
                    quotient = -quotient
                state.lo = quotient & MASK32
                state.hi = (dividend - quotient * divisor) & MASK32
        elif op == Op.DIVU:
            divisor = regs[inst.rt]
            if divisor == 0:
                state.lo = 0
                state.hi = 0
            else:
                state.lo = regs[inst.rs] // divisor
                state.hi = regs[inst.rs] % divisor
        elif op == Op.MFHI:
            regs[inst.rd] = state.hi
        elif op == Op.MFLO:
            regs[inst.rd] = state.lo

        # ---------------- floating point ----------------
        elif op == Op.ADD_D:
            state.fregs[inst.fd] = float(state.fregs[inst.fs]) + float(state.fregs[inst.ft])
        elif op == Op.SUB_D:
            state.fregs[inst.fd] = float(state.fregs[inst.fs]) - float(state.fregs[inst.ft])
        elif op == Op.MUL_D:
            state.fregs[inst.fd] = float(state.fregs[inst.fs]) * float(state.fregs[inst.ft])
        elif op == Op.DIV_D:
            divisor = float(state.fregs[inst.ft])
            if divisor == 0.0:
                state.fregs[inst.fd] = float("inf") if float(state.fregs[inst.fs]) >= 0 else float("-inf")
            else:
                state.fregs[inst.fd] = float(state.fregs[inst.fs]) / divisor
        elif op == Op.NEG_D:
            state.fregs[inst.fd] = -float(state.fregs[inst.fs])
        elif op == Op.ABS_D:
            state.fregs[inst.fd] = abs(float(state.fregs[inst.fs]))
        elif op == Op.MOV_D:
            state.fregs[inst.fd] = state.fregs[inst.fs]
        elif op == Op.SQRT_D:
            value = float(state.fregs[inst.fs])
            if value < 0:
                raise SimulationError("sqrt.d of negative value")
            state.fregs[inst.fd] = value ** 0.5
        elif op == Op.CVT_D_W:
            raw = state.fregs[inst.fs]
            state.fregs[inst.fd] = float(to_signed32(int(raw)))
        elif op == Op.CVT_W_D or op == Op.TRUNC_W_D:
            state.fregs[inst.fd] = int(float(state.fregs[inst.fs]))
        elif op == Op.MTC1:
            state.fregs[inst.fs] = regs[inst.rt]
        elif op == Op.MFC1:
            regs[inst.rd] = int(state.fregs[inst.fs]) & MASK32
        elif op == Op.C_EQ_D:
            state.fcc = float(state.fregs[inst.fs]) == float(state.fregs[inst.ft])
        elif op == Op.C_LT_D:
            state.fcc = float(state.fregs[inst.fs]) < float(state.fregs[inst.ft])
        elif op == Op.C_LE_D:
            state.fcc = float(state.fregs[inst.fs]) <= float(state.fregs[inst.ft])

        # ---------------- system ----------------
        elif op == Op.SYSCALL:
            handle_syscall(self)
        elif op == Op.NOP:
            pass
        elif op == Op.BREAK:
            raise SimulationError(f"break at pc 0x{pc:08x}")
        else:  # pragma: no cover - opcode table is exhaustive
            raise SimulationError(f"unimplemented opcode {op.name}")

        regs[0] = 0
        state.pc = next_pc
        self.instructions_retired += 1
        return TraceRecord(pc, inst, ea, base_value, offset_value, taken, next_pc)
