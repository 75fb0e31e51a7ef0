"""FROZEN pre-framework copy of the monolithic static FAC analyzer.

This is the interpreter exactly as it stood before its dataflow core
was extracted into :mod:`repro.analysis.absint` -- CFG construction,
worklist solver, and known-bits transfer inlined into one module. It
exists solely as the baseline for the framework regression benchmark
(``benchmarks/test_absint_framework.py``), which asserts that the
extraction preserved verdicts bit-for-bit and stayed within the 1.2x
slowdown budget. Do not fix or improve this module; it is a snapshot.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import deque
from dataclasses import dataclass
from typing import Optional

from repro.analysis.absint import knownbits as kb
from repro.analysis.static_fac.classify import (
    Classification,
    Geometry,
    Verdict,
    classify_const,
    classify_post_increment,
    classify_reg,
)
from repro.fac.config import FacConfig
from repro.isa import dataflow as df
from repro.isa.instruction import Instruction
from repro.isa.opcodes import OP_INFO, Op
from repro.isa.program import Program
from repro.isa.registers import Reg

State = list  # 32 KnownBits entries, indexed by register number

#: Registers a call must preserve under the MIPS O32 convention.
PRESERVED_ACROSS_CALLS = frozenset(
    (Reg.ZERO, Reg.SP, Reg.GP, Reg.FP,
     Reg.S0, Reg.S1, Reg.S2, Reg.S3, Reg.S4, Reg.S5, Reg.S6, Reg.S7)
)

_BOOL = (0xFFFFFFFE, 0)  # {0, 1}: top 31 bits known zero


@dataclass
class SiteReport:
    """Static verdict for one memory instruction."""

    index: int                     # position in program.instructions
    addr: int                      # absolute text address
    inst: Instruction
    mode: str                      # 'c', 'x', or 'p'
    is_store: bool
    verdict: Verdict
    possible: frozenset[str]       # failure signals that may fire
    certain: frozenset[str]        # failure signals that must fire
    base: kb.KnownBits             # abstract base register at the site
    offset: object                 # int (mode c/p) or KnownBits (mode x)
    function: Optional[str]        # enclosing text symbol, if known


@dataclass
class StaticAnalysis:
    """Result of one static pass: every memory site, classified."""

    program: Program
    config: FacConfig
    sites: list[SiteReport]
    reachable_blocks: int
    total_blocks: int

    def __post_init__(self):
        self.by_addr = {site.addr: site for site in self.sites}

    def counts(self) -> dict[str, int]:
        out = {v.value: 0 for v in Verdict}
        for site in self.sites:
            out[site.verdict.value] += 1
        return out

    def sites_with(self, verdict: Verdict) -> list[SiteReport]:
        return [s for s in self.sites if s.verdict is verdict]


@dataclass
class SoundnessReport:
    """Static verdicts checked against per-PC dynamic failure counts.

    ``always_violations`` / ``never_violations`` list ``(addr, accesses,
    failures)`` for sites whose universal claim was falsified -- both
    must be empty for the analysis to be sound. The rate bounds restate
    the verdicts as a bracket on the measured prediction success rate.
    """

    always_violations: list[tuple[int, int, int]]
    never_violations: list[tuple[int, int, int]]
    unreachable_violations: list[tuple[int, int, int]]
    success_rate_lower: float   # accesses at ALWAYS sites / total
    success_rate_upper: float   # 1 - accesses at NEVER sites / total
    measured_success_rate: float

    @property
    def sound(self) -> bool:
        return (not self.always_violations and not self.never_violations
                and not self.unreachable_violations)

    @property
    def bounds_hold(self) -> bool:
        return (
            self.success_rate_lower - 1e-12
            <= self.measured_success_rate
            <= self.success_rate_upper + 1e-12
        )


def check_soundness(
    analysis: StaticAnalysis, per_pc: dict[int, list[int]]
) -> SoundnessReport:
    """Compare static verdicts with dynamic ``{pc: [accesses, failures]}``
    counts (from ``TraceAnalyzer(per_pc=True)`` at the same geometry)."""
    always_bad = []
    never_bad = []
    unreachable_bad = []
    total = sum(acc for acc, _ in per_pc.values())
    failed = sum(fail for _, fail in per_pc.values())
    always_hits = 0
    never_hits = 0
    for pc, (accesses, failures) in per_pc.items():
        site = analysis.by_addr.get(pc)
        if site is None:
            continue
        if site.verdict is Verdict.ALWAYS_PREDICTS:
            always_hits += accesses
            if failures:
                always_bad.append((pc, accesses, failures))
        elif site.verdict is Verdict.NEVER_PREDICTS:
            never_hits += accesses
            if failures != accesses:
                never_bad.append((pc, accesses, failures))
        elif site.verdict is Verdict.UNREACHABLE and accesses:
            unreachable_bad.append((pc, accesses, failures))
    measured = (total - failed) / total if total else 1.0
    lower = always_hits / total if total else 0.0
    upper = 1.0 - (never_hits / total) if total else 1.0
    return SoundnessReport(
        always_violations=always_bad,
        never_violations=never_bad,
        unreachable_violations=unreachable_bad,
        success_rate_lower=lower,
        success_rate_upper=upper,
        measured_success_rate=measured,
    )


# ---------------------------------------------------------------------- #
# transfer function

def transfer(state: State, inst: Instruction) -> None:
    """Apply one instruction's effect to ``state`` in place, mirroring
    :meth:`repro.cpu.executor.CPU.step` for the integer register file."""
    op = inst.op
    if op is Op.ADDU or op is Op.ADD:
        state[inst.rd] = kb.add(state[inst.rs], state[inst.rt])
    elif op is Op.ADDIU or op is Op.ADDI:
        state[inst.rt] = kb.add(state[inst.rs], kb.const(inst.imm))
    elif op is Op.SUBU or op is Op.SUB:
        state[inst.rd] = kb.sub(state[inst.rs], state[inst.rt])
    elif op is Op.AND:
        state[inst.rd] = kb.bit_and(state[inst.rs], state[inst.rt])
    elif op is Op.OR:
        state[inst.rd] = kb.bit_or(state[inst.rs], state[inst.rt])
    elif op is Op.XOR:
        state[inst.rd] = kb.bit_xor(state[inst.rs], state[inst.rt])
    elif op is Op.NOR:
        state[inst.rd] = kb.bit_not(kb.bit_or(state[inst.rs], state[inst.rt]))
    elif op is Op.SLT or op is Op.SLTU:
        state[inst.rd] = _BOOL
    elif op is Op.SLTI or op is Op.SLTIU:
        state[inst.rt] = _BOOL
    elif op is Op.ANDI:
        state[inst.rt] = kb.bit_and(state[inst.rs], kb.const(inst.imm & 0xFFFF))
    elif op is Op.ORI:
        state[inst.rt] = kb.bit_or(state[inst.rs], kb.const(inst.imm & 0xFFFF))
    elif op is Op.XORI:
        state[inst.rt] = kb.bit_xor(state[inst.rs], kb.const(inst.imm & 0xFFFF))
    elif op is Op.LUI:
        state[inst.rt] = kb.const((inst.imm & 0xFFFF) << 16)
    elif op is Op.SLL:
        state[inst.rd] = kb.shl(state[inst.rt], inst.imm & 31)
    elif op is Op.SRL:
        state[inst.rd] = kb.shr(state[inst.rt], inst.imm & 31)
    elif op is Op.SRA:
        state[inst.rd] = kb.sar(state[inst.rt], inst.imm & 31)
    elif op is Op.SLLV or op is Op.SRLV or op is Op.SRAV:
        amount = state[inst.rt]
        if amount[0] & 31 == 31:
            shift = amount[1] & 31
            if op is Op.SLLV:
                state[inst.rd] = kb.shl(state[inst.rs], shift)
            elif op is Op.SRLV:
                state[inst.rd] = kb.shr(state[inst.rs], shift)
            else:
                state[inst.rd] = kb.sar(state[inst.rs], shift)
        else:
            state[inst.rd] = kb.TOP
    elif op is Op.MFHI or op is Op.MFLO or op is Op.MFC1:
        state[inst.rd] = kb.TOP  # HI/LO and FP values are not tracked
    elif op is Op.SYSCALL:
        state[Reg.V0] = kb.TOP
    else:
        info = OP_INFO[op]
        if info.mem_width:
            base = state[inst.rs]
            if info.is_load and not info.mem_fp:
                state[inst.rt] = kb.TOP
            if info.mem_mode == "p":
                # post-increment updates the base after the access; the
                # update wins over the loaded value when rt == rs.
                state[inst.rs] = kb.add(base, kb.const(inst.imm))
    state[Reg.ZERO] = kb.ZERO


_EXIT_SERVICES = (10, 17)  # SYS_EXIT / SYS_EXIT2 in repro.cpu.syscalls


def _is_exit_syscall(state: State, inst: Instruction) -> bool:
    """True when this syscall provably terminates the program, so the
    instructions after it are dead even though SYSCALL does not end a
    basic block in general."""
    if inst.op is not Op.SYSCALL:
        return False
    v0 = state[Reg.V0]
    return kb.is_const(v0) and v0[1] in _EXIT_SERVICES


def call_summary(state: State) -> State:
    """Abstract effect of a completed call on the caller's registers."""
    return [
        state[r] if r in PRESERVED_ACROSS_CALLS else kb.TOP
        for r in range(32)
    ]


# ---------------------------------------------------------------------- #
# the interpreter

class _Interpreter:
    def __init__(self, program: Program, config: FacConfig):
        self.program = program
        self.config = config
        self.insts = program.instructions
        self.text_base = program.text_base
        self.n = len(self.insts)
        self.geom = Geometry.from_config(config)
        self.func_syms = sorted(
            (s.address, s.name)
            for s in program.symbols.values()
            if s.section == "text"
        )
        self._build_blocks()

    def _index_of(self, addr: int) -> int:
        return (addr - self.text_base) >> 2

    def _build_blocks(self) -> None:
        leaders = {self._index_of(self.program.entry)}
        for addr, _name in self.func_syms:
            leaders.add(self._index_of(addr))
        for i, inst in enumerate(self.insts):
            if df.ends_block(inst):
                if i + 1 < self.n:
                    leaders.add(i + 1)
                for target in df.static_targets(inst):
                    leaders.add(self._index_of(target))
        self.starts = sorted(i for i in leaders if 0 <= i < self.n)
        self.block_of_start = {s: bid for bid, s in enumerate(self.starts)}
        self.ends = [
            self.starts[bid + 1] if bid + 1 < len(self.starts) else self.n
            for bid in range(len(self.starts))
        ]
        self.func_entry_blocks = [
            self.block_of_start[self._index_of(addr)]
            for addr, _name in self.func_syms
            if self._index_of(addr) in self.block_of_start
        ]

    def _block_at(self, addr: int) -> int:
        return self.block_of_start[self._index_of(addr)]

    def _entry_state(self) -> State:
        state = [kb.ZERO] * 32  # the loader zeroes every register...
        state[Reg.GP] = kb.const(self.program.gp_value)
        state[Reg.SP] = kb.const(self.program.sp_value)
        return state

    def _havoc_state(self) -> State:
        state = [kb.TOP] * 32
        state[Reg.ZERO] = kb.ZERO
        state[Reg.GP] = kb.const(self.program.gp_value)
        return state

    def run(self) -> None:
        nblocks = len(self.starts)
        self.in_states: list[Optional[State]] = [None] * nblocks
        self.worklist: deque[int] = deque()
        self.queued = [False] * nblocks
        self._propagate(self._block_at(self.program.entry), self._entry_state())
        while self.worklist:
            bid = self.worklist.popleft()
            self.queued[bid] = False
            self._process(bid)

    def _propagate(self, bid: int, state: State) -> None:
        current = self.in_states[bid]
        if current is None:
            self.in_states[bid] = list(state)
            changed = True
        else:
            changed = False
            for r in range(32):
                have, new = current[r], state[r]
                if have == new:  # join(x, x) == x: nothing to widen
                    continue
                merged = kb.join(have, new)
                if merged != have:
                    current[r] = merged
                    changed = True
        if changed and not self.queued[bid]:
            self.queued[bid] = True
            self.worklist.append(bid)

    def _process(self, bid: int) -> None:
        start, end = self.starts[bid], self.ends[bid]
        state = list(self.in_states[bid])
        for i in range(start, end):
            inst = self.insts[i]
            if _is_exit_syscall(state, inst):
                return  # program exits here: no fallthrough, no successors
            transfer(state, inst)
        last = self.insts[end - 1]
        last_addr = self.text_base + 4 * (end - 1)
        op = last.op
        if df.is_branch(last):
            self._propagate(self._block_at(last.target), state)
            if end < self.n:
                self._propagate(self.block_of_start[end], state)
        elif op is Op.J:
            self._propagate(self._block_at(last.target), state)
        elif op is Op.JAL:
            call_state = list(state)
            call_state[Reg.RA] = kb.const((last_addr + 4) & 0xFFFFFFFF)
            self._propagate(self._block_at(last.target), call_state)
            if end < self.n:
                self._propagate(self.block_of_start[end], call_summary(state))
        elif op is Op.JALR:
            self._havoc_all_functions()
            if end < self.n:
                self._propagate(self.block_of_start[end], call_summary(state))
        elif op is Op.JR:
            if last.rs != Reg.RA:
                self._havoc_all_functions()
            # jr $ra: return -- the call summary covers the caller side.
        elif op is Op.BREAK:
            pass
        elif end < self.n:
            self._propagate(self.block_of_start[end], state)

    def _havoc_all_functions(self) -> None:
        havoc = self._havoc_state()
        for bid in self.func_entry_blocks:
            self._propagate(bid, havoc)

    # ------------------------------------------------------------------ #

    def _function_of(self, addr: int) -> Optional[str]:
        pos = bisect_right(self.func_syms, (addr, "￿")) - 1
        if pos < 0:
            return None
        return self.func_syms[pos][1]

    def classify_all(self) -> list[SiteReport]:
        sites: list[SiteReport] = []
        for bid, start in enumerate(self.starts):
            end = self.ends[bid]
            in_state = self.in_states[bid]
            state = list(in_state) if in_state is not None else None
            for i in range(start, end):
                inst = self.insts[i]
                if state is not None and _is_exit_syscall(state, inst):
                    state = None  # the rest of the block is dead
                info = OP_INFO[inst.op]
                if info.mem_width:
                    addr = self.text_base + 4 * i
                    if state is None:
                        outcome = Classification(
                            Verdict.UNREACHABLE, frozenset(), frozenset()
                        )
                        base: kb.KnownBits = kb.TOP
                        offset: object = inst.imm if info.mem_mode != "x" else kb.TOP
                    elif info.mem_mode == "c":
                        base = state[inst.rs]
                        offset = inst.imm
                        outcome = classify_const(base, inst.imm, self.geom)
                    elif info.mem_mode == "x":
                        base = state[inst.rs]
                        offset = state[inst.rx]
                        outcome = classify_reg(base, offset, self.geom)
                    else:  # post-increment
                        base = state[inst.rs]
                        offset = inst.imm
                        outcome = classify_post_increment()
                    sites.append(SiteReport(
                        index=i,
                        addr=addr,
                        inst=inst,
                        mode=info.mem_mode,
                        is_store=info.is_store,
                        verdict=outcome.verdict,
                        possible=outcome.possible,
                        certain=outcome.certain,
                        base=base,
                        offset=offset,
                        function=self._function_of(addr),
                    ))
                if state is not None:
                    transfer(state, inst)
        return sites


def analyze_static(
    program: Program, config: FacConfig | None = None
) -> StaticAnalysis:
    """Classify every memory instruction of ``program`` statically."""
    config = config or FacConfig()
    interp = _Interpreter(program, config)
    interp.run()
    sites = interp.classify_all()
    reachable = sum(1 for s in interp.in_states if s is not None)
    return StaticAnalysis(
        program=program,
        config=config,
        sites=sites,
        reachable_blocks=reachable,
        total_blocks=len(interp.starts),
    )
