"""Cross-engine equivalence and trace-protocol tests for the predecoded
fast-dispatch engine (:mod:`repro.cpu.predecode`).

The predecoded engine (``CPU.run_trace`` / ``CPU.run``) must be
bit-for-bit equivalent to the ``step()`` spec interpreter: same
architectural state, same stdout, same trace records, same faults at the
same instruction boundaries.
"""

import gc
import weakref

import pytest

from repro.compiler import compile_and_link
from repro.cpu import CPU
from repro.errors import SimulationError
from tests.oracles import (
    MODES_ASM,
    RetireLog,
    asm_program,
    assert_retire_stream,
    record_fields,
    run_trace_records,
    step_records,
)

MINIC_SOURCE = """
int v[64];
int main() {
    int i, s = 0;
    for (i = 0; i < 64; i++) { v[i] = i * 3 - 17; }
    for (i = 0; i < 64; i++) { s += v[i]; }
    print_int(s);
    return 0;
}
"""

# $zero as a base, an index and a destination: the reads still happen,
# a $zero post-increment base is not written back, and ``jalr $zero,
# $zero`` jumps to the link value it wrote into $zero.
ZERO_BASE_ASM = """
.text
.globl __start
__start:
    addiu $t2, $sp, -64
    li $t0, 5
    li $t1, 4
    sw $t0, 0($t2)
    lw $zero, 0($t2)
    lb $zero, 1($t2)
    lwx $zero, $t1($t2)
    lwpi $zero, ($t2)+4
    lw $t3, 0($zero)
    lwpi $t4, ($zero)+8
    swpi $t0, ($zero)+-4
    li $t1, 64
    lwx $t5, $t1($zero)
    jalr $zero, $zero
    li.d $f4, 2.5
    mfc1 $zero, $f4
    li $v0, 10
    syscall
"""

PROGRAMS = {
    "minic": lambda: compile_and_link(MINIC_SOURCE),
    "modes": lambda: asm_program(MODES_ASM),
    "zero_bases": lambda: asm_program(ZERO_BASE_ASM),
}


def assert_same_execution(program, budget=1_000_000):
    cpu_a, recs_a = step_records(program, budget)
    cpu_b, recs_b = run_trace_records(program, budget)
    assert [record_fields(r) for r in recs_a] == \
        [record_fields(r) for r in recs_b]
    assert cpu_a.state.snapshot() == cpu_b.state.snapshot()
    assert cpu_a.stdout() == cpu_b.stdout()
    assert cpu_a.instructions_retired == cpu_b.instructions_retired
    assert cpu_a.halted == cpu_b.halted
    return cpu_a, cpu_b


class TestEngineEquivalence:
    def test_compiled_program(self):
        assert_same_execution(compile_and_link(MINIC_SOURCE))

    def test_every_addressing_mode(self):
        cpu_a, _ = assert_same_execution(asm_program(MODES_ASM))
        assert cpu_a.stdout() == "99"

    def test_zero_bases_and_destinations(self):
        assert_same_execution(asm_program(ZERO_BASE_ASM))

    @pytest.mark.parametrize("build", PROGRAMS.values(), ids=PROGRAMS)
    def test_run_engines_match(self, build):
        program = build()
        cpu_a, _ = step_records(program)
        cpu_b = CPU(program)
        cpu_b.run()
        assert cpu_a.halted and cpu_b.halted
        assert cpu_a.state.snapshot() == cpu_b.state.snapshot()
        assert cpu_a.stdout() == cpu_b.stdout()
        assert cpu_a.instructions_retired == cpu_b.instructions_retired
        assert cpu_a.memory_usage == cpu_b.memory_usage

    def test_budget_exhaustion_matches(self):
        source = ".text\n.globl __start\n__start:\nspin: b spin"
        program = asm_program(source)
        cpu = CPU(program)
        with pytest.raises(SimulationError, match="budget"):
            cpu.run(1000)
        assert cpu.instructions_retired == 1000
        reference, _ = step_records(program, 1000)
        assert not reference.halted
        assert cpu.state.snapshot() == reference.state.snapshot()
        assert cpu.instructions_retired == reference.instructions_retired

    def test_budget_boundary_state_matches(self):
        # stopping mid-run must leave both engines at the same pc
        program = compile_and_link(MINIC_SOURCE)
        for budget in (1, 7, 100):
            cpu_a, _ = step_records(program, budget)
            cpu_b, _ = run_trace_records(program, budget)
            assert cpu_a.state.snapshot() == cpu_b.state.snapshot()
            assert cpu_a.instructions_retired == budget


class TestOutOfTextPc:
    """Regression: a PC below ``text_base`` must raise, not silently
    execute an instruction off the *end* of text via Python negative
    indexing (the historical ``self._insts[index]``-before-bounds-check
    bug in ``CPU.step``)."""

    BELOW_ASM = """
.text
.globl __start
__start:
    la $t0, __start
    addiu $t0, $t0, -8
    jr $t0
    li $v0, 10
    syscall
"""

    @staticmethod
    def _step_until_fault(program):
        cpu = CPU(program)
        with pytest.raises(SimulationError, match="outside text segment"):
            for __ in range(100):
                cpu.step()
        return cpu

    def test_step_raises_below_text(self):
        program = asm_program(self.BELOW_ASM)
        cpu = self._step_until_fault(program)
        assert cpu.state.pc == program.text_base - 8
        assert not cpu.halted

    def test_run_trace_raises_below_text(self):
        program = asm_program(self.BELOW_ASM)
        reference = self._step_until_fault(program)
        cpu = CPU(program)
        with pytest.raises(SimulationError, match="outside text segment"):
            cpu.run_trace(None, 100)
        assert cpu.state.pc == program.text_base - 8
        assert cpu.instructions_retired == reference.instructions_retired

    def test_engines_raise_above_text_identically(self):
        source = """
.text
.globl __start
__start:
    la $t0, __start
    addiu $t0, $t0, 0x4000
    jr $t0
"""
        program = asm_program(source)
        reference = self._step_until_fault(program)
        assert reference.state.pc == program.text_base + 0x4000
        cpu = CPU(program)
        with pytest.raises(SimulationError, match="outside text segment"):
            cpu.run(100)
        assert cpu.state.pc == program.text_base + 0x4000
        assert cpu.instructions_retired == reference.instructions_retired

    # control transfers whose static target is the pc just past the
    # last instruction: a label that ends the text segment
    PAST_TEXT = {
        "j": "    j past_text\n",
        "jal": "    jal past_text\n",
        "branch": ("    li $t0, 1\n"
                   "    beq $t0, $zero, past_text\n"   # not taken
                   "    bne $t0, $zero, past_text\n"),  # taken
    }

    @pytest.mark.parametrize("drive", ["run", "run_trace", "retire"])
    @pytest.mark.parametrize("body", PAST_TEXT.values(), ids=PAST_TEXT)
    def test_static_target_past_text(self, body, drive):
        program = asm_program(".text\n.globl __start\n__start:\n"
                              + body + "past_text:\n")
        reference = CPU(program)
        records = []
        with pytest.raises(SimulationError, match="outside text segment"):
            for __ in range(100):
                records.append(reference.step())
        end = program.text_base + 4 * len(program.instructions)
        assert reference.state.pc == end
        cpu = CPU(program)
        log = RetireLog()
        with pytest.raises(SimulationError, match="outside text segment"):
            if drive == "run":
                cpu.run(100)
            else:
                cpu.run_trace(log if drive == "retire" else None, 100)
        assert cpu.state.snapshot() == reference.state.snapshot()
        assert cpu.instructions_retired == reference.instructions_retired
        assert not cpu.halted
        if drive == "retire":
            assert_retire_stream(log.calls, records)


class TestRunTraceProtocol:
    def test_retire_sees_the_step_stream(self):
        """``retire`` gets every ``step()`` record in order: the record
        itself for memory ops and branches, None for the rest."""
        program = asm_program(MODES_ASM)
        consumer = RetireLog()
        CPU(program).run_trace(consumer, 1_000_000)
        _, reference = step_records(program)
        assert any(rec is None for _, _, rec in consumer.calls)
        assert_retire_stream(consumer.calls, reference)

    def test_hookless_consumer_runs_pure(self):
        program = compile_and_link(MINIC_SOURCE)
        cpu = CPU(program)
        executed = cpu.run_trace(object(), 1_000_000)
        assert cpu.halted
        assert executed == cpu.instructions_retired

    def test_resumes_across_calls(self):
        program = compile_and_link(MINIC_SOURCE)
        reference = CPU(program)
        reference.run()
        cpu = CPU(program)
        total = 0
        while not cpu.halted:
            total += cpu.run_trace(None, 500)
        assert total == reference.instructions_retired
        assert cpu.state.snapshot() == reference.state.snapshot()
        assert cpu.stdout() == reference.stdout()

    def test_interleaves_with_step(self):
        program = compile_and_link(MINIC_SOURCE)
        reference = CPU(program)
        reference.run()
        cpu = CPU(program)
        for __ in range(10):
            cpu.step()
        cpu.run_trace(None, 100_000_000)
        assert cpu.halted
        assert cpu.state.snapshot() == reference.state.snapshot()
        assert cpu.instructions_retired == reference.instructions_retired

    def test_zero_budget_is_a_noop(self):
        program = compile_and_link(MINIC_SOURCE)
        cpu = CPU(program)
        assert cpu.run_trace(None, 0) == 0
        assert cpu.instructions_retired == 0
        assert not cpu.halted

    @pytest.mark.parametrize("budget", [1000, 100_000_000])
    def test_dropped_cpu_is_freed_without_the_cycle_collector(self, budget):
        """The handler tables (a syscall, $sp-based loads and stores)
        hold no reference back to their CPU, so ``del`` frees it."""
        program = compile_and_link(MINIC_SOURCE)
        gc.disable()
        try:
            cpu = CPU(program)
            cpu.run_trace(None, budget)
            assert cpu.sp_min < program.sp_value
            ref = weakref.ref(cpu)
            del cpu
            assert ref() is None
        finally:
            gc.enable()

    def test_halted_cpu_executes_nothing(self):
        program = compile_and_link(MINIC_SOURCE)
        cpu = CPU(program)
        cpu.run()
        assert cpu.halted
        retired = cpu.instructions_retired
        assert cpu.run_trace(None, 100) == 0
        assert cpu.instructions_retired == retired
