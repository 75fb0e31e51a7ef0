"""Cross-engine equivalence and trace-protocol tests for the predecoded
fast-dispatch engine (:mod:`repro.cpu.predecode`).

The predecoded engine (``CPU.run_trace`` / ``CPU.run``) must be
bit-for-bit equivalent to the ``step()`` spec interpreter: same
architectural state, same stdout, same trace records, same faults at the
same instruction boundaries.
"""

import pytest

from repro.compiler import compile_and_link
from repro.cpu import CPU
from repro.errors import SimulationError
from repro.isa.opcodes import OP_INFO
from tests.oracles import (
    MODES_ASM,
    asm_program,
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

    def test_run_engines_match(self):
        program = compile_and_link(MINIC_SOURCE)
        cpu_a, _ = step_records(program)
        cpu_b = CPU(program)
        cpu_b.run()
        assert cpu_a.state.snapshot() == cpu_b.state.snapshot()
        assert cpu_a.stdout() == cpu_b.stdout()
        assert cpu_a.instructions_retired == cpu_b.instructions_retired

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


class TestRunTraceProtocol:
    def test_partial_consumer_sees_only_memory(self):
        program = asm_program(MODES_ASM)

        class MemOnly:
            def __init__(self):
                self.records = []

            def trace_mem(self, rec):
                self.records.append(rec)

        consumer = MemOnly()
        CPU(program).run_trace(consumer, 1_000_000)
        _, reference = step_records(program)
        expected = [r for r in reference if OP_INFO[r.inst.op].mem_width]
        assert len(consumer.records) == len(expected)
        for got, want in zip(consumer.records, expected):
            assert (got.pc, got.ea, got.base_value, got.offset_value) == \
                (want.pc, want.ea, want.base_value, want.offset_value)

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

    def test_halted_cpu_executes_nothing(self):
        program = compile_and_link(MINIC_SOURCE)
        cpu = CPU(program)
        cpu.run()
        assert cpu.halted
        retired = cpu.instructions_retired
        assert cpu.run_trace(None, 100) == 0
        assert cpu.instructions_retired == retired
