"""Spec oracles shared by the equivalence tests.

``CPU.step`` is the specification interpreter and
:class:`~repro.analysis.prediction.TraceAnalyzer` the specification
analyzer. No production path calls either; these helpers drive them
directly (or through :func:`repro.cpu.tracefile.replay_into`) so the
tests can hold the predecoded interpreter, the tracefile and the
columnar analyzer equal to them.
"""

from repro.analysis.prediction import TraceAnalyzer
from repro.cpu import CPU
from repro.cpu.executor import TraceRecord
from repro.cpu.tracefile import replay_into
from repro.isa.assembler import assemble
from repro.linker import LinkOptions, link
from repro.pipeline import PipelineSimulator

# every addressing mode, FP memory, mult/div, and branch flavours
MODES_ASM = """
.text
.globl __start
__start:
    addiu $t2, $sp, -64
    li $t0, 5
    sw $t0, 0($t2)          # c-mode store
    lw $t3, 0($t2)          # c-mode load
    li $t1, 4
    swx $t3, $t1($t2)       # x-mode store
    lwx $t4, $t1($t2)       # x-mode load
    lwpi $t5, ($t2)+4       # p-mode load, base postincrement
    swpi $t5, ($t2)+-4      # p-mode store, negative postincrement
    lb $t6, 0($t2)
    lhu $t7, 0($t2)
    li.d $f4, 2.5
    s.d $f4, -16($sp)
    l.d $f6, -16($sp)
    mul.d $f8, $f6, $f4
    c.lt.d $f4, $f8
    bc1t fp_taken
    nop
fp_taken:
    li $t0, -6
    li $t1, 7
    mult $t0, $t1
    mflo $a0
    div $t1, $t0
    mfhi $t8
    blez $t0, neg_path
    nop
neg_path:
    bgtz $t1, pos_path
    nop
pos_path:
    jal leaf
    move $a0, $v1
    li $v0, 1
    syscall
    li $v0, 10
    syscall
leaf:
    li $v1, 99
    jr $ra
"""


def asm_program(source):
    return link([assemble(source, "t")], LinkOptions())


class _Collector:
    """Trace-hook consumer that reconstructs the step() record stream."""

    def __init__(self):
        self.records = []

    def trace_plain(self, pc, inst):
        self.records.append(TraceRecord(pc, inst, None, 0, 0, None, pc + 4))

    def trace_mem(self, rec):
        self.records.append(rec)

    trace_branch = trace_mem


def hook_of(rec) -> str:
    """The ``run_trace`` hook that receives ``rec``: loads and stores go
    to ``trace_mem``, branches and jumps to ``trace_branch``, the rest
    to ``trace_plain``."""
    if rec.ea is not None:
        return "trace_mem"
    if rec.taken is not None:
        return "trace_branch"
    return "trace_plain"


class StepEngine:
    """The spec interpreter behind the ``CPU.run_trace`` consumer
    protocol: each ``CPU.step`` record goes to the hook that
    :func:`hook_of` names. Pass one as ``record_trace``'s ``cpu`` to
    write a tracefile from the step loop."""

    def __init__(self, program):
        self.cpu = CPU(program)

    def run_trace(self, consumer, max_instructions):
        cpu = self.cpu
        count = 0
        while not cpu.halted and count < max_instructions:
            rec = cpu.step()
            count += 1
            name = hook_of(rec)
            hook = getattr(consumer, name, None)
            if hook is None:
                continue
            if name == "trace_plain":
                hook(rec.pc, rec.inst)
            else:
                hook(rec)
        return count


def record_fields(rec) -> tuple:
    """Every field of a record, the instruction by identity."""
    return (rec.pc, id(rec.inst), rec.ea, rec.base_value, rec.offset_value,
            rec.taken, rec.next_pc)


def step_records(program, budget=1_000_000):
    cpu = CPU(program)
    records = []
    while not cpu.halted and budget > 0:
        records.append(cpu.step())
        budget -= 1
    return cpu, records


def run_trace_records(program, budget=1_000_000):
    cpu = CPU(program)
    collector = _Collector()
    cpu.run_trace(collector, budget)
    return cpu, collector.records


def replay_records(program, path):
    collector = _Collector()
    replay_into(program, path, collector)
    return collector.records


def step_analysis(program, block_sizes=(16, 32), per_pc=False,
                  budget=50_000_000):
    """The spec analyzer fed by the spec interpreter."""
    cpu = CPU(program)
    analyzer = TraceAnalyzer(block_sizes, per_pc=per_pc)
    while not cpu.halted and budget > 0:
        analyzer.observe(cpu.step())
        budget -= 1
    return analyzer.result(memory_usage=cpu.memory_usage,
                           stdout=cpu.stdout())


def replay_analysis(program, path, block_sizes=(16, 32), per_pc=False,
                    memory_usage=0, stdout=""):
    """The spec analyzer fed by a recorded tracefile."""
    analyzer = TraceAnalyzer(block_sizes, per_pc=per_pc)
    replay_into(program, path, analyzer)
    return analyzer.result(memory_usage=memory_usage, stdout=stdout)


def step_simulation(program, config=None, budget=50_000_000):
    """The pipeline fed record by record from the spec interpreter."""
    cpu = CPU(program)
    pipe = PipelineSimulator(config)
    while not cpu.halted and budget > 0:
        pipe.feed(cpu.step())
        budget -= 1
    return pipe.finalize(memory_usage=cpu.memory_usage)
