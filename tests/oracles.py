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
from repro.obs.flight import (
    FAC_NONE,
    FAC_NOSPEC,
    FAC_PREDICT,
    FAC_REPLAY,
)
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


def retire_arg(rec):
    """The ``rec`` that ``retire`` receives for the instruction whose
    step() record is ``rec``: the record itself for loads and stores
    (an ``ea``) and branches and jumps (a ``taken``), None for the
    rest."""
    if rec.ea is None and rec.taken is None:
        return None
    return rec


class RetireLog:
    """``retire`` consumer that logs every call's arguments."""

    def __init__(self):
        self.calls = []

    def retire(self, pc, inst, rec):
        self.calls.append((pc, inst, rec))

    def records(self):
        """The step() record stream: the record-free calls filled in
        with the fields ``step()`` gives a plain instruction."""
        return [TraceRecord(pc, inst, None, 0, 0, None, pc + 4)
                if rec is None else rec
                for pc, inst, rec in self.calls]


def assert_retire_stream(calls, reference):
    """``calls`` (a :class:`RetireLog`'s) are exactly the ``reference``
    step() records as the ``retire`` protocol hands them over: same pc
    and instruction, ``rec`` None iff :func:`retire_arg` says so and
    otherwise equal to the step record field for field."""
    assert len(calls) == len(reference)
    for (pc, inst, rec), want in zip(calls, reference):
        assert pc == want.pc and inst is want.inst
        if retire_arg(want) is None:
            assert rec is None
        else:
            assert record_fields(rec) == record_fields(want)


class StepEngine:
    """The spec interpreter behind the ``CPU.run_trace`` consumer
    protocol: each ``CPU.step`` record goes to ``retire`` as
    :func:`retire_arg` says. Pass one as ``record_trace``'s ``cpu`` to
    write a tracefile from the step loop."""

    def __init__(self, program):
        self.cpu = CPU(program)

    def run_trace(self, consumer, max_instructions):
        cpu = self.cpu
        retire = getattr(consumer, "retire", None)
        count = 0
        while not cpu.halted and count < max_instructions:
            rec = cpu.step()
            count += 1
            if retire is not None:
                retire(rec.pc, rec.inst, retire_arg(rec))
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
    log = RetireLog()
    cpu.run_trace(log, budget)
    return cpu, log.records()


def replay_records(program, path):
    log = RetireLog()
    replay_into(program, path, log)
    return log.records()


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


class SiteCounters(PipelineSimulator):
    """The per-site counter tap: the pipeline counting, around each
    ``_execute_memory``, what it scheduled at every load or store pc.
    The oracle for ``repro profile``'s site columns."""

    def __init__(self, config=None):
        super().__init__(config)
        #: pc -> [dcache accesses, dcache misses, FAC replays]
        self.per_pc = {}
        #: load latency in cycles (result ready - issue) -> load count
        self.load_latency = {}

    def _execute_memory(self, rec, cycle, is_store, info):
        misses = self.result.dcache_misses
        replays = self.result.fac_mispredicted
        ready = super()._execute_memory(rec, cycle, is_store, info)
        row = self.per_pc.setdefault(rec.pc, [0, 0, 0])
        row[0] += 1
        row[1] += self.result.dcache_misses - misses
        row[2] += self.result.fac_mispredicted - replays
        if not is_store:
            latency = self.load_latency
            latency[ready - cycle] = latency.get(ready - cycle, 0) + 1
        return ready


class FlightTap(PipelineSimulator):
    """The per-instruction tap: the pipeline noting, for every retired
    instruction, ``(pc, issue, ready, mem, fac, flag)`` as the
    :class:`~repro.obs.flight.FlightEntry` fields define them. The
    oracle for the flight recorder's entries."""

    def __init__(self, config=None):
        super().__init__(config)
        self.rows = []

    def retire(self, pc, inst, rec):
        # a plain instruction's row; the memory and branch steps replace it
        self._row = (None, None, FAC_NONE, -1)
        issue = super().retire(pc, inst, rec)
        ready, mem, fac, flag = self._row
        if ready is None:
            # not a memory access: the result is ready after the latency
            ready = issue + self._facts[id(inst)][4]
        self.rows.append((pc, issue, ready, mem, fac, flag))
        return issue

    def _execute_memory(self, rec, cycle, is_store, info):
        misses = self.result.dcache_misses
        replays = self.result.fac_mispredicted
        ready = super()._execute_memory(rec, cycle, is_store, info)
        speculated, access = self._mem_plan
        fac = (FAC_NOSPEC if not speculated
               else FAC_REPLAY if self.result.fac_mispredicted != replays
               else FAC_PREDICT)
        self._row = (ready, access, fac,
                     0 if self.result.dcache_misses != misses else 1)
        return ready

    def _execute_branch(self, rec, cycle):
        mispredicts = self.result.branch_mispredicts
        super()._execute_branch(rec, cycle)
        self._row = (None, None, FAC_NONE,
                     1 if self.result.branch_mispredicts != mispredicts
                     else 0)


def flight_rows(entries):
    """Flight-recorder entries as :class:`FlightTap` rows."""
    return [(e.pc, e.issue, e.ready, e.mem, e.fac, e.flag) for e in entries]


def step_feed(pipe, program, budget=50_000_000):
    """``pipe`` fed record by record from the spec interpreter; returns
    its finalized :class:`SimResult`."""
    cpu = CPU(program)
    while not cpu.halted and budget > 0:
        pipe.feed(cpu.step())
        budget -= 1
    return pipe.finalize(memory_usage=cpu.memory_usage)


def step_simulation(program, config=None, budget=50_000_000):
    """The pipeline fed record by record from the spec interpreter."""
    return step_feed(PipelineSimulator(config), program, budget)
