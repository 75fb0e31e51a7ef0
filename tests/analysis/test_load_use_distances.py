"""The vectorized load-use kernel against a scalar oracle.

:func:`repro.analysis.batch.load_use_distances` builds the histogram of
retired instructions between a load and the first consumer of its
destination register (1 = back-to-back use) from trace columns. The
oracle below walks the same execution one retirement at a time through
:meth:`CPU.run_trace`, so any disagreement is the kernel's.
"""

import pytest

from repro.analysis.batch import load_use_distances
from repro.cpu.coltrace import decode_tracefile
from repro.cpu.executor import CPU
from repro.cpu.tracefile import record_trace
from repro.isa.assembler import assemble
from repro.linker import LinkOptions, link
from repro.obs.metrics import Histogram
from repro.pipeline.deps import sources_and_dests
from repro.workloads.suite import build_benchmark

MAX_INSTRUCTIONS = 10_000_000


class ScalarDistanceTracker:
    """:meth:`CPU.run_trace` consumer recording load-use distances.

    A load's destination slots become pending; the first later read of
    a pending slot records the distance, and any non-load write to it
    cancels the pending load. Register dependences are static per
    instruction, so they are resolved once per text word.
    """

    def __init__(self, histogram: Histogram):
        self._record = histogram.record
        self._pending: dict[int, int] = {}  # register slot -> load index
        self._index = 0
        self._deps: dict[int, tuple] = {}   # id(inst) -> (srcs, dests, load)

    def retire(self, pc, inst, rec) -> None:
        deps = self._deps.get(id(inst))
        if deps is None:
            sources, dests = sources_and_dests(inst)
            deps = self._deps[id(inst)] = (sources, dests, inst.info.is_load)
        sources, dests, is_load = deps
        pending = self._pending
        index = self._index
        for slot in sources:
            start = pending.pop(slot, None)
            if start is not None:
                self._record(index - start)
        if is_load:
            for slot in dests:
                pending[slot] = index
        else:
            for slot in dests:
                pending.pop(slot, None)
        self._index = index + 1


def scalar_distances(program) -> Histogram:
    histogram = Histogram("oracle")
    CPU(program).run_trace(ScalarDistanceTracker(histogram),
                           MAX_INSTRUCTIONS)
    return histogram


def kernel_distances(program, tmp_path) -> Histogram:
    path = tmp_path / "trace.fact.gz"
    record_trace(program, str(path), MAX_INSTRUCTIONS)
    return load_use_distances(program, decode_tracefile(program, str(path)))


# load t0 used next (1); load t2 used two later (2); load t5 overwritten
# by an ALU write before any read (no distance); the syscall's reads
# see no pending load.
HAND_SOURCE = """
.text
.globl __start
__start:
    lw    $t0, 0($sp)
    addu  $t1, $t0, $t0
    lw    $t2, 4($sp)
    addiu $t3, $zero, 1
    addu  $t4, $t2, $t3
    lw    $t5, 8($sp)
    addiu $t5, $zero, 7
    addu  $t6, $t5, $t5
    li    $v0, 10
    syscall
"""


def test_hand_counted_program(tmp_path):
    program = link([assemble(HAND_SOURCE, "hand")], LinkOptions())
    assert scalar_distances(program).items() == [(1, 1), (2, 1)]
    assert kernel_distances(program, tmp_path).items() == [(1, 1), (2, 1)]


@pytest.mark.parametrize("name", ("compress", "xlisp", "tomcatv"))
def test_kernel_matches_scalar_oracle(name, tmp_path):
    program = build_benchmark(name)
    expected = scalar_distances(program)
    assert expected.total > 0
    assert kernel_distances(program, tmp_path).items() == expected.items()
