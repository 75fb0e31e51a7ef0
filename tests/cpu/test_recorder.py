"""The column recorder (:mod:`repro.cpu.recorder`): its columns, viewed
in memory, against a decoded v1 trace of the same run."""

import json

import numpy as np
import pytest

from repro.analysis.batch import analyze_trace_columns
from repro.cpu import CPU
from repro.cpu.coltrace import AccessColumns, decode_tracefile, memory_mask
from repro.cpu.recorder import ArrayRecorder
from repro.cpu.tracefile import record_trace
from repro.farm.snapshots import analysis_to_snapshot
from repro.isa.assembler import assemble
from repro.linker import LinkOptions, link
from repro.workloads import build_benchmark

COLUMNS = ("index", "ea", "base", "offset")

#: an index register holding a value >= 2**31 (no suite program has one)
BIG_INDEX_ASM = """
.text
.globl __start
__start:
    li $t1, 0x90000000
    li $t2, 0x1000
    subu $t2, $t2, $t1     # address = 0x1000 via wraparound
    lwx $t0, $t1($t2)
    li $v0, 10
    syscall
"""


def recorded(program, budget=50_000_000) -> ArrayRecorder:
    recorder = ArrayRecorder(program)
    CPU(program).run_trace(recorder, budget)
    return recorder


def decoded(program, tmp_path):
    path = str(tmp_path / "trace.fact.gz")
    record_trace(program, path)
    return decode_tracefile(program, path)


def snapshot(program, cols) -> str:
    return json.dumps(analysis_to_snapshot(analyze_trace_columns(
        program, cols, per_pc=True)), sort_keys=True)


def assert_same_columns(got, want):
    for name in COLUMNS:
        assert got.count == want.count
        assert np.array_equal(getattr(got, name), getattr(want, name)), name


@pytest.mark.parametrize("software", (False, True))
@pytest.mark.parametrize("name", ("eqntott", "mdljdp2", "tomcatv",
                                  "compress"))
def test_recorder_equals_decoded_record_trace(name, software, tmp_path):
    """On index, is_mem and the memory records' ea, base and offset, and
    in the analysis snapshot built from them."""
    program = build_benchmark(name, software_support=software)
    full = decoded(program, tmp_path)
    recorder = recorded(program)
    live = AccessColumns.of(recorder)
    assert_same_columns(live, full.accesses())
    assert np.array_equal(memory_mask(program)[live.index], full.is_mem)
    assert snapshot(program, live) == snapshot(program, full)


class TestSignedOffset:
    @pytest.fixture(scope="class")
    def program(self):
        return link([assemble(BIG_INDEX_ASM, "t")], LinkOptions())

    def test_index_register_above_2_31_matches_the_v1_writer(
            self, program, tmp_path):
        full = decoded(program, tmp_path)
        live = AccessColumns.of(recorded(program))
        assert_same_columns(live, full.accesses())
        # the register held 0x90000000: read signed, as v1 stores it
        assert live.offset.tolist() == [0x90000000 - 2**32]
        assert snapshot(program, live) == snapshot(program, full)


def test_empty_recorder_views_empty_columns():
    program = link([assemble(BIG_INDEX_ASM, "t")], LinkOptions())
    cols = AccessColumns.of(ArrayRecorder(program))
    assert cols.count == 0 and len(cols.ea) == 0
    cols.verify(program)
