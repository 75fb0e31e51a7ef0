"""The column recorder (:mod:`repro.cpu.recorder`) and its container
reader (:func:`repro.cpu.coltrace.load_columns`)."""

import json
import zlib

import numpy as np
import pytest

from repro.analysis.batch import analyze_trace_columns
from repro.compiler import compile_and_link
from repro.cpu import CPU
from repro.cpu.coltrace import (
    AccessColumns,
    decode_tracefile,
    load_columns,
    memory_mask,
)
from repro.cpu.recorder import HEADER, ArrayRecorder
from repro.cpu.tracefile import record_trace
from repro.errors import SimulationError
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

SOURCE = """
int v[32];
int main() {
    int i, s = 0;
    for (i = 0; i < 32; i++) { v[i] = i * 3; s += v[i]; }
    print_int(s);
    return 0;
}
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
    assert_same_columns(load_columns(program, recorder.to_bytes()), live)


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


class TestContainer:
    @pytest.fixture(scope="class")
    def program(self):
        return compile_and_link(SOURCE)

    @pytest.fixture(scope="class")
    def blob(self, program):
        return recorded(program).to_bytes()

    def test_roundtrip(self, program, blob):
        got = load_columns(program, blob)
        assert_same_columns(got, AccessColumns.of(recorded(program)))
        got.verify(program)

    def test_bytes_are_a_pure_function_of_the_run(self, program, blob):
        assert recorded(program).to_bytes() == blob

    def test_empty_run_roundtrip(self, program):
        blob = ArrayRecorder(program).to_bytes()
        assert load_columns(program, blob).count == 0

    @staticmethod
    def patched(blob, cut=0, extra=b"", **fields):
        """``blob`` with header fields replaced and its body cut short
        by ``cut`` bytes or extended by ``extra``."""
        raw = zlib.decompress(blob)
        names = ("magic", "version", "pad", "crc", "entry", "count",
                 "mem_count")
        header = dict(zip(names, HEADER.unpack_from(raw)))
        header.update(fields)
        raw = HEADER.pack(*(header[n] for n in names)) + raw[HEADER.size:]
        return zlib.compress(raw[:len(raw) - cut] + extra)

    @pytest.mark.parametrize("fields, message", [
        ({"magic": b"FACT"}, "not a columns container"),
        ({"version": 2}, "unsupported columns version 2"),
        ({"crc": 0}, "different program"),
        ({"entry": 4}, "entry point mismatch"),
    ])
    def test_header_faults(self, program, blob, fields, message):
        with pytest.raises(SimulationError, match=message):
            load_columns(program, self.patched(blob, **fields))

    def test_not_deflated(self, program, blob):
        with pytest.raises(SimulationError, match="corrupt columns"):
            load_columns(program, zlib.decompress(blob))

    def test_truncated_header(self, program, blob):
        with pytest.raises(SimulationError, match="truncated columns header"):
            load_columns(program, zlib.compress(zlib.decompress(blob)[:10]))

    @pytest.mark.parametrize("cut, extra", [(4, b""), (0, b"\0" * 4)])
    def test_body_length_faults(self, program, blob, cut, extra):
        with pytest.raises(SimulationError, match="does not hold"):
            load_columns(program, self.patched(blob, cut=cut, extra=extra))

    def test_memory_count_must_match_the_index_column(self, program, blob):
        """One memory record fewer in the header and in each memory
        column: the lengths agree, the count does not."""
        raw = zlib.decompress(blob)
        *head, count, mem = HEADER.unpack_from(raw)
        body = raw[HEADER.size:]
        columns = [body[4 * (count + mem * k):][:4 * (mem - 1)]
                   for k in range(3)]
        with pytest.raises(SimulationError, match="memory records"):
            load_columns(program, zlib.compress(b"".join([
                HEADER.pack(*head, count, mem - 1), body[:4 * count],
                *columns])))

    def test_index_outside_the_text_segment(self, program, blob):
        raw = bytearray(zlib.decompress(blob))
        raw[HEADER.size:HEADER.size + 4] = \
            len(program.instructions).to_bytes(4, "little")
        with pytest.raises(SimulationError, match="outside the text"):
            load_columns(program, zlib.compress(bytes(raw)))
