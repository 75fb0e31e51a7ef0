"""Columnar trace decoding tests (:mod:`repro.cpu.coltrace`)."""

import numpy as np
import pytest

from repro.compiler import compile_and_link
from repro.cpu.coltrace import (
    COLTRACE_SCHEMA,
    TraceColumns,
    columns_from_bytes,
    columns_to_bytes,
    decode_tracefile,
    load_columns,
    record_columns,
)
from repro.cpu import CPU
from repro.cpu.tracefile import record_trace
from repro.errors import SimulationError
from repro.isa.opcodes import OP_INFO
from tests.oracles import replay_records

SOURCE = """
int v[64];
int main() {
    int i, s = 0;
    for (i = 0; i < 64; i++) { v[i] = i ^ 21; }
    for (i = 0; i < 64; i++) { s += v[i]; }
    print_int(s);
    return 0;
}
"""

OTHER_SOURCE = """
int main() { print_int(7); return 0; }
"""


@pytest.fixture(scope="module")
def program():
    return compile_and_link(SOURCE)


@pytest.fixture(scope="module")
def trace_path(program, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("traces") / "prog.fact.gz")
    assert record_trace(program, path) > 0
    return path


@pytest.fixture(scope="module")
def columns(program, trace_path):
    return decode_tracefile(program, trace_path)


class TestDecode:
    def test_record_for_record_equivalence(self, program, trace_path,
                                           columns):
        """Every column matches the scalar replay, record by record."""
        pc = columns.pc
        is_mem = columns.is_mem
        is_branch = columns.is_branch
        taken = columns.taken
        for i, rec in enumerate(replay_records(program, trace_path)):
            info = OP_INFO[rec.inst.op]
            assert int(pc[i]) == rec.pc
            assert int(columns.next_pc[i]) == rec.next_pc
            assert bool(is_mem[i]) == bool(info.mem_width)
            if info.mem_width:
                assert int(columns.ea[i]) == rec.ea
                assert int(columns.base[i]) == rec.base_value
                assert int(columns.offset[i]) & 0xFFFFFFFF == \
                    rec.offset_value & 0xFFFFFFFF
            if is_branch[i]:
                assert bool(taken[i]) == bool(rec.taken)
        assert columns.count == i + 1

    def test_lane_masks_are_disjoint(self, columns):
        assert not (columns.is_mem & columns.is_branch).any()

    def test_verify_accepts_own_program(self, program, columns):
        columns.verify(program)

    def test_verify_rejects_other_program(self, columns):
        other = compile_and_link(OTHER_SOURCE)
        with pytest.raises(SimulationError, match="different program"):
            columns.verify(other)

    def test_decode_rejects_other_program(self, trace_path):
        other = compile_and_link(OTHER_SOURCE)
        with pytest.raises(SimulationError, match="different program"):
            decode_tracefile(other, trace_path)

    def test_decode_rejects_garbage(self, program, tmp_path):
        path = tmp_path / "garbage.gz"
        path.write_bytes(b"not gzip at all")
        with pytest.raises(SimulationError, match="corrupt trace"):
            decode_tracefile(program, str(path))

    def test_decode_rejects_truncated_stream(self, program, trace_path,
                                             tmp_path):
        import gzip

        with gzip.open(trace_path, "rb") as handle:
            blob = handle.read()
        path = tmp_path / "short.gz"
        with gzip.open(path, "wb") as handle:
            handle.write(blob[:-7])    # tear mid-record
        with pytest.raises(SimulationError, match="truncated trace record"):
            decode_tracefile(program, str(path))


class TestRecordColumns:
    """Live recording into memory decodes to exactly the columns of the
    same execution recorded to a file."""

    COLUMNS = ("index", "ea", "base", "offset", "flags", "next_pc")

    def test_equals_decoded_tracefile(self, program, columns):
        cpu = CPU(program)
        live = record_columns(program, cpu=cpu)
        assert cpu.halted and cpu.stdout()
        assert cpu.instructions_retired == live.count
        assert (live.text_base, live.entry, live.crc) == \
            (columns.text_base, columns.entry, columns.crc)
        for name in self.COLUMNS:
            assert np.array_equal(getattr(live, name),
                                  getattr(columns, name)), name
        assert columns_to_bytes(live) == columns_to_bytes(columns)

    def test_budget_stops_recording(self, program):
        cpu = CPU(program)
        assert record_columns(program, 100, cpu=cpu).count == 100
        assert not cpu.halted


class TestContainer:
    def test_roundtrip_is_byte_identical(self, columns):
        blob = columns_to_bytes(columns)
        again = columns_from_bytes(blob)
        assert columns_to_bytes(again) == blob
        for name in ("index", "ea", "base", "offset", "flags", "next_pc"):
            assert np.array_equal(getattr(again, name),
                                  getattr(columns, name))
        assert (again.text_base, again.entry, again.crc) == \
            (columns.text_base, columns.entry, columns.crc)

    def test_load_columns_verifies(self, program, columns, tmp_path):
        path = tmp_path / "cols.facl"
        path.write_bytes(columns_to_bytes(columns))
        loaded = load_columns(program, str(path))
        assert loaded.count == columns.count
        other = compile_and_link(OTHER_SOURCE)
        with pytest.raises(SimulationError, match="different program"):
            load_columns(other, str(path))

    def test_schema_tag_present(self, columns):
        blob = columns_to_bytes(columns)
        assert COLTRACE_SCHEMA.encode() in blob[:256]

    @pytest.mark.parametrize("mutate,message", [
        (lambda b: b[:4], "truncated columnar trace header"),
        (lambda b: b"XXXX" + b[4:], "not a columnar trace"),
        (lambda b: b[:30], "truncated columnar descriptor"),
        (lambda b: b[:-5], "truncated columnar payload"),
        (lambda b: b + b"\x00", "trailing bytes"),
    ])
    def test_corruption_detected(self, columns, mutate, message):
        blob = columns_to_bytes(columns)
        with pytest.raises(SimulationError, match=message):
            columns_from_bytes(mutate(blob))

    def test_wrong_version_detected(self, columns):
        blob = bytearray(columns_to_bytes(columns))
        blob[4] = 99   # the little-endian u16 version field
        with pytest.raises(SimulationError, match="version"):
            columns_from_bytes(bytes(blob))

    def test_empty_columns_roundtrip(self):
        empty = TraceColumns(
            text_base=0x400000, entry=0x400000, crc=1,
            index=np.empty(0, dtype=np.uint32),
            ea=np.empty(0, dtype=np.uint32),
            base=np.empty(0, dtype=np.uint32),
            offset=np.empty(0, dtype=np.int32),
            flags=np.empty(0, dtype=np.uint8),
            next_pc=np.empty(0, dtype=np.uint32),
        )
        again = columns_from_bytes(columns_to_bytes(empty))
        assert again.count == 0


class TestFarTargets:
    def test_far_branch_next_pc_resolved(self):
        """A record carrying the far-target flag stores its successor
        as a trailing u32; decode must resolve ``next_pc`` from it
        exactly like replay."""
        import gzip
        import struct

        from repro.cpu.tracefile import _FLAG_FAR_TARGET, _HEADER, _RECORD

        source = compile_and_link(SOURCE)
        path_bytes = None
        # hand-craft a two-record stream: a plain record, then a far
        # branch record (delta field unused, trailing u32 target)
        from repro.cpu.tracefile import _MAGIC, _VERSION, program_crc
        header = _HEADER.pack(_MAGIC, _VERSION, 0, program_crc(source), 0,
                              source.entry)
        far_target = source.text_base + 4 * 7
        records = (
            _RECORD.pack(0, 0, 0, 0, 0, 1)       # plain: next = pc + 4
            + _RECORD.pack(1, 0, 0, 0,
                           4 | 2 | _FLAG_FAR_TARGET, 0)
            + struct.pack("<I", far_target)
            + _RECORD.pack(7, 0, 0, 0, 0, 1)     # plain after the jump
        )
        path_bytes = header + records
        import io
        buf = io.BytesIO()
        with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as handle:
            handle.write(path_bytes)
        import tempfile
        with tempfile.NamedTemporaryFile(suffix=".gz", delete=False) as tmp:
            tmp.write(buf.getvalue())
            tmp_path = tmp.name
        cols = decode_tracefile(source, tmp_path)
        assert cols.count == 3
        assert int(cols.next_pc[0]) == source.text_base + 4
        assert int(cols.next_pc[1]) == far_target
        assert bool(cols.is_branch[1])
        assert bool(cols.taken[1])
        # the far bit is consumed during decode, not left in flags
        assert not (cols.flags & _FLAG_FAR_TARGET).any()

    def test_truncated_far_target_detected(self):
        import gzip
        import io

        from repro.cpu.tracefile import (
            _FLAG_FAR_TARGET,
            _HEADER,
            _MAGIC,
            _RECORD,
            _VERSION,
            program_crc,
        )

        source = compile_and_link(SOURCE)
        header = _HEADER.pack(_MAGIC, _VERSION, 0, program_crc(source), 0,
                              source.entry)
        blob = header + _RECORD.pack(0, 0, 0, 0, 4 | _FLAG_FAR_TARGET, 0)
        buf = io.BytesIO()
        with gzip.GzipFile(fileobj=buf, mode="wb", mtime=0) as handle:
            handle.write(blob)
        import tempfile
        with tempfile.NamedTemporaryFile(suffix=".gz", delete=False) as tmp:
            tmp.write(buf.getvalue())
            path = tmp.name
        with pytest.raises(SimulationError, match="truncated far-target"):
            decode_tracefile(source, path)
