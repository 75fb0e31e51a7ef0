"""Trace-file record/replay tests."""

import pytest

from repro.compiler import compile_and_link
from repro.cpu.coltrace import decode_tracefile
from repro.cpu.tracefile import (
    program_crc,
    record_trace,
    replay_into,
    simulate_trace,
)
from repro.errors import SimulationError
from repro.fac import FacConfig
from repro.pipeline import MachineConfig, simulate_program
from tests.oracles import (
    StepEngine,
    hook_of,
    record_fields,
    replay_records,
    step_records,
)

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


@pytest.fixture(scope="module")
def program():
    return compile_and_link(SOURCE)


@pytest.fixture(scope="module")
def trace_path(program, tmp_path_factory):
    path = str(tmp_path_factory.mktemp("traces") / "prog.fact.gz")
    count = record_trace(program, path)
    assert count > 0
    return path


class TestRoundTrip:
    def test_replay_matches_live_execution(self, program, trace_path):
        """``replay_into`` hands over exactly the ``CPU.step`` record
        stream, field for field."""
        cpu, live = step_records(program)
        assert cpu.halted
        assert replay_into(program, trace_path, object()) == len(live)
        assert [record_fields(r) for r in replay_records(program, trace_path)] \
            == [record_fields(r) for r in live]

    def test_simulate_trace_matches_simulate_program(self, program, trace_path):
        for config in (MachineConfig(), MachineConfig(fac=FacConfig())):
            live = simulate_program(program, config)
            replayed = simulate_trace(program, trace_path, config)
            assert replayed.cycles == live.cycles
            assert replayed.instructions == live.instructions
            assert replayed.fac_mispredicted == live.fac_mispredicted


class TestEngines:
    """The streaming writer must produce the same bytes whether the
    predecoded engine or the spec step loop drives it, and
    ``replay_into`` must hand each hook the records ``CPU.step``
    returns."""

    def test_engines_write_identical_bytes(self, program, tmp_path):
        step_path = str(tmp_path / "step.fact.gz")
        pre_path = str(tmp_path / "predecoded.fact.gz")
        count_a = record_trace(program, step_path, cpu=StepEngine(program))
        count_b = record_trace(program, pre_path)
        assert count_a == count_b
        with open(step_path, "rb") as a, open(pre_path, "rb") as b:
            assert a.read() == b.read()

    def test_bytes_do_not_depend_on_path(self, program, tmp_path):
        short = str(tmp_path / "a.gz")
        long = str(tmp_path / "a-much-longer-file-name.fact.gz")
        record_trace(program, short)
        record_trace(program, long)
        with open(short, "rb") as a, open(long, "rb") as b:
            assert a.read() == b.read()

    def test_replay_into_matches_replay_trace(self, program, trace_path):
        # the spec step loop is the reference the deleted generator
        # form (replay_trace) used to stand in for
        class Full:
            def __init__(self):
                self.records = []

            def trace_plain(self, pc, inst):
                self.records.append(("trace_plain", pc, inst, None, None))

            def trace_mem(self, rec):
                self.records.append(
                    ("trace_mem", rec.pc, rec.inst, rec.ea, rec.taken))

            def trace_branch(self, rec):
                self.records.append(
                    ("trace_branch", rec.pc, rec.inst, rec.ea, rec.taken))

        consumer = Full()
        count = replay_into(program, trace_path, consumer)
        _, reference = step_records(program)
        assert count == len(reference)
        assert len(consumer.records) == len(reference)
        for (hook, pc, inst, ea, taken), want in zip(consumer.records,
                                                     reference):
            assert hook == hook_of(want)
            assert pc == want.pc and inst is want.inst
            assert ea == want.ea and taken == want.taken

    def test_replay_into_partial_consumer(self, program, trace_path):
        class MemOnly:
            def __init__(self):
                self.eas = []

            def trace_mem(self, rec):
                self.eas.append(rec.ea)

        consumer = MemOnly()
        count = replay_into(program, trace_path, consumer)
        _, reference = step_records(program)
        assert count == len(reference)
        assert consumer.eas == \
            [r.ea for r in reference if r.ea is not None]

    def test_replay_into_validates_program(self, trace_path):
        other = compile_and_link("int main() { return 1; }")
        with pytest.raises(SimulationError, match="different program"):
            replay_into(other, trace_path, object())

    def test_replay_into_truncated_record(self, program, tmp_path):
        import gzip

        from repro.cpu.tracefile import _HEADER, _MAGIC, _RECORD, _VERSION

        path = str(tmp_path / "cut.fact.gz")
        header = _HEADER.pack(_MAGIC, _VERSION, 0, program_crc(program), 0,
                              program.entry)
        with gzip.open(path, "wb") as stream:
            stream.write(header + _RECORD.pack(0, 0, 0, 0, 0, 1)[:5])
        with pytest.raises(SimulationError, match="truncated trace record"):
            replay_into(program, path, object())


class TestValidation:
    def test_crc_differs_across_programs(self, program):
        other = compile_and_link("int main() { return 1; }")
        assert program_crc(program) != program_crc(other)

    def test_wrong_program_rejected(self, trace_path):
        other = compile_and_link("int main() { return 1; }")
        with pytest.raises(SimulationError):
            replay_into(other, trace_path, object())

    def test_not_a_trace_rejected(self, program, tmp_path):
        import gzip

        path = str(tmp_path / "bogus.gz")
        with gzip.open(path, "wb") as stream:
            stream.write(b"JUNKJUNKJUNKJUNKJUNK")
        with pytest.raises(SimulationError):
            replay_into(program, path, object())


class TestCorruptTraces:
    """Edge cases in the on-disk format: tampered headers, truncated
    records, gzip-level corruption, and the far-target extra word.
    Both readers of the format -- ``replay_into`` and the columnar
    ``decode_tracefile`` -- must reject each corruption alike."""

    @staticmethod
    def _assert_rejected(program, path, match=None):
        with pytest.raises(SimulationError, match=match):
            replay_into(program, path, object())
        with pytest.raises(SimulationError, match=match):
            decode_tracefile(program, path)

    @staticmethod
    def _header(program, crc=None):
        from repro.cpu.tracefile import _HEADER, _MAGIC, _VERSION

        crc = program_crc(program) if crc is None else crc
        return _HEADER.pack(_MAGIC, _VERSION, 0, crc, 0, program.entry)

    @staticmethod
    def _record(index, ea=0, base=0, offset=0, flags=0, delta=0):
        from repro.cpu.tracefile import _RECORD

        return _RECORD.pack(index, ea, base, offset, flags, delta)

    def _write(self, tmp_path, payload: bytes) -> str:
        import gzip

        path = str(tmp_path / "crafted.fact.gz")
        with gzip.open(path, "wb") as stream:
            stream.write(payload)
        return path

    def test_tampered_crc_rejected(self, program, tmp_path):
        bad_crc = (program_crc(program) ^ 1) & 0xFFFFFFFF
        path = self._write(tmp_path, self._header(program, crc=bad_crc))
        self._assert_rejected(program, path, "different program")

    def test_truncated_header_rejected(self, program, tmp_path):
        path = self._write(tmp_path, self._header(program)[:7])
        self._assert_rejected(program, path, "truncated trace header")

    def test_truncated_record_rejected(self, program, tmp_path):
        path = self._write(
            tmp_path, self._header(program) + self._record(0)[:5])
        self._assert_rejected(program, path, "truncated trace record")

    def test_far_target_extra_word_roundtrips(self, program, tmp_path):
        # A far target (branch delta outside the i16 range) stores the
        # absolute next pc as an extra little-endian u32 after the record.
        import struct

        from repro.cpu.tracefile import (
            _FLAG_FAR_TARGET,
            _FLAG_HAS_TAKEN,
            _FLAG_TAKEN,
        )

        far_pc = program.text_base + 0x7FFF00
        flags = _FLAG_FAR_TARGET | _FLAG_HAS_TAKEN | _FLAG_TAKEN
        path = self._write(
            tmp_path,
            self._header(program)
            + self._record(0, flags=flags)
            + struct.pack("<I", far_pc))
        records = replay_records(program, path)
        assert len(records) == 1
        assert records[0].next_pc == far_pc
        assert records[0].pc == program.text_base
        assert records[0].inst is program.instructions[0]

    def test_recorded_far_target_survives_roundtrip(self, tmp_path):
        # jr through a register lands far from the sequential pc, which
        # record_trace must encode via the far-target path.
        from repro.cpu.tracefile import _FLAG_FAR_TARGET
        from repro.isa.assembler import assemble
        from repro.linker import LinkOptions, link

        filler = "    nop\n" * 33000   # > 2**15 instructions of padding
        source = (
            ".text\n"
            ".globl __start\n"
            "__start:\n"
            "    j far_away\n"
            + filler
            + "far_away:\n"
            "    li $v0, 10\n"
            "    syscall\n"
        )
        program = link([assemble(source, "t")], LinkOptions())
        path = str(tmp_path / "far.fact.gz")
        record_trace(program, path)
        _, live = step_records(program)
        replayed = replay_records(program, path)
        assert [record_fields(r) for r in replayed] == \
            [record_fields(r) for r in live]
        assert any(abs(r.next_pc - r.pc) >= 2**17 for r in replayed), \
            "test program no longer exercises " + str(_FLAG_FAR_TARGET)

    def test_truncated_far_target_word_rejected(self, program, tmp_path):
        from repro.cpu.tracefile import _FLAG_FAR_TARGET

        path = self._write(
            tmp_path,
            self._header(program)
            + self._record(0, flags=_FLAG_FAR_TARGET)
            + b"\x01\x02")
        self._assert_rejected(program, path, "truncated far-target")

    def test_not_gzip_rejected(self, program, tmp_path):
        path = str(tmp_path / "plain.fact.gz")
        with open(path, "wb") as handle:
            handle.write(b"this is not a gzip stream at all")
        self._assert_rejected(program, path, "corrupt trace file")

    def test_truncated_gzip_stream_rejected(self, program, trace_path,
                                            tmp_path):
        # cut a valid compressed file mid-member: decompression hits EOF
        with open(trace_path, "rb") as handle:
            data = handle.read()
        path = str(tmp_path / "cut.fact.gz")
        with open(path, "wb") as handle:
            handle.write(data[: len(data) // 2])
        self._assert_rejected(program, path)


class TestLargeIndexOffsets:
    def test_unsigned_index_register_values_roundtrip(self, tmp_path):
        # an index register holding a value >= 2**31 must replay with
        # the executor's unsigned view
        from repro.isa.assembler import assemble
        from repro.linker import LinkOptions, link

        source = """
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
        program = link([assemble(source, "t")], LinkOptions())
        path = str(tmp_path / "big.fact.gz")
        record_trace(program, path)
        _, live = step_records(program)
        assert [record_fields(r) for r in replay_records(program, path)] \
            == [record_fields(r) for r in live]
        assert any(r.offset_value >= 2**31 for r in live)
