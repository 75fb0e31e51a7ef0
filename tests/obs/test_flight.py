"""FlightRecorder: ring windowing, triggers, timing fidelity, export.

The recorder is the timing model's one per-instruction hook, so the
core contracts tested here are (a) it never perturbs the timing result,
(b) its reconstructed cycles agree with the spec feed loop and the
golden ``repro trace`` records, (c) the window semantics -- ring
capacity, trailing-cycle clip, ``--around`` triggers -- hold, and (d)
an unbounded recorder keeps every instruction across ring drains.
"""

import io
import json
from dataclasses import replace
from pathlib import Path

import pytest

from repro.fac.predictor import SIGNAL_LABELS
from repro.isa.assembler import assemble
from repro.linker import LinkOptions, link
from repro.obs.flight import (
    FAC_NONE,
    FAC_PREDICT,
    FAC_REPLAY,
    STAGE_NAMES,
    FlightRecorder,
    record_flight,
)
from repro.pipeline import MachineConfig, PipelineSimulator
from repro.pipeline.pipeline import simulate_program
from repro.cpu.executor import CPU
from repro.fac import FacConfig
from repro.workloads.suite import build_benchmark
from tests.obs.test_determinism import PREFIX_INSTRUCTIONS

GOLDEN_DIR = Path(__file__).parent / "golden"

LOOP_SOURCE = """
.data
buf:    .space 256

.text
.globl __start
__start:
        la    $t1, buf
        li    $t3, 0
        li    $t4, 40
loop:
        lw    $t0, 0($t1)
        addu  $t5, $t0, $t3
        sw    $t5, 4($t1)
        addiu $t3, $t3, 1
        bne   $t3, $t4, loop
        li    $v0, 10
        syscall
"""


def loop_program():
    return link([assemble(LOOP_SOURCE, "loop.s")], LinkOptions())


def fac_machine():
    return MachineConfig(fac=FacConfig())


class TestWindow:
    def test_entries_sorted_and_unique(self):
        recorder, _ = record_flight(loop_program(), window_cycles=4096)
        seqs = [e.seq for e in recorder.entries()]
        assert seqs == sorted(seqs)
        assert len(seqs) == len(set(seqs))

    def test_full_window_holds_whole_program(self):
        recorder, result = record_flight(loop_program(), window_cycles=4096)
        assert len(recorder.entries()) == result.instructions

    def test_small_window_clips_to_trailing_cycles(self):
        window = 8
        recorder, result = record_flight(loop_program(),
                                         window_cycles=window)
        entries = recorder.entries()
        assert entries, "window should never be empty after a run"
        newest = max(e.issue for e in entries)
        assert all(e.issue > newest - window for e in entries)
        # the clip really dropped the early program
        assert entries[0].seq > 0
        # and the tail is contiguous through the last instruction
        assert entries[-1].seq == result.instructions - 1

    def test_ring_capacity_bounds_entry_count(self):
        recorder, _ = record_flight(loop_program(), window_cycles=8)
        assert len(recorder.entries()) <= recorder._cap


class TestTriggers:
    def test_around_pc_freezes_after_half_window(self):
        program = loop_program()
        full, _ = record_flight(program, window_cycles=4096)
        target = next(e.pc for e in full.entries() if e.disasm.startswith("lw"))
        recorder, _ = record_flight(program, window_cycles=16,
                                    around_pc=target)
        entries = recorder.entries()
        assert recorder._frozen
        assert any(e.pc == target for e in entries)
        # froze long before the program ended
        assert entries[-1].seq < full.entries()[-1].seq

    def test_around_cycle_freezes_past_cycle(self):
        recorder, result = record_flight(loop_program(), window_cycles=16,
                                         around_cycle=20)
        assert recorder._frozen
        newest = max(e.issue for e in recorder.entries())
        assert newest < result.cycles

    def test_frozen_recorder_still_drives_pipeline(self):
        plain = simulate_program(loop_program(), fac_machine())
        _, result = record_flight(loop_program(), window_cycles=16,
                                  around_cycle=20)
        assert result.cycles == plain.cycles
        assert result.instructions == plain.instructions


class TestTimingFidelity:
    def test_recorder_does_not_perturb_timing(self):
        plain = simulate_program(loop_program(), fac_machine())
        _, recorded = record_flight(loop_program())
        assert recorded.cycles == plain.cycles
        assert recorded.instructions == plain.instructions
        assert recorded.dcache_misses == plain.dcache_misses
        assert recorded.fac_mispredicted == plain.fac_mispredicted

    def test_cycles_agree_with_pipeline_trace(self):
        """Over the compress golden prefix, each entry's issue cycle is
        what the spec loop's ``feed(cpu.step())`` returns, and its pc,
        ready, mem and issue slot are the golden ``inst.retired``
        record's (written by the event-bus exporter the ring replaced)."""
        program = build_benchmark("compress")
        cpu = CPU(program)
        pipe = PipelineSimulator(fac_machine())
        issues = [pipe.feed(cpu.step()) for _ in range(PREFIX_INSTRUCTIONS)]
        golden = [json.loads(line) for line in
                  (GOLDEN_DIR / "trace_compress_fac.jsonl")
                  .read_text().splitlines()
                  if '"inst.retired"' in line]

        recorder = FlightRecorder(PipelineSimulator(fac_machine()),
                                  window_cycles=None)
        CPU(program).run_trace(recorder, PREFIX_INSTRUCTIONS)
        entries = recorder.entries()
        assert len(entries) == len(issues) == len(golden)
        for entry, issue, record in zip(entries, issues, golden):
            assert entry.seq == record["seq"]
            assert entry.pc == record["pc"]
            assert entry.op == record["op"]
            assert entry.issue == issue == record["issue"]
            assert entry.ready == record["ready"]
            assert entry.mem == record["mem"]
            assert entry.slot == record["slot"]


class TestFacAnnotations:
    def test_loop_loads_predict_and_reasons_only_on_replays(self):
        recorder, _ = record_flight(loop_program(), window_cycles=4096)
        entries = recorder.entries()
        mem = [e for e in entries if e.kind == 1]
        assert mem, "loop has loads and stores"
        assert any(e.fac == FAC_PREDICT for e in mem)
        for e in entries:
            if e.fac == FAC_REPLAY:
                assert e.reason in set(SIGNAL_LABELS.values())
            else:
                assert e.reason is None
            if e.kind != 1:
                assert e.fac == FAC_NONE

    def test_fac_less_machine_never_speculates(self):
        recorder = FlightRecorder(PipelineSimulator(MachineConfig()),
                                  window_cycles=4096)
        CPU(loop_program()).run_trace(recorder, 1_000_000)
        assert all(e.fac != FAC_PREDICT and e.fac != FAC_REPLAY
                   for e in recorder.entries())


class TestRendering:
    def test_dump_is_deterministic(self):
        a, _ = record_flight(loop_program())
        b, _ = record_flight(loop_program())
        assert a.dump() == b.dump()

    def test_dump_matches_golden(self):
        golden = (GOLDEN_DIR / "flight_small.txt").read_text()
        recorder, _ = record_flight(loop_program(), window_cycles=32)
        assert recorder.dump() == golden

    def test_render_plain_has_no_ansi(self):
        recorder, _ = record_flight(loop_program(), window_cycles=32)
        text = recorder.render(color=False)
        assert "\x1b[" not in text
        assert "F" in text and "W" in text

    def test_render_color_wraps_speculation(self):
        recorder, _ = record_flight(loop_program(), window_cycles=32)
        assert "\x1b[32mS\x1b[0m" in recorder.render(color=True)

    def test_empty_recorder_renders_placeholder(self):
        recorder = FlightRecorder(PipelineSimulator(fac_machine()))
        assert recorder.dump() == ""
        assert "empty" in recorder.render()


class TestChromeExport:
    def export(self):
        recorder, _ = record_flight(loop_program(), window_cycles=32)
        stream = io.StringIO()
        recorder.to_chrome(stream)
        return recorder, json.loads(stream.getvalue())

    def test_stage_tracks_are_named_and_ordered(self):
        _, doc = self.export()
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {(e["pid"], e["tid"]): e["args"]["name"]
                 for e in meta if e["name"] == "thread_name"}
        assert [names[(1, tid)] for tid in range(5)] == list(STAGE_NAMES)
        procs = {e["pid"]: e["args"]["name"]
                 for e in meta if e["name"] == "process_name"}
        assert procs == {1: "pipeline stages"}

    def test_every_entry_has_if_id_and_wb_slices(self):
        recorder, doc = self.export()
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert all(e["pid"] == 1 and 0 <= e["tid"] <= 4 for e in slices)
        entries = recorder.entries()
        by_tid = {}
        for e in slices:
            by_tid.setdefault(e["tid"], []).append(e)
        for tid in (0, 1, 4):       # IF, ID, WB: one slice per entry
            assert len(by_tid[tid]) == len(entries)

    def test_replay_args_carry_the_reason(self):
        recorder, _ = record_flight(
            link([assemble((Path(__file__).parent / "fixtures" /
                            "sig_overflow.s").read_text(),
                           "sig_overflow.s")], LinkOptions()))
        stream = io.StringIO()
        recorder.to_chrome(stream)
        doc = json.loads(stream.getvalue())
        tagged = [e for e in doc["traceEvents"]
                  if e.get("args", {}).get("fac") == "replay"]
        assert tagged
        assert all(e["args"]["reason"] == "block-carry-out" for e in tagged)


class TestUnbounded:
    def test_keeps_every_instruction_across_drains(self):
        pipe = PipelineSimulator(fac_machine())
        recorder = FlightRecorder(pipe, window_cycles=None)
        program = build_benchmark("compress")
        CPU(program).run_trace(recorder, PREFIX_INSTRUCTIONS)
        entries = recorder.entries()
        assert len(entries) == PREFIX_INSTRUCTIONS > 2 * recorder._cap
        assert [e.seq for e in entries] == list(range(len(entries)))
        bounded, _ = record_flight(program, window_cycles=4096,
                                   max_instructions=PREFIX_INSTRUCTIONS)
        # records are fresh objects per run; every other field agrees
        assert ([replace(e, record=None) for e in entries]
                == [replace(e, record=None) for e in bounded.entries()])

    def test_on_drain_receives_full_rings_then_the_tail(self):
        pipe = PipelineSimulator(fac_machine())
        recorder = FlightRecorder(pipe, window_cycles=None)
        chunks = []
        recorder.on_drain = chunks.append
        CPU(build_benchmark("compress")).run_trace(recorder,
                                                   PREFIX_INSTRUCTIONS)
        assert len(chunks) == PREFIX_INSTRUCTIONS // recorder._cap
        assert all(len(chunk) == recorder._cap for chunk in chunks)
        recorder.flush()
        recorder.flush()  # nothing new: no empty chunk
        assert len(chunks[-1]) == PREFIX_INSTRUCTIONS % recorder._cap
        assert [e.seq for chunk in chunks for e in chunk] == \
            list(range(PREFIX_INSTRUCTIONS))
        assert recorder.entries() == []   # handed out, not kept

    def test_triggers_need_a_bounded_window(self):
        with pytest.raises(ValueError):
            FlightRecorder(PipelineSimulator(fac_machine()),
                           window_cycles=None, around_cycle=10)
