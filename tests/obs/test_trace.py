"""``repro trace`` output: Chrome documents and JSONL streams."""

import io
import json

from repro.__main__ import main
from repro.obs.events import EVENT_TYPES
from repro.obs.trace import FORMATS, trace_program
from repro.workloads.suite import build_benchmark

import pytest

# field layout of the per-instruction JSONL records, in key order
PIPELINE_RECORDS = {
    "inst.retired": ["seq", "pc", "op", "issue", "ready", "mem", "slot"],
    "fac.predict": ["pc", "cycle", "is_store", "success", "reason"],
    "fac.replay": ["pc", "cycle", "penalty"],
    "mem.access": ["pc", "cycle", "ea", "is_store", "hit", "speculated",
                   "fac_success", "fac_reason", "result_ready"],
    "branch": ["pc", "cycle", "taken", "mispredicted"],
}


def test_formats_constant():
    assert set(FORMATS) == {"chrome", "jsonl"}
    with pytest.raises(ValueError):
        trace_program(build_benchmark("compress"), io.StringIO(),
                      fmt="binary")


def test_chrome_trace_shows_fac_replays():
    program = build_benchmark("compress")
    stream = io.StringIO()
    result = trace_program(program, stream, fmt="chrome")
    doc = json.loads(stream.getvalue())
    events = doc["traceEvents"]
    replays = [e for e in events if e["name"] == "FAC replay"]
    assert replays, "compress must exercise the FAC replay path"
    assert all(e["ph"] == "i" and e["tid"] == 100 for e in replays)
    # one complete slice per retired instruction
    slices = [e for e in events if e["ph"] == "X"]
    assert len(slices) == result.instructions
    # slice names are real disassembly, not bare mnemonics
    assert any("$" in e["name"] for e in slices)
    # the replay-thread name metadata is present for Perfetto
    meta_names = {e["args"]["name"] for e in events
                  if e["ph"] == "M"
                  and e["name"] in ("process_name", "thread_name")}
    assert "FAC replays" in meta_names


def test_jsonl_events_reconstructable():
    """Syscalls rebuild through the event registry; the per-instruction
    records carry their documented fields in order."""
    program = build_benchmark("compress")
    stream = io.StringIO()
    result = trace_program(program, stream, fmt="jsonl",
                           max_instructions=2000)
    lines = stream.getvalue().splitlines()
    assert lines
    kinds = set()
    for line in lines:
        payload = json.loads(line)
        kind = payload.pop("event")
        kinds.add(kind)
        if kind in PIPELINE_RECORDS:
            assert list(payload) == PIPELINE_RECORDS[kind]
        else:
            event = EVENT_TYPES[kind](**payload)  # field names round-trip
            assert event.kind == kind
    assert "inst.retired" in kinds and "mem.access" in kinds
    retired = sum(1 for line in lines if '"inst.retired"' in line)
    assert retired == result.instructions


class TestCli:
    BUDGET = 1500

    def _run(self, tmp_path, fmt, capsys):
        out = tmp_path / f"trace.{fmt}"
        assert main(["trace", "compress", "--format", fmt, "-o", str(out),
                     "--max-instructions", str(self.BUDGET)]) == 0
        assert f"({self.BUDGET} instructions" in capsys.readouterr().err
        return out.read_text()

    def test_jsonl_has_one_retired_record_per_instruction(self, tmp_path,
                                                          capsys):
        records = [json.loads(line) for line in
                   self._run(tmp_path, "jsonl", capsys).splitlines()]
        retired = [r for r in records if r["event"] == "inst.retired"]
        assert len(retired) == self.BUDGET

    def test_chrome_has_one_slice_per_instruction(self, tmp_path, capsys):
        doc = json.loads(self._run(tmp_path, "chrome", capsys))
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == self.BUDGET
