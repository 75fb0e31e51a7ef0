"""``repro trace`` output: Chrome documents and JSONL streams."""

import io
import json

from repro.__main__ import main
from repro.obs.trace import FORMATS, trace_program
from repro.workloads.suite import build_benchmark
from tests.obs.test_determinism import golden_program

import pytest

# field layout of the JSONL records, in key order
RECORDS = {
    "inst.retired": ["seq", "pc", "op", "issue", "ready", "mem", "slot"],
    "fac.predict": ["pc", "cycle", "is_store", "success", "reason"],
    "fac.replay": ["pc", "cycle", "penalty"],
    "mem.access": ["pc", "cycle", "ea", "is_store", "hit", "speculated",
                   "fac_success", "fac_reason", "result_ready"],
    "branch": ["pc", "cycle", "taken", "mispredicted"],
    "syscall": ["pc", "service", "name"],
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
    """Every record carries its documented fields in order: compress's
    prefix has the per-instruction records, the golden program's exit
    the syscall record."""
    kinds = set()
    for program, budget in ((build_benchmark("compress"), 2000),
                            (golden_program(), 50_000_000)):
        stream = io.StringIO()
        result = trace_program(program, stream, fmt="jsonl",
                               max_instructions=budget)
        lines = stream.getvalue().splitlines()
        for line in lines:
            payload = json.loads(line)
            kind = payload.pop("event")
            kinds.add(kind)
            assert list(payload) == RECORDS[kind]
        retired = sum(1 for line in lines if '"inst.retired"' in line)
        assert retired == result.instructions
    assert {"inst.retired", "mem.access", "syscall"} <= kinds


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
