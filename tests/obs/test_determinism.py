"""Determinism: identical runs produce byte-identical artefacts.

Event streams and snapshots must be stable across runs -- stable event
ordering, stable dict key order, and no wall-clock or environment
fields. Golden JSONL and Chrome traces of a small fixed program and of
benchmark prefixes are checked in; any change to the event vocabulary,
field layout or timing shows up as a golden-file diff (regenerate with
``PYTHONPATH=src python tests/obs/make_golden.py`` and review it).
"""

import io
import json
from pathlib import Path

import pytest

from repro.fac.config import FacConfig
from repro.isa.assembler import assemble
from repro.linker import LinkOptions, link
from repro.obs.profile import profile_program
from repro.obs.trace import trace_program
from repro.pipeline.config import MachineConfig
from repro.workloads.suite import build_benchmark

GOLDEN_DIR = Path(__file__).parent / "golden"

# Prefix goldens: (file stem, benchmark, machine).
PREFIX_INSTRUCTIONS = 1100
PREFIX_GOLDENS = (
    ("trace_compress_fac", "compress", lambda: MachineConfig(fac=FacConfig())),
    ("trace_tomcatv_fac", "tomcatv", lambda: MachineConfig(fac=FacConfig())),
    ("trace_compress_base", "compress", MachineConfig),
)

# Small fixed program covering the whole event taxonomy: a store, a
# cold-miss load, a FAC-hostile negative-offset access, and a syscall.
GOLDEN_SOURCE = """
.text
.globl __start
__start:
    addiu $t0, $zero, 5
    sw   $t0, -8($sp)
    lw   $t1, -8($sp)
    lw   $t2, -4($sp)
    addu $t3, $t1, $t2
    li   $v0, 10
    syscall
"""


def golden_program():
    return link([assemble(GOLDEN_SOURCE, "golden")], LinkOptions())


def _trace_bytes(fmt):
    stream = io.StringIO()
    trace_program(golden_program(), stream, fmt=fmt)
    return stream.getvalue()


def prefix_trace(name, machine, fmt):
    stream = io.StringIO()
    trace_program(build_benchmark(name), stream, fmt=fmt, config=machine(),
                  max_instructions=PREFIX_INSTRUCTIONS)
    return stream.getvalue()


class TestRepeatability:
    def test_jsonl_stream_byte_identical(self):
        assert _trace_bytes("jsonl") == _trace_bytes("jsonl")

    def test_chrome_document_byte_identical(self):
        assert _trace_bytes("chrome") == _trace_bytes("chrome")

    def test_profile_json_byte_identical(self):
        def payload():
            profile = profile_program(build_benchmark("compress"),
                                      name="compress")
            return json.dumps(profile.to_json(), sort_keys=True)

        assert payload() == payload()

    def test_no_wall_clock_fields(self):
        for fmt in ("jsonl", "chrome"):
            text = _trace_bytes(fmt).lower()
            for banned in ("timestamp", "wall", "date", "hostname", "pid\":"):
                if banned == "pid\":":
                    continue  # chrome 'pid' is a constant 0, not a real pid
                assert banned not in text, (fmt, banned)


class TestGoldenFiles:
    def test_jsonl_matches_golden(self):
        golden = (GOLDEN_DIR / "trace_small.jsonl").read_text()
        assert _trace_bytes("jsonl") == golden

    def test_chrome_matches_golden(self):
        golden = (GOLDEN_DIR / "trace_small.chrome.json").read_text()
        assert _trace_bytes("chrome") == golden

    def test_golden_covers_taxonomy(self):
        kinds = {json.loads(line)["event"]
                 for line in (GOLDEN_DIR / "trace_small.jsonl")
                 .read_text().splitlines()}
        assert {"inst.retired", "mem.access", "fac.predict",
                "syscall"} <= kinds
        # the engine's columns carry no tag-store or store-buffer activity
        assert kinds.isdisjoint({"cache.access", "sb.insert",
                                 "sb.full_stall", "tlb.access"})


@pytest.mark.parametrize("stem,name,machine", PREFIX_GOLDENS,
                         ids=[stem for stem, _, _ in PREFIX_GOLDENS])
class TestPrefixGoldens:
    def test_jsonl_matches_golden(self, stem, name, machine):
        golden = (GOLDEN_DIR / f"{stem}.jsonl").read_text()
        assert prefix_trace(name, machine, "jsonl") == golden

    def test_chrome_matches_golden(self, stem, name, machine):
        golden = (GOLDEN_DIR / f"{stem}.chrome.json").read_text()
        assert prefix_trace(name, machine, "chrome") == golden
