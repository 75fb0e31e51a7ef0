"""The Chrome trace-event document writer."""

import io
import json

from repro.obs.sinks import ChromeTraceSink
from repro.obs.trace import trace_program
from tests.obs.test_determinism import golden_program


class TestChromeTraceSink:
    def _document(self):
        stream = io.StringIO()
        sink = ChromeTraceSink(stream)
        sink.register_process(0, "repro pipeline", 0)
        sink.register_track(0, 0, "issue slot 0", 0)
        sink.register_track(0, 100, "FAC replays", 100)
        sink.emit_slice("lw $t0, 0($a0)", "pipeline", 1, 4, 0, 0,
                        {"pc": "0x00400000", "mem": 4})
        sink.emit_instant("FAC replay", "fac", 5, 0, 100, {"penalty": 1})
        sink.emit_instant("dcache miss", "cache", 4, 0, 101, {"ea": "0x0"})
        sink.emit_instant("syscall exit", "os", 0, 0, 102)
        sink.close()
        return json.loads(stream.getvalue())

    def test_valid_document_with_metadata(self):
        doc = self._document()
        assert doc["displayTimeUnit"] == "ms"
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta
                 if e["name"] in ("process_name", "thread_name")}
        assert {"repro pipeline", "issue slot 0", "FAC replays"} <= names
        # every named track also carries an ordering hint for Perfetto
        sorted_tracks = {(e["pid"], e["tid"]) for e in meta
                         if e["name"] == "thread_sort_index"}
        named_tracks = {(e["pid"], e["tid"]) for e in meta
                        if e["name"] == "thread_name"}
        assert sorted_tracks == named_tracks
        # metadata comes first, then the events in the order appended
        phases = [e["ph"] for e in doc["traceEvents"]]
        assert phases[-4:] == ["X", "i", "i", "i"]
        assert set(phases[:-4]) == {"M"}
        # tracks only get names when registered
        named = {e["tid"] for e in meta if e["name"] == "thread_name"}
        assert named == {0, 100}

    def test_retired_instruction_becomes_complete_slice(self):
        doc = self._document()
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == 1
        slice_ = slices[0]
        assert slice_["name"] == "lw $t0, 0($a0)"
        assert slice_["ts"] == 1 and slice_["dur"] == 4  # IF..WB
        assert (slice_["pid"], slice_["tid"]) == (0, 0)
        assert slice_["args"]["mem"] == 4

    def test_replays_and_misses_are_instants(self):
        doc = self._document()
        instants = [e for e in doc["traceEvents"] if e["ph"] == "i"]
        by_name = {e["name"]: e for e in instants}
        assert by_name["FAC replay"]["tid"] == 100
        assert by_name["FAC replay"]["args"] == {"penalty": 1}
        assert by_name["dcache miss"]["tid"] == 101
        assert "args" not in by_name["syscall exit"]  # none given
        assert all(e["s"] == "t" for e in instants)

    def test_cache_hits_not_recorded(self):
        """``repro trace`` draws one D-cache miss instant per miss and
        none for hits."""
        stream = io.StringIO()
        result = trace_program(golden_program(), stream, fmt="chrome")
        doc = json.loads(stream.getvalue())
        misses = [e for e in doc["traceEvents"] if e["name"] == "dcache miss"]
        assert len(misses) == result.dcache_misses
        assert result.dcache_misses < result.dcache_accesses

    def test_close_is_idempotent(self):
        stream = io.StringIO()
        sink = ChromeTraceSink(stream)
        sink.emit_instant("FAC replay", "fac", 2, 0, 100)
        sink.close()
        first = stream.getvalue()
        sink.close()
        assert stream.getvalue() == first


class TestChromeTraceAbort:
    """Regression: a mid-sweep abort must yield parseable JSON with the
    open duration events terminated, not a truncated document."""

    def test_unclosed_begins_get_incomplete_terminators(self):
        stream = io.StringIO()
        sink = ChromeTraceSink(stream)
        sink.emit_begin("sweep", "farm", ts=0, pid=0, tid=0)
        sink.emit_begin("job:a", "farm", ts=10, pid=0, tid=1)
        sink.emit_slice("store.get", "farm", 12, 3, 0, 1)
        # ...abort here: sweep (tid 0) and job:a (tid 1) still open
        sink.close()

        doc = json.loads(stream.getvalue())  # must parse
        events = doc["traceEvents"]
        begins = [e for e in events if e["ph"] == "B"]
        ends = [e for e in events if e["ph"] == "E"]
        assert len(begins) == len(ends) == 2  # balanced after close
        assert all(e["args"]["incomplete"] for e in ends)
        # terminators land at the last begin seen, never before it
        assert all(e["ts"] == 10 for e in ends)
        assert [e["tid"] for e in ends] == [0, 1]

    def test_nested_begins_on_one_track_all_terminate(self):
        stream = io.StringIO()
        sink = ChromeTraceSink(stream)
        for depth in range(3):
            sink.emit_begin(f"level{depth}", "farm", ts=depth, pid=0, tid=7)
        sink.close()
        doc = json.loads(stream.getvalue())
        ends = [e for e in doc["traceEvents"] if e["ph"] == "E"]
        assert len(ends) == 3
        assert all(e["args"]["incomplete"] for e in ends)
