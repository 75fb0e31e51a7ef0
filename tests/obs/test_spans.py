"""SpanTracker: hierarchy, context nesting, export/adopt."""

import pytest

from repro.obs.spans import OPEN, SpanTracker, orphan_spans, span_roots


class FakeClock:
    """Deterministic monotonic clock: each read advances by ``step``."""

    def __init__(self, start=100.0, step=1.0):
        self.now = start
        self.step = step

    def __call__(self):
        value = self.now
        self.now += self.step
        return value


@pytest.fixture
def tracker():
    return SpanTracker(clock=FakeClock())


class TestStartEnd:
    def test_ids_are_sequential_and_times_from_clock(self, tracker):
        a = tracker.start("first")
        b = tracker.start("second", parent=a)
        assert (a, b) == (1, 2)
        assert tracker.spans[a].t0 == 100.0
        assert tracker.spans[b].t0 == 101.0
        assert tracker.spans[b].parent_id == a

    def test_end_freezes_time_and_status(self, tracker):
        a = tracker.start("work")
        span = tracker.end(a, status="ok")
        assert span.t1 == 101.0
        assert span.status == "ok"
        # a second end is a no-op on timing, but attrs still merge
        tracker.end(a, status="error", attrs={"late": True})
        assert span.t1 == 101.0 and span.status == "ok"
        assert span.attrs["late"] is True

    def test_open_span_exports_open(self, tracker):
        tracker.start("never-ended")
        [record] = tracker.export()
        assert record["t1"] is None
        assert record["status"] == OPEN

    def test_annotate_merges_attrs(self, tracker):
        a = tracker.start("s", attrs={"x": 1})
        tracker.annotate(a, {"y": 2})
        assert tracker.spans[a].attrs == {"x": 1, "y": 2}


class TestContextManager:
    def test_nesting_follows_the_block_stack(self, tracker):
        with tracker.span("outer") as outer:
            with tracker.span("inner") as inner:
                pass
        assert tracker.spans[outer].parent_id is None
        assert tracker.spans[inner].parent_id == outer
        assert tracker.spans[inner].status == "ok"

    def test_explicit_parent_overrides_stack(self, tracker):
        root = tracker.start("root")
        with tracker.span("a"):
            with tracker.span("b", parent=root) as b:
                pass
            with tracker.span("c", parent=None) as c:
                pass
        assert tracker.spans[b].parent_id == root
        assert tracker.spans[c].parent_id is None

    def test_exception_marks_error_and_unwinds_stack(self, tracker):
        with pytest.raises(RuntimeError):
            with tracker.span("boom") as sid:
                raise RuntimeError("x")
        assert tracker.spans[sid].status == "error"
        assert tracker.spans[sid].t1 is not None
        # the stack unwound: a new span is a root again
        with tracker.span("after") as after:
            pass
        assert tracker.spans[after].parent_id is None


class TestListener:
    def test_sees_each_start_and_closing_end(self):
        seen = []

        def listener(span):
            seen.append((span.name, span.status, dict(span.attrs)))

        tracker = SpanTracker(clock=FakeClock(), listener=listener)
        with tracker.span("outer"):
            inner = tracker.start("inner", attrs={"x": 1})
            tracker.end(inner, status="crashed", attrs={"y": 2})
            tracker.end(inner, attrs={"late": True})  # already closed
        assert seen == [
            ("outer", OPEN, {}),
            ("inner", OPEN, {"x": 1}),
            ("inner", "crashed", {"x": 1, "y": 2}),
            ("outer", "ok", {}),
        ]

    def test_adopted_spans_are_not_announced(self):
        worker = SpanTracker(clock=FakeClock())
        worker.end(worker.start("execute"))
        seen = []
        parent = SpanTracker(clock=FakeClock(), listener=seen.append)
        parent.adopt(worker.export())
        assert seen == [] and len(parent.spans) == 1


class TestExportAdopt:
    def test_adopt_remaps_ids_and_attaches_roots_to_parent(self):
        worker = SpanTracker(clock=FakeClock(start=200.0))
        with worker.span("execute"):
            with worker.span("store.get"):
                pass
        parent = SpanTracker(clock=FakeClock())
        job = parent.start("job")
        mapping = parent.adopt(worker.export(), parent=job)

        records = parent.export()
        assert orphan_spans(records) == []
        by_id = {r["span_id"]: r for r in records}
        execute = by_id[mapping[1]]
        store_get = by_id[mapping[2]]
        assert execute["parent_id"] == job          # root -> job span
        assert store_get["parent_id"] == mapping[1]  # internal link kept
        assert execute["t0"] == 200.0               # timestamps preserved

    def test_adopt_without_parent_keeps_roots_as_roots(self):
        worker = SpanTracker(clock=FakeClock())
        worker.end(worker.start("only"))
        parent = SpanTracker(clock=FakeClock())
        parent.adopt(worker.export())
        assert len(span_roots(parent.export())) == 1

    def test_orphan_detection(self):
        records = [
            {"span_id": 1, "parent_id": None, "name": "root", "cat": "s",
             "t0": 0.0, "t1": 1.0, "status": "ok", "attrs": {}},
            {"span_id": 2, "parent_id": 99, "name": "lost", "cat": "s",
             "t0": 0.0, "t1": 1.0, "status": "ok", "attrs": {}},
        ]
        assert orphan_spans(records) == [2]
        assert [r["span_id"] for r in span_roots(records)] == [1]

