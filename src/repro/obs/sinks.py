"""Event sinks (null, collecting, JSONL, access log) and the Chrome
trace-event JSON writer.

Sinks implement one method, ``handle(event)``, plus an optional
``close()`` called by :meth:`repro.obs.events.EventBus.close`. Output is
deterministic: events are written in emission order, dict fields in
dataclass field order, and no wall-clock values are recorded (the
access log, an operational record, is the one exception).

:class:`ChromeTraceSink` is not a bus sink: producers write named tracks
and slices to it directly (``repro trace``, ``repro pipeview --chrome``
and the farm's run timeline).
"""

from __future__ import annotations

import json
import threading
import time

from repro.obs.events import Event, HttpRequestServed


class NullSink:
    """Discards everything. The explicit form of 'tracing off'.

    Producers given ``obs=None`` never even build event objects; a bus
    with only a NullSink pays event construction but writes nothing --
    useful for measuring instrumentation cost in isolation.
    """

    __slots__ = ()

    def handle(self, event: Event) -> None:
        pass


class CollectingSink:
    """Buffers events in memory; the workhorse for tests and profilers."""

    __slots__ = ("events",)

    def __init__(self):
        self.events: list[Event] = []

    def handle(self, event: Event) -> None:
        self.events.append(event)

    def by_kind(self, kind: str) -> list[Event]:
        return [e for e in self.events if e.kind == kind]


class JsonlSink:
    """One JSON object per line, in emission order.

    ``stream`` is any text file-like object; the sink does not close it
    (the caller owns the handle).
    """

    __slots__ = ("stream", "count")

    def __init__(self, stream):
        self.stream = stream
        self.count = 0

    def handle(self, event: Event) -> None:
        self.stream.write(json.dumps(event.as_dict(), separators=(",", ":")))
        self.stream.write("\n")
        self.count += 1


class AccessLogSink:
    """Structured JSONL access log for the serving layer.

    Handles only :class:`HttpRequestServed` events (everything else
    passes through untouched), stamping each line with a wall-clock
    ``ts`` — access logs are operational records, not deterministic
    artifacts, so the no-wall-clock rule of the other sinks does not
    apply here. Lines are flushed as written so ``tail -f`` works, and
    writes are serialized under a lock because the asyncio server may
    complete requests from multiple tasks interleaved with worker-thread
    emissions.
    """

    __slots__ = ("path", "count", "_stream", "_lock", "_clock")

    def __init__(self, path, clock=time.time):
        self.path = path
        self.count = 0
        self._stream = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._clock = clock

    def handle(self, event: Event) -> None:
        if not isinstance(event, HttpRequestServed):
            return
        line = {"ts": round(self._clock(), 6), **event.as_dict()}
        payload = json.dumps(line, separators=(",", ":"))
        with self._lock:
            self._stream.write(payload + "\n")
            self._stream.flush()
            self.count += 1

    def close(self) -> None:
        with self._lock:
            if not self._stream.closed:
                self._stream.close()


class ChromeTraceSink:
    """Chrome trace-event JSON, loadable in Perfetto / chrome://tracing.

    Producers register named processes and tracks, then append complete
    ("X") slices, instant ("i") events and begin/end ("B"/"E") pairs;
    :meth:`close` writes one document with the naming and ordering
    metadata ("M") events up front, followed by the events in the order
    they were appended.
    """

    def __init__(self, stream):
        self.stream = stream
        self._events: list[dict] = []
        self._closed = False
        # registered tracks: (pid, tid) -> (name, sort_index) and
        # pid -> (name, sort_index)
        self._tracks: dict[tuple[int, int], tuple[str, int]] = {}
        self._processes: dict[int, tuple[str, int]] = {}
        # per-track stacks of open "B" events, so an aborted run can be
        # closed into parseable JSON (see close())
        self._open: dict[tuple[int, int], list[str]] = {}
        self._last_ts = 0

    # -------------------------------------------------------------- #
    # track registration: Perfetto shows named, ordered tracks

    def register_process(self, pid: int, name: str,
                         sort_index: int | None = None) -> None:
        self._processes[pid] = (name, pid if sort_index is None else sort_index)

    def register_track(self, pid: int, tid: int, name: str,
                       sort_index: int | None = None) -> None:
        self._tracks[(pid, tid)] = (name, tid if sort_index is None else sort_index)

    def emit_slice(self, name: str, cat: str, ts: int, dur: int,
                   pid: int, tid: int, args: dict | None = None) -> None:
        """Append one complete ("X") slice on an arbitrary track."""
        event = {
            "name": name, "cat": cat, "ph": "X",
            "ts": ts, "dur": dur, "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def emit_instant(self, name: str, cat: str, ts: int,
                     pid: int, tid: int, args: dict | None = None) -> None:
        """Append one thread-scoped instant ("i") event."""
        event = {
            "name": name, "cat": cat, "ph": "i", "s": "t",
            "ts": ts, "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)

    def emit_begin(self, name: str, cat: str, ts: int,
                   pid: int, tid: int, args: dict | None = None) -> None:
        """Open a duration ("B") event; pair with :meth:`emit_end`.

        Unlike "X" slices, B/E pairs can be written before the end time
        is known -- the shape live producers need. Any still-open pair is
        terminated by :meth:`close`, so an aborted run yields a parseable
        trace instead of truncated JSON.
        """
        event = {
            "name": name, "cat": cat, "ph": "B",
            "ts": ts, "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)
        self._open.setdefault((pid, tid), []).append(name)
        self._last_ts = max(self._last_ts, ts)

    def emit_end(self, ts: int, pid: int, tid: int,
                 args: dict | None = None) -> None:
        """Close the innermost open "B" event on ``(pid, tid)``."""
        stack = self._open.get((pid, tid))
        if not stack:
            raise ValueError(f"emit_end with no open event on "
                             f"pid={pid} tid={tid}")
        stack.pop()
        event = {"ph": "E", "ts": ts, "pid": pid, "tid": tid}
        if args:
            event["args"] = args
        self._events.append(event)
        self._last_ts = max(self._last_ts, ts)

    # -------------------------------------------------------------- #

    def _metadata(self) -> list[dict]:
        """Process/thread naming + ordering metadata ("M") events.

        Perfetto shows bare numeric pids/tids unless a trace carries
        ``process_name`` / ``thread_name`` metadata, and orders tracks
        arbitrarily without ``*_sort_index`` -- so every registered track
        gets all of name, process label, and sort index.
        """
        processes = dict(self._processes)
        tracks = self._tracks
        for pid, _tid in tracks:
            processes.setdefault(pid, (f"process {pid}", pid))

        meta = []
        for pid in sorted(processes):
            pname, psort = processes[pid]
            meta.append({
                "name": "process_name", "ph": "M", "pid": pid, "tid": 0,
                "args": {"name": pname},
            })
            meta.append({
                "name": "process_sort_index", "ph": "M", "pid": pid,
                "tid": 0, "args": {"sort_index": psort},
            })
        for pid, tid in sorted(tracks):
            tname, tsort = tracks[(pid, tid)]
            meta.append({
                "name": "thread_name", "ph": "M", "pid": pid, "tid": tid,
                "args": {"name": tname},
            })
            meta.append({
                "name": "thread_sort_index", "ph": "M", "pid": pid,
                "tid": tid, "args": {"sort_index": tsort},
            })
        return meta

    def close(self) -> None:
        """Write the accumulated trace as one JSON document.

        Open "B" events (a run that aborted mid-sweep) are terminated
        with synthetic "E" events carrying ``incomplete: true`` at the
        last timestamp seen, so the document always parses and Perfetto
        renders the partial timeline instead of rejecting the file.
        """
        if self._closed:
            return
        self._closed = True
        for (pid, tid), stack in sorted(self._open.items()):
            while stack:
                stack.pop()
                self._events.append({
                    "ph": "E", "ts": self._last_ts, "pid": pid, "tid": tid,
                    "args": {"incomplete": True},
                })
        document = {
            "displayTimeUnit": "ms",
            "traceEvents": self._metadata() + self._events,
        }
        json.dump(document, self.stream, separators=(",", ":"))
        self.stream.write("\n")

    # Context-manager form: ``with ChromeTraceSink(stream) as sink: ...``
    # guarantees the terminating close() even when the run aborts.

    def __enter__(self) -> "ChromeTraceSink":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
