"""The Chrome trace-event JSON writer.

Producers write named tracks and slices to :class:`ChromeTraceSink`
directly: ``repro trace``, ``repro pipeview --chrome`` and the farm's
run timeline.
"""

from __future__ import annotations

import json


class ChromeTraceSink:
    """Chrome trace-event JSON, loadable in Perfetto / chrome://tracing.

    Producers register named processes and tracks, then append complete
    ("X") slices, instant ("i") events and open ("B") events;
    :meth:`close` writes one document with the naming and ordering
    metadata ("M") events up front, followed by the events in the order
    they were appended and an "E" event for each "B" event.
    """

    def __init__(self, stream):
        self.stream = stream
        self._events: list[dict] = []
        self._closed = False
        # registered tracks: (pid, tid) -> (name, sort_index) and
        # pid -> (name, sort_index)
        self._tracks: dict[tuple[int, int], tuple[str, int]] = {}
        self._processes: dict[int, tuple[str, int]] = {}
        # per-track count of open "B" events, so an aborted run can be
        # closed into parseable JSON (see close())
        self._open: dict[tuple[int, int], int] = {}
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
        """Open a duration ("B") event that :meth:`close` terminates.

        Unlike "X" slices, a "B" event can be written before the end
        time is known: the farm timeline draws a still-open span (an
        aborted sweep) this way, and close() ends it, so the trace
        parses instead of being truncated JSON.
        """
        event = {
            "name": name, "cat": cat, "ph": "B",
            "ts": ts, "pid": pid, "tid": tid,
        }
        if args:
            event["args"] = args
        self._events.append(event)
        self._open[(pid, tid)] = self._open.get((pid, tid), 0) + 1
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
        latest "B" timestamp, so the document always parses and Perfetto
        renders the partial timeline instead of rejecting the file.
        """
        if self._closed:
            return
        self._closed = True
        for (pid, tid), depth in sorted(self._open.items()):
            for _ in range(depth):
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
