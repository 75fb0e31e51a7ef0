"""The serve worker: one submission -> one farm sweep.

:func:`plan_serve_graph` turns a normalized submission into cells and
lowers them with :func:`~repro.farm.jobs.plan_jobs`, the planner
``repro farm run`` uses, with one addition: inline-source submissions
carry their MiniC text on every :class:`~repro.farm.jobs.JobSpec` and
fingerprint by content, so two tenants submitting the same program
share every artifact.

:func:`run_serve_job` is thread-side (the service calls it via
``asyncio.to_thread``): it drives the farm scheduler with a span
tracker whose listener appends the sweep's lifecycle entries
(:func:`~repro.farm.scheduler.lifecycle_listener`) to the job's
:class:`JobEventLog`, collects the per-cell snapshots from the store,
pins them across an optional size-budgeted gc (so trimming the cache
between jobs can never evict the result being returned), and persists
a ``repro.ledger/1`` manifest -- served runs show up in ``repro farm
history`` and ``farm timeline`` like any sweep.

Every log entry carries a per-job ``seq``; :func:`normalized_events`
strips wall-clock and resource fields, leaving a byte-deterministic
view (the SSE golden test and the load generator's no-drop/no-dup
check both build on it).
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass

from repro.farm import ledger as ledger_mod
from repro.farm.jobs import Cell, JobGraph, plan_jobs
from repro.farm.scheduler import lifecycle_listener, run_graph
from repro.farm.store import ArtifactStore
from repro.obs.events import Event, EventBus, subscribe_async
from repro.obs.spans import SpanTracker

#: Log-entry keys that legitimately differ between byte-identical runs
#: (wall-clock stamps, resource usage, run/request identity).
NONDETERMINISTIC_KEYS = frozenset({
    "ts", "elapsed", "elapsed_seconds", "cpu_seconds", "max_rss_bytes",
    "wall", "cpu", "max_rss", "run_id", "created", "updated", "trace_id",
})


# ------------------------------------------------------------------ #
# serve lifecycle events (alongside the farm.* taxonomy)

@dataclass(slots=True)
class ServeJobQueued(Event):
    """A submission was admitted to the queue."""

    kind = "serve.job.queued"
    job_id: str
    tenant: str
    name: str


@dataclass(slots=True)
class ServeJobStarted(Event):
    """The worker picked the job up and is planning its sweep."""

    kind = "serve.job.started"
    job_id: str
    tenant: str


@dataclass(slots=True)
class ServeJobFinished(Event):
    """Terminal: the sweep completed (``status`` done or failed)."""

    kind = "serve.job.finished"
    job_id: str
    status: str
    hits: int
    computed: int
    failed: int


# ------------------------------------------------------------------ #
# per-job event log

class JobEventLog:
    """Append-only, seq-stamped event log of one served job.

    Producers append from two threads: the serve worker thread running
    :func:`run_serve_job` (the scheduler's lifecycle entries and the
    terminal event) and the service's event loop (the queued and
    started events). Consumers take a consistent snapshot and
    subscribe for the live tail in one atomic step, so an SSE stream
    sees every event exactly once: entries up to the snapshot come from
    replay, everything after arrives over the subscription, and the
    boundary cannot lose or double an event because appends hold the
    same lock the snapshot takes.

    ``path`` (optional) persists each entry as one JSON line, letting a
    restarted service replay the log of jobs it never saw run.
    """

    def __init__(self, path=None):
        self.entries: list[dict] = []
        self.lock = threading.Lock()
        self.bus = EventBus()
        self.path = path
        if path is not None and path.is_file():
            import json

            with open(path) as handle:
                for line in handle:
                    line = line.strip()
                    if line:
                        self.entries.append(json.loads(line))

    def append(self, payload: dict) -> dict:
        with self.lock:
            entry = {"seq": len(self.entries),
                     "ts": round(time.time(), 6), **payload}
            self.entries.append(entry)
            if self.path is not None:
                import json

                with open(self.path, "a") as handle:
                    handle.write(json.dumps(entry, sort_keys=True))
                    handle.write("\n")
            self.bus.emit(entry)
        return entry

    def append_event(self, event: Event) -> dict:
        return self.append(event.as_dict())

    def snapshot_and_subscribe(self, loop=None):
        """``(entries_so_far, live_subscription)``, atomically."""
        with self.lock:
            return list(self.entries), subscribe_async(self.bus, loop=loop)


def is_terminal(entry: dict) -> bool:
    """Does this log entry end the stream?"""
    return entry.get("event") == ServeJobFinished.kind


def normalized_events(entries) -> list[dict]:
    """The deterministic view: same submission, same bytes."""
    return [{k: v for k, v in entry.items()
             if k not in NONDETERMINISTIC_KEYS}
            for entry in entries]


# ------------------------------------------------------------------ #
# request-scoped span tree

def graft_request_spans(tracker: SpanTracker, record: dict,
                        picked_up: float) -> int:
    """Wrap a sweep's span tree in a request-scoped root span.

    The farm scheduler records the sweep as its own root; this grafts
    that tree (and any other parentless spans) under one ``request``
    span carrying the trace identity, with synthetic ``ingress`` and
    ``queue.wait`` children reconstructed from the queue record's
    monotonic ``enqueued_at`` / ``ingress_seconds``. The request root's
    ``t0`` is backdated to ingress start so it is the earliest timestamp
    in the run and the ledger's rebase keeps every span non-negative.

    Returns the request root's span id.
    """
    enqueued_at = record.get("enqueued_at")
    ingress = float(record.get("ingress_seconds") or 0.0)
    queue_wait = max(0.0, picked_up - float(enqueued_at)) \
        if enqueued_at is not None else 0.0
    t_enqueue = picked_up - queue_wait
    t_ingress0 = t_enqueue - ingress

    sweep_roots = [s for s in tracker.spans.values()
                   if s.parent_id is None]
    root_id = tracker.start("request", cat="request", attrs={
        "trace_id": record.get("trace_id", ""),
        "serve_job_id": record["job_id"],
        "tenant": record["submission"]["tenant"],
        "name": record["submission"]["name"],
        "queue_wait_seconds": round(queue_wait, 6),
        "ingress_seconds": round(ingress, 6),
    })
    tracker.spans[root_id].t0 = t_ingress0
    if ingress > 0.0:
        span = tracker.end(tracker.start(
            "ingress", parent=root_id, cat="serve"))
        span.t0, span.t1 = t_ingress0, t_enqueue
    span = tracker.end(tracker.start(
        "queue.wait", parent=root_id, cat="serve",
        attrs={"queue_wait_seconds": round(queue_wait, 6)}))
    span.t0, span.t1 = t_enqueue, picked_up
    for span in sweep_roots:
        span.parent_id = root_id
    tracker.end(root_id)
    return root_id


# ------------------------------------------------------------------ #
# planning and execution

def plan_serve_graph(submission: dict, machines: dict) -> JobGraph:
    """Lower one normalized submission onto a farm job graph: its cells
    go through :func:`~repro.farm.jobs.plan_jobs`, like a sweep's."""
    name = submission["name"]
    software = submission["software"]
    cells = [Cell("sim", name, software, label)
             for label in submission["machines"]]
    if submission["analysis"]:
        cells.append(Cell("analysis", name, software))
    return plan_jobs(cells, machines, submission["max_instructions"],
                     source=submission["source"])


def run_serve_job(store: ArtifactStore, record: dict, log: JobEventLog,
                  machines: dict, jobs: int = 1,
                  timeout: float | None = 300.0, retries: int = 1,
                  gc_max_bytes: int | None = None) -> dict:
    """Execute one queue record against the farm; returns the result doc.

    Runs on a worker thread. Never raises: planning or execution
    failures land in the result doc with ``status: "failed"``, and the
    terminal ``serve.job.finished`` event is always appended.
    """
    submission = record["submission"]
    start = time.monotonic()
    enqueued_at = record.get("enqueued_at")
    queue_wait = max(0.0, start - float(enqueued_at)) \
        if enqueued_at is not None else 0.0
    try:
        # the farm forks fresh workers for every graph: load the
        # execution engine and the timing engine (with the trace
        # writer), which a sim job imports lazily to execute its build,
        # once per service, so each worker inherits them instead of
        # importing them per request
        import repro.cpu.predecode  # noqa: F401
        import repro.pipeline.replay  # noqa: F401

        graph = plan_serve_graph(submission, machines)
        tracker = SpanTracker(listener=lifecycle_listener(graph, log.append))
        result = run_graph(graph, store, jobs=jobs, timeout=timeout,
                           retries=retries, tracker=tracker)
        summary = result.summary()
        graft_request_spans(tracker, record, start)

        artifacts = []
        results: dict = {"machines": {}}
        for cell, job_id in sorted(graph.cell_jobs.items(),
                                   key=lambda kv: (kv[1], kv[0])):
            outcome = result.outcomes[job_id]
            if not outcome.ok or not outcome.keys:
                continue
            if cell.kind == "analysis":
                key = outcome.keys[0]
            else:
                labels = [label for label, _ in graph.jobs[job_id].machines]
                key = outcome.keys[labels.index(cell.machine)]
            artifacts.append({"kind": cell.kind, "key": key})
            snapshot = store.get_json(cell.kind, key)
            if cell.kind == "analysis":
                results["analysis"] = snapshot
            else:
                results["machines"][cell.machine] = snapshot

        # Keep this job's outputs warm across the between-jobs trim.
        for ref in artifacts:
            store.pin(ref["kind"], ref["key"])
        try:
            if gc_max_bytes is not None:
                store.gc(max_bytes=gc_max_bytes)
        finally:
            for ref in artifacts:
                store.unpin(ref["kind"], ref["key"])

        run = ledger_mod.run_from_sweep(
            ledger_mod.new_run_id(), graph, result, tracker,
            meta={"serve": True, "job_id": record["job_id"],
                  "trace_id": record.get("trace_id", ""),
                  "tenant": submission["tenant"],
                  "name": submission["name"]})
        ledger_mod.write_run(store, run)

        status = "done" if result.ok else "failed"
        doc = {
            "status": status,
            "run_id": run.run_id,
            "trace_id": record.get("trace_id", ""),
            "summary": summary,
            "artifacts": artifacts,
            "results": results,
            "queue_wait_seconds": round(queue_wait, 6),
            "elapsed_seconds": round(time.monotonic() - start, 3),
        }
    except Exception as exc:  # noqa: BLE001 - reported in the result doc
        doc = {
            "status": "failed",
            "run_id": None,
            "trace_id": record.get("trace_id", ""),
            "summary": {"total": 0, "hits": 0, "computed": 0,
                        "failed": ["plan"],
                        "errors": {"plan": f"{type(exc).__name__}: {exc}"}},
            "artifacts": [],
            "results": {},
            "queue_wait_seconds": round(queue_wait, 6),
            "elapsed_seconds": round(time.monotonic() - start, 3),
        }
    log.append_event(ServeJobFinished(
        job_id=record["job_id"], status=doc["status"],
        hits=doc["summary"].get("hits", 0),
        computed=doc["summary"].get("computed", 0),
        failed=len(doc["summary"].get("failed", []))))
    return doc
