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

import asyncio
import threading
import time

from repro.farm import ledger as ledger_mod
from repro.farm.jobs import Cell, JobGraph, plan_jobs
from repro.farm.scheduler import lifecycle_listener, run_graph
from repro.farm.store import ArtifactStore
from repro.obs.spans import SpanTracker

#: Log-entry keys that legitimately differ between byte-identical runs
#: (wall-clock stamps, resource usage, run/request identity).
NONDETERMINISTIC_KEYS = frozenset({
    "ts", "elapsed", "elapsed_seconds", "cpu_seconds", "max_rss_bytes",
    "wall", "cpu", "max_rss", "run_id", "created", "updated", "trace_id",
})


# ------------------------------------------------------------------ #
# per-job event log

def _deliver(loop, queue: asyncio.Queue, item) -> None:
    """Put ``item`` on ``queue`` from any thread, on ``loop``."""
    try:
        loop.call_soon_threadsafe(queue.put_nowait, item)
    except RuntimeError:  # the subscriber's loop has closed
        pass


class JobEventLog:
    """Append-only, seq-stamped event log of one served job.

    Producers append from two threads: the serve worker thread running
    :func:`run_serve_job` (the scheduler's lifecycle entries and the
    terminal ``serve.job.finished`` entry) and the service's event loop
    (``serve.job.queued`` and ``serve.job.started``). Consumers take a
    consistent snapshot and subscribe for the live tail in one atomic
    step, so an SSE stream sees every entry exactly once: entries up to
    the snapshot come from replay, everything after arrives on the
    subscriber's queue, and the boundary cannot lose or double an entry
    because appends hold the same lock the snapshot takes.

    Each subscriber is an ``asyncio.Queue`` mapped to its event loop;
    an append hops onto the loop with ``call_soon_threadsafe``, the one
    asyncio entry point documented thread-safe. The queue is unbounded,
    so no entry is dropped.

    ``path`` (optional) persists each entry as one JSON line, letting a
    restarted service replay the log of jobs it never saw run.
    """

    def __init__(self, path=None):
        self.entries: list[dict] = []
        self.lock = threading.Lock()
        self.subscribers: dict[asyncio.Queue, asyncio.AbstractEventLoop] = {}
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
            for queue, loop in self.subscribers.items():
                _deliver(loop, queue, entry)
        return entry

    def snapshot_and_subscribe(self) -> tuple[list[dict], asyncio.Queue]:
        """``(entries_so_far, queue)``, atomically, from a running loop.

        The queue receives every later entry, in append order, on the
        calling loop, then ``None`` once :meth:`unsubscribe` is called.
        """
        queue = asyncio.Queue()
        with self.lock:
            self.subscribers[queue] = asyncio.get_running_loop()
            return list(self.entries), queue

    def unsubscribe(self, queue: asyncio.Queue) -> None:
        """Stop feeding ``queue`` and end it with ``None`` (idempotent).

        The ``None`` lands after any entry an append already scheduled,
        so closing is a flush point, not a discard.
        """
        with self.lock:
            loop = self.subscribers.pop(queue, None)
            if loop is not None:
                _deliver(loop, queue, None)


def is_terminal(entry: dict) -> bool:
    """Does this log entry end the stream?"""
    return entry.get("event") == "serve.job.finished"


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
        # execution engine and the timing engine, which a run job
        # imports lazily to execute its build, once per service, so
        # each worker inherits them instead of importing them per
        # request (a sim-only request tees no column recorder)
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
            key = graph.cell_key(cell, outcome.keys)
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
    log.append({
        "event": "serve.job.finished", "job_id": record["job_id"],
        "status": doc["status"], "hits": doc["summary"].get("hits", 0),
        "computed": doc["summary"].get("computed", 0),
        "failed": len(doc["summary"].get("failed", []))})
    return doc
