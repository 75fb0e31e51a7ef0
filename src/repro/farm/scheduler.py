"""The farm's execution engine: a multiprocessing worker pool with
per-job timeouts, bounded retries, and graceful degradation.

Design:

* The parent owns the job graph. A job becomes *ready* when every
  dependency has completed; ready jobs are first checked against the
  artifact store (a hit completes instantly, no worker involved), then
  dispatched to an idle worker.
* Each worker is a separate process with one duplex pipe to the
  parent (specs down, results up), spawned lazily -- a fully warm
  re-run never forks at all.
* The parent never polls: it blocks in
  :func:`multiprocessing.connection.wait` on each busy worker's pipe
  and process sentinel until the nearest deadline (a job's timeout,
  the next heartbeat), if any. Ready jobs are dispatched as soon as a
  result is handled, so a dependent starts when its input completes.
* A worker that dies mid-job (its sentinel fires or its pipe reads
  EOF with no result pending) or exceeds the per-job timeout is
  terminated and replaced on next use; the job is retried up to
  ``retries`` extra attempts, then failed. A job that raises a Python
  exception fails immediately (re-running deterministic code cannot
  help). A failed job fails its dependents (``upstream failed``) but
  never the sweep: every other cell still completes.
* The span tree is the one lifecycle record. Each job gets a span,
  and each dispatch an ``attempt`` span under it that ends ``ok``,
  ``error``, ``crashed`` or ``timeout``; a lost attempt records its
  reason and whether a retry follows. :func:`lifecycle_entries` maps
  these spans to the ``farm.*`` entries that the progress line and a
  served job's SSE stream show: ``farm.scheduled`` / ``farm.started``
  / ``farm.finished`` / ``farm.failed``, plus ``farm.job.crashed`` /
  ``farm.job.timeout`` / ``farm.job.retry`` with the failure reason
  attached, so a consumer can tell a crash-then-recovered from a
  crash-then-gave-up without string-matching error text.

Telemetry (all optional, zero cost when off):

* ``tracker`` -- a :class:`repro.obs.spans.SpanTracker`; the run is
  recorded as a span tree (sweep -> per-job spans -> per-dispatch
  attempt spans -> worker-side execute/store spans shipped back over
  the worker's pipe and adopted under the attempt), the substrate of
  the run ledger (:mod:`repro.farm.ledger`), ``repro farm timeline``
  and, through the tracker's listener, the lifecycle entries.
* Per-job resource accounting -- workers measure wall time, their own
  CPU time (``getrusage``), and peak RSS around every attempt; totals
  land on the :class:`JobOutcome` (and therefore the ledger).
* ``heartbeat_path`` -- the parent periodically publishes a
  ``repro.farm-live/1`` JSON status file (atomic replace) with running
  jobs, queue depth, hit ratio, and worker utilization; ``repro farm
  top`` renders it live from another terminal.

Test hooks (used by the crash/timeout regression tests): a worker whose
job id is ``$REPRO_FARM_TEST_CRASH`` exits hard with ``os._exit``; one
whose job id is ``$REPRO_FARM_TEST_HANG`` sleeps forever (until the
scheduler's timeout kills it). Both match the whole id, so
``build:alvinn`` spares ``build:alvinn+sw``.
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field
from multiprocessing.connection import wait

from repro.farm.jobs import JobGraph, JobSpec, artifact_ready, execute_job
from repro.farm.store import ArtifactStore
from repro.obs.spans import Span, SpanTracker

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX host
    _resource = None

#: Schema tag of the live status file (``repro farm top`` input).
LIVE_SCHEMA = "repro.farm-live/1"


def _cpu_and_rss() -> tuple[float, int]:
    """This process's cumulative CPU seconds and peak RSS in bytes."""
    if _resource is None:  # pragma: no cover - non-POSIX host
        return 0.0, 0
    usage = _resource.getrusage(_resource.RUSAGE_SELF)
    # Linux reports ru_maxrss in KiB (macOS in bytes; close enough for
    # attribution, and the gate tests only require monotonicity).
    return usage.ru_utime + usage.ru_stime, int(usage.ru_maxrss) * 1024


@dataclass
class JobOutcome:
    """Terminal state of one job, with its resource accounting."""

    job_id: str
    kind: str
    status: str             # 'hit' | 'done' | 'failed'
    keys: tuple[str, ...] = ()  # artifact keys (see jobs.resolve_keys)
    error: str | None = None
    attempts: int = 0
    wall: float = 0.0       # seconds across all attempts (hit: store check)
    cpu: float = 0.0        # worker CPU seconds across all attempts
    max_rss: int = 0        # peak worker RSS in bytes, max over attempts
    worker: int = -1        # last worker index, -1 = never dispatched

    @property
    def ok(self) -> bool:
        return self.status in ("hit", "done")


@dataclass
class FarmRunResult:
    """Everything one sweep produced, cell by cell."""

    outcomes: dict[str, JobOutcome] = field(default_factory=dict)
    elapsed: float = 0.0

    @property
    def hits(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "hit")

    @property
    def computed(self) -> int:
        return sum(1 for o in self.outcomes.values() if o.status == "done")

    @property
    def failed(self) -> list[JobOutcome]:
        return [o for o in self.outcomes.values() if o.status == "failed"]

    @property
    def ok(self) -> bool:
        return not self.failed

    def summary(self) -> dict:
        """JSON-able run summary (written to ``<store>/runs/last.json``)."""
        return {
            "total": len(self.outcomes),
            "hits": self.hits,
            "computed": self.computed,
            "failed": sorted(o.job_id for o in self.failed),
            "errors": {o.job_id: o.error for o in self.failed},
            "elapsed_seconds": round(self.elapsed, 3),
            "cpu_seconds": round(sum(o.cpu for o in self.outcomes.values()),
                                 3),
            "max_rss_bytes": max(
                (o.max_rss for o in self.outcomes.values()), default=0),
        }


# ------------------------------------------------------------------ #
# worker side

def _worker_main(store_root: str, conn) -> None:
    store = ArtifactStore(store_root)
    crash = os.environ.get("REPRO_FARM_TEST_CRASH", "")
    hang = os.environ.get("REPRO_FARM_TEST_HANG", "")
    while True:
        try:
            spec = conn.recv()
        except EOFError:
            return
        if spec is None:
            return
        if spec.job_id == crash:
            os._exit(66)
        if spec.job_id == hang:
            time.sleep(3600)
        tracker = SpanTracker()
        store.tracer = tracker
        wall0 = time.monotonic()
        cpu0, _ = _cpu_and_rss()
        try:
            with tracker.span(f"execute:{spec.job_id}", parent=None,
                              cat="execute", attrs={"kind": spec.kind}):
                keys = execute_job(spec, store)
            status, error = "ok", None
        except BaseException as exc:  # noqa: BLE001 - reported, not raised
            status, keys, error = "error", (), f"{type(exc).__name__}: {exc}"
        store.tracer = None
        cpu1, rss = _cpu_and_rss()
        usage = {
            "wall": time.monotonic() - wall0,
            "cpu": max(0.0, cpu1 - cpu0),
            "max_rss": rss,
            "spans": tracker.export(),
        }
        conn.send((status, keys, error, usage))


class _Worker:
    """One pool slot: process handle, its pipe end, in-flight job."""

    def __init__(self, ctx, index: int, store_root: str):
        self.index = index
        self.conn, child_conn = ctx.Pipe()
        self.process = ctx.Process(
            target=_worker_main,
            args=(store_root, child_conn),
            daemon=True,
            name=f"repro-farm-{index}",
        )
        self.process.start()
        # only the worker holds its end, so its death reads as EOF here
        child_conn.close()
        self.job: JobSpec | None = None
        self.span: int | None = None    # the in-flight attempt's span
        self.started_at = 0.0

    def assign(self, spec: JobSpec, span: int | None) -> None:
        self.job = spec
        self.span = span
        self.started_at = time.monotonic()
        try:
            self.conn.send(spec)
        except OSError:
            pass  # it died since it was picked: a crash on the next wait

    def stop(self, kill: bool = False) -> None:
        if kill and self.process.is_alive():
            self.process.terminate()
        elif self.process.is_alive():
            try:
                self.conn.send(None)
            except (OSError, ValueError):  # pragma: no cover - pipe gone
                pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=2.0)
        self.conn.close()


# ------------------------------------------------------------------ #
# parent side

class _GraphRun:
    def __init__(self, graph: JobGraph, store: ArtifactStore, jobs: int,
                 timeout: float | None, retries: int,
                 tracker: SpanTracker | None = None,
                 heartbeat_path=None, heartbeat_interval: float = 0.25):
        self.graph = graph
        self.store = store
        self.max_workers = max(1, jobs)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.tracker = tracker
        self.heartbeat_path = heartbeat_path
        self.heartbeat_interval = heartbeat_interval
        self.outcomes: dict[str, JobOutcome] = {}
        self.attempts: dict[str, int] = {}
        self.waiting: dict[str, set[str]] = {}
        self.ready: list[str] = []
        self.missed: set[str] = set()   # ready, store checked, no worker
        self.workers: list[_Worker] = []
        self.sweep_span: int | None = None
        self.job_spans: dict[str, int] = {}
        self.usage: dict[str, dict] = {}    # job_id -> accumulated totals
        self._start_mono = 0.0
        self._next_beat = 0.0
        self.ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")

    # ---------------- spans ---------------- #

    def _span_for(self, job_id: str) -> int | None:
        """The job's span, started on first touch (dispatch or store
        check), parented on the sweep span."""
        if self.tracker is None:
            return None
        span_id = self.job_spans.get(job_id)
        if span_id is None:
            spec = self.graph.jobs[job_id]
            span_id = self.tracker.start(
                f"job:{job_id}", parent=self.sweep_span, cat="job",
                attrs={"job_id": job_id, "kind": spec.kind})
            self.job_spans[job_id] = span_id
        return span_id

    def _end_attempt(self, worker: _Worker, usage: dict, status: str,
                     attrs: dict | None = None) -> None:
        """Fold one attempt's measured resources into its job's totals,
        splice the worker's spans under the attempt span and end it."""
        totals = self.usage.setdefault(
            worker.job.job_id,
            {"wall": 0.0, "cpu": 0.0, "max_rss": 0, "worker": -1})
        totals["worker"] = worker.index
        totals["wall"] += usage.get("wall", 0.0)
        totals["cpu"] += usage.get("cpu", 0.0)
        totals["max_rss"] = max(totals["max_rss"],
                                usage.get("max_rss", 0))
        if self.tracker is not None:
            if usage.get("spans"):
                self.tracker.adopt(usage["spans"], parent=worker.span)
            self.tracker.end(worker.span, status=status, attrs=attrs)
        worker.job = worker.span = None

    # ---------------- completion ---------------- #

    def _finish(self, spec: JobSpec, status: str, keys: tuple[str, ...] = (),
                error: str | None = None) -> None:
        totals = self.usage.get(spec.job_id, {})
        outcome = JobOutcome(
            job_id=spec.job_id, kind=spec.kind, status=status, keys=keys,
            error=error, attempts=self.attempts.get(spec.job_id, 0),
            wall=totals.get("wall", 0.0), cpu=totals.get("cpu", 0.0),
            max_rss=totals.get("max_rss", 0),
            worker=totals.get("worker", -1),
        )
        self.outcomes[spec.job_id] = outcome
        if self.tracker is not None:
            span_id = self._span_for(spec.job_id)
            attrs = {
                "status": status,
                "cached": status == "hit",
                "attempts": outcome.attempts,
                "wall": round(outcome.wall, 6),
                "cpu": round(outcome.cpu, 6),
                "max_rss": outcome.max_rss,
                "worker": outcome.worker,
            }
            if error:
                attrs["error"] = error
            self.tracker.end(
                span_id, status="ok" if status != "failed" else "error",
                attrs=attrs)
        self._propagate(spec.job_id, failed=(status == "failed"))

    def _propagate(self, done_id: str, failed: bool) -> None:
        for job_id, deps in list(self.waiting.items()):
            if done_id not in deps:
                continue
            if failed:
                del self.waiting[job_id]
                spec = self.graph.jobs[job_id]
                self._finish(spec, "failed",
                             error=f"upstream failed: {done_id}")
            else:
                deps.discard(done_id)
                if not deps:
                    del self.waiting[job_id]
                    self.ready.append(job_id)

    # ---------------- dispatch ---------------- #

    def _try_complete_from_store(self, spec: JobSpec) -> bool:
        check_start = time.monotonic()
        try:
            keys = artifact_ready(spec, self.store)
        except Exception:
            # e.g. an unknown benchmark name: let a worker run the job
            # and report the real error as that cell's failure
            return False
        if keys is None:
            return False
        self._span_for(spec.job_id)
        totals = self.usage.setdefault(
            spec.job_id, {"wall": 0.0, "cpu": 0.0, "max_rss": 0,
                          "worker": -1})
        totals["wall"] += time.monotonic() - check_start
        self._finish(spec, "hit", keys=keys)
        return True

    def _idle_worker(self) -> _Worker | None:
        for worker in self.workers:
            if worker.job is None and worker.process.is_alive():
                return worker
        for position, worker in enumerate(self.workers):
            if worker.job is None and not worker.process.is_alive():
                worker.stop(kill=True)
                worker = self.workers[position] = _Worker(
                    self.ctx, worker.index, str(self.store.root))
                return worker
        if len(self.workers) < self.max_workers:
            worker = _Worker(self.ctx, len(self.workers),
                             str(self.store.root))
            self.workers.append(worker)
            return worker
        return None

    def _dispatch_ready(self) -> None:
        still_ready = []
        for job_id in self.ready:
            spec = self.graph.jobs[job_id]
            if job_id not in self.missed:
                if self._try_complete_from_store(spec):
                    continue
                self.missed.add(job_id)
            worker = self._idle_worker()
            if worker is None:
                still_ready.append(job_id)
                continue
            self.missed.discard(job_id)
            attempt = self.attempts[job_id] = self.attempts.get(job_id, 0) + 1
            parent = self._span_for(job_id)
            span = None if self.tracker is None else self.tracker.start(
                f"attempt:{job_id}", parent=parent, cat="attempt",
                attrs={"job_id": job_id, "worker": worker.index,
                       "attempt": attempt})
            worker.assign(spec, span)
        self.ready = still_ready

    # ---------------- supervision ---------------- #

    def _await_events(self) -> None:
        """Block until a busy worker reports, dies, or a deadline (its
        job's timeout, the next heartbeat) passes; then handle each."""
        busy = [w for w in self.workers if w.job is not None]
        if not busy:
            raise RuntimeError("job graph stalled: "
                               f"{sorted(self.waiting)} wait on unknown jobs")
        deadlines = [w.started_at + self.timeout for w in busy] \
            if self.timeout else []
        if self.heartbeat_path is not None:
            deadlines.append(self._next_beat)
        wait([h for w in busy for h in (w.conn, w.process.sentinel)],
             max(0.0, min(deadlines) - time.monotonic())
             if deadlines else None)
        now = time.monotonic()
        for worker in busy:
            spec = worker.job
            elapsed = now - worker.started_at
            if worker.conn.poll():
                # a result already sent wins over a deadline just passed
                try:
                    status, keys, error, usage = worker.conn.recv()
                except (EOFError, OSError):
                    self._lose(worker, spec, elapsed, timed_out=False)
                    continue
                self._end_attempt(worker, usage, status)
                if status == "ok":
                    self._finish(spec, "done", keys=keys)
                else:
                    self._finish(spec, "failed", error=error)
            elif not worker.process.is_alive():
                self._lose(worker, spec, elapsed, timed_out=False)
            elif self.timeout and elapsed >= self.timeout:
                self._lose(worker, spec, elapsed, timed_out=True)

    def _lose(self, worker: _Worker, spec: JobSpec, elapsed: float,
              timed_out: bool) -> None:
        """Kill ``worker`` (respawned on its next dispatch), charge the
        lost attempt, and retry or fail its job."""
        attempt = self.attempts.get(spec.job_id, 0)
        worker.stop(kill=True)
        retry = attempt <= self.retries
        if timed_out:
            reason = (f"timed out after {self.timeout:g}s "
                      f"(attempt {attempt})")
            status, attrs = "timeout", {"timeout": self.timeout}
        else:
            reason = f"worker crashed (attempt {attempt})"
            status, attrs = "crashed", {}
        self._end_attempt(worker, {"wall": elapsed}, status,
                          {"reason": reason, "retry": retry, **attrs})
        if retry:
            self.ready.append(spec.job_id)
        else:
            self._finish(spec, "failed", error=reason)

    # ---------------- live status ---------------- #

    def _live_status(self, complete: bool) -> dict:
        now = time.monotonic()
        running = [
            {
                "job_id": worker.job.job_id,
                "kind": worker.job.kind,
                "worker": worker.index,
                "attempt": self.attempts.get(worker.job.job_id, 0),
                "elapsed": round(now - worker.started_at, 3),
            }
            for worker in self.workers if worker.job is not None
        ]
        done = len(self.outcomes)
        hits = sum(1 for o in self.outcomes.values() if o.status == "hit")
        failed = sum(1 for o in self.outcomes.values()
                     if o.status == "failed")
        busy = len(running)
        return {
            "schema": LIVE_SCHEMA,
            "pid": os.getpid(),
            "updated": time.time(),
            "complete": complete,
            "total": len(self.graph.jobs),
            "done": done,
            "hits": hits,
            "computed": done - hits - failed,
            "failed": failed,
            "hit_ratio": round(hits / done, 4) if done else 0.0,
            "queue": {"ready": len(self.ready),
                      "waiting": len(self.waiting)},
            "workers": {"max": self.max_workers,
                        "spawned": len(self.workers), "busy": busy},
            "utilization": round(busy / self.max_workers, 4),
            "running": sorted(running, key=lambda r: r["worker"]),
            "elapsed": round(now - self._start_mono, 3),
        }

    def _heartbeat(self, complete: bool = False, force: bool = False) -> None:
        if self.heartbeat_path is None:
            return
        now = time.monotonic()
        if not force and not complete and now < self._next_beat:
            return
        self._next_beat = now + self.heartbeat_interval
        status = self._live_status(complete)
        tmp = f"{self.heartbeat_path}.tmp{os.getpid()}"
        try:
            with open(tmp, "w") as handle:
                json.dump(status, handle, sort_keys=True)
                handle.write("\n")
            os.replace(tmp, self.heartbeat_path)
        except OSError:  # pragma: no cover - status is best-effort
            pass

    # ---------------- main loop ---------------- #

    def run(self) -> FarmRunResult:
        start = self._start_mono = time.monotonic()
        if self.tracker is not None:
            self.sweep_span = self.tracker.start(
                "sweep", cat="sweep",
                attrs={"jobs": len(self.graph.jobs),
                       "workers": self.max_workers})
        for job_id, spec in self.graph.jobs.items():
            deps = set(spec.deps)
            if deps:
                self.waiting[job_id] = deps
            else:
                self.ready.append(job_id)
        self._heartbeat(force=True)
        try:
            while len(self.outcomes) < len(self.graph.jobs):
                self._dispatch_ready()
                if len(self.outcomes) == len(self.graph.jobs):
                    break
                self._heartbeat()
                self._await_events()
        finally:
            for worker in self.workers:
                worker.stop(kill=any(w.job is not None
                                     for w in self.workers))
            complete = len(self.outcomes) == len(self.graph.jobs)
            if self.tracker is not None:
                failed = sum(1 for o in self.outcomes.values()
                             if o.status == "failed")
                self.tracker.end(
                    self.sweep_span,
                    status="ok" if complete else "aborted",
                    attrs={"done": len(self.outcomes), "failed": failed,
                           "elapsed": round(time.monotonic() - start, 6)})
            self._heartbeat(complete=True, force=True)
        return FarmRunResult(outcomes=self.outcomes,
                             elapsed=time.monotonic() - start)


def run_graph(graph: JobGraph, store: ArtifactStore, jobs: int = 1,
              timeout: float | None = None, retries: int = 1,
              tracker: SpanTracker | None = None,
              heartbeat_path=None) -> FarmRunResult:
    """Execute a job graph; never raises for individual cell failures.

    ``jobs`` is the worker-pool width (>= 1; workers spawn lazily, so a
    fully warm run costs no forks). ``timeout`` is per job attempt, in
    seconds (None = unbounded). ``retries`` bounds *extra* attempts
    after a crash or timeout; Python-level exceptions are deterministic
    and fail immediately.

    ``tracker`` enables span recording (the ledger substrate, and the
    lifecycle entries its listener derives: :func:`lifecycle_listener`)
    and ``heartbeat_path`` live status publication -- both default off,
    so library users and the overhead gate get the bare scheduler.
    """
    return _GraphRun(graph, store, jobs, timeout, retries,
                     tracker=tracker, heartbeat_path=heartbeat_path).run()


# ------------------------------------------------------------------ #
# lifecycle entries

def lifecycle_entries(span: Span, graph: JobGraph) -> list[dict]:
    """The ``farm.*`` entries that one start or end of a sweep, job or
    attempt span stands for (none for any other span).

    The sweep's start schedules every job of ``graph``; an attempt's
    start is ``farm.started``, and a lost attempt's end is
    ``farm.job.crashed`` or ``farm.job.timeout``, then
    ``farm.job.retry`` if one follows; a job's end is
    ``farm.finished`` or ``farm.failed``.
    """
    attrs = span.attrs
    if span.cat == "sweep":
        if span.t1 is not None:
            return []
        return [{"event": "farm.scheduled", "job_id": job_id,
                 "job_kind": spec.kind}
                for job_id, spec in graph.jobs.items()]
    if span.cat not in ("job", "attempt"):
        return []
    head = {"job_id": attrs["job_id"],
            "job_kind": graph.jobs[attrs["job_id"]].kind}
    if span.cat == "job":
        if span.t1 is None:
            return []
        if span.status == "ok":
            return [{"event": "farm.finished", **head,
                     "cached": attrs["cached"]}]
        return [{"event": "farm.failed", **head,
                 "error": attrs.get("error") or "unknown",
                 "attempts": attrs["attempts"]}]
    if span.t1 is None:
        return [{"event": "farm.started", **head, "worker": attrs["worker"],
                 "attempt": attrs["attempt"]}]
    if span.status == "crashed":
        entries = [{"event": "farm.job.crashed", **head,
                    "reason": attrs["reason"], "attempt": attrs["attempt"]}]
    elif span.status == "timeout":
        entries = [{"event": "farm.job.timeout", **head,
                    "timeout": attrs["timeout"],
                    "attempt": attrs["attempt"]}]
    else:
        return []
    if attrs["retry"]:
        entries.append({"event": "farm.job.retry", **head,
                        "reason": attrs["reason"],
                        "next_attempt": attrs["attempt"] + 1})
    return entries


def lifecycle_listener(graph: JobGraph, handle):
    """A :class:`SpanTracker` listener that passes each lifecycle entry
    of a sweep of ``graph`` to ``handle``."""
    def listener(span: Span) -> None:
        for entry in lifecycle_entries(span, graph):
            handle(entry)
    return listener
