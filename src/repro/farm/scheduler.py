"""The farm's execution engine: a multiprocessing worker pool with
per-job timeouts, bounded retries, and graceful degradation.

Design:

* The parent owns the job graph. A job becomes *ready* when every
  dependency has completed; ready jobs are first checked against the
  artifact store (a hit completes instantly, no worker involved), then
  dispatched to an idle worker.
* Each worker is a separate process with its own task queue; results
  come back over one shared queue. Workers are spawned lazily -- a
  fully warm re-run never forks at all.
* A worker that dies mid-job (crash, OOM kill) or exceeds the per-job
  timeout is terminated and replaced; the job is retried up to
  ``retries`` extra attempts, then failed. A job that raises a Python
  exception fails immediately (re-running deterministic code cannot
  help). A failed job fails its dependents (``upstream failed``) but
  never the sweep: every other cell still completes.
* Lifecycle events are emitted on an optional
  :class:`repro.obs.events.EventBus`: ``farm.scheduled`` /
  ``farm.started`` / ``farm.finished`` / ``farm.failed``, plus the
  distinct failure-mode events ``farm.job.crashed`` /
  ``farm.job.timeout`` / ``farm.job.retry`` with the failure reason
  attached, so downstream consumers can tell a crash-then-recovered
  from a crash-then-gave-up without string-matching error text.

Telemetry (all optional, zero cost when off):

* ``tracker`` -- a :class:`repro.obs.spans.SpanTracker`; the run is
  recorded as a span tree (sweep -> per-job spans -> worker-side
  execute/store spans shipped back over the result queue and adopted
  under the job), the substrate of the run ledger
  (:mod:`repro.farm.ledger`) and ``repro farm timeline``.
* Per-job resource accounting -- workers measure wall time, their own
  CPU time (``getrusage``), and peak RSS around every attempt; totals
  land on the :class:`JobOutcome` (and therefore the ledger).
* ``heartbeat_path`` -- the parent periodically publishes a
  ``repro.farm-live/1`` JSON status file (atomic replace) with running
  jobs, queue depth, hit ratio, and worker utilization; ``repro farm
  top`` renders it live from another terminal.

Test hooks (used by the crash/timeout regression tests): a worker whose
job id contains ``$REPRO_FARM_TEST_CRASH`` exits hard with ``os._exit``;
one matching ``$REPRO_FARM_TEST_HANG`` sleeps forever (until the
scheduler's timeout kills it).
"""

from __future__ import annotations

import json
import multiprocessing
import os
import time
from dataclasses import dataclass, field

from repro.farm.jobs import JobGraph, JobSpec, artifact_ready, execute_job
from repro.farm.store import ArtifactStore
from repro.obs.events import (
    FarmJobCrashed,
    FarmJobFailed,
    FarmJobFinished,
    FarmJobRetry,
    FarmJobScheduled,
    FarmJobStarted,
    FarmJobTimeout,
)
from repro.obs.spans import SpanTracker

try:
    import resource as _resource
except ImportError:  # pragma: no cover - non-POSIX host
    _resource = None

_POLL_SECONDS = 0.05

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
    keys: tuple[str, ...] = ()  # artifact keys (a sim job: one per flavour)
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

def _worker_main(worker_id: int, store_root: str, task_q, result_q) -> None:
    store = ArtifactStore(store_root)
    crash = os.environ.get("REPRO_FARM_TEST_CRASH", "")
    hang = os.environ.get("REPRO_FARM_TEST_HANG", "")
    while True:
        spec = task_q.get()
        if spec is None:
            return
        if crash and crash in spec.job_id:
            os._exit(66)
        if hang and hang in spec.job_id:
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
        result_q.put((worker_id, spec.job_id, status, keys, error, usage))


class _Worker:
    """One pool slot: process handle, private task queue, in-flight job."""

    def __init__(self, ctx, index: int, store_root: str, result_q):
        self.index = index
        self.task_q = ctx.Queue()
        self.process = ctx.Process(
            target=_worker_main,
            args=(index, store_root, self.task_q, result_q),
            daemon=True,
            name=f"repro-farm-{index}",
        )
        self.process.start()
        self.job: JobSpec | None = None
        self.started_at = 0.0

    @property
    def idle(self) -> bool:
        return self.job is None

    def assign(self, spec: JobSpec) -> None:
        self.job = spec
        self.started_at = time.monotonic()
        self.task_q.put(spec)

    def release(self) -> None:
        self.job = None

    def alive(self) -> bool:
        return self.process.is_alive()

    def stop(self, kill: bool = False) -> None:
        if kill and self.process.is_alive():
            self.process.terminate()
        elif self.process.is_alive():
            try:
                self.task_q.put(None)
            except (OSError, ValueError):  # pragma: no cover - queue gone
                pass
        self.process.join(timeout=2.0)
        if self.process.is_alive():  # pragma: no cover - stubborn child
            self.process.kill()
            self.process.join(timeout=2.0)
        self.task_q.close()


# ------------------------------------------------------------------ #
# parent side

class _GraphRun:
    def __init__(self, graph: JobGraph, store: ArtifactStore, jobs: int,
                 timeout: float | None, retries: int, obs=None,
                 tracker: SpanTracker | None = None,
                 heartbeat_path=None, heartbeat_interval: float = 0.25):
        self.graph = graph
        self.store = store
        self.max_workers = max(1, jobs)
        self.timeout = timeout
        self.retries = max(0, retries)
        self.obs = obs
        self.tracker = tracker
        self.heartbeat_path = heartbeat_path
        self.heartbeat_interval = heartbeat_interval
        self.outcomes: dict[str, JobOutcome] = {}
        self.attempts: dict[str, int] = {}
        self.waiting: dict[str, set[str]] = {}
        self.ready: list[str] = []
        self.workers: list[_Worker] = []
        self.sweep_span: int | None = None
        self.job_spans: dict[str, int] = {}
        self.usage: dict[str, dict] = {}    # job_id -> accumulated totals
        self._start_mono = 0.0
        self._next_beat = 0.0
        self.ctx = multiprocessing.get_context(
            "fork" if "fork" in multiprocessing.get_all_start_methods()
            else "spawn")
        self.result_q = self.ctx.Queue()

    # ---------------- events / spans ---------------- #

    def _emit(self, event) -> None:
        if self.obs is not None:
            self.obs.emit(event)

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

    def _charge(self, job_id: str, usage: dict | None,
                worker: int) -> None:
        """Fold one attempt's measured resources into the job's totals
        and splice the worker's spans under the job span."""
        totals = self.usage.setdefault(
            job_id, {"wall": 0.0, "cpu": 0.0, "max_rss": 0, "worker": -1})
        totals["worker"] = worker
        if usage is None:
            return
        totals["wall"] += usage.get("wall", 0.0)
        totals["cpu"] += usage.get("cpu", 0.0)
        totals["max_rss"] = max(totals["max_rss"],
                                usage.get("max_rss", 0))
        if self.tracker is not None and usage.get("spans"):
            self.tracker.adopt(usage["spans"],
                               parent=self._span_for(job_id))

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
        if status == "failed":
            self._emit(FarmJobFailed(
                job_id=spec.job_id, job_kind=spec.kind,
                error=error or "unknown",
                attempts=self.attempts.get(spec.job_id, 0)))
        else:
            self._emit(FarmJobFinished(
                job_id=spec.job_id, job_kind=spec.kind,
                cached=(status == "hit")))
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
            if worker.idle and worker.alive():
                return worker
        for worker in self.workers:
            if worker.idle and not worker.alive():
                return self._respawn(worker)
        if len(self.workers) < self.max_workers:
            worker = _Worker(self.ctx, len(self.workers),
                             str(self.store.root), self.result_q)
            self.workers.append(worker)
            return worker
        return None

    def _respawn(self, worker: _Worker) -> _Worker:
        position = self.workers.index(worker)
        worker.stop(kill=True)
        replacement = _Worker(self.ctx, worker.index, str(self.store.root),
                              self.result_q)
        self.workers[position] = replacement
        return replacement

    def _dispatch_ready(self) -> None:
        still_ready = []
        for job_id in self.ready:
            if job_id in self.outcomes:
                continue  # a late result resolved it while queued for retry
            spec = self.graph.jobs[job_id]
            if self._try_complete_from_store(spec):
                continue
            worker = self._idle_worker()
            if worker is None:
                still_ready.append(job_id)
                continue
            self.attempts[job_id] = self.attempts.get(job_id, 0) + 1
            self._span_for(job_id)
            worker.assign(spec)
            self._emit(FarmJobStarted(
                job_id=job_id, job_kind=spec.kind, worker=worker.index,
                attempt=self.attempts[job_id]))
        self.ready = still_ready

    def _retry_or_fail(self, spec: JobSpec, reason: str) -> None:
        attempts = self.attempts.get(spec.job_id, 0)
        if attempts <= self.retries:
            self._emit(FarmJobRetry(
                job_id=spec.job_id, job_kind=spec.kind, reason=reason,
                next_attempt=attempts + 1))
            self.ready.append(spec.job_id)
        else:
            self._finish(spec, "failed", error=reason)

    # ---------------- supervision ---------------- #

    def _drain_results(self) -> None:
        import queue as queue_mod

        try:
            while True:
                worker_id, job_id, status, keys, error, usage = \
                    self.result_q.get(timeout=_POLL_SECONDS)
                for worker in self.workers:
                    if worker.index == worker_id and worker.job is not None \
                            and worker.job.job_id == job_id:
                        worker.release()
                        break
                if job_id in self.outcomes:
                    continue  # late result after a kill/retry resolved it
                self._charge(job_id, usage, worker_id)
                spec = self.graph.jobs[job_id]
                if status == "ok":
                    self._finish(spec, "done", keys=keys)
                else:
                    self._finish(spec, "failed", error=error)
        except queue_mod.Empty:
            pass

    def _check_workers(self) -> None:
        now = time.monotonic()
        for worker in list(self.workers):
            spec = worker.job
            if spec is None:
                continue
            attempt = self.attempts.get(spec.job_id, 0)
            if not worker.alive():
                elapsed = now - worker.started_at
                worker.release()
                self._respawn(worker)
                if spec.job_id not in self.outcomes:
                    self._charge(spec.job_id,
                                 {"wall": elapsed}, worker.index)
                    reason = f"worker crashed (attempt {attempt})"
                    self._emit(FarmJobCrashed(
                        job_id=spec.job_id, job_kind=spec.kind,
                        reason=reason, attempt=attempt))
                    self._retry_or_fail(spec, reason)
            elif self.timeout and now - worker.started_at > self.timeout:
                elapsed = now - worker.started_at
                worker.release()
                self._respawn(worker)
                if spec.job_id not in self.outcomes:
                    self._charge(spec.job_id,
                                 {"wall": elapsed}, worker.index)
                    self._emit(FarmJobTimeout(
                        job_id=spec.job_id, job_kind=spec.kind,
                        timeout=self.timeout, attempt=attempt))
                    self._retry_or_fail(
                        spec, f"timed out after {self.timeout:g}s "
                        f"(attempt {attempt})")

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
            self._emit(FarmJobScheduled(job_id=job_id, job_kind=spec.kind))
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
                self._drain_results()
                self._check_workers()
                self._heartbeat()
        finally:
            for worker in self.workers:
                worker.stop(kill=any(w.job is not None
                                     for w in self.workers))
            self.result_q.close()
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
              obs=None, tracker: SpanTracker | None = None,
              heartbeat_path=None) -> FarmRunResult:
    """Execute a job graph; never raises for individual cell failures.

    ``jobs`` is the worker-pool width (>= 1; workers spawn lazily, so a
    fully warm run costs no forks). ``timeout`` is per job attempt, in
    seconds (None = unbounded). ``retries`` bounds *extra* attempts
    after a crash or timeout; Python-level exceptions are deterministic
    and fail immediately.

    ``tracker`` enables span recording (the ledger substrate) and
    ``heartbeat_path`` live status publication -- both default off, so
    library users and the overhead gate get the bare scheduler.
    """
    return _GraphRun(graph, store, jobs, timeout, retries, obs=obs,
                     tracker=tracker, heartbeat_path=heartbeat_path).run()
