"""The serve HTTP service: stdlib-only asyncio, HTTP/1.1, SSE.

One event loop runs everything: the accept loop, per-connection
handlers, and a single worker coroutine that drains the persistent
queue (the farm scheduler below it provides the real parallelism --
``ServeConfig.farm_jobs`` workers per job). Simulations run on a
thread (``asyncio.to_thread``), so the loop keeps serving submissions
and streaming events while a sweep computes; the thread-side event
flow re-enters the loop only through the job log's subscriber queues
(:meth:`~repro.serve.worker.JobEventLog.snapshot_and_subscribe`).

Endpoints (all responses JSON unless noted; errors are
``repro.serve-error/1`` documents):

=========================================  ==========================
``POST /v1/jobs``                          submit (202, 400, 429)
``GET /v1/jobs``                           list jobs (``?tenant=``)
``GET /v1/jobs/{id}``                      one job record + result
``GET /v1/jobs/{id}/events``               SSE stream, replay + live
``GET /v1/artifacts/{kind}/{key}``         snapshot from the store
``GET /v1/health``                         schema/store/queue/worker
``GET /v1/metrics``                        ``repro.serve-metrics/1``
``GET /metrics``                           Prometheus text (not JSON)
=========================================  ==========================

Every request resolves a ``trace_id`` at ingress (``traceparent`` or
``x-repro-trace-id`` headers honored, one minted otherwise), echoes it
as ``X-Repro-Trace-Id``, stamps it on the queue record, and accounts
the request in the metrics registry and the JSONL access log.

Connections are ``Connection: close`` -- one request per connection
keeps the parser trivial and is plenty for the load profile (SSE
holds its connection open anyway).
"""

from __future__ import annotations

import asyncio
import json
import threading
import time
from dataclasses import dataclass
from urllib.parse import parse_qs, unquote

from repro.farm.ledger import LEDGER_SCHEMA
from repro.obs.metrics import SNAPSHOT_VERSION
from repro.farm.store import KINDS, ArtifactStore
from repro.serve.metrics import ServeMetrics
from repro.serve.queue import DONE, FAILED, RUNNING, PersistentQueue, QuotaExceeded
from repro.serve.schemas import (
    MAX_BODY_BYTES,
    SERVE_ERROR_SCHEMA_VERSION,
    SERVE_HEALTH_SCHEMA_VERSION,
    SERVE_JOB_SCHEMA_VERSION,
    error_doc,
    normalize_submission,
)
from repro.serve.tracing import (
    RESPONSE_TRACE_HEADER,
    RequestContext,
    resolve_trace_id,
)
from repro.serve.worker import (
    JobEventLog,
    is_terminal,
    run_serve_job,
)

_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 413: "Payload Too Large",
    429: "Too Many Requests", 500: "Internal Server Error",
}


class AccessLog:
    """The service's JSONL access log: one line per completed request.

    Each line is the request's fields behind a wall-clock ``ts`` stamp
    (an operational record, not a deterministic artifact). Lines are
    flushed as written so ``tail -f`` works, and writes take a lock
    because request tasks complete interleaved.
    """

    def __init__(self, path, clock=time.time):
        self._stream = open(path, "a", encoding="utf-8")
        self._lock = threading.Lock()
        self._clock = clock

    def write(self, fields: dict) -> None:
        line = json.dumps({"ts": round(self._clock(), 6), **fields},
                          separators=(",", ":"))
        with self._lock:
            self._stream.write(line + "\n")
            self._stream.flush()

    def close(self) -> None:
        with self._lock:
            self._stream.close()


@dataclass
class ServeConfig:
    """Tunables of one service instance."""

    host: str = "127.0.0.1"
    port: int = 0                       # 0 = ephemeral (tests)
    quota: int = 8                      # per-tenant in-flight jobs
    farm_jobs: int = 1                  # farm workers per served job
    job_timeout: float | None = 300.0   # per farm-job attempt, seconds
    retries: int = 1
    gc_max_bytes: int | None = None     # store budget, trimmed between jobs
    worker_enabled: bool = True         # False: accept only (tests)
    metrics_enabled: bool = True        # False: no registry (overhead A/B)
    access_log: str | None = None       # JSONL access-log path


#: A worker whose heartbeat is older than this, with no job in flight,
#: is reported as not alive (the idle loop beats every 0.5s).
WORKER_STALE_SECONDS = 5.0


def build_health(store: ArtifactStore, queue: PersistentQueue,
                 started_at: float | None = None,
                 worker: dict | None = None) -> dict:
    """The ``/v1/health`` document (also ``repro serve --check``).

    ``queue.tenants`` breaks depth down per tenant; ``worker`` (when the
    caller has one) reports the job loop's liveness — a wedged worker
    with a growing heartbeat age is visible here, not just a 200.
    """
    depth = queue.depth()
    depth["tenants"] = queue.depth_by_tenant()
    doc = {
        "schema": SERVE_HEALTH_SCHEMA_VERSION,
        "schemas": {
            "metrics": SNAPSHOT_VERSION,
            "ledger": LEDGER_SCHEMA,
            "serve_job": SERVE_JOB_SCHEMA_VERSION,
            "serve_error": SERVE_ERROR_SCHEMA_VERSION,
        },
        "store": {
            "root": str(store.root),
            "stats": store.stats(),
            "shards": store.shard_stats(),
        },
        "queue": depth,
        "quota": queue.quota,
    }
    if worker is not None:
        doc["worker"] = worker
    if started_at is not None:
        doc["uptime_seconds"] = round(time.time() - started_at, 3)
    return doc


class ServeService:
    """One serve instance bound to one artifact store."""

    def __init__(self, store: ArtifactStore, config: ServeConfig | None = None):
        from repro.experiments.common import MACHINES
        from repro.workloads.suite import BENCHMARKS

        self.store = store
        self.config = config or ServeConfig()
        self.machines = MACHINES
        self.benchmarks = set(BENCHMARKS)
        serve_root = store.root / "serve"
        self.queue = PersistentQueue(serve_root / "queue",
                                     quota=self.config.quota)
        self.events_dir = serve_root / "events"
        self.events_dir.mkdir(parents=True, exist_ok=True)
        self.logs: dict[str, JobEventLog] = {}
        self.started_at = time.time()
        self.metrics = ServeMetrics() if self.config.metrics_enabled else None
        self.access_log = AccessLog(self.config.access_log) \
            if self.config.access_log else None
        self.worker_stats = {
            "jobs_since_start": 0,
            "current_job": None,
            "last_heartbeat": time.monotonic(),
        }
        self.server = None
        self.port = None
        self._running = False
        self._wake: asyncio.Event | None = None
        self._worker_task = None

    # ------------------------------------------------------------ #
    # lifecycle

    async def start(self) -> None:
        self._running = True
        self._wake = asyncio.Event()
        self.server = await asyncio.start_server(
            self._handle_client, self.config.host, self.config.port)
        self.port = self.server.sockets[0].getsockname()[1]
        if self.config.worker_enabled:
            self._worker_task = asyncio.create_task(self._worker_loop())

    async def shutdown(self) -> None:
        self._running = False
        if self._wake is not None:
            self._wake.set()
        if self._worker_task is not None:
            self._worker_task.cancel()
            try:
                await self._worker_task
            except asyncio.CancelledError:
                pass
            self._worker_task = None
        if self.server is not None:
            self.server.close()
            await self.server.wait_closed()
            self.server = None
        if self.access_log is not None:
            self.access_log.close()

    # ------------------------------------------------------------ #
    # worker

    def log_for(self, job_id: str) -> JobEventLog:
        log = self.logs.get(job_id)
        if log is None:
            log = JobEventLog(path=self.events_dir / f"{job_id}.jsonl")
            self.logs[job_id] = log
        return log

    def _beat(self) -> None:
        self.worker_stats["last_heartbeat"] = time.monotonic()

    def worker_liveness(self) -> dict:
        """The worker-loop liveness view for ``/v1/health`` and metrics.

        ``alive`` means the loop beat recently *or* is legitimately
        blocked running a job — only a loop that is idle-and-silent
        (wedged, crashed, or never started) reports dead.
        """
        age = time.monotonic() - self.worker_stats["last_heartbeat"]
        current = self.worker_stats["current_job"]
        enabled = self.config.worker_enabled
        return {
            "enabled": enabled,
            "alive": enabled and (current is not None
                                  or age < WORKER_STALE_SECONDS),
            "last_heartbeat_age_seconds": round(age, 3),
            "current_job": current,
            "jobs_since_start": self.worker_stats["jobs_since_start"],
        }

    async def _worker_loop(self) -> None:
        config = self.config
        while self._running:
            self._beat()
            record = self.queue.next_queued()
            if record is None:
                self._wake.clear()
                try:
                    await asyncio.wait_for(self._wake.wait(), timeout=0.5)
                except TimeoutError:
                    pass
                continue
            job_id = record["job_id"]
            self.queue.mark(job_id, RUNNING)
            self.worker_stats["current_job"] = job_id
            self._beat()
            log = self.log_for(job_id)
            log.append({"event": "serve.job.started", "job_id": job_id,
                        "tenant": record["tenant"]})
            doc = await asyncio.to_thread(
                run_serve_job, self.store, record, log, self.machines,
                jobs=config.farm_jobs, timeout=config.job_timeout,
                retries=config.retries, gc_max_bytes=config.gc_max_bytes)
            self.queue.mark(job_id,
                            DONE if doc["status"] == "done" else FAILED,
                            result=doc)
            self.worker_stats["current_job"] = None
            self.worker_stats["jobs_since_start"] += 1
            self._beat()
            if self.metrics is not None:
                enqueued_at = record.get("enqueued_at")
                e2e = time.monotonic() - float(enqueued_at) \
                    if enqueued_at is not None else \
                    doc.get("elapsed_seconds", 0.0)
                self.metrics.record_job(doc, e2e)

    # ------------------------------------------------------------ #
    # HTTP plumbing

    async def _handle_client(self, reader, writer) -> None:
        ctx = RequestContext(started=time.monotonic())
        try:
            request = await self._read_request(reader, writer, ctx)
            if request is not None:
                method, path, query, body, headers = request
                ctx.trace_id = resolve_trace_id(headers)
                ctx.method, ctx.path = method, path
                ctx.ingress_seconds = time.monotonic() - ctx.started
                await self._route(reader, writer, ctx,
                                  method, path, query, body)
        except (ConnectionResetError, BrokenPipeError):
            pass
        except Exception as exc:  # noqa: BLE001 - last-resort 500
            try:
                await self._send_json(writer, 500, error_doc(
                    "internal", f"{type(exc).__name__}: {exc}"), ctx)
            except (ConnectionResetError, BrokenPipeError, RuntimeError):
                pass
        finally:
            self._finish_request(ctx)
            try:
                writer.close()
                await writer.wait_closed()
            except (ConnectionResetError, BrokenPipeError):
                pass

    def _finish_request(self, ctx: RequestContext) -> None:
        """Account one completed request: metrics and the access log."""
        if not ctx.status:
            return      # connection opened but no request/response
        duration = time.monotonic() - ctx.started
        if self.metrics is not None:
            self.metrics.record_request(ctx.route, ctx.status, duration)
        if self.access_log is not None:
            self.access_log.write({
                "event": "serve.http.request", "trace_id": ctx.trace_id,
                "method": ctx.method, "route": ctx.route, "path": ctx.path,
                "status": ctx.status, "duration_seconds": round(duration, 6),
                "tenant": ctx.tenant, "job_id": ctx.job_id})

    async def _read_request(self, reader, writer, ctx: RequestContext):
        line = await reader.readline()
        if not line:
            return None
        try:
            method, target, _version = line.decode("ascii").split()
        except ValueError:
            await self._send_json(writer, 400, error_doc(
                "bad-request", "malformed request line"), ctx)
            return None
        headers = {}
        while True:
            raw = await reader.readline()
            if raw in (b"\r\n", b"\n", b""):
                break
            name, _, value = raw.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        length = int(headers.get("content-length", 0) or 0)
        if length > MAX_BODY_BYTES:
            await self._send_json(writer, 413, error_doc(
                "payload-too-large",
                f"body exceeds {MAX_BODY_BYTES} bytes"), ctx)
            return None
        body = await reader.readexactly(length) if length else b""
        path, _, query = target.partition("?")
        return method.upper(), unquote(path), parse_qs(query), body, headers

    async def _send_json(self, writer, status: int, doc,
                         ctx: RequestContext | None = None) -> None:
        if ctx is not None:
            ctx.status = status
        trace = f"{RESPONSE_TRACE_HEADER}: {ctx.trace_id}\r\n" \
            if ctx is not None else ""
        payload = (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode()
        writer.write(
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{trace}"
            f"Connection: close\r\n\r\n".encode())
        writer.write(payload)
        await writer.drain()

    async def _send_text(self, writer, status: int, text: str,
                         ctx: RequestContext,
                         content_type: str = "text/plain; version=0.0.4; "
                                             "charset=utf-8") -> None:
        ctx.status = status
        payload = text.encode()
        writer.write(
            f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Status')}\r\n"
            f"Content-Type: {content_type}\r\n"
            f"Content-Length: {len(payload)}\r\n"
            f"{RESPONSE_TRACE_HEADER}: {ctx.trace_id}\r\n"
            f"Connection: close\r\n\r\n".encode())
        writer.write(payload)
        await writer.drain()

    # ------------------------------------------------------------ #
    # routing

    async def _route(self, reader, writer, ctx: RequestContext,
                     method, path, query, body) -> None:
        parts = [p for p in path.split("/") if p]
        if parts == ["metrics"] and method == "GET":
            ctx.route = "GET /metrics"
            await self._get_metrics_text(writer, ctx)
            return
        if parts[:1] != ["v1"]:
            await self._send_json(writer, 404, error_doc(
                "not-found", f"no route {path!r}"), ctx)
            return
        rest = parts[1:]
        if rest == ["jobs"]:
            if method == "POST":
                ctx.route = "POST /v1/jobs"
                await self._post_job(writer, ctx, body)
            elif method == "GET":
                ctx.route = "GET /v1/jobs"
                await self._list_jobs(writer, ctx, query)
            else:
                await self._send_json(writer, 405, error_doc(
                    "method-not-allowed", f"{method} {path}"), ctx)
        elif len(rest) == 2 and rest[0] == "jobs" and method == "GET":
            ctx.route = "GET /v1/jobs/{id}"
            await self._get_job(writer, ctx, rest[1])
        elif len(rest) == 3 and rest[0] == "jobs" and rest[2] == "events" \
                and method == "GET":
            ctx.route = "GET /v1/jobs/{id}/events"
            await self._stream_events(reader, writer, ctx, rest[1])
        elif len(rest) == 3 and rest[0] == "artifacts" and method == "GET":
            ctx.route = "GET /v1/artifacts/{kind}/{key}"
            await self._get_artifact(writer, ctx, rest[1], rest[2])
        elif rest == ["health"] and method == "GET":
            ctx.route = "GET /v1/health"
            await self._send_json(writer, 200, build_health(
                self.store, self.queue, self.started_at,
                worker=self.worker_liveness()), ctx)
        elif rest == ["metrics"] and method == "GET":
            ctx.route = "GET /v1/metrics"
            await self._get_metrics_json(writer, ctx)
        else:
            await self._send_json(writer, 404, error_doc(
                "not-found", f"no route {method} {path!r}"), ctx)

    # ------------------------------------------------------------ #
    # handlers

    async def _post_job(self, writer, ctx: RequestContext,
                        body: bytes) -> None:
        try:
            payload = json.loads(body.decode("utf-8"))
        except (ValueError, UnicodeDecodeError) as exc:
            await self._send_json(writer, 400, error_doc(
                "invalid-json", f"body is not valid JSON: {exc}"), ctx)
            return
        submission, error = normalize_submission(
            payload, self.machines, self.benchmarks)
        if error is not None:
            await self._send_json(writer, 400, error, ctx)
            return
        ctx.tenant = submission["tenant"]
        try:
            record = self.queue.submit(
                submission, trace_id=ctx.trace_id,
                ingress_seconds=time.monotonic() - ctx.started)
        except QuotaExceeded as exc:
            if self.metrics is not None:
                self.metrics.record_throttle(submission["tenant"])
            await self._send_json(writer, 429, error_doc(
                "quota-exceeded", str(exc)), ctx)
            return
        ctx.job_id = record["job_id"]
        self.log_for(record["job_id"]).append({
            "event": "serve.job.queued", "job_id": record["job_id"],
            "tenant": record["tenant"], "name": submission["name"]})
        if self._wake is not None:
            self._wake.set()
        await self._send_json(writer, 202, record, ctx)

    async def _list_jobs(self, writer, ctx: RequestContext, query) -> None:
        tenant = (query.get("tenant") or [None])[0]
        rows = [
            {"job_id": r["job_id"], "tenant": r["tenant"],
             "state": r["state"], "priority": r["priority"],
             "name": r["submission"]["name"], "seq": r["seq"]}
            for r in self.queue.jobs(tenant)
        ]
        await self._send_json(writer, 200, {"jobs": rows}, ctx)

    async def _get_job(self, writer, ctx: RequestContext,
                       job_id: str) -> None:
        record = self.queue.get(job_id)
        if record is None:
            await self._send_json(writer, 404, error_doc(
                "unknown-job", f"no job {job_id!r}"), ctx)
            return
        ctx.job_id = job_id
        ctx.tenant = record["tenant"]
        await self._send_json(writer, 200, record, ctx)

    async def _get_artifact(self, writer, ctx: RequestContext,
                            kind: str, key: str) -> None:
        meta = self.store.get_meta(kind, key) if kind in KINDS else None
        if meta is None:
            await self._send_json(writer, 404, error_doc(
                "unknown-artifact", f"no {kind} artifact {key[:16]}..."),
                ctx)
            return
        snapshot = self.store.get_json(kind, key)
        await self._send_json(writer, 200, {
            "kind": kind, "key": key, "meta": meta, "snapshot": snapshot},
            ctx)

    # ------------------------------------------------------------ #
    # metrics endpoints

    def _metric_gauges(self) -> dict:
        return {
            "queue": self.queue.depth(),
            "tenants": self.queue.depth_by_tenant(),
            "sse_active": self.metrics.sse_active
            if self.metrics is not None else 0,
            "worker": self.worker_liveness(),
        }

    async def _get_metrics_json(self, writer, ctx: RequestContext) -> None:
        if self.metrics is None:
            await self._send_json(writer, 404, error_doc(
                "metrics-disabled",
                "this instance runs with metrics_enabled=False"), ctx)
            return
        await self._send_json(
            writer, 200, self.metrics.snapshot(self._metric_gauges()), ctx)

    async def _get_metrics_text(self, writer, ctx: RequestContext) -> None:
        if self.metrics is None:
            await self._send_json(writer, 404, error_doc(
                "metrics-disabled",
                "this instance runs with metrics_enabled=False"), ctx)
            return
        await self._send_text(
            writer, 200,
            self.metrics.render_prometheus(self._metric_gauges()), ctx)

    @staticmethod
    def _sse_frame(entry: dict) -> bytes:
        data = json.dumps(entry, sort_keys=True, separators=(",", ":"))
        return (f"id: {entry['seq']}\n"
                f"event: {entry.get('event', 'message')}\n"
                f"data: {data}\n\n").encode()

    async def _stream_events(self, reader, writer, ctx: RequestContext,
                             job_id: str) -> None:
        record = self.queue.get(job_id)
        if record is None:
            await self._send_json(writer, 404, error_doc(
                "unknown-job", f"no job {job_id!r}"), ctx)
            return
        ctx.job_id = job_id
        ctx.tenant = record["tenant"]
        log = self.log_for(job_id)
        # Atomic snapshot + subscribe: replay covers seq <= last, the
        # subscription everything after -- nothing dropped, nothing
        # doubled across the handoff.
        snapshot, queue = log.snapshot_and_subscribe()
        if self.metrics is not None:
            self.metrics.sse_opened()
        ctx.status = 200
        # The protocol is one-request-per-connection, so after the
        # request is parsed the client sends nothing more: any read
        # completing (EOF or stray bytes) means the client went away.
        # Racing it against the subscription is what lets a disconnect
        # tear the stream down *now* instead of on the next event.
        eof_task = asyncio.ensure_future(reader.read(1))
        get_task = None
        try:
            writer.write((f"HTTP/1.1 200 OK\r\n"
                          f"Content-Type: text/event-stream\r\n"
                          f"Cache-Control: no-cache\r\n"
                          f"{RESPONSE_TRACE_HEADER}: {ctx.trace_id}\r\n"
                          f"Connection: close\r\n\r\n").encode())
            last = -1
            done = False
            for entry in snapshot:
                writer.write(self._sse_frame(entry))
                last = entry["seq"]
                done = done or is_terminal(entry)
            await writer.drain()
            while not done:
                if get_task is None:
                    get_task = asyncio.ensure_future(queue.get())
                finished, _ = await asyncio.wait(
                    {get_task, eof_task},
                    return_when=asyncio.FIRST_COMPLETED)
                if eof_task in finished:
                    break              # client disconnected mid-stream
                entry = get_task.result()
                get_task = None
                if entry["seq"] <= last:
                    continue
                writer.write(self._sse_frame(entry))
                await writer.drain()
                last = entry["seq"]
                done = is_terminal(entry)
        finally:
            for task in (eof_task, get_task):
                if task is not None and not task.done():
                    task.cancel()
            log.unsubscribe(queue)
            if self.metrics is not None:
                self.metrics.sse_closed()


# ------------------------------------------------------------------ #
# embedding helpers

async def serve_forever(store: ArtifactStore,
                        config: ServeConfig | None = None) -> None:
    """Run a service until cancelled (the ``repro serve`` entry point)."""
    service = ServeService(store, config)
    await service.start()
    try:
        async with service.server:
            await service.server.serve_forever()
    finally:
        await service.shutdown()


class BackgroundServer:
    """A service on its own thread + loop (tests, the load generator)."""

    def __init__(self, service: ServeService, loop, thread, stop_event):
        self.service = service
        self._loop = loop
        self._thread = thread
        self._stop_event = stop_event

    @property
    def base_url(self) -> str:
        return f"http://{self.service.config.host}:{self.service.port}"

    def stop(self, timeout: float = 10.0) -> None:
        if self._thread.is_alive():
            self._loop.call_soon_threadsafe(self._stop_event.set)
            self._thread.join(timeout=timeout)


def start_in_background(store: ArtifactStore,
                        config: ServeConfig | None = None,
                        ready_timeout: float = 10.0) -> BackgroundServer:
    """Boot a service on a daemon thread; returns once it accepts."""
    ready = threading.Event()
    holder: dict = {}

    async def _main() -> None:
        service = ServeService(store, config)
        stop_event = asyncio.Event()
        await service.start()
        holder["service"] = service
        holder["loop"] = asyncio.get_running_loop()
        holder["stop_event"] = stop_event
        ready.set()
        try:
            await stop_event.wait()
        finally:
            await service.shutdown()

    def _runner() -> None:
        try:
            asyncio.run(_main())
        except Exception as exc:  # pragma: no cover - startup failure
            holder["error"] = exc
            ready.set()

    thread = threading.Thread(target=_runner, daemon=True,
                              name="repro-serve")
    thread.start()
    if not ready.wait(ready_timeout) or "error" in holder:
        raise RuntimeError(
            f"serve failed to start: {holder.get('error', 'timeout')}")
    return BackgroundServer(holder["service"], holder["loop"], thread,
                            holder["stop_event"])
