"""Typed structured events and the bus that carries them.

Every event is a small dataclass with a class-level ``kind`` tag.
Producers (the functional CPU's syscalls, the farm scheduler, span
trackers, the serve layer) hold an optional :class:`EventBus` and guard
every emission with ``if obs is not None``, so a detached producer pays
one attribute test.

The timing model emits no events: its one per-instruction hook is the
flight-recorder ring (:mod:`repro.obs.flight`), and ``repro trace``
(:mod:`repro.obs.trace`) writes its ``inst.retired``, ``fac.*``,
``mem.access`` and ``branch`` records from ring entries rather than
from event objects.

Event taxonomy (full field reference in docs/observability.md):

==================  ====================================================
kind                meaning
==================  ====================================================
``syscall``         system call retired by the functional simulator
``farm.scheduled``  an experiment job entered the farm's job graph
``farm.started``    a farm job was dispatched to a worker (store miss)
``farm.finished``   a farm job completed (``cached`` = artifact hit)
``farm.failed``     a farm job failed permanently; the sweep continues
``farm.job.crashed``  a worker died mid-job (signal/OOM), reason attached
``farm.job.timeout``  a job attempt exceeded the per-job timeout
``farm.job.retry``    a crashed/timed-out job was requeued for another try
``span.start``      a hierarchical span opened (repro.obs.spans)
``span.end``        a span closed, with its status
``serve.http.request``  one HTTP request completed by ``repro serve``
==================  ====================================================
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, fields


class Event:
    """Base class: ``kind`` tag plus a cheap dict serializer."""

    kind = "event"
    __slots__ = ()

    def as_dict(self) -> dict:
        out = {"event": self.kind}
        for f in fields(self):
            out[f.name] = getattr(self, f.name)
        return out


@dataclass(slots=True)
class Syscall(Event):
    kind = "syscall"
    pc: int
    service: int
    name: str


# ------------------------------------------------------------------ #
# farm lifecycle events (repro.farm.scheduler)

@dataclass(slots=True)
class FarmJobScheduled(Event):
    """A job entered the farm's graph (before hit/miss is known)."""

    kind = "farm.scheduled"
    job_id: str
    job_kind: str       # build | trace | analysis | sim


@dataclass(slots=True)
class FarmJobStarted(Event):
    """A job was dispatched to a worker (store miss)."""

    kind = "farm.started"
    job_id: str
    job_kind: str
    worker: int         # worker index, -1 for inline execution
    attempt: int        # 1-based


@dataclass(slots=True)
class FarmJobFinished(Event):
    """A job completed: from the store (``cached``) or computed."""

    kind = "farm.finished"
    job_id: str
    job_kind: str
    cached: bool        # True = artifact-store hit, nothing ran


@dataclass(slots=True)
class FarmJobFailed(Event):
    """A job failed permanently (error, crash, timeout, or upstream)."""

    kind = "farm.failed"
    job_id: str
    job_kind: str
    error: str
    attempts: int


@dataclass(slots=True)
class FarmJobCrashed(Event):
    """A worker died mid-job (hard exit, signal, OOM kill).

    Emitted once per crashed *attempt*, before the scheduler decides
    between :class:`FarmJobRetry` and :class:`FarmJobFailed` -- so a
    downstream consumer can distinguish crash-then-recovered from
    crash-then-gave-up.
    """

    kind = "farm.job.crashed"
    job_id: str
    job_kind: str
    reason: str
    attempt: int        # the attempt that crashed (1-based)


@dataclass(slots=True)
class FarmJobTimeout(Event):
    """A job attempt exceeded the per-job timeout and was killed."""

    kind = "farm.job.timeout"
    job_id: str
    job_kind: str
    timeout: float      # the configured per-attempt budget, seconds
    attempt: int


@dataclass(slots=True)
class FarmJobRetry(Event):
    """A crashed/timed-out job was requeued for another attempt."""

    kind = "farm.job.retry"
    job_id: str
    job_kind: str
    reason: str
    next_attempt: int   # the attempt number the retry will run as


# ------------------------------------------------------------------ #
# hierarchical spans (repro.obs.spans)

@dataclass(slots=True)
class SpanStarted(Event):
    """A span opened; ``parent_id`` links the causal tree."""

    kind = "span.start"
    span_id: int
    parent_id: int | None
    name: str
    cat: str
    t0: float           # monotonic seconds


@dataclass(slots=True)
class SpanEnded(Event):
    kind = "span.end"
    span_id: int
    name: str
    t1: float
    status: str         # 'ok' | 'error' | ...


# --------------------------------------------------------------------- #
# serving-layer events


@dataclass(slots=True)
class HttpRequestServed(Event):
    """One HTTP request completed by ``repro serve`` (access-log line).

    ``route`` is the template ("GET /v1/jobs/{id}"), ``path`` the
    concrete URL path; ``tenant``/``job_id`` are empty strings when the
    request has neither.
    """

    kind = "serve.http.request"
    trace_id: str
    method: str
    route: str
    path: str
    status: int
    duration_seconds: float
    tenant: str
    job_id: str


#: kind -> event class, for sinks that reconstruct events.
EVENT_TYPES = {
    cls.kind: cls
    for cls in (
        Syscall,
        FarmJobScheduled, FarmJobStarted, FarmJobFinished, FarmJobFailed,
        FarmJobCrashed, FarmJobTimeout, FarmJobRetry,
        SpanStarted, SpanEnded,
        HttpRequestServed,
    )
}


class EventBus:
    """Fan-out from producers to sinks.

    A bus with no sinks is legal and nearly free, but the supported
    zero-overhead idiom is to pass ``obs=None`` to producers -- then not
    even the event objects are constructed.

    Subscription is thread-safe: ``attach``/``detach`` swap an immutable
    sink tuple under a lock while ``emit`` reads whatever tuple is
    current without locking, so the instrumented hot path pays nothing
    and a publisher mid-fan-out never observes a half-mutated sink list
    (it finishes the snapshot it started with). This is what lets the
    serve layer's SSE fan-out subscribe and unsubscribe while the farm's
    multiprocessing result pump is publishing from another thread.
    """

    __slots__ = ("sinks", "_lock")

    def __init__(self, sinks: list | tuple = ()):
        self.sinks = tuple(sinks)
        self._lock = threading.Lock()

    def attach(self, sink) -> None:
        with self._lock:
            self.sinks = self.sinks + (sink,)

    def detach(self, sink) -> None:
        """Remove ``sink`` (by identity); unknown sinks are ignored.

        A publisher that already entered ``emit`` may still deliver one
        final event to the detached sink -- consumers that need a hard
        cut-off (e.g. :func:`subscribe_async`) close on their own side.
        """
        with self._lock:
            self.sinks = tuple(s for s in self.sinks if s is not sink)

    def emit(self, event: Event) -> None:
        for sink in self.sinks:
            sink.handle(event)

    def close(self) -> None:
        for sink in self.sinks:
            close = getattr(sink, "close", None)
            if close is not None:
                close()


# ------------------------------------------------------------------ #
# asyncio bridge (repro.serve SSE fan-out)

#: Queue sentinel marking the end of an :class:`AsyncSubscription`.
_SUBSCRIPTION_CLOSED = object()


class _QueueBridgeSink:
    """Bus-side half of :func:`subscribe_async`.

    ``handle`` may be called from any thread (farm workers publish via
    the scheduler's result-pump thread); it hops onto the subscriber's
    event loop with ``call_soon_threadsafe``, the one asyncio entry
    point that is documented thread-safe. The queue is unbounded, so no
    event is ever dropped -- backpressure is the consumer's problem,
    which for SSE streaming is exactly right.
    """

    __slots__ = ("loop", "queue", "closed")

    def __init__(self, loop, queue):
        self.loop = loop
        self.queue = queue
        self.closed = False

    def handle(self, event) -> None:
        if self.closed:
            return
        try:
            self.loop.call_soon_threadsafe(self.queue.put_nowait, event)
        except RuntimeError:  # loop already closed; drop silently
            self.closed = True


class AsyncSubscription:
    """Queue-backed async view of an :class:`EventBus`.

    Iterate (``async for event in sub``) or call :meth:`get` until it
    returns ``None``; :meth:`close` detaches from the bus and terminates
    the iteration after every already-queued event has been consumed --
    close is a flush point, not a discard.
    """

    def __init__(self, bus: EventBus, sink: _QueueBridgeSink):
        self.bus = bus
        self._sink = sink
        self.queue = sink.queue

    async def get(self):
        """The next event, or ``None`` once closed and drained."""
        item = await self.queue.get()
        if item is _SUBSCRIPTION_CLOSED:
            return None
        return item

    def close(self) -> None:
        """Detach from the bus and end the iteration (idempotent)."""
        if self._sink.closed:
            return
        self.bus.detach(self._sink)
        self._sink.closed = True
        # Deliver the sentinel on the loop so it lands *after* any
        # events a concurrent publisher already scheduled.
        try:
            self._sink.loop.call_soon_threadsafe(
                self.queue.put_nowait, _SUBSCRIPTION_CLOSED)
        except RuntimeError:  # loop gone; nothing left to wake
            pass

    def __aiter__(self):
        return self

    async def __anext__(self):
        item = await self.get()
        if item is None:
            raise StopAsyncIteration
        return item


def subscribe_async(bus: EventBus, loop=None, queue=None) -> AsyncSubscription:
    """Subscribe to ``bus`` from asyncio code.

    Returns an :class:`AsyncSubscription` whose queue receives every
    event published on ``bus`` from *any* thread, in publication order
    per publisher, delivered on ``loop`` (default: the running loop).
    This is the supported way to couple the farm's thread-side event
    stream to an asyncio consumer (the serve layer's SSE fan-out)
    without racing the multiprocessing result pump.
    """
    import asyncio

    if loop is None:
        loop = asyncio.get_running_loop()
    if queue is None:
        queue = asyncio.Queue()
    sink = _QueueBridgeSink(loop, queue)
    bus.attach(sink)
    return AsyncSubscription(bus, sink)
