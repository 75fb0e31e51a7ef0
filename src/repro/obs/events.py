"""Typed structured events and the bus that carries them.

Every event is a small dataclass with a class-level ``kind`` tag.
Producers (the functional CPU's syscalls, the serve layer) hold an
optional :class:`EventBus` and guard every emission with ``if obs is
not None``, so a detached producer pays one attribute test.

The farm's job lifecycle is not an event class: the scheduler records
it on its span tree, and :func:`repro.farm.scheduler.lifecycle_entries`
maps those spans to the ``farm.*`` entries the progress line and a
served job's SSE stream carry (docs/observability.md).

The timing engine emits no events: per-instruction timing is read from
its columns by the flight recorder (:mod:`repro.obs.flight`), and
``repro trace`` (:mod:`repro.obs.trace`) writes its ``inst.retired``,
``fac.*``, ``mem.access`` and ``branch`` records from recorder entries
rather than from event objects.

Event taxonomy (full field reference in docs/observability.md):

======================  ================================================
kind                    meaning
======================  ================================================
``syscall``             system call retired by the functional simulator
``serve.http.request``  one HTTP request completed by ``repro serve``
======================  ================================================
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
    for cls in (Syscall, HttpRequestServed)
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
    serve layer's SSE fan-out subscribe and unsubscribe on the event
    loop while the serve worker thread running a sweep publishes that
    job's lifecycle entries.
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

    ``handle`` may be called from any thread (the serve worker thread
    running a sweep, or the event loop itself); it hops onto the
    subscriber's event loop with ``call_soon_threadsafe``, the one
    asyncio entry point that is documented thread-safe. The queue is
    unbounded, so no event is ever dropped -- backpressure is the
    consumer's problem, which for SSE streaming is exactly right.
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
    This is the supported way to couple a thread-side publisher (the
    serve worker thread appending a sweep's lifecycle entries) to an
    asyncio consumer (the serve layer's SSE fan-out) without racing it.
    """
    import asyncio

    if loop is None:
        loop = asyncio.get_running_loop()
    if queue is None:
        queue = asyncio.Queue()
    sink = _QueueBridgeSink(loop, queue)
    bus.attach(sink)
    return AsyncSubscription(bus, sink)
