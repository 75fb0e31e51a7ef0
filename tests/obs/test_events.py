"""Event dataclasses, the bus, and the asyncio subscription bridge."""

import asyncio
import threading

import pytest

from repro.obs.events import (
    EVENT_TYPES,
    EventBus,
    FarmJobFailed,
    FarmJobFinished,
    FarmJobStarted,
    Syscall,
    subscribe_async,
)
from repro.obs.sinks import CollectingSink, NullSink


def started(worker, attempt):
    return FarmJobStarted(job_id="sim-1", job_kind="sim", worker=worker,
                          attempt=attempt)


class TestEvents:
    def test_as_dict_carries_kind_and_fields(self):
        event = FarmJobFailed(job_id="sim-1", job_kind="sim",
                              error="worker crashed", attempts=3)
        payload = event.as_dict()
        assert payload["event"] == "farm.failed"
        assert payload["job_id"] == "sim-1"
        assert payload["error"] == "worker crashed"

    def test_as_dict_field_order_is_declaration_order(self):
        event = started(1, 2)
        assert list(event.as_dict()) == ["event", "job_id", "job_kind",
                                         "worker", "attempt"]

    def test_event_types_registry_covers_kinds(self):
        assert EVENT_TYPES["farm.finished"] is FarmJobFinished
        assert EVENT_TYPES["syscall"] is Syscall
        for kind, cls in EVENT_TYPES.items():
            assert cls.kind == kind
        # the timing model's per-instruction hook is the flight ring
        assert "inst.retired" not in EVENT_TYPES

    def test_events_are_slotted(self):
        event = started(1, 2)
        with pytest.raises((AttributeError, TypeError)):
            event.arbitrary = 1


class TestEventBus:
    def test_fan_out_to_every_sink(self):
        one, two = CollectingSink(), CollectingSink()
        bus = EventBus([one, two])
        bus.emit(started(1, 2))
        assert len(one.events) == len(two.events) == 1

    def test_attach_and_by_kind(self):
        bus = EventBus()
        sink = CollectingSink()
        bus.attach(sink)
        bus.emit(started(1, 2))
        bus.emit(Syscall(pc=4, service=10, name="exit"))
        assert [e.kind for e in sink.by_kind("syscall")] == ["syscall"]

    def test_close_tolerates_sinks_without_close(self):
        bus = EventBus([NullSink(), CollectingSink()])
        bus.close()  # must not raise

    def test_detach_stops_delivery(self):
        bus = EventBus()
        sink = CollectingSink()
        bus.attach(sink)
        bus.emit(started(1, 2))
        bus.detach(sink)
        bus.emit(started(2, 3))
        assert len(sink.events) == 1

    def test_detach_unknown_sink_is_ignored(self):
        bus = EventBus([CollectingSink()])
        bus.detach(CollectingSink())  # never attached: no-op
        assert len(bus.sinks) == 1

    def test_concurrent_publishers_and_churn(self):
        """Emit from many threads while sinks attach/detach.

        The bus swaps an immutable sink tuple under a lock, so
        publishers never observe a half-updated list. Every event
        delivered to the stable sink must arrive exactly once.
        """
        bus = EventBus()
        stable = CollectingSink()
        bus.attach(stable)
        per_thread, threads = 200, 8
        stop = threading.Event()

        def publish(worker: int) -> None:
            for i in range(per_thread):
                bus.emit(started(worker, i))

        def churn() -> None:
            while not stop.is_set():
                sink = CollectingSink()
                bus.attach(sink)
                bus.detach(sink)

        churner = threading.Thread(target=churn)
        publishers = [threading.Thread(target=publish, args=(w,))
                      for w in range(threads)]
        churner.start()
        for thread in publishers:
            thread.start()
        for thread in publishers:
            thread.join()
        stop.set()
        churner.join()

        assert len(stable.events) == per_thread * threads
        for worker in range(threads):
            attempts = [e.attempt for e in stable.events if e.worker == worker]
            assert attempts == list(range(per_thread))  # per-thread order
        assert bus.sinks == (stable,)


class TestSubscribeAsync:
    def test_bridge_preserves_order(self):
        async def scenario():
            bus = EventBus()
            sub = subscribe_async(bus)
            for i in range(5):
                bus.emit(started(i, i))
            got = [await sub.get() for _ in range(5)]
            sub.close()
            return got

        events = asyncio.run(scenario())
        assert [e.worker for e in events] == list(range(5))

    def test_close_ends_iteration_and_detaches(self):
        async def scenario():
            bus = EventBus()
            sub = subscribe_async(bus)
            bus.emit(started(1, 1))
            sub.close()
            drained = []
            async for event in sub:
                drained.append(event)
            return bus.sinks, drained

        sinks, drained = asyncio.run(scenario())
        assert sinks == ()
        assert [e.worker for e in drained] == [1]  # buffered before close

    def test_get_returns_none_after_close(self):
        async def scenario():
            bus = EventBus()
            sub = subscribe_async(bus)
            sub.close()
            sub.close()  # idempotent
            return await sub.get()

        assert asyncio.run(scenario()) is None

    def test_events_from_worker_threads_cross_the_bridge(self):
        """The farm publishes from threads; asyncio consumes them all."""
        per_thread, threads = 100, 4

        async def scenario():
            bus = EventBus()
            sub = subscribe_async(bus)

            def publish(worker: int) -> None:
                for i in range(per_thread):
                    bus.emit(started(worker, i))

            workers = [threading.Thread(target=publish, args=(w,))
                       for w in range(threads)]
            for thread in workers:
                thread.start()
            await asyncio.to_thread(lambda: [t.join() for t in workers])
            got = [await sub.get() for _ in range(per_thread * threads)]
            sub.close()
            return got

        events = asyncio.run(scenario())
        assert len(events) == per_thread * threads
        for worker in range(threads):
            attempts = [e.attempt for e in events if e.worker == worker]
            assert attempts == list(range(per_thread))

    def test_emit_after_close_is_dropped(self):
        async def scenario():
            bus = EventBus()
            sub = subscribe_async(bus)
            sub.close()
            bus.emit(started(9, 9))
            return await sub.get()

        assert asyncio.run(scenario()) is None
