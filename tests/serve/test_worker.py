"""Serve worker: planning, execution, content-addressed sharing, and
the job event log's asyncio subscribers."""

import asyncio
import sys
import threading

import pytest

from repro.experiments.common import MACHINES
from repro.farm.jobs import execute_job
from repro.farm.store import ArtifactStore
from repro.serve.queue import PersistentQueue
from repro.serve.schemas import SERVE_JOB_SCHEMA_VERSION, normalize_submission
from repro.serve.worker import (
    JobEventLog,
    normalized_events,
    plan_serve_graph,
    run_serve_job,
)
from repro.workloads.suite import BENCHMARKS

SOURCE = """\
int data[16];
int acc = 0;

int main() {
    int i;
    for (i = 0; i < 16; i++) {
        data[i] = i * 3;
    }
    for (i = 0; i < 16; i++) {
        acc = acc + data[i];
    }
    print_str("acc=");
    print_int(acc);
    print_char(10);
    return 0;
}
"""


def normalized(payload: dict) -> dict:
    submission, error = normalize_submission(payload, MACHINES,
                                             set(BENCHMARKS))
    assert error is None, error
    return submission


def inline_payload(**overrides) -> dict:
    payload = {
        "schema": SERVE_JOB_SCHEMA_VERSION,
        "tenant": "alice",
        "source": SOURCE,
        "machines": ["base"],
    }
    payload.update(overrides)
    return payload


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


def queue_record(tmp_path, payload: dict) -> dict:
    queue = PersistentQueue(tmp_path / "queue", quota=8)
    return queue.submit(normalized(payload))


class TestPlanning:
    def test_inline_source_graph(self):
        graph = plan_serve_graph(normalized(inline_payload()), MACHINES)
        kinds = sorted(spec.kind for spec in graph.jobs.values())
        assert kinds == ["build", "run"]
        assert not graph.jobs["run:inline"].analysis
        assert all(spec.source == SOURCE for spec in graph.jobs.values())

    def test_benchmark_graph_carries_no_source(self):
        graph = plan_serve_graph(
            normalized({"schema": SERVE_JOB_SCHEMA_VERSION,
                        "tenant": "t", "benchmark": "compress"}),
            MACHINES)
        assert all(spec.source is None for spec in graph.jobs.values())
        assert all(spec.name == "compress" for spec in graph.jobs.values())

    def test_pathlike_names_are_sanitized(self, store):
        """A display name flows into job ids and worker scratch-file
        names; a path submitted as the name must not produce scratch
        paths in nonexistent directories (regression: the job that
        records the trace of a submission named "/tmp/prog.mc" failed
        on its scratch open). The run job records its meta now."""
        submission = normalized(inline_payload(name="/tmp/my prog.mc"))
        assert submission["name"] == "tmp-my-prog.mc"
        graph = plan_serve_graph(submission, MACHINES)
        run = graph.jobs["run:tmp-my-prog.mc"]
        execute_job(graph.jobs["build:tmp-my-prog.mc"], store)
        [key] = execute_job(run, store)
        assert store.has("sim", key)
        assert store.stats()["kinds"]["trace"]["count"] == 1

    def test_analysis_and_machines_fan_out(self):
        """Every requested flavour is one cell; all of them and the
        analysis share the build's one run job."""
        graph = plan_serve_graph(
            normalized(inline_payload(machines=["fac32", "base"],
                                      analysis=True)),
            MACHINES)
        kinds = sorted(spec.kind for spec in graph.jobs.values())
        assert kinds == ["build", "run"]
        assert set(graph.cell_jobs.values()) == {"run:inline"}
        assert len(graph.cell_jobs) == 3
        run = graph.jobs["run:inline"]
        assert [label for label, _ in run.machines] == ["base", "fac32"]
        assert run.analysis

    def test_single_flavour_keeps_its_job_id(self):
        graph = plan_serve_graph(normalized(inline_payload()), MACHINES)
        assert set(graph.jobs) == {"build:inline", "run:inline"}


class TestExecution:
    def test_cold_run_computes_and_returns_snapshots(self, store, tmp_path):
        record = queue_record(tmp_path, inline_payload())
        log = JobEventLog()
        doc = run_serve_job(store, record, log, MACHINES)
        assert doc["status"] == "done"
        assert doc["summary"]["computed"] == 2
        assert doc["summary"]["hits"] == 0
        snapshot = doc["results"]["machines"]["base"]
        assert snapshot["schema"] == "repro.metrics/1"
        # the run is in the ledger: served sweeps join farm history
        from repro.farm.ledger import find_run

        run = find_run(store, doc["run_id"])
        assert run is not None
        assert run.meta["serve"] is True
        assert run.meta["tenant"] == "alice"

    def test_grouped_sim_returns_every_machine(self, store, tmp_path):
        """One run job times both flavours; each machine's snapshot is
        read from its own key and equals a single-flavour submission's."""
        record = queue_record(tmp_path, inline_payload(
            machines=["base", "fac32"]))
        doc = run_serve_job(store, record, JobEventLog(), MACHINES)
        assert doc["status"] == "done"
        assert doc["summary"]["computed"] == 2
        assert sorted(doc["results"]["machines"]) == ["base", "fac32"]
        assert len({ref["key"] for ref in doc["artifacts"]}) == 2
        alone = run_serve_job(
            ArtifactStore(tmp_path / "alone"),
            queue_record(tmp_path / "q2", inline_payload(machines=["fac32"])),
            JobEventLog(), MACHINES)
        assert alone["results"]["machines"]["fac32"] == \
            doc["results"]["machines"]["fac32"]

    def test_warm_rerun_is_all_hits(self, store, tmp_path):
        first = queue_record(tmp_path, inline_payload())
        run_serve_job(store, first, JobEventLog(), MACHINES)
        second = queue_record(tmp_path / "q2", inline_payload(tenant="bob"))
        doc = run_serve_job(store, second, JobEventLog(), MACHINES)
        assert doc["summary"]["hits"] == doc["summary"]["total"] == 2
        assert doc["summary"]["computed"] == 0

    def test_different_sources_never_alias(self, store, tmp_path):
        """Two inline programs with the same opcode sequence (only
        immediates differ) must not share trace/sim artifacts.

        Regression: the program CRC hashes opcodes, not operands, and
        every inline job shares the name "inline" -- downstream keys
        must fold in the source digest or such pairs collide and one
        program is served the other's simulation results.
        """
        from repro.serve.loadgen import tiny_source

        docs = []
        for i, src in enumerate((tiny_source(0), tiny_source(1))):
            record = queue_record(tmp_path / f"q{i}",
                                  inline_payload(source=src))
            docs.append(run_serve_job(store, record, JobEventLog(),
                                      MACHINES))
        keys = [{(r["kind"], r["key"]) for r in doc["artifacts"]}
                for doc in docs]
        assert not (keys[0] & keys[1])
        assert all(doc["summary"]["hits"] == 0 for doc in docs)

    def test_same_source_shares_artifacts_across_names(self, store,
                                                       tmp_path):
        first = queue_record(tmp_path, inline_payload(name="mine"))
        doc1 = run_serve_job(store, first, JobEventLog(), MACHINES)
        second = queue_record(tmp_path / "q2",
                              inline_payload(name="mine", tenant="bob"))
        doc2 = run_serve_job(store, second, JobEventLog(), MACHINES)
        assert doc1["artifacts"] == doc2["artifacts"]

    def test_warm_logs_are_deterministic(self, store, tmp_path):
        run_serve_job(store, queue_record(tmp_path, inline_payload()),
                      JobEventLog(), MACHINES)
        logs = []
        for i in (2, 3):
            log = JobEventLog()
            run_serve_job(
                store,
                queue_record(tmp_path / f"q{i}", inline_payload()),
                log, MACHINES)
            logs.append(normalized_events(log.entries))
        assert logs[0] == logs[1]

    def test_failing_source_reports_failure(self, store, tmp_path):
        record = queue_record(
            tmp_path, inline_payload(source="int main( {{ broken"))
        log = JobEventLog()
        doc = run_serve_job(store, record, log, MACHINES)
        assert doc["status"] == "failed"
        assert log.entries[-1]["event"] == "serve.job.finished"
        assert log.entries[-1]["status"] == "failed"

    def test_gc_budget_never_evicts_fresh_results(self, store, tmp_path):
        record = queue_record(tmp_path, inline_payload())
        # a 1-byte budget would evict everything -- except the pinned
        # artifacts this very job just produced
        doc = run_serve_job(store, record, JobEventLog(), MACHINES,
                            gc_max_bytes=1)
        assert doc["status"] == "done"
        for ref in doc["artifacts"]:
            assert store.has(ref["kind"], ref["key"])
            assert not store.pinned(ref["kind"], ref["key"])


class TestEventLog:
    def test_seq_is_contiguous(self, store, tmp_path):
        log = JobEventLog()
        run_serve_job(store, queue_record(tmp_path, inline_payload()),
                      log, MACHINES)
        assert [e["seq"] for e in log.entries] == \
            list(range(len(log.entries)))

    def test_persisted_log_reloads(self, store, tmp_path):
        path = tmp_path / "events.jsonl"
        log = JobEventLog(path=path)
        run_serve_job(store, queue_record(tmp_path, inline_payload()),
                      log, MACHINES)
        reloaded = JobEventLog(path=path)
        assert reloaded.entries == log.entries

    def test_normalized_strips_timestamps(self):
        log = JobEventLog()
        log.append({"event": "x", "value": 1})
        entry = normalized_events(log.entries)[0]
        assert "ts" not in entry
        assert entry == {"seq": 0, "event": "x", "value": 1}


def drain(queue: asyncio.Queue) -> list:
    """Every item already on ``queue``, without waiting."""
    items = []
    while not queue.empty():
        items.append(queue.get_nowait())
    return items


async def next_item(queue: asyncio.Queue):
    """The queue's next item, failing rather than hanging."""
    return await asyncio.wait_for(queue.get(), timeout=30)


class TestSubscribers:
    """The live tail: appends from any thread reach each subscriber's
    queue on its own loop, in append order, until it unsubscribes."""

    def test_preserves_publication_order(self):
        async def scenario():
            log = JobEventLog()
            _, queue = log.snapshot_and_subscribe()
            for i in range(5):
                log.append({"event": "x", "i": i})
            got = [await next_item(queue) for _ in range(5)]
            log.unsubscribe(queue)
            return got

        assert [e["i"] for e in asyncio.run(scenario())] == list(range(5))

    def test_snapshot_then_tail_splits_at_subscription(self):
        async def scenario():
            log = JobEventLog()
            log.append({"event": "before"})
            snapshot, queue = log.snapshot_and_subscribe()
            log.append({"event": "after"})
            log.unsubscribe(queue)
            return snapshot, [await next_item(queue) for _ in range(2)]

        snapshot, tail = asyncio.run(scenario())
        assert [e["seq"] for e in snapshot] == [0]
        assert [e["seq"] for e in tail[:1]] == [1]
        assert tail[1] is None

    def test_unsubscribe_ends_queue_after_queued_entries(self):
        async def scenario():
            log = JobEventLog()
            _, queue = log.snapshot_and_subscribe()
            log.append({"event": "x"})
            log.unsubscribe(queue)
            drained = []
            while (entry := await next_item(queue)) is not None:
                drained.append(entry)
            return log.subscribers, drained

        subscribers, drained = asyncio.run(scenario())
        assert subscribers == {}
        assert [e["seq"] for e in drained] == [0]  # queued before close

    def test_unsubscribe_is_idempotent(self):
        async def scenario():
            log = JobEventLog()
            _, queue = log.snapshot_and_subscribe()
            log.unsubscribe(queue)
            log.unsubscribe(queue)
            log.unsubscribe(asyncio.Queue())  # never subscribed: no-op
            await asyncio.sleep(0)
            return drain(queue)

        assert asyncio.run(scenario()) == [None]

    def test_entries_from_worker_threads_cross_to_the_loop(self):
        per_thread, threads = 100, 4

        async def scenario():
            log = JobEventLog()
            _, queue = log.snapshot_and_subscribe()

            def publish(worker: int) -> None:
                for i in range(per_thread):
                    log.append({"event": "x", "worker": worker, "i": i})

            workers = [threading.Thread(target=publish, args=(w,))
                       for w in range(threads)]
            for thread in workers:
                thread.start()
            await asyncio.to_thread(lambda: [t.join() for t in workers])
            got = [await next_item(queue)
                   for _ in range(per_thread * threads)]
            log.unsubscribe(queue)
            return got

        entries = asyncio.run(scenario())
        assert [e["seq"] for e in entries] == list(range(len(entries)))
        for worker in range(threads):
            indices = [e["i"] for e in entries if e["worker"] == worker]
            assert indices == list(range(per_thread))

    def test_append_after_unsubscribe_is_dropped(self):
        async def scenario():
            log = JobEventLog()
            _, queue = log.snapshot_and_subscribe()
            log.unsubscribe(queue)
            log.append({"event": "x"})
            await asyncio.sleep(0)
            return drain(queue)

        assert asyncio.run(scenario()) == [None]

    def test_closed_loop_is_ignored(self):
        log = JobEventLog()

        async def subscribe():
            return log.snapshot_and_subscribe()[1]

        loop = asyncio.new_event_loop()
        queue = loop.run_until_complete(subscribe())
        loop.close()
        log.append({"event": "x"})  # must not raise
        log.unsubscribe(queue)
        assert log.subscribers == {}

    def test_subscribe_churn_under_concurrent_appends(self):
        """Subscribers come and go on the loop while threads append.

        Every subscriber's snapshot and tail together are exactly the
        seqs from 0 up to its last entry, and the stable subscriber
        sees every entry once.
        """
        per_thread, threads = 200, 4

        async def scenario():
            log = JobEventLog()
            _, stable = log.snapshot_and_subscribe()
            workers = [
                threading.Thread(target=lambda w=w: [
                    log.append({"event": "x", "worker": w, "i": i})
                    for i in range(per_thread)])
                for w in range(threads)]
            for thread in workers:
                thread.start()
            views = []
            while any(t.is_alive() for t in workers):
                snapshot, queue = log.snapshot_and_subscribe()
                await asyncio.sleep(0)
                log.unsubscribe(queue)
                tail = []
                while (entry := await next_item(queue)) is not None:
                    tail.append(entry)
                views.append(snapshot + tail)
            await asyncio.to_thread(
                lambda: [t.join(timeout=60) for t in workers])
            assert not any(t.is_alive() for t in workers)
            got = [await next_item(stable)
                   for _ in range(per_thread * threads)]
            subscribers = list(log.subscribers)
            log.unsubscribe(stable)
            return views, got, subscribers, stable

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            views, got, subscribers, stable = asyncio.run(scenario())
        finally:
            sys.setswitchinterval(interval)
        assert views
        for view in views:
            assert [e["seq"] for e in view] == list(range(len(view)))
        assert [e["seq"] for e in got] == list(range(per_thread * threads))
        assert subscribers == [stable]
