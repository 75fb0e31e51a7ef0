"""Serve HTTP API surface: SSE golden stream, quotas, restart, errors.

Each test boots a real service on an ephemeral port
(:func:`repro.serve.service.start_in_background`) against a per-test
store. The golden SSE streams pin the exact event sequence of one cold
inline submission, and of one whose build crashes on every attempt,
normalized of timestamps; regenerate after an intentional protocol
change with::

    REPRO_UPDATE_GOLDEN=1 PYTHONPATH=src python -m pytest \
        tests/serve/test_api.py -k golden
"""

import json
import os
from pathlib import Path

import pytest

from repro.analysis.reporting import validate_against_schema
from repro.farm.store import ArtifactStore
from repro.serve import client as serve_client
from repro.serve.schemas import (
    SERVE_ERROR_SCHEMA,
    SERVE_ERROR_SCHEMA_VERSION,
    SERVE_HEALTH_SCHEMA_VERSION,
    SERVE_JOB_SCHEMA_VERSION,
)
from repro.serve.service import ServeConfig, start_in_background
from repro.serve.worker import normalized_events

GOLDEN = Path(__file__).parent / "golden" / "sse_events.jsonl"
CRASH_GOLDEN = Path(__file__).parent / "golden" / "sse_events_crash.jsonl"

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


def payload(**overrides) -> dict:
    doc = {
        "schema": SERVE_JOB_SCHEMA_VERSION,
        "tenant": "alice",
        "source": SOURCE,
        "machines": ["base"],
    }
    doc.update(overrides)
    return doc


@pytest.fixture
def store(tmp_path):
    return ArtifactStore(tmp_path / "store")


@pytest.fixture
def server(store):
    handle = start_in_background(store, ServeConfig(quota=4))
    yield handle
    handle.stop()


@pytest.fixture
def frozen_server(store):
    """A service whose worker never runs: jobs stay queued."""
    handle = start_in_background(
        store, ServeConfig(quota=2, worker_enabled=False))
    yield handle
    handle.stop()


def submit_and_wait(server, doc, timeout: float = 120.0) -> dict:
    status, record = serve_client.submit(server.base_url, doc)
    assert status == 202, record
    return serve_client.wait_job(server.base_url, record["job_id"],
                                 timeout=timeout)


def assert_stream_matches(server, record, golden: Path) -> None:
    events = serve_client.stream_events(server.base_url, record["job_id"])
    got = [json.dumps(e, sort_keys=True)
           for e in normalized_events(events)]
    if os.environ.get("REPRO_UPDATE_GOLDEN"):
        golden.write_text("\n".join(got) + "\n")
    want = golden.read_text().splitlines()
    assert got == want


class TestGoldenSse:
    def test_cold_stream_matches_golden(self, server):
        record = submit_and_wait(server, payload())
        assert record["state"] == "done"
        assert_stream_matches(server, record, GOLDEN)

    def test_crashed_build_stream_matches_golden(self, server, monkeypatch):
        # every attempt of the build dies: one retry, then the build and
        # its run job fail and the job ends failed
        monkeypatch.setenv("REPRO_FARM_TEST_CRASH", "build:inline")
        record = submit_and_wait(server, payload())
        assert record["state"] == "failed"
        assert_stream_matches(server, record, CRASH_GOLDEN)

    def test_stream_has_no_gaps_or_duplicates(self, server):
        record = submit_and_wait(server, payload())
        events = serve_client.stream_events(server.base_url,
                                            record["job_id"])
        assert [e["seq"] for e in events] == list(range(len(events)))

    def test_two_streams_agree(self, server):
        record = submit_and_wait(server, payload())
        first = serve_client.stream_events(server.base_url,
                                           record["job_id"])
        second = serve_client.stream_events(server.base_url,
                                            record["job_id"])
        assert normalized_events(first) == normalized_events(second)

    def test_streaming_a_live_job_sees_everything(self, server):
        # subscribe before the job finishes: replay + live handoff
        status, record = serve_client.submit(server.base_url, payload())
        assert status == 202
        events = serve_client.stream_events(server.base_url,
                                            record["job_id"])
        assert events[0]["event"] == "serve.job.queued"
        assert events[-1]["event"] == "serve.job.finished"
        assert [e["seq"] for e in events] == list(range(len(events)))


class TestQuota:
    def test_quota_exhaustion_is_429(self, frozen_server):
        for _ in range(2):
            status, _ = serve_client.submit(frozen_server.base_url,
                                            payload())
            assert status == 202
        status, error = serve_client.submit(frozen_server.base_url,
                                            payload())
        assert status == 429
        assert error["schema"] == SERVE_ERROR_SCHEMA_VERSION
        assert error["error"] == "quota-exceeded"
        assert validate_against_schema(error, SERVE_ERROR_SCHEMA) == []

    def test_other_tenants_unaffected(self, frozen_server):
        for _ in range(2):
            serve_client.submit(frozen_server.base_url, payload())
        status, _ = serve_client.submit(frozen_server.base_url,
                                        payload(tenant="bob"))
        assert status == 202


class TestRestartPersistence:
    def test_queued_jobs_survive_and_run(self, store):
        frozen = start_in_background(
            store, ServeConfig(quota=4, worker_enabled=False))
        ids = []
        for _ in range(2):
            status, record = serve_client.submit(frozen.base_url, payload())
            assert status == 202
            ids.append(record["job_id"])
        frozen.stop()

        revived = start_in_background(store, ServeConfig(quota=4))
        try:
            for job_id in ids:
                record = serve_client.wait_job(revived.base_url, job_id,
                                               timeout=120)
                assert record["state"] == "done"
        finally:
            revived.stop()

    def test_event_log_replays_after_restart(self, store):
        first = start_in_background(store, ServeConfig(quota=4))
        record = submit_and_wait(first, payload())
        before = serve_client.stream_events(first.base_url,
                                            record["job_id"])
        first.stop()

        second = start_in_background(store, ServeConfig(quota=4))
        try:
            after = serve_client.stream_events(second.base_url,
                                               record["job_id"])
            assert after == before
        finally:
            second.stop()


class TestErrors:
    def assert_error(self, status, doc, want_status, want_code):
        assert status == want_status
        assert doc["schema"] == SERVE_ERROR_SCHEMA_VERSION
        assert doc["error"] == want_code
        assert validate_against_schema(doc, SERVE_ERROR_SCHEMA) == []

    def test_invalid_json_body(self, frozen_server):
        status, doc = serve_client.request_json(
            frozen_server.base_url, "POST", "/v1/jobs")
        self.assert_error(status, doc, 400, "invalid-json")

    def test_schema_violation(self, frozen_server):
        status, doc = serve_client.submit(
            frozen_server.base_url, {"schema": "bogus/9", "tenant": "t"})
        self.assert_error(status, doc, 400, "invalid-submission")
        assert any("schema" in problem for problem in doc["problems"])

    def test_benchmark_and_source_both_set(self, frozen_server):
        status, doc = serve_client.submit(
            frozen_server.base_url,
            payload(benchmark="compress", source=SOURCE))
        self.assert_error(status, doc, 400, "invalid-submission")

    def test_unknown_benchmark(self, frozen_server):
        doc = payload(benchmark="nonesuch")
        del doc["source"]
        status, doc = serve_client.submit(frozen_server.base_url, doc)
        self.assert_error(status, doc, 400, "unknown-benchmark")

    def test_unknown_machine(self, frozen_server):
        status, doc = serve_client.submit(
            frozen_server.base_url, payload(machines=["warp9"]))
        self.assert_error(status, doc, 400, "unknown-machine")

    def test_unknown_job(self, frozen_server):
        status, doc = serve_client.get_job(frozen_server.base_url,
                                           "job-999999")
        self.assert_error(status, doc, 404, "unknown-job")

    def test_unknown_route(self, frozen_server):
        status, doc = serve_client.request_json(
            frozen_server.base_url, "GET", "/v2/everything")
        self.assert_error(status, doc, 404, "not-found")


class TestHealth:
    def test_reports_schemas_store_and_queue(self, frozen_server):
        serve_client.submit(frozen_server.base_url, payload())
        status, doc = serve_client.get_health(frozen_server.base_url)
        assert status == 200
        assert doc["schema"] == SERVE_HEALTH_SCHEMA_VERSION
        assert doc["schemas"] == {
            "metrics": "repro.metrics/1",
            "ledger": "repro.ledger/1",
            "serve_job": "repro.serve-job/1",
            "serve_error": "repro.serve-error/1",
        }
        assert doc["queue"]["queued"] == 1
        assert doc["store"]["shards"]["levels"] == 2
        assert "uptime_seconds" in doc

    def test_serve_check_cli(self, tmp_path, capsys):
        from repro.__main__ import main

        assert main(["serve", "--check",
                     "--store", str(tmp_path / "store")]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["schema"] == SERVE_HEALTH_SCHEMA_VERSION
        assert doc["schemas"]["serve_job"] == SERVE_JOB_SCHEMA_VERSION


class TestWarmPath:
    def test_repeat_submission_is_all_hits(self, server):
        submit_and_wait(server, payload())
        record = submit_and_wait(server, payload(tenant="bob"))
        summary = record["result"]["summary"]
        assert summary["hits"] == summary["total"] == 2
        assert summary["computed"] == 0

    def test_artifact_endpoint_serves_from_store(self, server):
        record = submit_and_wait(server, payload())
        sim = [ref for ref in record["result"]["artifacts"]
               if ref["kind"] == "sim"][0]
        status, doc = serve_client.request_json(
            server.base_url, "GET",
            f"/v1/artifacts/{sim['kind']}/{sim['key']}")
        assert status == 200
        assert doc["snapshot"]["schema"] == "repro.metrics/1"
