"""Request-scoped tracing: header parsing plus end-to-end propagation.

The flagship test submits one job with a caller-chosen trace id and
then demands that the *same* id shows up on every observability
surface: the response header, the access log, the queue record, the
ledger run meta, ``repro serve trace``, and the Chrome export from
``repro farm timeline``.
"""

import http.client
import json
import time
from urllib.parse import urlsplit

import pytest

from repro.farm import ledger as ledger_mod
from repro.farm.store import ArtifactStore
from repro.serve import client as serve_client
from repro.serve.queue import PersistentQueue
from repro.serve.schemas import SERVE_JOB_SCHEMA_VERSION
from repro.serve.service import (
    AccessLog,
    ServeConfig,
    ServeService,
    start_in_background,
)
from repro.serve.tracing import (
    RESPONSE_TRACE_HEADER,
    TRACE_ID_HEADER,
    RequestContext,
    new_trace_id,
    parse_traceparent,
    resolve_trace_id,
)

SOURCE = """\
int main() {
    print_int(42);
    print_char(10);
    return 0;
}
"""

TRACE = "feedface" * 4  # a well-formed 32-hex trace id


def payload(**overrides) -> dict:
    doc = {
        "schema": SERVE_JOB_SCHEMA_VERSION,
        "tenant": "alice",
        "source": SOURCE,
        "machines": ["base"],
    }
    doc.update(overrides)
    return doc


class TestHeaderParsing:
    def test_traceparent_extracts_trace_field(self):
        value = f"00-{TRACE}-00f067aa0ba902b7-01"
        assert parse_traceparent(value) == TRACE
        assert parse_traceparent(value.upper()) == TRACE

    def test_traceparent_rejects_malformed_and_zero(self):
        assert parse_traceparent("") is None
        assert parse_traceparent("junk") is None
        assert parse_traceparent(f"00-{TRACE}-00f067aa0ba902b7") is None
        assert parse_traceparent(
            f"00-{'0' * 32}-00f067aa0ba902b7-01") is None

    def test_resolution_precedence(self):
        both = {"traceparent": f"00-{TRACE}-00f067aa0ba902b7-01",
                TRACE_ID_HEADER: "deadbeefcafe1234"}
        assert resolve_trace_id(both) == TRACE
        assert resolve_trace_id(
            {TRACE_ID_HEADER: "DEADBEEFCAFE1234"}) == "deadbeefcafe1234"

    def test_garbage_headers_mint_fresh(self):
        minted = resolve_trace_id({TRACE_ID_HEADER: "not hex!!"})
        assert len(minted) == 32 and int(minted, 16) >= 0
        assert resolve_trace_id({}) != resolve_trace_id({})  # unique

    def test_new_trace_id_shape(self):
        trace = new_trace_id()
        assert len(trace) == 32
        int(trace, 16)  # must be hex


class TestQueueRecords:
    def test_submission_stamps_trace_and_enqueued_at(self, tmp_path):
        queue = PersistentQueue(tmp_path / "q", quota=4)
        record = queue.submit({"tenant": "t", "name": "n", "priority": 0,
                               "machines": ["base"]},
                              trace_id=TRACE, ingress_seconds=0.001)
        assert record["trace_id"] == TRACE
        assert record["enqueued_at"] > 0
        assert record["ingress_seconds"] == 0.001

    def test_untraced_submission_mints(self, tmp_path):
        queue = PersistentQueue(tmp_path / "q", quota=4)
        record = queue.submit({"tenant": "t", "name": "n", "priority": 0,
                               "machines": ["base"]})
        assert len(record["trace_id"]) == 32

    def test_legacy_records_backfilled_on_reload(self, tmp_path):
        queue = PersistentQueue(tmp_path / "q", quota=4)
        record = queue.submit({"tenant": "t", "name": "n", "priority": 0,
                               "machines": ["base"]})
        # simulate a record written before tracing existed
        path = queue.jobs_dir / f"{record['job_id']}.json"
        doc = json.loads(path.read_text())
        del doc["trace_id"]
        del doc["enqueued_at"]
        path.write_text(json.dumps(doc))

        revived = PersistentQueue(tmp_path / "q", quota=4)
        reloaded = revived.get(record["job_id"])
        assert len(reloaded["trace_id"]) == 32
        assert reloaded["enqueued_at"] > 0  # re-stamped: clock restarted
        # and the backfill was persisted, not just in-memory
        assert "trace_id" in json.loads(path.read_text())


#: the keys of an access-log line, in order (docs/serving.md)
ACCESS_LOG_KEYS = ["ts", "event", "trace_id", "method", "route", "path",
                   "status", "duration_seconds", "tenant", "job_id"]


def request_fields(**overrides) -> dict:
    fields = {"event": "serve.http.request", "trace_id": "a" * 32,
              "method": "POST", "route": "POST /v1/jobs",
              "path": "/v1/jobs", "status": 202,
              "duration_seconds": 0.0123, "tenant": "alice",
              "job_id": "job-000001"}
    fields.update(overrides)
    return fields


class TestAccessLog:
    def test_one_line_per_request_with_ts_first(self, tmp_path):
        path = tmp_path / "access.jsonl"
        log = AccessLog(path, clock=lambda: 1700000000.5)
        log.write(request_fields())
        log.write(request_fields(status=404, route="OTHER"))
        log.close()
        lines = path.read_text().splitlines()
        assert lines[0] == (
            '{"ts":1700000000.5,"event":"serve.http.request",'
            '"trace_id":"aaaaaaaaaaaaaaaaaaaaaaaaaaaaaaaa","method":"POST",'
            '"route":"POST /v1/jobs","path":"/v1/jobs","status":202,'
            '"duration_seconds":0.0123,"tenant":"alice",'
            '"job_id":"job-000001"}')
        assert len(lines) == 2
        assert json.loads(lines[1])["status"] == 404

    def test_appends_across_instances(self, tmp_path):
        path = tmp_path / "access.jsonl"
        for _ in range(2):
            log = AccessLog(path)
            log.write(request_fields())
            log.close()
        assert len(path.read_text().splitlines()) == 2

    def test_close_is_idempotent(self, tmp_path):
        log = AccessLog(tmp_path / "a.jsonl")
        log.close()
        log.close()

    def test_service_writes_the_documented_keys(self, tmp_path):
        path = tmp_path / "access.jsonl"
        service = ServeService(ArtifactStore(tmp_path / "store"),
                               ServeConfig(access_log=str(path)))
        ctx = RequestContext(trace_id=TRACE, method="GET",
                             path="/v1/jobs/job-000001",
                             route="GET /v1/jobs/{id}", status=404,
                             started=time.monotonic())
        service._finish_request(ctx)
        service._finish_request(RequestContext())  # no response: no line
        service.access_log.close()
        lines = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(lines) == 1
        assert list(lines[0]) == ACCESS_LOG_KEYS
        assert lines[0]["trace_id"] == TRACE
        assert lines[0]["tenant"] == lines[0]["job_id"] == ""


class TestEndToEndPropagation:
    @pytest.fixture
    def store(self, tmp_path):
        return ArtifactStore(tmp_path / "store")

    @pytest.fixture
    def access_log(self, tmp_path):
        return tmp_path / "access.jsonl"

    @pytest.fixture
    def server(self, store, access_log):
        handle = start_in_background(
            store, ServeConfig(quota=4, access_log=str(access_log)))
        yield handle
        handle.stop()

    def submit_traced(self, server):
        """POST with a caller trace id; returns (record, echoed header)."""
        parts = urlsplit(server.base_url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                          timeout=30)
        try:
            conn.request("POST", "/v1/jobs",
                         body=json.dumps(payload()).encode(),
                         headers={"Content-Type": "application/json",
                                  TRACE_ID_HEADER: TRACE})
            response = conn.getresponse()
            record = json.loads(response.read().decode())
            assert response.status == 202, record
            return record, response.getheader(RESPONSE_TRACE_HEADER)
        finally:
            conn.close()

    def test_one_trace_id_on_every_surface(self, server, store,
                                           access_log, capsys):
        record, echoed = self.submit_traced(server)
        job_id = record["job_id"]

        # 1. the response echoes the resolved trace id
        assert echoed == TRACE

        record = serve_client.wait_job(server.base_url, job_id)
        assert record["state"] == "done"

        # 2. the queue record carries it (served back over the API)
        assert record["trace_id"] == TRACE
        assert record["result"]["trace_id"] == TRACE

        # 3. the access log line for the submission carries it
        lines = [json.loads(line)
                 for line in access_log.read_text().splitlines()]
        posts = [l for l in lines if l["route"] == "POST /v1/jobs"]
        assert posts and posts[0]["trace_id"] == TRACE
        assert posts[0]["status"] == 202
        assert posts[0]["job_id"] == job_id
        assert posts[0]["tenant"] == "alice"

        # 4. the ledger run meta names trace and job
        run = ledger_mod.find_run_by_job(store, job_id)
        assert run is not None
        assert run.meta["trace_id"] == TRACE
        assert run.meta["job_id"] == job_id

        # 5. the span tree is rooted in a request span with the trace
        roots = [s for s in run.spans if s["parent_id"] is None]
        assert [s["name"] for s in roots] == ["request"]
        root = roots[0]
        assert root["attrs"]["trace_id"] == TRACE
        assert root["attrs"]["serve_job_id"] == job_id
        children = {s["name"] for s in run.spans
                    if s["parent_id"] == root["span_id"]}
        assert "queue.wait" in children
        assert "ingress" in children
        assert "sweep" in children
        # the root is backdated to ingress start: earliest in the run
        assert root["t0"] == min(s["t0"] for s in run.spans)

        # 6. `repro serve trace` shows the same story
        from repro.__main__ import main

        assert main(["serve", "trace", job_id,
                     "--store", str(store.root), "--json"]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["trace_id"] == TRACE
        assert doc["run_id"] == run.run_id
        span_names = {s["name"] for s in doc["spans"]}
        assert {"request", "queue.wait", "sweep"} <= span_names

        assert main(["serve", "trace", job_id,
                     "--store", str(store.root)]) == 0
        text = capsys.readouterr().out
        assert f"trace_id: {TRACE}" in text
        assert "queue wait:" in text

        # 7. the Chrome export from `farm timeline` carries it too
        chrome_path = store.root / "trace.json"
        assert main(["farm", "timeline", run.run_id,
                     "--store", str(store.root),
                     "--chrome", str(chrome_path)]) == 0
        chrome = json.loads(chrome_path.read_text())
        request_slices = [e for e in chrome["traceEvents"]
                          if e.get("args", {}).get("trace_id") == TRACE]
        assert any(e["name"] == "request" for e in request_slices)

    def test_traceparent_header_also_propagates(self, server):
        trace = "ab" * 16
        status, record = serve_client.submit(
            server.base_url, payload(),
            headers={"traceparent": f"00-{trace}-00f067aa0ba902b7-01"})
        assert status == 202
        assert record["trace_id"] == trace

    def test_untraced_submission_still_fully_traced(self, server, store):
        status, record = serve_client.submit(server.base_url, payload())
        assert status == 202
        trace = record["trace_id"]
        assert len(trace) == 32
        record = serve_client.wait_job(server.base_url, record["job_id"])
        run = ledger_mod.find_run_by_job(store, record["job_id"])
        assert run.meta["trace_id"] == trace

    def test_sse_stream_not_perturbed_by_trace_ids(self, server):
        """Two warm submissions with different trace ids stream alike."""
        from repro.serve.worker import normalized_events

        # prime the cache so both traced submissions run warm
        _, cold = serve_client.submit(server.base_url,
                                      payload(tenant="carol"))
        serve_client.wait_job(server.base_url, cold["job_id"])
        _, first = serve_client.submit(server.base_url, payload(),
                                       headers={TRACE_ID_HEADER: "aa" * 8})
        first = serve_client.wait_job(server.base_url, first["job_id"])
        _, second = serve_client.submit(
            server.base_url, payload(tenant="bob"),
            headers={TRACE_ID_HEADER: "bb" * 8})
        second = serve_client.wait_job(server.base_url, second["job_id"])
        events_a = serve_client.stream_events(server.base_url,
                                              first["job_id"])
        events_b = serve_client.stream_events(server.base_url,
                                              second["job_id"])

        def scrub(entries):
            return [{k: v for k, v in e.items()
                     if k not in ("job_id", "tenant", "name")}
                    for e in normalized_events(entries)]

        assert scrub(events_a) == scrub(events_b)


class TestLedgerNormalization:
    """Trace ids are identity, not behaviour: normalized lines agree."""

    def test_normalized_lines_scrub_trace_identity(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        handle = start_in_background(store, ServeConfig(quota=4))
        try:
            _, cold = serve_client.submit(handle.base_url,
                                          payload(tenant="carol"))
            serve_client.wait_job(handle.base_url, cold["job_id"])
            for trace in ("aa" * 16, "bb" * 16):
                status, record = serve_client.submit(
                    handle.base_url, payload(),
                    headers={TRACE_ID_HEADER: trace})
                assert status == 202
                serve_client.wait_job(handle.base_url, record["job_id"])
        finally:
            handle.stop()
        runs = ledger_mod.list_runs(store)
        assert len(runs) >= 2
        lines_a = ledger_mod.normalized_lines(runs[-2])
        lines_b = ledger_mod.normalized_lines(runs[-1])
        # trace identity is scrubbed to "X" ...
        assert "aa" * 16 not in "".join(lines_a)
        assert "bb" * 16 not in "".join(lines_b)
        # ... so two identical warm submissions normalize identically
        assert lines_a == lines_b
