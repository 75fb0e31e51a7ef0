"""SSE lifecycle: a client that vanishes mid-stream must not leak.

Regression for the disconnect path in ``_stream_events``: before the
EOF-race fix a subscriber on a still-running job stayed attached until
the *next* event arrived (forever, for a frozen worker), leaking its
queue in the job log's subscribers and pinning ``sse_active``.
"""

import http.client
import time
from urllib.parse import urlsplit

import pytest

from repro.farm.store import ArtifactStore
from repro.serve import client as serve_client
from repro.serve.schemas import SERVE_JOB_SCHEMA_VERSION
from repro.serve.service import ServeConfig, start_in_background

SOURCE = """\
int main() {
    print_int(1);
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
def frozen_server(store):
    """Worker disabled: streams on queued jobs never terminate."""
    handle = start_in_background(
        store, ServeConfig(quota=4, worker_enabled=False))
    yield handle
    handle.stop()


def open_stream(base_url: str, job_id: str):
    """Open an SSE stream and read past the replayed frames.

    Returns the *response* object: with ``Connection: close`` replies,
    ``http.client`` hands socket ownership to the response during
    ``getresponse()``, so closing the response (not the connection) is
    what actually sends the FIN the server's EOF race listens for.
    """
    parts = urlsplit(base_url)
    conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                      timeout=30)
    conn.request("GET", f"/v1/jobs/{job_id}/events")
    response = conn.getresponse()
    assert response.status == 200
    # one replayed frame exists (serve.job.queued); read its four lines
    lines = [response.readline() for _ in range(4)]
    assert lines[0].startswith(b"id:")
    return response


def wait_until(predicate, timeout: float = 10.0, poll: float = 0.05):
    deadline = time.monotonic() + timeout
    while not predicate():
        if time.monotonic() > deadline:
            return False
        time.sleep(poll)
    return True


class TestDisconnectMidStream:
    def test_subscriber_detaches_on_client_close(self, frozen_server):
        status, record = serve_client.submit(frozen_server.base_url,
                                             payload())
        assert status == 202
        job_id = record["job_id"]
        service = frozen_server.service

        stream = open_stream(frozen_server.base_url, job_id)
        log = service.logs[job_id]
        assert wait_until(lambda: len(log.subscribers) == 1)
        assert service.metrics.sse_active == 1

        # The job never finishes (frozen worker) and no further events
        # arrive, so only the EOF race can notice the hangup.
        stream.close()
        assert wait_until(lambda: len(log.subscribers) == 0), \
            "subscription leaked after client disconnect"
        assert wait_until(lambda: service.metrics.sse_active == 0)
        counters = service.metrics.snapshot()["metrics"]["metrics"]
        assert counters["sse.opened"]["count"] == 1
        assert counters["sse.closed"]["count"] == 1

    def test_repeated_churn_leaves_no_residue(self, frozen_server):
        _, record = serve_client.submit(frozen_server.base_url, payload())
        job_id = record["job_id"]
        service = frozen_server.service
        for _ in range(5):
            open_stream(frozen_server.base_url, job_id).close()
        log = service.logs[job_id]
        assert wait_until(lambda: len(log.subscribers) == 0
                          and service.metrics.sse_active == 0)

    def test_normal_completion_still_detaches(self, store):
        handle = start_in_background(store, ServeConfig(quota=4))
        try:
            _, record = serve_client.submit(handle.base_url, payload())
            serve_client.wait_job(handle.base_url, record["job_id"])
            events = serve_client.stream_events(handle.base_url,
                                                record["job_id"])
            assert events[-1]["event"] == "serve.job.finished"
            service = handle.service
            log = service.logs[record["job_id"]]
            assert wait_until(lambda: len(log.subscribers) == 0
                              and service.metrics.sse_active == 0)
        finally:
            handle.stop()
