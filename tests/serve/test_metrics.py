"""Serve metrics: registry semantics, export endpoints, health liveness.

The export surface is pinned from both sides: ``GET /v1/metrics`` must
validate against ``repro.serve-metrics/1`` and ``GET /metrics`` must
pass the in-repo Prometheus text-format validator (which itself is
exercised against hand-broken documents here, so a validator regression
cannot silently bless a broken exposition).
"""

import http.client
import json
from urllib.parse import urlsplit

import pytest

from repro.analysis.reporting import validate_against_schema
from repro.farm.store import ArtifactStore
from repro.serve import client as serve_client
from repro.serve.metrics import (
    SERVE_METRICS_SCHEMA,
    SERVE_METRICS_SCHEMA_VERSION,
    ServeMetrics,
    render_prometheus,
    validate_prometheus_text,
)
from repro.serve.schemas import SERVE_JOB_SCHEMA_VERSION
from repro.serve.service import ServeConfig, start_in_background

SOURCE = """\
int main() {
    print_int(7);
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
    handle = start_in_background(
        store, ServeConfig(quota=2, worker_enabled=False))
    yield handle
    handle.stop()


class TestServeMetricsRegistry:
    def test_request_counts_and_route_fallback(self):
        metrics = ServeMetrics(clock=iter([0.0, 10.0]).__next__)
        metrics.record_request("POST /v1/jobs", 202, 0.01)
        metrics.record_request("POST /v1/jobs", 202, 0.02)
        metrics.record_request("/v2/madeup", 404, 0.001)  # not a template
        snapshot = metrics.snapshot()
        counters = snapshot["metrics"]["metrics"]
        assert counters["http.requests.POST /v1/jobs.202"]["count"] == 2
        assert counters["http.requests.OTHER.404"]["count"] == 1
        assert counters["http.latency.POST /v1/jobs"]["count"] == 2
        assert snapshot["meta"]["uptime_seconds"] == 10.0

    def test_job_accounting_warm_vs_cold(self):
        metrics = ServeMetrics()
        cold = {"status": "done", "queue_wait_seconds": 0.5,
                "summary": {"total": 3, "hits": 1, "computed": 2}}
        warm = {"status": "done", "queue_wait_seconds": 0.1,
                "summary": {"total": 3, "hits": 3, "computed": 0}}
        metrics.record_job(cold, 2.0)
        metrics.record_job(warm, 0.2)
        payload = metrics.snapshot()["metrics"]["metrics"]
        assert payload["jobs.completed.done"]["count"] == 2
        assert payload["jobs.e2e.cold"]["count"] == 1
        assert payload["jobs.e2e.warm"]["count"] == 1
        assert payload["jobs.queue_wait"]["count"] == 2
        assert payload["jobs.farm_cache"] == {"type": "ratio",
                                              "hits": 4, "total": 6}

    def test_throttles_are_per_tenant(self):
        metrics = ServeMetrics()
        metrics.record_throttle("alice")
        metrics.record_throttle("alice")
        metrics.record_throttle("team.red")  # dots must not split paths
        payload = metrics.snapshot()["metrics"]["metrics"]
        assert payload["tenants.alice.throttled"]["count"] == 2
        assert payload["tenants.team_red.throttled"]["count"] == 1

    def test_sse_gauge_floors_at_zero(self):
        metrics = ServeMetrics()
        metrics.sse_opened()
        metrics.sse_closed()
        metrics.sse_closed()  # spurious close must not go negative
        assert metrics.sse_active == 0

    def test_snapshot_validates_against_schema(self):
        metrics = ServeMetrics()
        metrics.record_request("GET /v1/health", 200, 0.001)
        snapshot = metrics.snapshot(
            gauges={"queue": {"queued": 0}, "tenants": {},
                    "sse_active": 0, "worker": {"alive": True}})
        assert snapshot["schema"] == SERVE_METRICS_SCHEMA_VERSION
        assert validate_against_schema(snapshot, SERVE_METRICS_SCHEMA) == []


class TestPrometheusRendering:
    def _snapshot(self):
        metrics = ServeMetrics()
        metrics.record_request("POST /v1/jobs", 202, 0.015)
        metrics.record_request("GET /metrics", 200, 0.002)
        metrics.record_job({"status": "done", "queue_wait_seconds": 0.01,
                            "summary": {"total": 3, "hits": 3,
                                        "computed": 0}}, 0.25)
        metrics.record_throttle("alice")
        metrics.sse_opened()
        return metrics.snapshot(
            gauges={"queue": {"queued": 1, "running": 0, "done": 2,
                              "failed": 0, "total": 3},
                    "tenants": {"alice": {"queued": 1, "running": 0,
                                          "done": 2, "failed": 0,
                                          "total": 3}},
                    "sse_active": 1,
                    "worker": {"enabled": True, "alive": True,
                               "last_heartbeat_age_seconds": 0.1,
                               "current_job": None,
                               "jobs_since_start": 3}})

    def test_rendered_text_passes_validator(self):
        text = render_prometheus(self._snapshot())
        assert validate_prometheus_text(text) == []

    def test_expected_families_present(self):
        text = render_prometheus(self._snapshot())
        for family in ("repro_serve_uptime_seconds",
                       "repro_serve_requests_total",
                       "repro_serve_request_duration_seconds",
                       "repro_serve_job_e2e_seconds",
                       "repro_serve_queue_wait_seconds",
                       "repro_serve_throttled_total",
                       "repro_serve_sse_active",
                       "repro_serve_queue_depth",
                       "repro_serve_worker_alive"):
            assert f"# TYPE {family} " in text, family
        assert 'route="POST /v1/jobs"' in text
        assert 'tenant="alice"' in text
        assert 'phase="warm"' in text

    def test_histograms_are_cumulative_with_inf(self):
        text = render_prometheus(self._snapshot())
        lines = [l for l in text.splitlines()
                 if l.startswith("repro_serve_queue_wait_seconds")]
        buckets = [l for l in lines if "_bucket{" in l]
        assert buckets, lines
        assert any('le="+Inf"' in l for l in buckets)
        values = [float(l.rsplit(" ", 1)[1]) for l in buckets]
        assert values == sorted(values)  # cumulative, non-decreasing
        assert any(l.startswith("repro_serve_queue_wait_seconds_sum ")
                   for l in lines)
        assert any(l.startswith("repro_serve_queue_wait_seconds_count ")
                   for l in lines)


class TestPrometheusValidator:
    """The validator must actually reject broken expositions."""

    def assert_rejects(self, text, fragment):
        problems = validate_prometheus_text(text)
        assert problems, f"expected a problem mentioning {fragment!r}"
        assert any(fragment in p for p in problems), problems

    def test_accepts_minimal_valid_document(self):
        text = ("# HELP x_total a counter\n"
                "# TYPE x_total counter\n"
                "x_total 3\n")
        assert validate_prometheus_text(text) == []

    def test_label_values_may_contain_braces(self):
        # route templates put "}" inside quoted label values
        text = ("# TYPE x counter\n"
                'x{route="GET /v1/jobs/{id}"} 1\n')
        assert validate_prometheus_text(text) == []

    def test_missing_trailing_newline(self):
        self.assert_rejects("# TYPE x counter\nx 1", "newline")

    def test_sample_before_type(self):
        self.assert_rejects("x_total 1\n# TYPE x_total counter\n",
                            "TYPE")

    def test_unparseable_value(self):
        self.assert_rejects("# TYPE x gauge\nx pancake\n", "value")

    def test_non_cumulative_histogram(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\n'
                'h_bucket{le="1"} 3\n'
                'h_bucket{le="+Inf"} 5\n'
                "h_sum 1\n"
                "h_count 5\n")
        self.assert_rejects(text, "cumulative")

    def test_histogram_without_inf_bucket(self):
        text = ("# TYPE h histogram\n"
                'h_bucket{le="0.1"} 5\n'
                "h_sum 1\n"
                "h_count 5\n")
        self.assert_rejects(text, "+Inf")


class TestMetricsEndpoints:
    def test_prometheus_endpoint_is_valid_and_typed(self, frozen_server):
        serve_client.get_health(frozen_server.base_url)
        parts = urlsplit(frozen_server.base_url)
        conn = http.client.HTTPConnection(parts.hostname, parts.port,
                                          timeout=30)
        try:
            conn.request("GET", "/metrics")
            response = conn.getresponse()
            text = response.read().decode()
            assert response.status == 200
            assert response.getheader("Content-Type") == \
                "text/plain; version=0.0.4; charset=utf-8"
        finally:
            conn.close()
        assert validate_prometheus_text(text) == []
        assert 'repro_serve_requests_total{route="GET /v1/health"' in text

    def test_json_endpoint_validates_and_counts_requests(
            self, frozen_server):
        serve_client.get_health(frozen_server.base_url)
        serve_client.submit(frozen_server.base_url, payload())
        status, doc = serve_client.get_metrics(frozen_server.base_url)
        assert status == 200
        assert validate_against_schema(doc, SERVE_METRICS_SCHEMA) == []
        counters = doc["metrics"]["metrics"]
        assert counters["http.requests.GET /v1/health.200"]["count"] >= 1
        assert counters["http.requests.POST /v1/jobs.202"]["count"] == 1
        assert doc["gauges"]["queue"]["queued"] == 1
        assert doc["gauges"]["tenants"]["alice"]["queued"] == 1

    def test_throttled_submissions_count_per_tenant(self, frozen_server):
        for _ in range(2):
            serve_client.submit(frozen_server.base_url, payload())
        status, _ = serve_client.submit(frozen_server.base_url, payload())
        assert status == 429
        serve_client.submit(frozen_server.base_url, payload(tenant="bob"))
        _, doc = serve_client.get_metrics(frozen_server.base_url)
        counters = doc["metrics"]["metrics"]
        assert counters["tenants.alice.throttled"]["count"] == 1
        assert "tenants.bob.throttled" not in counters
        assert counters["http.requests.POST /v1/jobs.429"]["count"] == 1

    def test_completed_job_lands_in_e2e_histograms(self, server):
        status, record = serve_client.submit(server.base_url, payload())
        assert status == 202
        serve_client.wait_job(server.base_url, record["job_id"])
        _, doc = serve_client.get_metrics(server.base_url)
        counters = doc["metrics"]["metrics"]
        assert counters["jobs.completed.done"]["count"] == 1
        assert counters["jobs.e2e.cold"]["count"] == 1
        assert counters["jobs.queue_wait"]["count"] == 1
        assert counters["jobs.farm_cache"]["total"] == 2

    def test_disabled_metrics_404s_both_endpoints(self, store):
        handle = start_in_background(
            store, ServeConfig(worker_enabled=False, metrics_enabled=False))
        try:
            status, doc = serve_client.get_metrics(handle.base_url)
            assert status == 404 and doc["error"] == "metrics-disabled"
            status, text = serve_client.request_text(handle.base_url,
                                                     "/metrics")
            assert status == 404
        finally:
            handle.stop()


class TestHealthLiveness:
    def test_live_worker_reports_alive(self, server):
        status, doc = serve_client.get_health(server.base_url)
        assert status == 200
        worker = doc["worker"]
        assert worker["enabled"] is True
        assert worker["alive"] is True
        assert worker["last_heartbeat_age_seconds"] < 5.0
        assert worker["jobs_since_start"] == 0

    def test_disabled_worker_reports_not_alive(self, frozen_server):
        _, doc = serve_client.get_health(frozen_server.base_url)
        assert doc["worker"]["enabled"] is False
        assert doc["worker"]["alive"] is False

    def test_jobs_since_start_advances(self, server):
        status, record = serve_client.submit(server.base_url, payload())
        assert status == 202
        serve_client.wait_job(server.base_url, record["job_id"])
        _, doc = serve_client.get_health(server.base_url)
        assert doc["worker"]["jobs_since_start"] == 1
        assert doc["worker"]["current_job"] is None

    def test_health_breaks_queue_down_per_tenant(self, frozen_server):
        serve_client.submit(frozen_server.base_url, payload())
        serve_client.submit(frozen_server.base_url,
                            payload(tenant="bob"))
        _, doc = serve_client.get_health(frozen_server.base_url)
        tenants = doc["queue"]["tenants"]
        assert tenants["alice"]["queued"] == 1
        assert tenants["bob"]["queued"] == 1
        assert json.dumps(tenants)  # stays JSON-serializable
