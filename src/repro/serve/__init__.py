"""Simulation-as-a-service on top of the experiment farm.

``repro serve`` wraps the farm's content-addressed
:class:`~repro.farm.store.ArtifactStore` and crash-isolated scheduler
in a long-running, stdlib-only asyncio HTTP/JSON service:

* ``POST /v1/jobs`` accepts ``repro.serve-job/1`` submissions -- a
  registered benchmark or inline MiniC source, a machine-flavour list,
  and an optional trace analysis -- onto a persistent on-disk priority
  queue with per-tenant quotas and fair (round-robin across tenants)
  scheduling that survives restarts.
* A worker bridge lowers each submission onto the farm's
  build -> sim (-> analysis) job graph and drives the existing
  scheduler, so served runs share one warm artifact cache with
  ``repro farm run`` (and with every other tenant: identical source
  text is one artifact, no matter who submitted it or what they
  called it).
* ``GET /v1/jobs/{id}/events`` streams the job's full ``farm.*`` /
  ``serve.*`` event log over Server-Sent Events -- replay-then-live,
  with per-job sequence numbers so not one event is dropped or
  duplicated across the handoff.
* Completed results are served straight from the store; spans and a
  ``repro.ledger/1`` manifest are recorded per job, so ``repro farm
  history`` / ``farm timeline`` cover served runs too.
* Every request carries a ``trace_id`` resolved at ingress
  (:mod:`repro.serve.tracing`), the whole instance is measured by a
  :class:`~repro.serve.metrics.ServeMetrics` registry exported at
  ``GET /metrics`` (Prometheus) and ``GET /v1/metrics``
  (``repro.serve-metrics/1``), and ``repro slo``
  (:mod:`repro.serve.slo`) gates burn rates and latency quantiles
  over those snapshots.

See docs/serving.md for the API reference and operations runbook.
"""

from repro.serve.metrics import (
    SERVE_METRICS_SCHEMA,
    SERVE_METRICS_SCHEMA_VERSION,
    ServeMetrics,
    render_prometheus,
    validate_prometheus_text,
)
from repro.serve.queue import PersistentQueue, QuotaExceeded
from repro.serve.schemas import (
    SERVE_ERROR_SCHEMA,
    SERVE_ERROR_SCHEMA_VERSION,
    SERVE_HEALTH_SCHEMA_VERSION,
    SERVE_JOB_SCHEMA,
    SERVE_JOB_SCHEMA_VERSION,
    error_doc,
    normalize_submission,
)
from repro.serve.service import ServeConfig, ServeService, start_in_background
from repro.serve.tracing import (
    RESPONSE_TRACE_HEADER,
    TRACE_ID_HEADER,
    TRACEPARENT_HEADER,
    new_trace_id,
    parse_traceparent,
    resolve_trace_id,
)
from repro.serve.worker import plan_serve_graph, run_serve_job

__all__ = [
    "PersistentQueue",
    "QuotaExceeded",
    "RESPONSE_TRACE_HEADER",
    "SERVE_ERROR_SCHEMA",
    "SERVE_ERROR_SCHEMA_VERSION",
    "SERVE_HEALTH_SCHEMA_VERSION",
    "SERVE_JOB_SCHEMA",
    "SERVE_JOB_SCHEMA_VERSION",
    "SERVE_METRICS_SCHEMA",
    "SERVE_METRICS_SCHEMA_VERSION",
    "ServeConfig",
    "ServeMetrics",
    "ServeService",
    "TRACE_ID_HEADER",
    "TRACEPARENT_HEADER",
    "error_doc",
    "new_trace_id",
    "normalize_submission",
    "parse_traceparent",
    "plan_serve_graph",
    "render_prometheus",
    "resolve_trace_id",
    "run_serve_job",
    "start_in_background",
    "validate_prometheus_text",
]
