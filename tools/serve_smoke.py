"""CI smoke for the serve subsystem (the ``serve-smoke`` workflow job).

Boots a service on an ephemeral port against ``--store``, drives a
small mixed load through the real HTTP surface, then asserts the
properties the job exists to guard:

1. a second identical submission is a **100% store hit** (the farm
   recomputes nothing for a repeated request),
2. every SSE stream was lossless and warm event logs deterministic,
3. a trace id submitted in the request header comes back in the queue
   record and the ledger run for that job,
4. ``GET /metrics`` is valid Prometheus text and ``GET /v1/metrics``
   validates against ``repro.serve-metrics/1``,
5. the worker reports alive on ``/v1/health``, and
6. the access log, written to ``<store>/access.jsonl``, has a line for
   every request the smoke made, each with exactly the documented
   keys, and carries the header-submitted trace id.

Finally it submits one more repeat and verifies the serve run landed in
the ledger, so ``repro farm history``/``farm timeline`` (run next by
the workflow) cover served traffic. The final metrics snapshot is
written to ``--metrics-out`` for the workflow's ``repro slo`` gate and
artifact upload. Exits non-zero on any violation; prints a one-line
JSON summary to stdout for the job log.

Usage::

    python tools/serve_smoke.py --store .repro-farm [--clients 4] \
        [--metrics-out serve-metrics.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO / "src"))

from repro.analysis.reporting import validate_against_schema  # noqa: E402
from repro.farm.ledger import find_run_by_job, list_runs  # noqa: E402
from repro.farm.store import ArtifactStore  # noqa: E402
from repro.serve import client as serve_client  # noqa: E402
from repro.serve.loadgen import make_submission, run_load  # noqa: E402
from repro.serve.metrics import (  # noqa: E402
    SERVE_METRICS_SCHEMA,
    validate_prometheus_text,
)
from repro.serve.service import ServeConfig, start_in_background  # noqa: E402
from repro.serve.tracing import TRACE_ID_HEADER  # noqa: E402

SMOKE_TRACE_ID = "cafe" * 8

#: the keys of an access-log line, in order (docs/serving.md)
ACCESS_LOG_KEYS = ["ts", "event", "trace_id", "method", "route", "path",
                   "status", "duration_seconds", "tenant", "job_id"]


def access_log_failures(lines: list[dict], load_jobs: int) -> list[str]:
    """What the access log misses of the smoke's own requests."""
    failures = []
    # per load job: a submit, at least one poll and two SSE streams;
    # then the traced repeat's submit and poll, and one request to each
    # metrics endpoint and to health
    made = {
        "POST /v1/jobs": load_jobs + 1,
        "GET /v1/jobs/{id}": load_jobs + 1,
        "GET /v1/jobs/{id}/events": 2 * load_jobs,
        "GET /metrics": 1,
        "GET /v1/metrics": 1,
        "GET /v1/health": 1,
    }
    routes = Counter(line.get("route") for line in lines)
    for route, count in made.items():
        if routes[route] < count:
            failures.append(f"access log has {routes[route]} {route!r} "
                            f"lines, expected at least {count}")
    for line in lines:
        if list(line) != ACCESS_LOG_KEYS:
            failures.append(f"access-log line keys {list(line)}")
            break
    if not any(line.get("trace_id") == SMOKE_TRACE_ID for line in lines):
        failures.append("access log lost the header-submitted trace id")
    return failures


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--store", default=".repro-farm", metavar="DIR")
    parser.add_argument("--clients", type=int, default=4)
    parser.add_argument("--warm-rounds", type=int, default=2)
    parser.add_argument("--metrics-out", default=None, metavar="FILE",
                        help="write the final repro.serve-metrics/1 "
                             "snapshot here (for `repro slo` and CI "
                             "artifact upload)")
    args = parser.parse_args(argv)

    store = ArtifactStore(args.store)
    access_log = Path(args.store) / "access.jsonl"
    access_log.unlink(missing_ok=True)
    server = start_in_background(
        store, ServeConfig(quota=args.clients * (args.warm_rounds + 2),
                           access_log=str(access_log)))
    metrics_doc = None
    try:
        stats = run_load(server.base_url, clients=args.clients,
                         warm_rounds=args.warm_rounds)

        failures = []
        if stats["warm"]["hit_ratio"] != 1.0:
            failures.append(
                f"repeat submissions not fully store-served: "
                f"hit ratio {stats['warm']['hit_ratio']}")
        if not stats["events_ok"]:
            failures.append("an SSE stream dropped or duplicated events")
        if not stats["deterministic"]:
            failures.append("warm event logs were not deterministic")

        # one more explicit repeat, traced end to end: 202 -> done ->
        # all hits -> its run resolvable in the ledger, carrying the
        # caller's trace id through record and run meta
        status, record = serve_client.submit(
            server.base_url, make_submission(0, "smoke"),
            headers={TRACE_ID_HEADER: SMOKE_TRACE_ID})
        if status != 202:
            failures.append(f"final submit rejected ({status}): {record}")
        else:
            record = serve_client.wait_job(server.base_url,
                                           record["job_id"], timeout=60)
            summary = record["result"]["summary"]
            if summary["hits"] != summary["total"]:
                failures.append(f"final repeat recomputed: {summary}")
            run_ids = {run.run_id for run in list_runs(store)}
            if record["result"]["run_id"] not in run_ids:
                failures.append(
                    f"serve run {record['result']['run_id']} "
                    f"missing from ledger")
            if record.get("trace_id") != SMOKE_TRACE_ID:
                failures.append(
                    f"queue record lost the trace id: "
                    f"{record.get('trace_id')!r}")
            run = find_run_by_job(store, record["job_id"])
            if run is None or run.meta.get("trace_id") != SMOKE_TRACE_ID:
                failures.append("ledger run meta lost the trace id")

        # export surface: Prometheus text + schema-valid JSON snapshot
        status_code, prom_text = serve_client.request_text(
            server.base_url, "/metrics")
        if status_code != 200:
            failures.append(f"/metrics returned {status_code}")
        else:
            problems = validate_prometheus_text(prom_text)
            for problem in problems[:5]:
                failures.append(f"/metrics invalid: {problem}")

        status_code, metrics_doc = serve_client.get_metrics(
            server.base_url)
        if status_code != 200:
            failures.append(f"/v1/metrics returned {status_code}")
            metrics_doc = None
        else:
            problems = validate_against_schema(metrics_doc,
                                               SERVE_METRICS_SCHEMA)
            for problem in problems[:5]:
                failures.append(f"/v1/metrics schema: {problem}")

        status_code, health = serve_client.get_health(server.base_url)
        if status_code != 200:
            failures.append(f"health endpoint returned {status_code}")
        elif not health.get("worker", {}).get("alive"):
            failures.append(f"worker not alive: {health.get('worker')}")
    finally:
        server.stop()

    log_lines = [json.loads(line)
                 for line in access_log.read_text().splitlines()]
    failures += access_log_failures(
        log_lines, stats["cold"]["count"] + stats["warm"]["count"])

    if args.metrics_out and metrics_doc is not None:
        with open(args.metrics_out, "w") as handle:
            json.dump(metrics_doc, handle, indent=2, sort_keys=True)

    print(json.dumps({
        "cold_p99": stats["cold"]["p99"],
        "warm_p99": stats["warm"]["p99"],
        "warm_hit_ratio": stats["warm"]["hit_ratio"],
        "events_ok": stats["events_ok"],
        "deterministic": stats["deterministic"],
        "queue": health.get("queue"),
        "worker": health.get("worker"),
        "shards": health.get("store", {}).get("shards", {}).get("kinds"),
        "metrics_out": args.metrics_out,
        "access_log_lines": len(log_lines),
        "failures": failures,
    }, indent=2))
    if failures:
        for failure in failures:
            print(f"serve-smoke FAILED: {failure}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
