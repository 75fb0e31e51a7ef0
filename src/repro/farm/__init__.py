"""repro.farm -- parallel, artifact-cached experiment execution.

The farm models every experiment cell as a typed job in a dependency
graph (``build -> run``: the run job executes the build once, times
it on every flavour and analyzes the same run), runs the graph across a
``multiprocessing`` worker pool, and persists every result in a
content-addressed on-disk artifact store keyed by deterministic
fingerprints.  Warm re-runs are pure cache hits; a crashed or timed-out
worker fails only its cell, never the sweep.

Layers (each its own module):

=================  ====================================================
module             responsibility
=================  ====================================================
``fingerprint``    deterministic digests of sources and configurations
``store``          content-addressed artifact store with LRU eviction
``snapshots``      SimResult/TraceAnalysis <-> ``repro.metrics/1`` JSON
``jobs``           typed job specs, the cell planner, job execution
``scheduler``      the worker pool: timeouts, retries, crash recovery,
                   span threading, per-job resource accounting, and the
                   live-status heartbeat
``progress``       live one-line progress sink for farm events
``ledger``         persistent ``repro.ledger/1`` run manifests, drift
                   comparison, Chrome-trace export
``top``            the ``repro farm top`` live dashboard
``api``            store-backed ``analysis_for``/``sim_for`` used by
                   :mod:`repro.experiments.common`
=================  ====================================================

See docs/experiments.md for the job graph, fingerprinting and
invalidation rules, and failure semantics; docs/observability.md for
span tracing, the run ledger, and ``farm top``/``history``/``timeline``.
"""

from repro.farm.fingerprint import FARM_SCHEMA, config_digest, fingerprint
from repro.farm.jobs import Cell, JobGraph, JobSpec, plan_jobs
from repro.farm.ledger import (
    LEDGER_SCHEMA,
    LedgerRun,
    RunDelta,
    compare_runs,
    find_run,
    list_runs,
    load_run,
    run_from_sweep,
    write_run,
)
from repro.farm.scheduler import FarmRunResult, JobOutcome, run_graph
from repro.farm.store import ArtifactStore, default_store_root

__all__ = [
    "ArtifactStore",
    "Cell",
    "FARM_SCHEMA",
    "FarmRunResult",
    "JobGraph",
    "JobOutcome",
    "JobSpec",
    "LEDGER_SCHEMA",
    "LedgerRun",
    "RunDelta",
    "compare_runs",
    "config_digest",
    "default_store_root",
    "find_run",
    "fingerprint",
    "list_runs",
    "load_run",
    "plan_jobs",
    "run_from_sweep",
    "run_graph",
    "write_run",
]
