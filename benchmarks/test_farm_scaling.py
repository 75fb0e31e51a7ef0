"""Farm acceptance harness: parallel speedup, warm-cache re-runs, crash
isolation, ledger completeness, and the span-overhead gate on a real
experiment grid.

The grid is 4 benchmarks x 4 machine flavours: 16 sim cells, timed by
one run job per benchmark (which executes its build once), each after
its build job. The speedup assertion compares a 4-worker pool against a single worker and
requires >= 2x on the same grid; on hosts without enough cores to make
that physically possible the speedup test skips (the cache and
isolation properties still run everywhere).
"""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.common import MACHINES, MAX_INSTRUCTIONS
from repro.farm import ArtifactStore, Cell, plan_jobs, run_graph
from repro.farm import ledger
from repro.obs.spans import SpanTracker

GRID_BENCHMARKS = ("eqntott", "yacr2", "espresso", "compress")
GRID_FLAVOURS = ("base", "1cyc", "fac16", "fac32")

SPEEDUP_FLOOR = 2.0
MIN_CORES = 4

#: Recording spans + writing the ledger may cost at most this fraction
#: of sweep wall time (best-of-N ratio, to shrug off machine noise).
SPAN_OVERHEAD_CEILING = 0.05
OVERHEAD_ROUNDS = 3


def grid_cells() -> list[Cell]:
    return [Cell("sim", name, False, flavour)
            for name in GRID_BENCHMARKS
            for flavour in GRID_FLAVOURS]


def build_graph():
    return plan_jobs(grid_cells(), MACHINES, MAX_INSTRUCTIONS)


def run_job(name: str) -> str:
    """The one run job timing every grid flavour of ``name``."""
    return f"run:{name}"


def test_grid_is_large_enough():
    graph = build_graph()
    assert len(GRID_BENCHMARKS) >= 4 and len(GRID_FLAVOURS) >= 4
    assert len(graph.cell_jobs) == 16
    # one run job per benchmark, each after its build
    assert len(graph.jobs) == 2 * len(GRID_BENCHMARKS)
    assert {graph.cell_jobs[cell] for cell in grid_cells()} == \
        {run_job(name) for name in GRID_BENCHMARKS}
    assert all(len(graph.jobs[run_job(name)].machines) ==
               len(GRID_FLAVOURS) for name in GRID_BENCHMARKS)


@pytest.mark.slow
def test_parallel_speedup_over_serial(tmp_path):
    cores = os.cpu_count() or 1
    if cores < MIN_CORES:
        pytest.skip(f"host has {cores} core(s); a >= {SPEEDUP_FLOOR}x "
                    f"pool speedup needs >= {MIN_CORES}")
    graph = build_graph()

    serial_store = ArtifactStore(tmp_path / "serial")
    start = time.monotonic()
    serial = run_graph(graph, serial_store, jobs=1, timeout=600)
    serial_elapsed = time.monotonic() - start
    assert serial.ok, serial.summary()

    parallel_store = ArtifactStore(tmp_path / "parallel")
    start = time.monotonic()
    parallel = run_graph(graph, parallel_store, jobs=4, timeout=600)
    parallel_elapsed = time.monotonic() - start
    assert parallel.ok, parallel.summary()

    speedup = serial_elapsed / parallel_elapsed
    print(f"\n[farm-scaling] serial {serial_elapsed:.1f}s, "
          f"4 workers {parallel_elapsed:.1f}s, speedup {speedup:.2f}x")
    assert speedup >= SPEEDUP_FLOOR, (
        f"4-worker sweep only {speedup:.2f}x faster than serial "
        f"({parallel_elapsed:.1f}s vs {serial_elapsed:.1f}s)")


@pytest.mark.slow
def test_warm_rerun_recomputes_nothing(tmp_path):
    graph = build_graph()
    store = ArtifactStore(tmp_path / "store")
    cold = run_graph(graph, store, jobs=2, timeout=600)
    assert cold.ok, cold.summary()
    assert cold.computed == len(graph.jobs)

    warm = run_graph(graph, store, jobs=2, timeout=600)
    assert warm.ok, warm.summary()
    assert warm.computed == 0, warm.summary()
    assert warm.hits == len(graph.jobs)
    assert warm.elapsed < cold.elapsed / 10


@pytest.mark.slow
def test_injected_crash_leaves_sweep_completed(tmp_path, monkeypatch):
    # kill every worker attempt of one build: its chain fails, the other
    # 3 benchmarks' run jobs (12 sim cells) all complete
    monkeypatch.setenv("REPRO_FARM_TEST_CRASH", "build:espresso")
    graph = build_graph()
    store = ArtifactStore(tmp_path / "store")
    result = run_graph(graph, store, jobs=2, timeout=600, retries=1)
    assert not result.ok
    failed_ids = {o.job_id for o in result.failed}
    assert failed_ids == {"build:espresso", run_job("espresso")}
    for name in GRID_BENCHMARKS:
        if name == "espresso":
            continue
        assert result.outcomes[run_job(name)].ok
        assert len(result.outcomes[run_job(name)].keys) == \
            len(GRID_FLAVOURS)


@pytest.mark.slow
def test_grid_ledger_accounts_for_every_job(tmp_path):
    """Acceptance: a full 4x4 sweep persists a repro.ledger/1 manifest
    whose span tree covers every job with no orphan spans."""
    graph = build_graph()
    store = ArtifactStore(tmp_path / "store")
    tracker = SpanTracker()
    result = run_graph(graph, store, jobs=4, timeout=600, tracker=tracker)
    assert result.ok, result.summary()

    run = ledger.run_from_sweep("grid-acceptance", graph, result, tracker)
    loaded = ledger.load_run(ledger.write_run(store, run))
    assert ledger.check_spans(loaded) == []
    assert set(loaded.jobs) == set(graph.jobs)
    job_spans = {s["attrs"]["job_id"] for s in loaded.spans
                 if s["cat"] == "job"}
    assert job_spans == set(graph.jobs)
    # every computed job also shipped back its worker-side execute span
    executes = {s["name"].removeprefix("execute:") for s in loaded.spans
                if s["cat"] == "execute"}
    assert executes == set(graph.jobs)
    for job in loaded.jobs.values():
        assert job["wall"] > 0 and job["max_rss"] > 0


@pytest.mark.slow
def test_span_overhead_within_bound(tmp_path):
    """Span recording + ledger persistence may cost at most 5% of sweep
    wall time. Measured on warm sweeps (the harshest case: no compute
    to hide behind), best-of-N per mode so scheduler jitter cancels."""
    graph = build_graph()
    store = ArtifactStore(tmp_path / "store")
    cold = run_graph(graph, store, jobs=2, timeout=600)
    assert cold.ok, cold.summary()

    def warm_sweep(with_spans: bool) -> float:
        start = time.monotonic()
        tracker = SpanTracker() if with_spans else None
        result = run_graph(graph, store, jobs=2, timeout=600,
                           tracker=tracker)
        if with_spans:
            ledger.write_run(store, ledger.run_from_sweep(
                "overhead-probe", graph, result, tracker))
        elapsed = time.monotonic() - start
        assert result.ok and result.hits == len(graph.jobs)
        return elapsed

    warm_sweep(False)  # page everything in before timing
    plain = min(warm_sweep(False) for _ in range(OVERHEAD_ROUNDS))
    traced = min(warm_sweep(True) for _ in range(OVERHEAD_ROUNDS))
    overhead = traced / plain - 1.0
    print(f"\n[farm-scaling] warm sweep {plain * 1000:.1f}ms plain, "
          f"{traced * 1000:.1f}ms with spans+ledger "
          f"({100 * overhead:+.1f}%)")
    assert traced <= plain * (1.0 + SPAN_OVERHEAD_CEILING), (
        f"span+ledger overhead {100 * overhead:.1f}% exceeds "
        f"{100 * SPAN_OVERHEAD_CEILING:.0f}% ceiling "
        f"({traced * 1000:.1f}ms vs {plain * 1000:.1f}ms)")
