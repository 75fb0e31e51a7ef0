"""Columnar-analysis throughput gate and micro-benchmarks.

The vectorized batch analyzer (:mod:`repro.analysis.batch`) must beat
the scalar record-replay analyzer by **>=10x** on the suite's largest
traces, measured end to end: trace decode plus the full analysis
(reference profile, both block-size prediction passes, caches, TLB).
The scalar engine's rate is recorded in
``benchmarks/analysis_baseline.json``; like ``sim_baseline.json`` the
file carries a host fingerprint, and on a different interpreter or
machine the gate re-measures the scalar engine -- the spec
``TraceAnalyzer`` fed by ``replay_into`` -- and re-records instead of
comparing apples to oranges. Delete the file to force re-recording.

The ``pytest-benchmark`` micro-benchmarks at the bottom report absolute
rates for both engines plus the standalone decode and analytical-model
sweep costs.
"""

from __future__ import annotations

import json
import platform
import time
from pathlib import Path

import pytest

from repro.analysis.batch import analyze_trace_columns
from repro.analysis.prediction import TraceAnalyzer, analyze_trace
from repro.cache.analytical import AnalyticalCacheModel
from repro.cpu.coltrace import decode_tracefile
from repro.cpu.tracefile import record_trace, replay_into
from repro.workloads import build_benchmark

BASELINE_PATH = Path(__file__).parent / "analysis_baseline.json"
BASELINE_SCHEMA = "repro.analysis-baseline/1"
#: The suite's largest traces (record count) -- the gate workloads.
WORKLOADS = ("compress", "tomcatv")
SPEEDUP_TARGET = 10.0
REPEATS = 3


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    """(program, trace path, record count) per gate workload."""
    root = tmp_path_factory.mktemp("columnar-gate")
    out = []
    for name in WORKLOADS:
        program = build_benchmark(name)
        path = str(root / f"{name}.fact.gz")
        records = record_trace(program, path)
        out.append((program, path, records))
    return out


def scalar_analysis(program, path):
    """The spec analyzer replaying one tracefile."""
    analyzer = TraceAnalyzer()
    replay_into(program, path, analyzer)
    return analyzer.result()


def analysis_rate(traced, engine: str) -> float:
    """Best-of-N analysis throughput (trace records/s), decode/replay
    included."""
    best = 0.0
    for __ in range(REPEATS):
        records = 0
        start = time.perf_counter()
        for program, path, count in traced:
            if engine == "records":
                scalar_analysis(program, path)
            else:
                analyze_trace(program, path)
            records += count
        elapsed = time.perf_counter() - start
        best = max(best, records / elapsed)
    return best


def record_baseline(traced) -> dict:
    payload = {
        "schema": BASELINE_SCHEMA,
        "workloads": list(WORKLOADS),
        "engine": "records",
        "records_per_second": analysis_rate(traced, "records"),
        "fingerprint": fingerprint(),
    }
    BASELINE_PATH.write_text(json.dumps(payload, indent=2, sort_keys=True)
                             + "\n")
    return payload


def scalar_baseline(traced) -> dict:
    """The scalar engine's recorded rate, re-measured off-host."""
    if BASELINE_PATH.exists():
        baseline = json.loads(BASELINE_PATH.read_text())
        if (baseline.get("schema") == BASELINE_SCHEMA
                and baseline.get("fingerprint") == fingerprint()
                and tuple(baseline.get("workloads", ())) == WORKLOADS):
            return baseline
    return record_baseline(traced)


def test_columnar_speedup_target(traced):
    baseline = scalar_baseline(traced)
    reference = baseline["records_per_second"]
    rate = analysis_rate(traced, "columnar")
    speedup = rate / reference
    assert speedup >= SPEEDUP_TARGET, (
        f"columnar analysis runs at {rate:.0f} records/s vs the scalar "
        f"baseline {reference:.0f} records/s ({speedup:.2f}x < "
        f"{SPEEDUP_TARGET}x target)")


# ------------------------------------------------------------------ #
# pytest-benchmark micro-benchmarks (absolute rates)

def test_columnar_analysis_throughput(benchmark, traced):
    program, path, count = traced[0]

    def run():
        return analyze_trace(program, path).instructions

    assert benchmark(run) == count


def test_scalar_analysis_throughput(benchmark, traced):
    program, path, count = traced[0]

    def run():
        return scalar_analysis(program, path).instructions

    assert benchmark(run) == count


def test_trace_decode_throughput(benchmark, traced):
    program, path, count = traced[0]

    def run():
        return decode_tracefile(program, path).count

    assert benchmark(run) == count


def test_batch_analyzer_throughput(benchmark, traced):
    """The analyzer alone, decode amortized out (the farm path: columns
    come from the coltrace artifact)."""
    program, path, count = traced[0]
    cols = decode_tracefile(program, path)

    def run():
        return analyze_trace_columns(program, cols).instructions

    assert benchmark(run) == count


def test_analytical_sweep_throughput(benchmark, traced):
    program, path, _ = traced[0]
    cols = decode_tracefile(program, path)
    eas = cols.ea[cols.is_mem]

    def run():
        # cold model each round: profile passes dominate, as in a sweep
        return AnalyticalCacheModel(eas).sweep()

    sweep = benchmark(run)
    assert len(sweep) == 5
