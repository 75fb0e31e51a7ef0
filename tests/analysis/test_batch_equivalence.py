"""Suite-wide columnar/scalar analysis equivalence.

For every benchmark in the suite, the vectorized batch analyzer
(``analyze_trace``) must produce a ``repro.metrics/1`` snapshot
*equal* to the scalar spec analyzer replaying the same tracefile
(``replay_into(..., TraceAnalyzer(...))``) at both paper block sizes.
This is the acceptance gate for the columnar path: any divergence in a
counter, miss ratio, failure-signal count, or reference-profile bucket
fails the test with the differing keys.
"""

import pytest

from repro.analysis.prediction import analyze_trace
from repro.cpu.tracefile import record_trace
from repro.farm.snapshots import analysis_to_snapshot
from repro.workloads import BENCHMARKS, build_benchmark
from tests.oracles import replay_analysis

pytestmark = pytest.mark.slow

BLOCK_SIZES = (16, 32)
MAX_INSTRUCTIONS = 10_000_000


@pytest.fixture(scope="module")
def trace_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("equiv-traces")


def _diff_keys(a: dict, b: dict, prefix="") -> list[str]:
    out = []
    for key in sorted(set(a) | set(b)):
        va, vb = a.get(key), b.get(key)
        if isinstance(va, dict) and isinstance(vb, dict):
            out.extend(_diff_keys(va, vb, f"{prefix}{key}."))
        elif va != vb:
            out.append(f"{prefix}{key}: {va!r} != {vb!r}")
    return out


@pytest.mark.parametrize("name", sorted(BENCHMARKS))
def test_snapshot_equality(name, trace_dir):
    program = build_benchmark(name)
    path = str(trace_dir / f"{name}.fact.gz")
    record_trace(program, path, max_instructions=MAX_INSTRUCTIONS)
    columnar = analyze_trace(program, path, block_sizes=BLOCK_SIZES)
    records = replay_analysis(program, path, block_sizes=BLOCK_SIZES)
    diffs = _diff_keys(analysis_to_snapshot(columnar),
                       analysis_to_snapshot(records))
    assert not diffs, f"{name}: columnar/scalar divergence:\n" + \
        "\n".join(diffs)


def test_snapshot_equality_with_software_support(trace_dir):
    """Software-supported builds flip access modes to 'p' (never
    speculated); the columnar analyzer must honour that lane."""
    program = build_benchmark("eqntott", software_support=True)
    path = str(trace_dir / "eqntott-ss.fact.gz")
    record_trace(program, path, max_instructions=MAX_INSTRUCTIONS)
    columnar = analyze_trace(program, path)
    records = replay_analysis(program, path)
    diffs = _diff_keys(analysis_to_snapshot(columnar),
                       analysis_to_snapshot(records))
    assert not diffs, "software-support divergence:\n" + "\n".join(diffs)


def test_per_pc_tables_equal(trace_dir):
    program = build_benchmark("compress")
    path = str(trace_dir / "compress-perpc.fact.gz")
    record_trace(program, path, max_instructions=MAX_INSTRUCTIONS)
    columnar = analyze_trace(program, path, per_pc=True)
    records = replay_analysis(program, path, per_pc=True)
    assert set(columnar.per_pc) == set(records.per_pc)
    for bs in columnar.per_pc:
        assert columnar.per_pc[bs] == records.per_pc[bs]

