"""Determinism regression: a parallel farm run produces byte-identical
per-cell snapshots to a serial in-process run.

Both paths execute the same store-idempotent ``ensure_*`` functions and
encode snapshots with sorted keys and no wall-clock fields, so the
artifacts must match byte for byte -- any divergence means scheduling
order or process boundaries leaked into results.
"""

import pytest

from repro.farm import ArtifactStore, Cell, plan_jobs, run_graph
from repro.farm import api
from repro.farm.jobs import SNAPSHOT_PAYLOAD, resolve_keys
from repro.fac import FacConfig
from repro.pipeline.config import MachineConfig

MAX_INSTRUCTIONS = 10_000_000
MACHINES = {"base": MachineConfig(), "fac32": MachineConfig(fac=FacConfig())}
GRID = [
    Cell("analysis", name)
    for name in ("eqntott", "yacr2")
] + [
    Cell("sim", name, False, machine)
    for name in ("eqntott", "yacr2")
    for machine in ("base", "fac32")
]


@pytest.mark.slow
def test_parallel_run_matches_serial_bytes(tmp_path):
    serial_store = ArtifactStore(tmp_path / "serial")
    parallel_store = ArtifactStore(tmp_path / "parallel")

    # serial: the in-process API, one cell at a time
    for cell in GRID:
        if cell.kind == "analysis":
            api.analysis_for(cell.name, cell.software,
                             max_instructions=MAX_INSTRUCTIONS,
                             store=serial_store)
        else:
            api.sim_for(cell.name, cell.software, MACHINES[cell.machine],
                        label=cell.machine,
                        max_instructions=MAX_INSTRUCTIONS,
                        store=serial_store)

    # parallel: the worker pool
    graph = plan_jobs(GRID, MACHINES, MAX_INSTRUCTIONS)
    result = run_graph(graph, parallel_store, jobs=4, timeout=300)
    assert result.ok, result.summary()

    for cell in GRID:
        spec = graph.jobs[graph.cell_jobs[cell]]
        serial_keys = resolve_keys(spec, serial_store)
        parallel_keys = resolve_keys(spec, parallel_store)
        assert serial_keys == parallel_keys, cell
        key = graph.cell_key(cell, serial_keys)
        serial_bytes = serial_store.get_bytes(
            cell.kind, key, SNAPSHOT_PAYLOAD)
        parallel_bytes = parallel_store.get_bytes(
            cell.kind, key, SNAPSHOT_PAYLOAD)
        assert serial_bytes is not None, cell
        assert serial_bytes == parallel_bytes, cell
