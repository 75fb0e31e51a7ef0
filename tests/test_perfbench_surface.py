"""The ``src/`` surface that the repository benchmark (``perfbench/``)
reaches for by name.

``perfbench/layers.py`` patches public functions by module and
attribute name, ``perfbench/calibrate.py`` imports the trace reader and
writer and the scalar pipeline, and ``check_sweep`` reads each build's
stdout through ``farm.jobs.ensure_trace``. Its own CI smoke runs only
one workload, so a rename or a changed signature in ``src/`` would
surface only when the full benchmark runs. These checks read
``perfbench/`` and change nothing in it.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from repro.farm import jobs as farm_jobs
from repro.farm import scheduler
from repro.farm.store import ArtifactStore

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _repro_imports() -> list[tuple[str, str, str | None]]:
    """(file, module, name) of every ``repro`` import in perfbench."""
    found = []
    for path in sorted(PERFBENCH.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module \
                    and node.module.split(".")[0] == "repro":
                found += [(path.name, node.module, alias.name)
                          for alias in node.names]
            elif isinstance(node, ast.Import):
                found += [(path.name, alias.name, None)
                          for alias in node.names
                          if alias.name.split(".")[0] == "repro"]
    return found


@pytest.mark.parametrize(
    "source,module,name", _repro_imports(),
    ids=lambda value: value if isinstance(value, str) else "")
def test_every_repro_import_resolves(source, module, name):
    imported = importlib.import_module(module)
    if name is not None:
        assert hasattr(imported, name) or importlib.util.find_spec(
            f"{module}.{name}") is not None, f"{source}: {module}.{name}"


def test_calibrate_imports():
    """``calibrate.py`` imports ``record_trace``, ``replay_into`` and
    ``PipelineSimulator`` and calls them with these arguments."""
    from perfbench import calibrate

    inspect.signature(calibrate.record_trace).bind("program", "path", 1)
    inspect.signature(calibrate.replay_into).bind("program", "path",
                                                  object())
    pipe = calibrate.PipelineSimulator(None)
    inspect.signature(pipe.finalize).bind(memory_usage=0)
    inspect.signature(calibrate.CPU.run_trace).bind("cpu", pipe, 1)


def test_wrapped_entries_and_harness_runners_resolve():
    from perfbench.layers import WRAPPED, _harness_runners, _resolve

    entries = (*WRAPPED, *_harness_runners())
    assert len(entries) > len(WRAPPED)
    for owner_path, attr, _name, _describe in entries:
        assert callable(getattr(_resolve(owner_path), attr)), \
            f"{owner_path}.{attr}"


def test_scheduler_execute_job_takes_spec_and_store():
    inspect.signature(scheduler.execute_job).bind("spec", "store")


def test_store_tracer_is_assignable(tmp_path):
    store = ArtifactStore(str(tmp_path / "store"))
    assert store.tracer is None
    store.tracer = None


def test_ensure_trace_signature():
    """``check_sweep`` reads each build's stdout from the trace meta."""
    inspect.signature(farm_jobs.ensure_trace).bind(
        "store", "name", False, 1)
    inspect.signature(farm_jobs.manifest_key).bind("inline", False, "src")
    assert callable(farm_jobs.trace_key)
