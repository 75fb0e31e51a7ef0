"""The ``src/`` surface that the repository benchmark (``perfbench/``)
reaches for by name.

``perfbench/layers.py`` patches public functions by module and
attribute name, ``perfbench/calibrate.py`` imports the trace reader and
writer and the scalar pipeline, and ``check_sweep`` reads each build's
stdout through ``farm.jobs.ensure_trace``, and ``serve_mixed`` reads
each served program's stdout from the trace meta under ``trace_key``.
Its own CI smoke runs only one workload, so a rename, a changed
signature in ``src/`` or trace meta that a job no longer stores would
surface only when the full benchmark runs (as ``outputs_incorrect``).
These checks read ``perfbench/`` and change nothing in it.
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


def test_cold_sweep_stores_the_stdout_check_sweep_reads(tmp_path,
                                                         monkeypatch):
    """After a cold ``farm run``, ``check_sweep``'s ``ensure_trace``
    finds every build's trace meta stored, with the program's output,
    and executes nothing."""
    from repro.__main__ import main
    from repro.cpu.executor import CPU
    from repro.experiments import common
    from repro.workloads.suite import BENCHMARKS

    store_dir = str(tmp_path / "store")
    assert main(["farm", "run", "--jobs", "1", "--suite", "eqntott",
                 "--no-render", "--quiet", "--store", store_dir]) == 0
    runs = []
    run_trace = CPU.run_trace

    def counted(self, *args, **kwargs):
        runs.append(self)
        return run_trace(self, *args, **kwargs)

    monkeypatch.setattr(CPU, "run_trace", counted)
    store = ArtifactStore(store_dir)
    for software in (False, True):
        _, meta = farm_jobs.ensure_trace(store, "eqntott", software,
                                         common.MAX_INSTRUCTIONS)
        assert meta["stdout"] == BENCHMARKS["eqntott"].expected_output
    assert runs == []


def test_cold_served_request_stores_the_stdout_serve_mixed_reads(
        tmp_path):
    """A cold sim-only inline request, as ``serve_mixed`` sends it,
    stores the trace meta under the key its output check reads."""
    from repro.experiments.common import MACHINES
    from repro.serve.queue import PersistentQueue
    from repro.serve.schemas import (
        MAX_SERVE_INSTRUCTIONS,
        SERVE_JOB_SCHEMA_VERSION,
        normalize_submission,
    )
    from repro.serve.worker import JobEventLog, run_serve_job

    source = ("int main() { int i, s = 0;\n"
              "  for (i = 0; i < 10; i++) s += i;\n"
              "  print_int(s); print_char(10); return 0; }\n")
    submission, error = normalize_submission(
        {"schema": SERVE_JOB_SCHEMA_VERSION, "tenant": "t", "name": "inline",
         "source": source, "machines": ["base"]}, MACHINES, set())
    assert error is None and not submission["analysis"]
    record = PersistentQueue(tmp_path / "queue", quota=1).submit(submission)
    store = ArtifactStore(tmp_path / "store")
    doc = run_serve_job(store, record, JobEventLog(), MACHINES)
    assert doc["status"] == "done" and doc["summary"]["computed"] == 2
    manifest = store.get_meta("build", farm_jobs.manifest_key(
        "inline", False, source))
    meta = store.get_meta("trace", farm_jobs.trace_key(
        "inline", False, manifest["program_crc"], MAX_SERVE_INSTRUCTIONS,
        source))
    assert meta is not None and meta["stdout"] == "45\n"
