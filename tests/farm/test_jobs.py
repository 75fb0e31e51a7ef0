"""Job-graph planning, key resolution, and store-idempotent execution."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.farm import Cell, plan_jobs, run_graph
from repro.farm import jobs as farm_jobs
from repro.farm.snapshots import analysis_to_snapshot, sim_to_snapshot
from repro.farm.store import ArtifactStore
from repro.fac import FacConfig
from repro.pipeline.config import MachineConfig
from tests.oracles import replay_analysis

REPO_ROOT = Path(__file__).resolve().parent.parent.parent
BENCH = "eqntott"
MAX_INSTRUCTIONS = 10_000_000
MACHINES = {"base": MachineConfig(), "fac32": MachineConfig(fac=FacConfig())}


class TestCell:
    def test_analysis_cell(self):
        cell = Cell("analysis", "compress")
        assert cell.machine is None and cell.software is False

    def test_sim_cell_needs_machine(self):
        with pytest.raises(ValueError, match="machine"):
            Cell("sim", "compress")

    def test_analysis_cell_rejects_machine(self):
        with pytest.raises(ValueError, match="machine"):
            Cell("analysis", "compress", machine="base")

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            Cell("trace", "compress")

    def test_cells_are_hashable_and_ordered(self):
        cells = {Cell("analysis", "b"), Cell("analysis", "a"),
                 Cell("analysis", "a")}
        assert len(cells) == 2
        assert sorted(cells)[0].name == "a"


class TestPlanning:
    def test_sim_job_executes_the_build(self):
        """A build with sim cells gets no trace job: its sim job
        depends on the build and records the trace, and the analysis
        depends on the sim job."""
        cells = {
            Cell("analysis", BENCH),
            Cell("sim", BENCH, False, "base"),
            Cell("sim", BENCH, False, "fac32"),
        }
        graph = plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)
        assert set(graph.jobs) == {
            f"build:{BENCH}", f"analysis:{BENCH}",
            f"sim:{BENCH}:base,fac32",
        }
        assert graph.jobs[f"sim:{BENCH}:base,fac32"].deps == \
            (f"build:{BENCH}",)
        assert graph.jobs[f"analysis:{BENCH}"].deps == \
            (f"sim:{BENCH}:base,fac32",)
        assert len(graph.cell_jobs) == 3

    def test_analysis_only_build_keeps_its_trace_job(self):
        cells = {Cell("analysis", BENCH), Cell("analysis", BENCH, True),
                 Cell("sim", BENCH, False, "base")}
        graph = plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)
        assert [job_id for job_id, spec in graph.jobs.items()
                if spec.kind == "trace"] == [f"trace:{BENCH}+sw"]
        assert graph.jobs[f"trace:{BENCH}+sw"].deps == \
            (f"build:{BENCH}+sw",)
        assert graph.jobs[f"analysis:{BENCH}+sw"].deps == \
            (f"trace:{BENCH}+sw",)
        assert graph.jobs[f"analysis:{BENCH}"].deps == \
            (f"sim:{BENCH}:base",)

    def test_one_sim_job_per_build(self):
        """Every flavour of a build lands on one sim job, its machines
        sorted by label; a lone flavour keeps the per-flavour id."""
        cells = {Cell("sim", BENCH, sw, label)
                 for sw in (False, True) for label in ("fac32", "base")}
        cells.add(Cell("sim", "compress", False, "fac32"))
        graph = plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)
        sims = {job_id: spec for job_id, spec in graph.jobs.items()
                if spec.kind == "sim"}
        assert set(sims) == {f"sim:{BENCH}:base,fac32",
                             f"sim:{BENCH}+sw:base,fac32",
                             "sim:compress:fac32"}
        assert sims[f"sim:{BENCH}:base,fac32"].machines == (
            ("base", MACHINES["base"]), ("fac32", MACHINES["fac32"]))
        assert graph.cell_jobs[Cell("sim", BENCH, True, "base")] == \
            f"sim:{BENCH}+sw:base,fac32"

    def test_source_reaches_every_job(self):
        graph = plan_jobs({Cell("sim", "inline", False, "base")},
                          MACHINES, MAX_INSTRUCTIONS, source="int main;")
        assert {spec.source for spec in graph.jobs.values()} == \
            {"int main;"}

    def test_software_build_is_distinct(self):
        cells = {Cell("analysis", BENCH), Cell("analysis", BENCH, True)}
        graph = plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)
        assert f"build:{BENCH}" in graph.jobs
        assert f"build:{BENCH}+sw" in graph.jobs
        assert len(graph.jobs) == 6

    def test_unknown_machine_fails_at_planning(self):
        with pytest.raises(KeyError):
            plan_jobs({Cell("sim", BENCH, False, "warp-drive")},
                      MACHINES, MAX_INSTRUCTIONS)


class TestKeys:
    def test_build_key_needs_no_store(self):
        assert farm_jobs.manifest_key(BENCH, False) != \
            farm_jobs.manifest_key(BENCH, True)

    def test_downstream_keys_wait_for_manifest(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        graph = plan_jobs({Cell("sim", BENCH, False, "base")},
                          MACHINES, MAX_INSTRUCTIONS)
        sim_spec = graph.jobs[f"sim:{BENCH}:base"]
        build_spec = graph.jobs[f"build:{BENCH}"]
        assert farm_jobs.resolve_keys(sim_spec, store) is None
        assert farm_jobs.resolve_keys(build_spec, store) is not None
        farm_jobs.ensure_manifest(store, BENCH, False)
        assert len(farm_jobs.resolve_keys(sim_spec, store)) == 1

    def test_sim_keys_differ_by_machine(self, tmp_path):
        crc = 0xDEADBEEF
        base = farm_jobs.sim_key(BENCH, False, crc, "base",
                                 MACHINES["base"], MAX_INSTRUCTIONS)
        fac = farm_jobs.sim_key(BENCH, False, crc, "fac32",
                                MACHINES["fac32"], MAX_INSTRUCTIONS)
        assert base != fac

    def test_max_instructions_in_every_downstream_key(self):
        crc = 1
        assert farm_jobs.trace_key(BENCH, False, crc, 1000) != \
            farm_jobs.trace_key(BENCH, False, crc, 2000)
        assert farm_jobs.analysis_key(BENCH, False, crc, 1000) != \
            farm_jobs.analysis_key(BENCH, False, crc, 2000)


class TestEnsure:
    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return ArtifactStore(tmp_path_factory.mktemp("jobs-store"))

    def test_manifest_carries_program_crc(self, store):
        meta = farm_jobs.ensure_manifest(store, BENCH, False)
        assert meta["program_crc"] > 0
        assert meta["schema"] == farm_jobs.FARM_SCHEMA

    def test_second_call_reads_the_store(self, store, monkeypatch):
        farm_jobs.ensure_analysis(store, BENCH, False, MAX_INSTRUCTIONS)
        farm_jobs.ensure_sims(store, BENCH, False,
                              (("base", MACHINES["base"]),),
                              MAX_INSTRUCTIONS)

        def boom(name, software):  # pragma: no cover - must not run
            raise AssertionError("recomputed a cached artifact")

        monkeypatch.setattr(farm_jobs, "build_program", boom)
        key_a, snap_a = farm_jobs.ensure_analysis(
            store, BENCH, False, MAX_INSTRUCTIONS)
        [(key_s, snap_s)] = farm_jobs.ensure_sims(
            store, BENCH, False, (("base", MACHINES["base"]),),
            MAX_INSTRUCTIONS)
        assert snap_a["metrics"]["profile.instructions"]["count"] > 0
        assert snap_s["metrics"]["sim.cycles"]["count"] > 0

    def test_trace_meta_matches_functional_run(self, store):
        key, meta = farm_jobs.ensure_trace(store, BENCH, False,
                                           MAX_INSTRUCTIONS)
        assert meta["instructions"] > 0
        assert meta["memory_usage"] > 0
        assert store.payload_path("trace", key, farm_jobs.TRACE_PAYLOAD)

    def test_execute_job_covers_all_kinds(self, store):
        graph = plan_jobs(
            {Cell("analysis", BENCH), Cell("sim", BENCH, False, "base")},
            MACHINES, MAX_INSTRUCTIONS)
        for spec in graph.jobs.values():
            keys = farm_jobs.execute_job(spec, store)
            assert farm_jobs.artifact_ready(spec, store) == keys

    def test_ensure_sims_computes_only_missing_flavours(self, tmp_path,
                                                        monkeypatch):
        """A grouped sim job over a half-warm store times only the cold
        flavour, under the key and with the bytes a lone job would, and
        its artifacts are ready only once every flavour is stored."""
        from repro.pipeline import replay

        store = ArtifactStore(tmp_path / "store")
        graph = plan_jobs({Cell("sim", BENCH, False, label)
                           for label in MACHINES},
                          MACHINES, MAX_INSTRUCTIONS)
        spec = graph.jobs[f"sim:{BENCH}:base,fac32"]
        [(base_key, base_snap)] = farm_jobs.ensure_sims(
            store, BENCH, False, spec.machines[:1], MAX_INSTRUCTIONS)
        assert farm_jobs.artifact_ready(spec, store) is None

        timed = []
        real = replay.time_live

        def counted(program, machines, *args, **kwargs):
            timed.extend(machines)
            return real(program, machines, *args, **kwargs)

        monkeypatch.setattr(replay, "time_live", counted)
        keys = farm_jobs.execute_job(spec, store)
        assert timed == [MACHINES["fac32"]]
        assert keys[0] == base_key
        assert farm_jobs.artifact_ready(spec, store) == keys
        assert store.get_json("sim", base_key) == base_snap
        alone = ArtifactStore(tmp_path / "alone")
        [(fac_key, fac_snap)] = farm_jobs.ensure_sims(
            alone, BENCH, False, spec.machines[1:], MAX_INSTRUCTIONS)
        assert keys[1] == fac_key
        assert store.get_json("sim", fac_key) == fac_snap

    def test_grouped_snapshots_match_the_pipeline(self, store):
        """Every flavour's snapshot from one grouped job equals the
        scalar PipelineSimulator's, fed by a run of the same build."""
        from repro.cpu.executor import CPU
        from repro.experiments import common
        from repro.pipeline.pipeline import PipelineSimulator

        machines = tuple(common.MACHINES.items())
        results = farm_jobs.ensure_sims(store, BENCH, True, machines,
                                        MAX_INSTRUCTIONS)
        program = farm_jobs.build_program(BENCH, True)
        for (label, machine), (_, snapshot) in zip(machines, results):
            pipe = PipelineSimulator(machine)
            cpu = CPU(program)
            cpu.run_trace(pipe, MAX_INSTRUCTIONS)
            oracle = sim_to_snapshot(
                pipe.finalize(memory_usage=cpu.memory_usage), meta={
                    "cell": "sim",
                    "name": BENCH,
                    "software_support": True,
                    "machine": label,
                    "max_instructions": MAX_INSTRUCTIONS,
                })
            assert snapshot == oracle, label

    def test_execute_unknown_kind_rejected(self, store):
        spec = farm_jobs.JobSpec(job_id="x", kind="mystery", name=BENCH,
                                 software=False,
                                 max_instructions=MAX_INSTRUCTIONS)
        with pytest.raises(ValueError, match="mystery"):
            farm_jobs.execute_job(spec, store)


class TestOneExecution:
    """A cold sim job executes its build once, live: the run that times
    the flavours also records the trace columns. A sim job that finds
    the trace stored executes the build live with no recorder."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Counts of live executions and of trace replays."""
        from repro.cpu.executor import CPU
        from repro.pipeline import replay

        counts = {"run_trace": 0, "replay_into": 0}
        run_trace, replay_into = CPU.run_trace, replay.replay_into

        def counted_run(self, *args, **kwargs):
            counts["run_trace"] += 1
            return run_trace(self, *args, **kwargs)

        def counted_replay(*args, **kwargs):
            counts["replay_into"] += 1
            return replay_into(*args, **kwargs)

        monkeypatch.setattr(CPU, "run_trace", counted_run)
        monkeypatch.setattr(replay, "replay_into", counted_replay)
        return counts

    def test_timing_run_records_the_trace(self, tmp_path, runs):
        """The trace a cold sim job stores has ``ensure_trace``'s meta,
        and its payload is the recorder's container of that run: it
        loads to the recorder's columns, which are those of a decoded
        ``record_trace`` file."""
        import numpy as np

        from repro.cpu.coltrace import (
            AccessColumns,
            decode_tracefile,
            load_columns,
        )
        from repro.cpu.executor import CPU
        from repro.cpu.recorder import ArrayRecorder
        from repro.cpu.tracefile import record_trace

        store = ArtifactStore(tmp_path / "store")
        farm_jobs.ensure_sims(store, BENCH, False, tuple(MACHINES.items()),
                              MAX_INSTRUCTIONS)
        assert runs == {"run_trace": 1, "replay_into": 0}
        key, meta = farm_jobs.ensure_trace(store, BENCH, False,
                                           MAX_INSTRUCTIONS)
        assert runs["run_trace"] == 1, "the stored trace was recorded again"
        alone = ArtifactStore(tmp_path / "alone")
        assert farm_jobs.ensure_trace(alone, BENCH, False,
                                      MAX_INSTRUCTIONS) == (key, meta)

        program = farm_jobs.build_program(BENCH, False)
        path = str(tmp_path / "oracle.fact.gz")
        cpu = CPU(program)
        count = record_trace(program, path, MAX_INSTRUCTIONS, cpu=cpu)
        assert (meta["instructions"], meta["memory_usage"],
                meta["stdout"]) == (count, cpu.memory_usage, cpu.stdout())
        recorder = ArrayRecorder(program)
        CPU(program).run_trace(recorder, MAX_INSTRUCTIONS)
        payload = store.get_bytes("trace", key, farm_jobs.TRACE_PAYLOAD)
        assert payload == recorder.to_bytes()
        assert alone.get_bytes("trace", key,
                               farm_jobs.TRACE_PAYLOAD) == payload
        got = load_columns(program, payload)
        recorded = AccessColumns.of(recorder)
        decoded = decode_tracefile(program, path).accesses()
        for column in ("index", "ea", "base", "offset"):
            assert np.array_equal(getattr(got, column),
                                  getattr(recorded, column)), column
            assert np.array_equal(getattr(got, column),
                                  getattr(decoded, column)), column

    def test_snapshots_equal_a_replay_of_record_trace(self, tmp_path, runs):
        """The live sim job's snapshots equal a shared front replaying
        ``record_trace``'s file of the same build, on every experiment
        flavour."""
        from repro.cpu.executor import CPU
        from repro.cpu.tracefile import record_trace, simulate_trace
        from repro.experiments import common
        from repro.pipeline.replay import Front

        store = ArtifactStore(tmp_path / "store")
        machines = tuple(common.MACHINES.items())
        results = farm_jobs.ensure_sims(store, BENCH, False, machines,
                                        MAX_INSTRUCTIONS)
        assert runs == {"run_trace": 1, "replay_into": 0}
        program = farm_jobs.build_program(BENCH, False)
        path = str(tmp_path / "oracle.fact.gz")
        cpu = CPU(program)
        record_trace(program, path, MAX_INSTRUCTIONS, cpu=cpu)
        front = Front(program, path, [m for _, m in machines])
        for (label, machine), (_, snapshot) in zip(machines, results):
            result = simulate_trace(program, front, machine,
                                    cpu.memory_usage)
            assert snapshot == sim_to_snapshot(result, meta={
                "cell": "sim",
                "name": BENCH,
                "software_support": False,
                "machine": label,
                "max_instructions": MAX_INSTRUCTIONS,
            }), label

    def test_stored_trace_is_left_alone(self, tmp_path, runs, monkeypatch):
        """With the trace stored, a sim job executes the build live
        with no tee, times only the missing flavours and writes only
        their snapshots; the trace's files are untouched."""
        from repro.pipeline import replay

        store = ArtifactStore(tmp_path / "store")
        key, _ = farm_jobs.ensure_trace(store, BENCH, False,
                                        MAX_INSTRUCTIONS)
        farm_jobs.ensure_sims(store, BENCH, False,
                              (("base", MACHINES["base"]),),
                              MAX_INSTRUCTIONS)
        payload = store.payload_path("trace", key, farm_jobs.TRACE_PAYLOAD)
        # reads touch meta.json (the LRU clock), so only its bytes count
        before = {path.name: path.read_bytes()
                  for path in payload.parent.iterdir()}
        written = payload.stat().st_mtime_ns

        live = []
        real_live = replay.time_live

        def counted_live(program, machines, *args, **kwargs):
            live.append((tuple(machines), kwargs.get("tee")))
            return real_live(program, machines, *args, **kwargs)

        puts = []
        put = store.put

        def counted_put(kind, *args, **kwargs):
            puts.append(kind)
            return put(kind, *args, **kwargs)

        monkeypatch.setattr(replay, "time_live", counted_live)
        monkeypatch.setattr(store, "put", counted_put)
        runs.update(run_trace=0, replay_into=0)
        graph = plan_jobs({Cell("sim", BENCH, False, label)
                           for label in MACHINES},
                          MACHINES, MAX_INSTRUCTIONS)
        farm_jobs.execute_job(graph.jobs[f"sim:{BENCH}:base,fac32"], store)
        assert live == [((MACHINES["fac32"],), None)]
        assert puts == ["sim"]
        assert runs == {"run_trace": 1, "replay_into": 0}
        assert {path.name: path.read_bytes()
                for path in payload.parent.iterdir()} == before
        assert payload.stat().st_mtime_ns == written
        assert not any((store.root / "tmp").iterdir())

    def test_v1_trace_under_the_old_key_is_recomputed(self, tmp_path):
        """A store holding a v1 tracefile under the key traces had
        before the column payload is not read as columns: the analysis
        records the columns under the new key and equals a fresh
        store's."""
        from repro.cpu.executor import CPU
        from repro.cpu.tracefile import record_trace
        from repro.farm.fingerprint import fingerprint

        store = ArtifactStore(tmp_path / "store")
        crc = farm_jobs.ensure_manifest(store, BENCH, False)["program_crc"]
        old_key = fingerprint("trace", BENCH, crc,
                              farm_jobs.benchmark_options(False),
                              MAX_INSTRUCTIONS)
        program = farm_jobs.build_program(BENCH, False)
        v1 = tmp_path / "v1.fact.gz"
        cpu = CPU(program)
        count = record_trace(program, str(v1), MAX_INSTRUCTIONS, cpu=cpu)
        store.put("trace", old_key, {
            "schema": farm_jobs.FARM_SCHEMA, "kind": "trace", "name": BENCH,
            "software_support": False, "program_crc": crc,
            "max_instructions": MAX_INSTRUCTIONS, "instructions": count,
            "memory_usage": cpu.memory_usage, "stdout": cpu.stdout(),
        }, payloads={"trace.fact.gz": v1})

        key = farm_jobs.trace_key(BENCH, False, crc, MAX_INSTRUCTIONS)
        assert key != old_key
        _, snapshot = farm_jobs.ensure_analysis(store, BENCH, False,
                                                MAX_INSTRUCTIONS)
        assert store.payload_path("trace", key, farm_jobs.TRACE_PAYLOAD)
        fresh = ArtifactStore(tmp_path / "fresh")
        assert farm_jobs.ensure_analysis(fresh, BENCH, False,
                                         MAX_INSTRUCTIONS)[1] == snapshot
        assert store.get_bytes("trace", key, farm_jobs.TRACE_PAYLOAD) == \
            fresh.get_bytes("trace", key, farm_jobs.TRACE_PAYLOAD)


class TestColtrace:
    """The analysis cell loads the stored trace columns; the trace is
    the only artifact between the build and the analysis."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return ArtifactStore(tmp_path_factory.mktemp("analysis-store"))

    def test_decoded_exactly_once(self, tmp_path, monkeypatch):
        """A cold sweep of one benchmark's analysis and sim cells stores
        one artifact per job kind and loads the trace columns once."""
        import repro.cpu.coltrace as coltrace_mod

        # workers are forked, so they count into a file
        decodes = tmp_path / "decodes"
        decodes.touch()
        real = coltrace_mod.load_columns

        def counted(program, data, label="<bytes>"):
            with open(decodes, "a") as handle:
                handle.write(f"{label}\n")
            return real(program, data, label)

        monkeypatch.setattr(coltrace_mod, "load_columns", counted)
        store = ArtifactStore(tmp_path / "store")
        graph = plan_jobs(
            {Cell("analysis", BENCH), Cell("sim", BENCH, False, "base")},
            MACHINES, MAX_INSTRUCTIONS)
        result = run_graph(graph, store, jobs=1)
        assert result.ok, result.summary()["errors"]
        assert {kind: entry["count"]
                for kind, entry in store.stats()["kinds"].items()} == {
            "build": 1, "trace": 1, "analysis": 1, "sim": 1}
        assert len(decodes.read_text().splitlines()) == 1

    def test_engines_share_key_and_snapshot(self, store, tmp_path):
        """The columnar cell's snapshot equals the spec analyzer's
        replay of a ``record_trace`` file of the same build, and its key
        is stable."""
        from repro.cpu.tracefile import record_trace

        key, snapshot = farm_jobs.ensure_analysis(
            store, BENCH, False, MAX_INSTRUCTIONS)
        _, tmeta = farm_jobs.ensure_trace(store, BENCH, False,
                                          MAX_INSTRUCTIONS)
        program = farm_jobs.build_program(BENCH, False)
        trace_path = tmp_path / "oracle.fact.gz"
        record_trace(program, str(trace_path), MAX_INSTRUCTIONS)
        oracle = replay_analysis(
            program, str(trace_path),
            block_sizes=farm_jobs.ANALYSIS_BLOCK_SIZES,
            memory_usage=tmeta["memory_usage"], stdout=tmeta["stdout"])
        assert snapshot == analysis_to_snapshot(oracle, meta={
            "cell": "analysis",
            "name": BENCH,
            "software_support": False,
            "max_instructions": MAX_INSTRUCTIONS,
        })
        store.remove("analysis", key)
        assert farm_jobs.ensure_analysis(
            store, BENCH, False, MAX_INSTRUCTIONS) == (key, snapshot)

    def test_store_hit_skips_the_analyzer_import(self, store):
        """A warm analysis cell is a store read: it must not import the
        batch analyzer (and numpy) into the reading process."""
        farm_jobs.ensure_analysis(store, BENCH, False, MAX_INSTRUCTIONS)
        code = (
            "import sys\n"
            "from repro.farm import jobs\n"
            "from repro.farm.store import ArtifactStore\n"
            f"jobs.ensure_analysis(ArtifactStore({str(store.root)!r}), "
            f"{BENCH!r}, False, {MAX_INSTRUCTIONS})\n"
            "assert 'repro.analysis.batch' not in sys.modules\n"
        )
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr

    def test_timing_and_planning_paths_stay_numpy_free(self, tmp_path):
        """Importing the column recorder, planning every harness's
        cells, a cold grouped two-flavour sim of an inline program (the
        recorder teed beside its fronts) and a trace job (the recorder
        alone) never import numpy, whose import alone costs more than
        planning a whole sweep slice."""
        source = ("int v[16];\n"
                  "int main() { int i, s = 0;\n"
                  "  for (i = 0; i < 16; i++) { v[i] = i; s += v[i]; }\n"
                  "  print_int(s); return 0; }\n")
        code = (
            "import importlib, sys\n"
            "import repro.cpu.recorder\n"
            "assert 'numpy' not in sys.modules, 'the recorder imports numpy'\n"
            "from repro.experiments import common\n"
            "from repro.farm import jobs\n"
            "from repro.farm.cli import HARNESSES\n"
            "from repro.farm.store import ArtifactStore\n"
            "cells = set()\n"
            "for module_name, _ in HARNESSES.values():\n"
            "    module = importlib.import_module(\n"
            "        'repro.experiments.' + module_name)\n"
            "    cells |= module.farm_cells(['compress', 'tomcatv'])\n"
            "jobs.plan_jobs(cells, common.MACHINES, common.MAX_INSTRUCTIONS)\n"
            f"store = ArtifactStore({str(tmp_path / 'store')!r})\n"
            "flavours = [(label, common.MACHINES[label])\n"
            "            for label in ('base', 'fac32')]\n"
            "done = jobs.ensure_sims(store, 'inline', False, flavours,\n"
            f"                       100000, {source!r})\n"
            "assert all(store.has('sim', key) for key, _ in done)\n"
            f"key, _ = jobs.ensure_trace(store, 'inline', False, 100000,\n"
            f"                           {source!r})\n"
            "assert store.payload_path('trace', key, jobs.TRACE_PAYLOAD)\n"
            f"alone = ArtifactStore({str(tmp_path / 'alone')!r})\n"
            f"jobs.ensure_trace(alone, 'inline', False, 100000, {source!r})\n"
            "assert 'numpy' not in sys.modules, 'numpy was imported'\n"
        )
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True, timeout=300)
        assert result.returncode == 0, result.stderr

    def test_sweep_setup_imports_do_not_grow(self):
        """Planning a sweep in a fresh interpreter, as the benchmark's
        set-up probe does, imports no ``repro`` module beyond the
        committed list: a new import there is set-up time every sweep
        pays before any job runs."""
        code = (
            "import runpy, sys\n"
            "probe = runpy.run_path('perfbench/probe.py')\n"
            "probe['main'](['sweep_cold', 'eqntott,ora'])\n"
            "print('\\n'.join(sorted(m for m in sys.modules\n"
            "                         if m.split('.')[0] == 'repro')))\n"
        )
        result = subprocess.run([sys.executable, "-c", code],
                                capture_output=True, text=True,
                                timeout=300, cwd=REPO_ROOT)
        assert result.returncode == 0, result.stderr
        allowed = (Path(__file__).parent / "sweep_setup_modules.txt"
                   ).read_text().split()
        extra = set(result.stdout.split()) - set(allowed)
        assert not extra, f"sweep set-up now imports {sorted(extra)}"

    def test_inputs_pinned_while_analysis_in_flight(self, store,
                                                    monkeypatch):
        """A size-budgeted gc that fires mid-cell must not evict the
        trace the analysis is reading."""
        akey = farm_jobs.ensure_analysis(
            store, BENCH, False, MAX_INSTRUCTIONS)[0]
        store.remove("analysis", akey)

        import repro.analysis.batch as batch_mod

        real = batch_mod.analyze_trace_columns
        fired = {}

        def gc_mid_flight(*args, **kwargs):
            fired["evicted"] = store.gc(max_bytes=0)[0]
            return real(*args, **kwargs)

        monkeypatch.setattr(batch_mod, "analyze_trace_columns",
                            gc_mid_flight)
        tkey = farm_jobs.trace_key(
            BENCH, False,
            farm_jobs.ensure_manifest(store, BENCH, False)["program_crc"],
            MAX_INSTRUCTIONS)
        farm_jobs.ensure_analysis(store, BENCH, False, MAX_INSTRUCTIONS)
        assert fired["evicted"] > 0
        assert store.has("trace", tkey)
        # the pin was released afterwards: nothing survives a clear now
        store.gc(clear=True)
        assert not store.has("trace", tkey)

    def test_no_pins_leak(self, store):
        farm_jobs.ensure_analysis(store, BENCH, False, MAX_INSTRUCTIONS)
        assert not store.pinned("trace", "x")  # sanity: API present
        for info in store.ls():
            assert not store.pinned(info.kind, info.key)
