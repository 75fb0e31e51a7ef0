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
        real = replay.time_flavours

        def counted(program, path, machines, memory_usage=0):
            timed.extend(machines)
            return real(program, path, machines, memory_usage)

        monkeypatch.setattr(replay, "time_flavours", counted)
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
        scalar PipelineSimulator's replay of the same stored trace."""
        from repro.cpu.tracefile import replay_into
        from repro.experiments import common
        from repro.pipeline.pipeline import PipelineSimulator

        machines = tuple(common.MACHINES.items())
        results = farm_jobs.ensure_sims(store, BENCH, True, machines,
                                        MAX_INSTRUCTIONS)
        tkey, tmeta = farm_jobs.ensure_trace(store, BENCH, True,
                                             MAX_INSTRUCTIONS)
        path = str(store.payload_path("trace", tkey,
                                      farm_jobs.TRACE_PAYLOAD))
        program = farm_jobs.build_program(BENCH, True)
        for (label, machine), (_, snapshot) in zip(machines, results):
            pipe = PipelineSimulator(machine)
            replay_into(program, path, pipe)
            oracle = sim_to_snapshot(
                pipe.finalize(memory_usage=tmeta["memory_usage"]), meta={
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
    the flavours also records the trace. A sim job that finds the trace
    stored replays it."""

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
        and its payload decodes to ``record_trace``'s records."""
        import numpy as np

        from repro.cpu.coltrace import decode_tracefile
        from repro.cpu.executor import CPU
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
        got = decode_tracefile(program, str(store.payload_path(
            "trace", key, farm_jobs.TRACE_PAYLOAD)))
        want = decode_tracefile(program, path)
        for column in ("index", "ea", "base", "offset", "flags", "next_pc"):
            assert np.array_equal(getattr(got, column),
                                  getattr(want, column)), column

    def test_snapshots_equal_a_replay_of_the_stored_trace(self, tmp_path,
                                                          runs):
        """The live sim job's snapshots equal ``time_flavours`` replaying
        the trace it stored, on every experiment flavour."""
        from repro.experiments import common
        from repro.pipeline.replay import time_flavours

        store = ArtifactStore(tmp_path / "store")
        machines = tuple(common.MACHINES.items())
        results = farm_jobs.ensure_sims(store, BENCH, False, machines,
                                        MAX_INSTRUCTIONS)
        assert runs == {"run_trace": 1, "replay_into": 0}
        key, meta = farm_jobs.ensure_trace(store, BENCH, False,
                                           MAX_INSTRUCTIONS)
        path = store.payload_path("trace", key, farm_jobs.TRACE_PAYLOAD)
        oracle = time_flavours(farm_jobs.build_program(BENCH, False),
                               str(path), [m for _, m in machines],
                               memory_usage=meta["memory_usage"])
        for (label, _), (_, snapshot), result in zip(machines, results,
                                                     oracle):
            assert snapshot == sim_to_snapshot(result, meta={
                "cell": "sim",
                "name": BENCH,
                "software_support": False,
                "machine": label,
                "max_instructions": MAX_INSTRUCTIONS,
            }), label

    def test_stored_trace_is_left_alone(self, tmp_path, runs, monkeypatch):
        """With the trace stored, a sim job does not execute the build:
        it replays the stored trace, times only the missing flavours and
        writes only their snapshots."""
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

        live, replayed = [], []
        real_live, real_replay = replay.time_live, replay.time_flavours

        def counted_live(program, machines, *args, **kwargs):
            live.append(tuple(machines))
            return real_live(program, machines, *args, **kwargs)

        def counted_replay(program, path, machines, memory_usage=0):
            replayed.append((path, tuple(machines)))
            return real_replay(program, path, machines, memory_usage)

        puts = []
        put = store.put

        def counted_put(kind, *args, **kwargs):
            puts.append(kind)
            return put(kind, *args, **kwargs)

        monkeypatch.setattr(replay, "time_live", counted_live)
        monkeypatch.setattr(replay, "time_flavours", counted_replay)
        monkeypatch.setattr(store, "put", counted_put)
        runs.update(run_trace=0, replay_into=0)
        graph = plan_jobs({Cell("sim", BENCH, False, label)
                           for label in MACHINES},
                          MACHINES, MAX_INSTRUCTIONS)
        farm_jobs.execute_job(graph.jobs[f"sim:{BENCH}:base,fac32"], store)
        assert live == []
        assert replayed == [(str(payload), (MACHINES["fac32"],))]
        assert puts == ["sim"]
        assert runs == {"run_trace": 0, "replay_into": 1}
        assert {path.name: path.read_bytes()
                for path in payload.parent.iterdir()} == before
        assert payload.stat().st_mtime_ns == written
        assert not any((store.root / "tmp").iterdir())


class TestColtrace:
    """The analysis cell decodes the stored trace straight into
    columns; the trace is the only artifact between the build and the
    analysis."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return ArtifactStore(tmp_path_factory.mktemp("analysis-store"))

    def test_decoded_exactly_once(self, tmp_path, monkeypatch):
        """A cold sweep of one benchmark's analysis and sim cells stores
        one artifact per job kind and decodes the trace once."""
        import repro.cpu.coltrace as coltrace_mod

        # workers are forked, so they count into a file
        decodes = tmp_path / "decodes"
        decodes.touch()
        real = coltrace_mod.decode_tracefile

        def counted(program, path):
            with open(decodes, "a") as handle:
                handle.write(f"{path}\n")
            return real(program, path)

        monkeypatch.setattr(coltrace_mod, "decode_tracefile", counted)
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

    def test_engines_share_key_and_snapshot(self, store):
        """The columnar cell's snapshot equals the spec analyzer's
        replay of the same stored trace, and its key is stable."""
        key, snapshot = farm_jobs.ensure_analysis(
            store, BENCH, False, MAX_INSTRUCTIONS)
        tkey, tmeta = farm_jobs.ensure_trace(store, BENCH, False,
                                             MAX_INSTRUCTIONS)
        trace_path = store.payload_path("trace", tkey,
                                        farm_jobs.TRACE_PAYLOAD)
        oracle = replay_analysis(
            farm_jobs.build_program(BENCH, False), str(trace_path),
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
        """Planning every harness's cells and a cold trace + grouped
        two-flavour sim of an inline program never import numpy, whose
        import alone costs more than planning a whole sweep slice."""
        source = ("int v[16];\n"
                  "int main() { int i, s = 0;\n"
                  "  for (i = 0; i < 16; i++) { v[i] = i; s += v[i]; }\n"
                  "  print_int(s); return 0; }\n")
        code = (
            "import importlib, sys\n"
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
            f"jobs.ensure_trace(store, 'inline', False, 100000, {source!r})\n"
            "flavours = [(label, common.MACHINES[label])\n"
            "            for label in ('base', 'fac32')]\n"
            "done = jobs.ensure_sims(store, 'inline', False, flavours,\n"
            f"                       100000, {source!r})\n"
            "assert all(store.has('sim', key) for key, _ in done)\n"
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
