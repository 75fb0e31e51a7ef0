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
        """A build's sims and its analysis come from one run job, which
        depends on the build job; every cell of the build maps to it."""
        cells = {
            Cell("analysis", BENCH),
            Cell("sim", BENCH, False, "base"),
            Cell("sim", BENCH, False, "fac32"),
        }
        graph = plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)
        assert list(graph.jobs) == [f"build:{BENCH}", f"run:{BENCH}"]
        run = graph.jobs[f"run:{BENCH}"]
        assert run.kind == "run" and run.deps == (f"build:{BENCH}",)
        assert run.machines == (("base", MACHINES["base"]),
                                ("fac32", MACHINES["fac32"]))
        assert run.analysis
        assert graph.cell_jobs == {cell: f"run:{BENCH}" for cell in cells}

    def test_analysis_only_build_gets_a_run_job(self):
        """A build with only an analysis cell is executed by a run job
        that times nothing; a build with sim cells too asks the same
        job for both."""
        cells = {Cell("analysis", BENCH), Cell("analysis", BENCH, True),
                 Cell("sim", BENCH, False, "base")}
        graph = plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)
        assert sorted(graph.jobs) == [
            f"build:{BENCH}", f"build:{BENCH}+sw",
            f"run:{BENCH}", f"run:{BENCH}+sw"]
        alone = graph.jobs[f"run:{BENCH}+sw"]
        assert alone.deps == (f"build:{BENCH}+sw",)
        assert alone.machines == () and alone.analysis
        both = graph.jobs[f"run:{BENCH}"]
        assert both.machines == (("base", MACHINES["base"]),)
        assert both.analysis

    def test_one_sim_job_per_build(self):
        """Every flavour of a build lands on its one run job, machines
        sorted by label; with no analysis cell the job asks for none."""
        cells = {Cell("sim", BENCH, sw, label)
                 for sw in (False, True) for label in ("fac32", "base")}
        cells.add(Cell("sim", "compress", False, "fac32"))
        graph = plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)
        runs = {job_id: spec for job_id, spec in graph.jobs.items()
                if spec.kind == "run"}
        assert set(runs) == {f"run:{BENCH}", f"run:{BENCH}+sw",
                             "run:compress"}
        assert runs[f"run:{BENCH}"].machines == (
            ("base", MACHINES["base"]), ("fac32", MACHINES["fac32"]))
        assert not any(spec.analysis for spec in runs.values())
        assert graph.cell_jobs[Cell("sim", BENCH, True, "base")] == \
            f"run:{BENCH}+sw"

    def test_every_harness_plans_two_jobs_per_build(self):
        """The cells of all ten harnesses plan exactly a build job and
        a run job per build."""
        import importlib

        from repro.experiments import common
        from repro.farm.cli import HARNESSES

        names = ["compress", "tomcatv"]
        cells = set()
        for module_name, _ in HARNESSES.values():
            module = importlib.import_module(
                f"repro.experiments.{module_name}")
            cells |= module.farm_cells(names)
        graph = plan_jobs(cells, common.MACHINES, common.MAX_INSTRUCTIONS)
        tags = {f"{name}{sw}" for name in names for sw in ("", "+sw")}
        assert set(graph.jobs) == {f"{kind}:{tag}" for tag in tags
                                   for kind in ("build", "run")}
        assert set(graph.cell_jobs) == cells

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
        assert len(graph.jobs) == 4

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
        sim_spec = graph.jobs[f"run:{BENCH}"]
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

    def test_trace_key_folds_no_payload_format(self):
        """The trace artifact is meta only: its key folds in no payload
        format."""
        from repro.farm.fingerprint import fingerprint

        assert farm_jobs.trace_key(BENCH, False, 7, 1000) == fingerprint(
            "trace", BENCH, 7, farm_jobs.benchmark_options(False), 1000)

    def test_cell_keys_follow_the_run_jobs_keys(self, tmp_path):
        """A cell's key among its run job's keys is the key the
        ``ensure_*`` function for that cell stores it under."""
        store = ArtifactStore(tmp_path / "store")
        crc = farm_jobs.ensure_manifest(store, BENCH, False)["program_crc"]
        cells = {Cell("analysis", BENCH), Cell("sim", BENCH, False, "base"),
                 Cell("sim", BENCH, False, "fac32")}
        graph = plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)
        keys = farm_jobs.resolve_keys(graph.jobs[f"run:{BENCH}"], store)
        assert graph.cell_key(Cell("analysis", BENCH), keys) == \
            farm_jobs.analysis_key(BENCH, False, crc, MAX_INSTRUCTIONS)
        for label, machine in MACHINES.items():
            assert graph.cell_key(Cell("sim", BENCH, False, label),
                                  keys) == farm_jobs.sim_key(
                BENCH, False, crc, label, machine, MAX_INSTRUCTIONS)


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
        assert [path.name for path in store._object_dir(
            "trace", key).iterdir()] == ["meta.json"]

    def test_execute_job_covers_all_kinds(self, store):
        graph = plan_jobs(
            {Cell("analysis", BENCH), Cell("sim", BENCH, False, "base")},
            MACHINES, MAX_INSTRUCTIONS)
        for spec in graph.jobs.values():
            keys = farm_jobs.execute_job(spec, store)
            assert farm_jobs.artifact_ready(spec, store) == keys

    def test_ensure_sims_computes_only_missing_flavours(self, tmp_path,
                                                        monkeypatch):
        """A grouped run job over a half-warm store times only the cold
        flavour, under the key and with the bytes a lone job would, and
        its artifacts are ready only once every flavour is stored."""
        from repro.pipeline import replay

        store = ArtifactStore(tmp_path / "store")
        graph = plan_jobs({Cell("sim", BENCH, False, label)
                           for label in MACHINES},
                          MACHINES, MAX_INSTRUCTIONS)
        spec = graph.jobs[f"run:{BENCH}"]
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


def run_job(*cells):
    """The run job of ``cells``' one build."""
    [spec] = [spec for spec in plan_jobs(cells, MACHINES,
                                         MAX_INSTRUCTIONS).jobs.values()
              if spec.kind == "run"]
    return spec


ALL_CELLS = (Cell("analysis", BENCH), Cell("sim", BENCH, False, "base"),
             Cell("sim", BENCH, False, "fac32"))


class TestOneExecution:
    """A run job executes its build at most once, live, feeding only
    what the store lacks: the fronts of the missing flavours, and the
    column recorder when the analysis is missing."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """Every ``CPU.run_trace`` (its consumer's type) and every
        ``time_live`` (its flavours and its tee's type)."""
        from repro.cpu.executor import CPU
        from repro.pipeline import replay

        seen = {"run_trace": [], "time_live": []}
        run_trace, time_live = CPU.run_trace, replay.time_live

        def counted_run(self, consumer=None, *args, **kwargs):
            seen["run_trace"].append(type(consumer).__name__)
            return run_trace(self, consumer, *args, **kwargs)

        def counted_live(program, machines, *args, **kwargs):
            seen["time_live"].append(
                (tuple(machines), type(kwargs.get("tee")).__name__))
            return time_live(program, machines, *args, **kwargs)

        monkeypatch.setattr(CPU, "run_trace", counted_run)
        monkeypatch.setattr(replay, "time_live", counted_live)
        return seen

    @staticmethod
    def counted_puts(store, monkeypatch):
        puts = []
        put = store.put

        def counted_put(kind, *args, **kwargs):
            puts.append(kind)
            return put(kind, *args, **kwargs)

        monkeypatch.setattr(store, "put", counted_put)
        return puts

    def test_timing_run_records_the_trace(self, tmp_path, runs,
                                          monkeypatch):
        """A cold run job makes one ``run_trace`` call, with the
        recorder teed beside its fronts, and stores every flavour, the
        analysis and the trace meta (no payload), which equals
        ``record_trace``'s facts of the run; ``ensure_trace`` then
        executes nothing."""
        from repro.cpu.executor import CPU
        from repro.cpu.tracefile import record_trace

        store = ArtifactStore(tmp_path / "store")
        puts = self.counted_puts(store, monkeypatch)
        spec = run_job(*ALL_CELLS)
        keys = farm_jobs.execute_job(spec, store)
        assert runs == {
            "run_trace": ["_FanOut"],
            "time_live": [((MACHINES["base"], MACHINES["fac32"]),
                           "ArrayRecorder")]}
        assert sorted(puts) == ["analysis", "build", "sim", "sim", "trace"]
        assert farm_jobs.artifact_ready(spec, store) == keys
        key, meta = farm_jobs.ensure_trace(store, BENCH, False,
                                           MAX_INSTRUCTIONS)
        assert len(runs["run_trace"]) == 1, "the trace meta was recorded again"
        assert [path.name for path in store._object_dir(
            "trace", key).iterdir()] == ["meta.json"]
        alone = ArtifactStore(tmp_path / "alone")
        assert farm_jobs.ensure_trace(alone, BENCH, False,
                                      MAX_INSTRUCTIONS) == (key, meta)

        program = farm_jobs.build_program(BENCH, False)
        cpu = CPU(program)
        count = record_trace(program, str(tmp_path / "oracle.fact.gz"),
                             MAX_INSTRUCTIONS, cpu=cpu)
        assert (meta["instructions"], meta["memory_usage"],
                meta["stdout"]) == (count, cpu.memory_usage, cpu.stdout())

    def test_snapshots_equal_a_replay_of_record_trace(self, tmp_path, runs):
        """The live run job's snapshots equal a shared front replaying
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
        assert runs["run_trace"] == ["_FanOut"]
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
        """With the analysis and the trace meta stored and the sims
        missing, the run job times the flavours with no recorder teed
        and writes only their snapshots; the trace's files are
        untouched."""
        store = ArtifactStore(tmp_path / "store")
        key, _ = farm_jobs.ensure_trace(store, BENCH, False,
                                        MAX_INSTRUCTIONS)
        farm_jobs.ensure_analysis(store, BENCH, False, MAX_INSTRUCTIONS)
        meta = store._object_dir("trace", key) / "meta.json"
        # reads touch meta.json (the LRU clock), so only its bytes count
        before = meta.read_bytes()
        runs.update(run_trace=[], time_live=[])
        puts = self.counted_puts(store, monkeypatch)
        farm_jobs.execute_job(run_job(*ALL_CELLS), store)
        assert runs == {
            "run_trace": ["_FanOut"],
            "time_live": [((MACHINES["base"], MACHINES["fac32"]),
                           "NoneType")]}
        assert puts == ["sim", "sim"]
        assert meta.read_bytes() == before
        assert not any((store.root / "tmp").iterdir())

    def test_missing_analysis_runs_the_recorder_alone(self, tmp_path, runs,
                                                      monkeypatch):
        """With every flavour stored, the run job executes the build
        with the recorder as its only consumer (no front) and writes
        only the analysis, equal to a cold run job's."""
        store = ArtifactStore(tmp_path / "store")
        farm_jobs.ensure_sims(store, BENCH, False, tuple(MACHINES.items()),
                              MAX_INSTRUCTIONS)
        runs.update(run_trace=[], time_live=[])
        puts = self.counted_puts(store, monkeypatch)
        spec = run_job(*ALL_CELLS)
        keys = farm_jobs.execute_job(spec, store)
        assert runs == {"run_trace": ["ArrayRecorder"], "time_live": []}
        assert puts == ["analysis"]
        cold = ArtifactStore(tmp_path / "cold")
        assert farm_jobs.execute_job(spec, cold) == keys
        assert store.get_bytes("analysis", keys[-1], "snapshot.json") == \
            cold.get_bytes("analysis", keys[-1], "snapshot.json")

    def test_everything_stored_executes_nothing(self, tmp_path, runs,
                                                monkeypatch):
        store = ArtifactStore(tmp_path / "store")
        spec = run_job(*ALL_CELLS)
        keys = farm_jobs.execute_job(spec, store)

        def boom(*args):  # pragma: no cover - must not run
            raise AssertionError("executed a stored build")

        monkeypatch.setattr(farm_jobs, "build_program", boom)
        runs.update(run_trace=[], time_live=[])
        puts = self.counted_puts(store, monkeypatch)
        assert farm_jobs.execute_job(spec, store) == keys
        assert runs == {"run_trace": [], "time_live": []}
        assert puts == []

    def test_trace_meta_alone_runs_no_consumer(self, tmp_path, runs):
        """``ensure_trace`` on a cold store executes the build with
        neither a front nor a recorder and stores only the meta."""
        store = ArtifactStore(tmp_path / "store")
        farm_jobs.ensure_trace(store, BENCH, False, MAX_INSTRUCTIONS)
        assert runs == {"run_trace": ["NoneType"], "time_live": []}
        assert {kind: entry["count"] for kind, entry
                in store.stats()["kinds"].items()} == {"build": 1, "trace": 1}

    def test_api_analysis_then_sim_on_a_cold_store(self, tmp_path, runs):
        """``analysis_for`` runs the recorder alone and stores the trace
        meta; ``sim_for`` then times the flavour with no recorder. Both
        snapshots equal a cold run job's."""
        from repro.farm import api

        store = ArtifactStore(tmp_path / "store")
        api.clear_memo()
        api.analysis_for(BENCH, False, MAX_INSTRUCTIONS, store=store)
        assert runs == {"run_trace": ["ArrayRecorder"], "time_live": []}
        assert store.stats()["kinds"]["trace"]["count"] == 1
        api.sim_for(BENCH, False, MACHINES["base"], label="base",
                    max_instructions=MAX_INSTRUCTIONS, store=store)
        assert runs == {"run_trace": ["ArrayRecorder", "_FanOut"],
                        "time_live": [((MACHINES["base"],), "NoneType")]}
        api.clear_memo()
        spec = run_job(Cell("analysis", BENCH),
                       Cell("sim", BENCH, False, "base"))
        cold = ArtifactStore(tmp_path / "cold")
        for (kind, key) in zip(("sim", "analysis"),
                               farm_jobs.execute_job(spec, cold)):
            assert store.get_bytes(kind, key, "snapshot.json") == \
                cold.get_bytes(kind, key, "snapshot.json"), kind


class TestColtrace:
    """The analysis reads the recorder's columns in memory: no trace
    payload lies between the build and its analysis."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return ArtifactStore(tmp_path_factory.mktemp("analysis-store"))

    def test_executed_exactly_once(self, tmp_path, monkeypatch):
        """A cold sweep of one benchmark's analysis and sim cells runs a
        build job and a run job, stores one artifact of each kind, and
        executes the build once."""
        from repro.cpu.executor import CPU

        # workers are forked, so they count into a file
        executions = tmp_path / "executions"
        executions.touch()
        real = CPU.run_trace

        def counted(self, *args, **kwargs):
            with open(executions, "a") as handle:
                handle.write("run_trace\n")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(CPU, "run_trace", counted)
        store = ArtifactStore(tmp_path / "store")
        graph = plan_jobs(
            {Cell("analysis", BENCH), Cell("sim", BENCH, False, "base")},
            MACHINES, MAX_INSTRUCTIONS)
        result = run_graph(graph, store, jobs=1)
        assert result.ok, result.summary()["errors"]
        assert sorted(spec.kind for spec in graph.jobs.values()) == \
            ["build", "run"]
        assert {kind: entry["count"]
                for kind, entry in store.stats()["kinds"].items()} == {
            "build": 1, "trace": 1, "analysis": 1, "sim": 1}
        assert len(executions.read_text().splitlines()) == 1

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
        """Planning every harness's cells, a cold sim-only run job of an
        inline program (two flavours, no recorder teed), importing the
        column recorder, and a trace meta recorded alone never import
        numpy, whose import alone costs more than planning a whole sweep
        slice."""
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
            "graph = jobs.plan_jobs(\n"
            "    [jobs.Cell('sim', 'inline', False, label)\n"
            "     for label in ('base', 'fac32')],\n"
            f"    common.MACHINES, 100000, {source!r})\n"
            f"store = ArtifactStore({str(tmp_path / 'store')!r})\n"
            "for spec in graph.jobs.values():\n"
            "    keys = jobs.execute_job(spec, store)\n"
            "assert [spec.analysis for spec in graph.jobs.values()\n"
            "        if spec.kind == 'run'] == [False]\n"
            "assert len(keys) == 2\n"
            "assert all(store.has('sim', key) for key in keys)\n"
            "assert 'repro.cpu.recorder' not in sys.modules, 'recorder teed'\n"
            "import repro.cpu.recorder\n"
            "assert 'numpy' not in sys.modules, 'the recorder imports numpy'\n"
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

    def test_no_pins_leak(self, store):
        farm_jobs.ensure_analysis(store, BENCH, False, MAX_INSTRUCTIONS)
        assert not store.pinned("trace", "x")  # sanity: API present
        for info in store.ls():
            assert not store.pinned(info.kind, info.key)
