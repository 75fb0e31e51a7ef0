"""Job-graph planning, key resolution, and store-idempotent execution."""

import subprocess
import sys

import pytest

from repro.farm import Cell, plan_jobs
from repro.farm import jobs as farm_jobs
from repro.farm.snapshots import analysis_to_snapshot
from repro.farm.store import ArtifactStore
from repro.fac import FacConfig
from repro.pipeline.config import MachineConfig
from tests.oracles import replay_analysis

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
    def test_shared_build_and_trace(self):
        cells = {
            Cell("analysis", BENCH),
            Cell("sim", BENCH, False, "base"),
            Cell("sim", BENCH, False, "fac32"),
        }
        graph = plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)
        assert set(graph.jobs) == {
            f"build:{BENCH}", f"trace:{BENCH}", f"analysis:{BENCH}",
            f"sim:{BENCH}:base", f"sim:{BENCH}:fac32",
        }
        assert graph.jobs[f"trace:{BENCH}"].deps == (f"build:{BENCH}",)
        assert graph.jobs[f"analysis:{BENCH}"].deps == (f"trace:{BENCH}",)
        assert graph.jobs[f"sim:{BENCH}:base"].deps == (f"trace:{BENCH}",)
        assert len(graph.cell_jobs) == 3

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
        assert farm_jobs.resolve_key(sim_spec, store) is None
        assert farm_jobs.resolve_key(build_spec, store) is not None
        farm_jobs.ensure_manifest(store, BENCH, False)
        assert farm_jobs.resolve_key(sim_spec, store) is not None

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
        farm_jobs.ensure_sim(store, BENCH, False, "base", MACHINES["base"],
                             MAX_INSTRUCTIONS)

        def boom(name, software):  # pragma: no cover - must not run
            raise AssertionError("recomputed a cached artifact")

        monkeypatch.setattr(farm_jobs, "build_program", boom)
        key_a, snap_a = farm_jobs.ensure_analysis(
            store, BENCH, False, MAX_INSTRUCTIONS)
        key_s, snap_s = farm_jobs.ensure_sim(
            store, BENCH, False, "base", MACHINES["base"], MAX_INSTRUCTIONS)
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
            key = farm_jobs.execute_job(spec, store)
            assert farm_jobs.artifact_ready(spec, store) == key

    def test_execute_unknown_kind_rejected(self, store):
        spec = farm_jobs.JobSpec(job_id="x", kind="mystery", name=BENCH,
                                 software=False,
                                 max_instructions=MAX_INSTRUCTIONS)
        with pytest.raises(ValueError, match="mystery"):
            farm_jobs.execute_job(spec, store)


class TestColtrace:
    """The derived columnar-trace artifact and the columnar analysis
    cell built on it."""

    @pytest.fixture(scope="class")
    def store(self, tmp_path_factory):
        return ArtifactStore(tmp_path_factory.mktemp("coltrace-store"))

    def test_coltrace_artifact_stored_with_meta(self, store):
        key, meta = farm_jobs.ensure_coltrace(store, BENCH, False,
                                              MAX_INSTRUCTIONS)
        assert meta["kind"] == "coltrace"
        assert meta["format"] == "repro.coltrace/1"
        assert meta["records"] > 0
        assert store.has("trace", meta["trace_key"])
        assert store.payload_path("coltrace", key,
                                  farm_jobs.COLTRACE_PAYLOAD)

    def test_decoded_exactly_once(self, store, monkeypatch):
        farm_jobs.ensure_coltrace(store, BENCH, False, MAX_INSTRUCTIONS)
        import repro.cpu.coltrace as coltrace_mod

        def boom(program, path):  # pragma: no cover - must not run
            raise AssertionError("re-decoded a cached coltrace")

        monkeypatch.setattr(coltrace_mod, "decode_tracefile", boom)
        key, meta = farm_jobs.ensure_coltrace(store, BENCH, False,
                                              MAX_INSTRUCTIONS)
        assert meta["records"] > 0

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

    def test_inputs_pinned_while_analysis_in_flight(self, store,
                                                    monkeypatch):
        """A size-budgeted gc that fires mid-cell must not evict the
        trace or coltrace the analysis is reading."""
        key, _ = farm_jobs.ensure_coltrace(store, BENCH, False,
                                           MAX_INSTRUCTIONS)
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
        assert "evicted" in fired
        assert store.has("trace", tkey)
        assert store.has("coltrace", key)
        # pins were released afterwards: nothing survives a clear now
        store.gc(clear=True)
        assert not store.has("coltrace", key)

    def test_no_pins_leak(self, store):
        farm_jobs.ensure_analysis(store, BENCH, False, MAX_INSTRUCTIONS)
        assert not store.pinned("trace", "x")  # sanity: API present
        for info in store.ls():
            assert not store.pinned(info.kind, info.key)

    def test_coltrace_key_differs_from_trace_key(self):
        crc = 1
        assert farm_jobs.coltrace_key(BENCH, False, crc, 1000) != \
            farm_jobs.trace_key(BENCH, False, crc, 1000)
        assert farm_jobs.coltrace_key(BENCH, False, crc, 1000) != \
            farm_jobs.coltrace_key(BENCH, False, crc, 2000)
