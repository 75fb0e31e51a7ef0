"""Run-ledger tests: round trip, determinism, span health, drift,
Chrome export."""

import copy
import io
import json

import pytest

from repro.farm import ArtifactStore, Cell, plan_jobs, run_graph
from repro.farm import ledger
from repro.fac import FacConfig
from repro.obs.spans import SpanTracker
from repro.pipeline.config import MachineConfig

MAX_INSTRUCTIONS = 10_000_000
MACHINES = {"base": MachineConfig(), "fac32": MachineConfig(fac=FacConfig())}


def small_graph():
    cells = {
        Cell("analysis", "eqntott"),
        Cell("sim", "eqntott", False, "base"),
    }
    return plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)


def sweep_with_ledger(store, run_id, jobs=2):
    """One traced sweep, persisted; returns the loaded-back run."""
    graph = small_graph()
    tracker = SpanTracker()
    result = run_graph(graph, store, jobs=jobs, timeout=120,
                       tracker=tracker)
    assert result.ok
    run = ledger.run_from_sweep(run_id, graph, result, tracker,
                                meta={"workers": jobs})
    path = ledger.write_run(store, run)
    return ledger.load_run(path)


@pytest.fixture(scope="module")
def warm_store(tmp_path_factory):
    """A store pre-warmed once, plus two persisted warm runs of the same
    sweep -- shared by the round-trip/determinism/drift tests so the
    module forks real workers only once."""
    store = ArtifactStore(tmp_path_factory.mktemp("ledger") / "store")
    cold = sweep_with_ledger(store, "cold-run")
    warm_a = sweep_with_ledger(store, "warm-a")
    warm_b = sweep_with_ledger(store, "warm-b")
    return store, cold, warm_a, warm_b


class TestRoundTrip:
    def test_loaded_run_equals_written_run(self, warm_store):
        store, cold, _, _ = warm_store
        assert cold.run_id == "cold-run"
        assert cold.summary["total"] == len(cold.jobs) == 2
        assert cold.meta == {"workers": 2}
        # rewriting the loaded run yields the same canonical lines
        path = ledger.ledger_dir(store) / "cold-run.jsonl"
        on_disk = path.read_text().splitlines()
        assert on_disk == ledger.run_lines(cold)

    def test_rejects_foreign_schema(self, tmp_path):
        path = tmp_path / "bogus.jsonl"
        path.write_text(json.dumps(
            {"record": "header", "schema": "something/9", "run_id": "x",
             "sweep_key": "y", "created": 0}) + "\n")
        with pytest.raises(ValueError, match="unsupported ledger schema"):
            ledger.load_run(path)

    def test_run_id_collisions_get_serial_suffix(self, warm_store):
        store, _, _, _ = warm_store
        graph = small_graph()
        tracker = SpanTracker()
        result = run_graph(graph, store, jobs=1, tracker=tracker)
        run = ledger.run_from_sweep("cold-run", graph, result, tracker)
        path = ledger.write_run(store, run)
        assert path.name == "cold-run.2.jsonl"
        assert run.run_id == "cold-run.2"


class TestSpanHealth:
    def test_every_job_has_a_span_and_no_orphans(self, warm_store):
        _, cold, _, _ = warm_store
        assert ledger.check_spans(cold) == []

    def test_worker_side_spans_were_adopted(self, warm_store):
        _, cold, _, _ = warm_store
        cats = {span["cat"] for span in cold.spans}
        # sweep root, per-job spans, worker execute spans, store traffic
        assert {"sweep", "job", "execute", "store"} <= cats

    def test_each_dispatch_is_an_attempt_span_over_its_execute(
            self, warm_store):
        _, cold, _, _ = warm_store
        by_id = {span["span_id"]: span for span in cold.spans}
        attempts = [s for s in cold.spans if s["cat"] == "attempt"]
        assert len(attempts) == len(cold.jobs)  # one dispatch per job
        for attempt in attempts:
            assert attempt["status"] == "ok"
            assert attempt["attrs"]["attempt"] == 1
            job = by_id[attempt["parent_id"]]
            assert job["cat"] == "job"
            assert job["attrs"]["job_id"] == attempt["attrs"]["job_id"]
        executes = [s for s in cold.spans if s["cat"] == "execute"]
        assert len(executes) == len(attempts)
        assert all(by_id[s["parent_id"]]["cat"] == "attempt"
                   for s in executes)

    def test_rebased_times_start_at_zero(self, warm_store):
        _, cold, _, _ = warm_store
        roots = [s for s in cold.spans if s["parent_id"] is None]
        assert len(roots) == 1 and roots[0]["t0"] == 0.0
        assert all(s["t0"] >= 0.0 for s in cold.spans)

    def test_check_spans_flags_manufactured_orphan(self, warm_store):
        _, cold, _, _ = warm_store
        broken = copy.deepcopy(cold)
        broken.spans[-1]["parent_id"] = 10_000
        assert any("orphan" in p for p in ledger.check_spans(broken))


class TestResourceAccounting:
    def test_computed_jobs_carry_resources(self, warm_store):
        _, cold, _, _ = warm_store
        for job in cold.jobs.values():
            assert job["status"] == "done"
            assert job["wall"] > 0
            assert job["max_rss"] > 0
            assert job["worker"] >= 0
        assert cold.summary["cpu_seconds"] >= 0
        assert cold.summary["max_rss_bytes"] > 0

    def test_hits_cost_no_worker(self, warm_store):
        _, _, warm_a, _ = warm_store
        for job in warm_a.jobs.values():
            assert job["status"] == "hit" and job["cached"]
            assert job["worker"] == -1


class TestDeterminism:
    def test_warm_reruns_normalize_byte_identical(self, warm_store):
        _, _, warm_a, warm_b = warm_store
        assert ledger.normalized_lines(warm_a) == \
            ledger.normalized_lines(warm_b)

    def test_normalization_zeroes_only_timing(self, warm_store):
        _, cold, _, _ = warm_store
        lines = ledger.normalized_lines(cold)
        header = json.loads(lines[0])
        assert header["run_id"] == "RUN" and header["created"] == 0.0
        assert header["sweep_key"] == cold.sweep_key  # identity survives
        jobs = [json.loads(line) for line in lines
                if json.loads(line).get("record") == "job"]
        assert {j["job_id"] for j in jobs} == set(cold.jobs)
        assert all(j["wall"] == 0 for j in jobs)


class TestHistoryAndDrift:
    def test_list_find_previous(self, warm_store):
        store, cold, warm_a, warm_b = warm_store
        listed = [r.run_id for r in ledger.list_runs(store)]
        assert listed[:3] == ["cold-run", "warm-a", "warm-b"]
        assert ledger.find_run(store, "warm-a").run_id == "warm-a"
        assert ledger.find_run(store, "nope") is None
        prev = ledger.previous_run(store, warm_b)
        assert prev.run_id == "warm-a"

    def test_identical_runs_have_zero_drift(self, warm_store):
        _, _, warm_a, warm_b = warm_store
        delta = ledger.compare_runs(warm_a, warm_b)
        assert delta.same_sweep
        assert delta.drifts == []
        assert delta.ok

    def test_injected_slowdown_is_flagged(self, warm_store):
        _, _, warm_a, _ = warm_store
        slow = copy.deepcopy(warm_a)
        victim = sorted(slow.jobs)[0]
        slow.jobs[victim]["wall"] = warm_a.jobs[victim]["wall"] + 5.0
        delta = ledger.compare_runs(warm_a, slow)
        assert not delta.ok
        [drift] = [d for d in delta.drifts if d.field == "wall"]
        assert drift.job_id == victim
        assert drift.delta == pytest.approx(5.0, abs=1e-3)

    def test_subthreshold_jitter_ignored(self, warm_store):
        _, _, warm_a, _ = warm_store
        jittered = copy.deepcopy(warm_a)
        for job in jittered.jobs.values():
            job["wall"] += 0.01  # below DRIFT_ABS
        assert ledger.compare_runs(warm_a, jittered).ok

    def test_status_change_always_flagged(self, warm_store):
        _, cold, warm_a, _ = warm_store
        delta = ledger.compare_runs(cold, warm_a)
        assert any(d.field == "status" for d in delta.drifts)

    def test_missing_job_flagged(self, warm_store):
        _, _, warm_a, _ = warm_store
        pruned = copy.deepcopy(warm_a)
        victim = sorted(pruned.jobs)[0]
        del pruned.jobs[victim]
        delta = ledger.compare_runs(warm_a, pruned)
        assert any(d.field == "missing" and d.job_id == victim
                   for d in delta.drifts)


class TestChromeExport:
    def test_export_is_loadable_with_worker_tracks(self, warm_store):
        _, cold, _, _ = warm_store
        stream = io.StringIO()
        written = ledger.run_to_chrome(cold, stream)
        assert written == len(cold.spans)
        doc = json.loads(stream.getvalue())
        meta = [e for e in doc["traceEvents"] if e["ph"] == "M"]
        names = {e["args"]["name"] for e in meta
                 if e["name"] == "thread_name"}
        assert "scheduler" in names
        assert any(name.startswith("worker ") for name in names)
        slices = [e for e in doc["traceEvents"] if e["ph"] == "X"]
        assert len(slices) == len(cold.spans)
        assert all(s["dur"] >= 1 for s in slices)

    def test_execute_spans_land_on_worker_tracks(self, warm_store):
        _, cold, _, _ = warm_store
        stream = io.StringIO()
        ledger.run_to_chrome(cold, stream)
        doc = json.loads(stream.getvalue())
        executes = [e for e in doc["traceEvents"]
                    if e["ph"] == "X" and e["name"].startswith("execute:")]
        assert executes
        assert all(e["tid"] >= 1 for e in executes)  # not the scheduler

    def test_open_span_becomes_terminated_begin(self, warm_store):
        _, cold, _, _ = warm_store
        aborted = copy.deepcopy(cold)
        aborted.spans[0]["t1"] = None       # sweep root never closed
        aborted.spans[0]["status"] = "open"
        stream = io.StringIO()
        ledger.run_to_chrome(aborted, stream)
        doc = json.loads(stream.getvalue())  # still parses
        ends = [e for e in doc["traceEvents"] if e["ph"] == "E"]
        assert any(e["args"]["incomplete"] for e in ends)
