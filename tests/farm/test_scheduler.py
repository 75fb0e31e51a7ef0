"""Worker-pool scheduler tests: cold/warm sweeps, crash isolation,
timeout kills, and the lifecycle entries read off the span tree."""

import pytest

from repro.farm import ArtifactStore, Cell, plan_jobs, run_graph, scheduler
from repro.farm.jobs import JobGraph, JobSpec
from repro.fac import FacConfig
from repro.obs.spans import SpanTracker
from repro.pipeline.config import MachineConfig

MAX_INSTRUCTIONS = 10_000_000
MACHINES = {"base": MachineConfig(), "fac32": MachineConfig(fac=FacConfig())}


def small_graph():
    cells = {
        Cell("analysis", "eqntott"),
        Cell("sim", "eqntott", False, "base"),
        Cell("sim", "eqntott", False, "fac32"),
    }
    return plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)


def two_benchmark_graph():
    cells = {
        Cell("sim", "eqntott", False, "base"),
        Cell("sim", "yacr2", False, "base"),
    }
    return plan_jobs(cells, MACHINES, MAX_INSTRUCTIONS)


def run_with_lifecycle(graph, store, **kwargs):
    """Run ``graph``; returns the result, its lifecycle entries and the
    tracker they were read from."""
    entries = []
    tracker = SpanTracker(
        listener=scheduler.lifecycle_listener(graph, entries.append))
    result = run_graph(graph, store, tracker=tracker, **kwargs)
    return result, entries, tracker


class TestSweep:
    def test_cold_then_warm(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        graph = small_graph()
        cold = run_graph(graph, store, jobs=2, timeout=120)
        assert cold.ok
        assert cold.computed == len(graph.jobs)
        assert cold.hits == 0
        warm = run_graph(graph, store, jobs=2, timeout=120)
        assert warm.ok
        assert warm.hits == len(graph.jobs)
        assert warm.computed == 0
        assert warm.elapsed < 1.0

    def test_serial_pool_equivalent(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        graph = small_graph()
        result = run_graph(graph, store, jobs=1, timeout=120)
        assert result.ok and result.computed == len(graph.jobs)

    def test_summary_shape(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        result = run_graph(small_graph(), store, jobs=2, timeout=120)
        summary = result.summary()
        # build, one sim job executing the build on both flavours, and
        # the analysis of the trace it recorded
        assert summary["total"] == 3
        assert summary["computed"] == 3
        assert summary["failed"] == []
        assert summary["elapsed_seconds"] > 0

    def test_lifecycle_events(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        graph = small_graph()
        _, entries, _ = run_with_lifecycle(graph, store, jobs=2,
                                           timeout=120)
        kinds = [e["event"] for e in entries]
        assert kinds.count("farm.scheduled") == len(graph.jobs)
        assert kinds.count("farm.finished") == len(graph.jobs)
        assert kinds.count("farm.started") == len(graph.jobs)
        assert "farm.failed" not in kinds
        # warm re-run: finished entries carry cached=True, nothing starts
        _, entries, _ = run_with_lifecycle(graph, store, jobs=2,
                                           timeout=120)
        finished = [e for e in entries if e["event"] == "farm.finished"]
        assert len(finished) == len(graph.jobs)
        assert all(e["cached"] for e in finished)
        assert not any(e["event"] == "farm.started" for e in entries)


class TestFailureIsolation:
    def test_crashed_worker_fails_cell_not_sweep(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FARM_TEST_CRASH", "build:yacr2")
        store = ArtifactStore(tmp_path / "store")
        result = run_graph(two_benchmark_graph(), store, jobs=2,
                           timeout=60, retries=1)
        assert not result.ok
        build = result.outcomes["build:yacr2"]
        assert build.status == "failed"
        assert "crashed" in build.error
        assert build.attempts == 2            # one initial + one retry
        assert result.outcomes["sim:yacr2:base"].error.startswith("upstream")
        assert result.outcomes["sim:eqntott:base"].ok

    def test_hung_worker_killed_by_timeout(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FARM_TEST_HANG", "sim:yacr2:base")
        store = ArtifactStore(tmp_path / "store")
        result = run_graph(two_benchmark_graph(), store, jobs=2,
                           timeout=2, retries=0)
        assert not result.ok
        hung = result.outcomes["sim:yacr2:base"]
        assert hung.status == "failed"
        assert "timed out" in hung.error
        assert result.outcomes["sim:eqntott:base"].ok

    @pytest.mark.parametrize("hook, timeout", [
        ("REPRO_FARM_TEST_CRASH", 60), ("REPRO_FARM_TEST_HANG", 2)])
    def test_failed_sim_fails_its_builds_analysis(self, tmp_path,
                                                   monkeypatch, hook,
                                                   timeout):
        """The sim job records the trace the analysis reads, so a sim
        job that crashes or times out fails its build's analysis cell
        too; the other build's chain still completes."""
        monkeypatch.setenv(hook, "sim:yacr2")
        store = ArtifactStore(tmp_path / "store")
        graph = plan_jobs({Cell(kind, name, False,
                                "base" if kind == "sim" else None)
                           for kind in ("analysis", "sim")
                           for name in ("eqntott", "yacr2")},
                          MACHINES, MAX_INSTRUCTIONS)
        result = run_graph(graph, store, jobs=2, timeout=timeout,
                           retries=0)
        assert result.outcomes["build:yacr2"].ok
        assert result.outcomes["sim:yacr2:base"].status == "failed"
        analysis = result.outcomes["analysis:yacr2"]
        assert analysis.status == "failed"
        assert analysis.error == "upstream failed: sim:yacr2:base"
        assert result.outcomes["sim:eqntott:base"].ok
        assert result.outcomes["analysis:eqntott"].ok

    def test_failed_cell_reported_in_summary(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FARM_TEST_CRASH", "build:yacr2")
        store = ArtifactStore(tmp_path / "store")
        result = run_graph(two_benchmark_graph(), store, jobs=2,
                           timeout=60, retries=0)
        summary = result.summary()
        assert "build:yacr2" in summary["failed"]
        assert "crashed" in summary["errors"]["build:yacr2"]
        # the surviving chain really completed
        assert result.outcomes["sim:eqntott:base"].ok

    def test_retry_succeeds_after_transient_crash(self, tmp_path,
                                                  monkeypatch):
        # The crash hook fires on every attempt, so with retries=0 the
        # job fails after exactly one attempt -- bounded, no infinite
        # respawn loop.
        monkeypatch.setenv("REPRO_FARM_TEST_CRASH", "build:eqntott")
        store = ArtifactStore(tmp_path / "store")
        graph = plan_jobs({Cell("sim", "eqntott", False, "base")},
                          MACHINES, MAX_INSTRUCTIONS)
        result = run_graph(graph, store, jobs=1, timeout=60, retries=0)
        assert result.outcomes["build:eqntott"].attempts == 1
        assert result.outcomes["build:eqntott"].status == "failed"


class TestFailureEvents:
    """Each injected failure mode yields its distinct entry sequence."""

    def _events_for(self, tmp_path, job_id, **kwargs):
        store = ArtifactStore(tmp_path / "store")
        result, entries, tracker = run_with_lifecycle(
            two_benchmark_graph(), store, jobs=2, **kwargs)
        attempts = [s for s in tracker.spans.values()
                    if s.cat == "attempt" and s.attrs["job_id"] == job_id]
        return (result, [e for e in entries if e["job_id"] == job_id],
                attempts)

    def test_crash_then_retry_then_give_up(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FARM_TEST_CRASH", "build:yacr2")
        result, events, attempts = self._events_for(
            tmp_path, "build:yacr2", timeout=60, retries=1)
        kinds = [e["event"] for e in events]
        assert kinds == [
            "farm.scheduled",
            "farm.started", "farm.job.crashed", "farm.job.retry",
            "farm.started", "farm.job.crashed",
            "farm.failed",
        ]
        crashed = [e for e in events if e["event"] == "farm.job.crashed"]
        assert [c["attempt"] for c in crashed] == [1, 2]
        assert all("crashed" in c["reason"] for c in crashed)
        retry = next(e for e in events if e["event"] == "farm.job.retry")
        assert retry["next_attempt"] == 2
        assert result.outcomes["build:yacr2"].attempts == 2
        # the entries are read off two crashed attempt spans
        assert [(s.status, s.attrs["attempt"], s.attrs["retry"])
                for s in attempts] == [("crashed", 1, True),
                                            ("crashed", 2, False)]

    def test_timeout_emits_timeout_not_crash(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_FARM_TEST_HANG", "sim:yacr2:base")
        result, events, attempts = self._events_for(
            tmp_path, "sim:yacr2:base", timeout=2, retries=0)
        kinds = [e["event"] for e in events]
        assert kinds == ["farm.scheduled", "farm.started",
                         "farm.job.timeout", "farm.failed"]
        assert "farm.job.crashed" not in kinds
        timeout = next(e for e in events if e["event"] == "farm.job.timeout")
        assert timeout["timeout"] == 2
        assert timeout["attempt"] == 1
        [attempt] = attempts
        assert attempt.status == "timeout"
        assert attempt.attrs["timeout"] == 2
        assert attempt.attrs["reason"].startswith("timed out")

    def test_python_exception_neither_crashes_nor_retries(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        graph = plan_jobs({Cell("analysis", "no-such-benchmark")}, MACHINES,
                          MAX_INSTRUCTIONS)
        _, entries, _ = run_with_lifecycle(graph, store, jobs=1, timeout=60,
                                           retries=5)
        kinds = [e["event"] for e in entries]
        assert "farm.failed" in kinds
        for forbidden in ("farm.job.crashed", "farm.job.timeout",
                          "farm.job.retry"):
            assert forbidden not in kinds


class TestResourceAccounting:
    def test_computed_jobs_measure_wall_cpu_rss(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        result = run_graph(small_graph(), store, jobs=2, timeout=120)
        for outcome in result.outcomes.values():
            assert outcome.status == "done"
            assert outcome.wall > 0
            assert outcome.max_rss > 0
            assert outcome.worker >= 0
        summary = result.summary()
        assert summary["cpu_seconds"] >= 0
        assert summary["max_rss_bytes"] > 0

    def test_store_hits_never_dispatch(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        graph = small_graph()
        run_graph(graph, store, jobs=2, timeout=120)
        warm = run_graph(graph, store, jobs=2, timeout=120)
        for outcome in warm.outcomes.values():
            assert outcome.status == "hit"
            assert outcome.worker == -1
            assert outcome.cpu == 0.0


class TestLiveHeartbeat:
    def test_final_heartbeat_is_complete_and_valid(self, tmp_path):
        import json

        store = ArtifactStore(tmp_path / "store")
        live = tmp_path / "live.json"
        graph = small_graph()
        run_graph(graph, store, jobs=2, timeout=120, heartbeat_path=live)
        status = json.loads(live.read_text())
        assert status["schema"] == "repro.farm-live/1"
        assert status["complete"] is True
        assert status["done"] == status["total"] == len(graph.jobs)
        assert status["queue"] == {"ready": 0, "waiting": 0}
        assert status["running"] == []
        assert status["workers"]["busy"] == 0


class TestValidation:
    def test_python_exception_fails_without_retry(self, tmp_path):
        # an unknown benchmark raises inside the worker: deterministic,
        # so one attempt only
        graph = plan_jobs({Cell("analysis", "no-such-benchmark")}, MACHINES,
                          MAX_INSTRUCTIONS)
        store = ArtifactStore(tmp_path / "store")
        result = run_graph(graph, store, jobs=1, timeout=60, retries=5)
        assert not result.ok
        for outcome in result.outcomes.values():
            assert outcome.attempts <= 1

    def test_dependency_outside_the_graph_raises(self, tmp_path):
        graph = JobGraph()
        graph.jobs["trace:x"] = JobSpec(
            job_id="trace:x", kind="trace", name="x", software=False,
            max_instructions=1, deps=("build:x",))
        with pytest.raises(RuntimeError, match="stalled"):
            run_graph(graph, ArtifactStore(tmp_path / "store"), jobs=1)


def no_op_graph(monkeypatch, count, chained):
    """``count`` build jobs whose execution does nothing (forked workers
    inherit the patch); unknown names make every store check miss."""
    monkeypatch.setattr(scheduler, "execute_job", lambda spec, store: ())
    graph = JobGraph()
    for i in range(count):
        graph.jobs[f"build:n{i}"] = JobSpec(
            job_id=f"build:n{i}", kind="build", name=f"n{i}",
            software=False, max_instructions=1,
            deps=(f"build:n{i - 1}",) if chained and i else ())
    return graph


class TestDispatchLatency:
    def test_dependent_starts_when_its_input_completes(self, tmp_path,
                                                       monkeypatch):
        graph = no_op_graph(monkeypatch, 20, chained=True)
        result = run_graph(graph, ArtifactStore(tmp_path / "store"), jobs=1,
                           timeout=60)
        assert result.computed == 20
        # a fixed 50 ms poll between links alone would take a second
        assert result.elapsed < 0.5

    def test_queued_job_is_store_checked_once(self, tmp_path, monkeypatch):
        checked = []
        real = scheduler.artifact_ready
        monkeypatch.setattr(scheduler, "artifact_ready",
                            lambda spec, store: checked.append(spec.job_id)
                            or real(spec, store))
        graph = no_op_graph(monkeypatch, 6, chained=False)
        result = run_graph(graph, ArtifactStore(tmp_path / "store"), jobs=1,
                           timeout=60)
        assert result.computed == 6
        assert sorted(checked) == sorted(graph.jobs)

