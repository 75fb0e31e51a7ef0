"""``repro farm top``: pure-function rendering and the watch loop."""

import io
import json

from repro.farm.store import ArtifactStore
from repro.farm.top import (
    STALE_SECONDS,
    live_path,
    read_live,
    render_dashboard,
    watch,
)


def live_status(**overrides):
    status = {
        "schema": "repro.farm-live/1",
        "pid": 4242,
        "updated": 1000.0,
        "complete": False,
        "total": 16,
        "done": 8,
        "hits": 5,
        "computed": 2,
        "failed": 1,
        "hit_ratio": 0.625,
        "queue": {"ready": 3, "waiting": 5},
        "workers": {"max": 4, "spawned": 4, "busy": 2},
        "utilization": 0.5,
        "running": [
            {"job_id": "run:eqntott", "kind": "run", "worker": 0,
             "attempt": 1, "elapsed": 2.5},
            {"job_id": "run:yacr2", "kind": "run", "worker": 1,
             "attempt": 2, "elapsed": 0.3},
        ],
        "elapsed": 12.75,
    }
    status.update(overrides)
    return status


class TestRenderDashboard:
    def test_running_frame_shows_all_sections(self):
        frame = render_dashboard(live_status(), now=1001.0)
        assert "RUNNING" in frame
        assert "8/16 jobs" in frame and "(50%)" in frame
        assert "5 hits" in frame and "1 failed" in frame
        assert "hit ratio 62%" in frame
        assert "3 ready" in frame and "5 waiting" in frame
        assert "2/4 busy" in frame and "utilization 50%" in frame
        assert "run:eqntott" in frame
        assert "run:yacr2" in frame

    def test_stale_sweep_flagged(self):
        frame = render_dashboard(
            live_status(), now=1000.0 + STALE_SECONDS + 1)
        assert "STALE" in frame

    def test_complete_sweep(self):
        frame = render_dashboard(
            live_status(complete=True, done=16, running=[]),
            now=1001.0)
        assert "COMPLETE" in frame
        assert "(sweep complete)" in frame

    def test_empty_sweep_no_zero_division(self):
        frame = render_dashboard(live_status(total=0, done=0, running=[]),
                                 now=1001.0)
        assert "0/0 jobs" in frame


class TestWatch:
    def _store_with_live(self, tmp_path, status):
        store = ArtifactStore(tmp_path / "store")
        path = live_path(store)
        path.write_text(json.dumps(status))
        return store

    def test_read_live_round_trip(self, tmp_path):
        store = self._store_with_live(tmp_path, live_status())
        assert read_live(store)["pid"] == 4242

    def test_read_live_absent_or_corrupt(self, tmp_path):
        store = ArtifactStore(tmp_path / "store")
        assert read_live(store) is None
        live_path(store).write_text("{not json")
        assert read_live(store) is None

    def test_once_renders_single_frame(self, tmp_path):
        store = self._store_with_live(tmp_path, live_status())
        out = io.StringIO()
        assert watch(store, stream=out, once=True, clock=lambda: 1001.0) == 0
        assert "RUNNING" in out.getvalue()

    def test_returns_when_sweep_completes(self, tmp_path):
        store = self._store_with_live(
            tmp_path, live_status(complete=True, running=[]))
        out = io.StringIO()
        assert watch(store, stream=out, clock=lambda: 1001.0,
                     sleep=lambda _s: None) == 0
        assert "COMPLETE" in out.getvalue()

    def test_duration_expires_on_incomplete_sweep(self, tmp_path):
        store = self._store_with_live(tmp_path, live_status())
        ticks = iter(range(100))
        out = io.StringIO()
        assert watch(store, stream=out, duration=3.0,
                     clock=lambda: float(next(ticks)),
                     sleep=lambda _s: None) == 1
