"""``python -m repro farm`` CLI tests."""

import json

import pytest

from repro.__main__ import main
from repro.analysis.reporting import validate_against_schema
from repro.farm.ledger import FARM_STATUS_SCHEMA, FARM_STATUS_SCHEMA_VERSION


@pytest.fixture
def store_dir(tmp_path):
    return str(tmp_path / "cli-store")


class TestStatus:
    def test_empty_store(self, store_dir, capsys):
        assert main(["farm", "status", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "(empty)" in out

    def test_json_output(self, store_dir, capsys):
        assert main(["farm", "status", "--store", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["stats"]["total"] == {"count": 0, "bytes": 0}
        assert payload["last_run"] is None

    def test_json_is_schema_tagged_and_valid(self, store_dir, capsys):
        assert main(["farm", "status", "--store", store_dir, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == FARM_STATUS_SCHEMA_VERSION
        assert validate_against_schema(payload, FARM_STATUS_SCHEMA) == []


class TestGc:
    def test_requires_bound_or_all(self, store_dir, capsys):
        assert main(["farm", "gc", "--store", store_dir]) == 2

    def test_gc_all_on_empty_store(self, store_dir, capsys):
        assert main(["farm", "gc", "--store", store_dir, "--all"]) == 0
        assert "evicted 0" in capsys.readouterr().out

    def test_gc_max_bytes_evicts_lru(self, store_dir, capsys):
        from repro.farm.store import ArtifactStore

        store = ArtifactStore(store_dir)
        store.put("sim", "aa" * 32, {"i": 0})
        store.put("sim", "bb" * 32, {"i": 1})
        sizes = {i.key: i.size for i in store.ls()}
        assert main(["farm", "gc", "--store", store_dir,
                     "--max-bytes", str(sizes["bb" * 32])]) == 0
        assert "evicted 1" in capsys.readouterr().out
        assert not store.has("sim", "aa" * 32)
        assert store.has("sim", "bb" * 32)


class TestRunValidation:
    def test_unknown_figure(self, store_dir, capsys):
        assert main(["farm", "run", "--store", store_dir,
                     "--figures", "fig99"]) == 2
        assert "unknown figure" in capsys.readouterr().err

    def test_unknown_benchmark(self, store_dir, capsys):
        assert main(["farm", "run", "--store", store_dir,
                     "--suite", "quake3"]) == 2
        assert "unknown benchmark" in capsys.readouterr().err


class TestRun:
    def test_cell_free_figure(self, store_dir, capsys):
        # fig5 is self-contained: zero cells, still renders
        assert main(["farm", "run", "--store", store_dir, "--quiet",
                     "--figures", "fig5"]) == 0
        captured = capsys.readouterr()
        assert "Figure 5" in captured.out

    def test_cold_then_warm_sweep(self, store_dir, tmp_path, capsys):
        summary_path = str(tmp_path / "summary.json")
        args = ["farm", "run", "--store", store_dir, "--jobs", "2",
                "--quiet", "--suite", "eqntott", "--figures", "table3",
                "--summary-json", summary_path]
        assert main(args) == 0
        cold = json.loads(open(summary_path).read())
        assert cold["computed"] == cold["total"] > 0
        assert cold["failed"] == []
        assert "Table 3" in capsys.readouterr().out

        assert main(args) == 0
        warm = json.loads(open(summary_path).read())
        assert warm["hits"] == warm["total"] == cold["total"]
        assert warm["computed"] == 0

        # status now reports artifacts and the last run
        assert main(["farm", "status", "--store", store_dir]) == 0
        out = capsys.readouterr().out
        assert "last run:" in out
        for kind in ("build", "trace", "analysis", "sim"):
            assert kind in out

    def test_render_reads_the_store_option(self, store_dir, tmp_path,
                                           monkeypatch, capsys):
        from repro.farm.store import ArtifactStore

        elsewhere = tmp_path / "elsewhere"
        elsewhere.mkdir()
        monkeypatch.setenv("REPRO_FARM_DIR", str(elsewhere))
        args = ["farm", "run", "--store", store_dir, "--jobs", "2",
                "--quiet", "--suite", "eqntott", "--figures", "table3"]
        assert main(args + ["--no-render"]) == 0
        capsys.readouterr()

        puts = []
        real_put = ArtifactStore.put

        def counting_put(self, *a, **kw):
            puts.append(self.root)
            return real_put(self, *a, **kw)

        monkeypatch.setattr(ArtifactStore, "put", counting_put)
        assert main(args) == 0
        assert "Table 3" in capsys.readouterr().out
        assert puts == []
        assert list(elsewhere.iterdir()) == []


class TestLedgerCommands:
    """run -> ledger -> history/timeline, through the real CLI."""

    @pytest.fixture(scope="class")
    def ledgered_store(self, tmp_path_factory):
        store_dir = str(tmp_path_factory.mktemp("ledger-cli") / "store")
        base = ["farm", "run", "--store", store_dir, "--jobs", "2",
                "--quiet", "--no-render", "--suite", "eqntott",
                "--figures", "table3"]
        assert main(base + ["--run-id", "run-cold"]) == 0
        assert main(base + ["--run-id", "run-warm1"]) == 0
        assert main(base + ["--run-id", "run-warm2"]) == 0
        return store_dir

    def test_run_persists_ledger_manifests(self, ledgered_store, capsys):
        assert main(["farm", "status", "--store", ledgered_store,
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert [r["run_id"] for r in payload["runs"]] == \
            ["run-cold", "run-warm1", "run-warm2"]
        assert all(r["failed"] == 0 for r in payload["runs"])
        assert validate_against_schema(payload, FARM_STATUS_SCHEMA) == []

    def test_no_spans_skips_the_ledger(self, store_dir, capsys):
        assert main(["farm", "run", "--store", store_dir, "--quiet",
                     "--no-render", "--no-spans", "--suite", "eqntott",
                     "--figures", "table3", "--jobs", "2"]) == 0
        capsys.readouterr()
        assert main(["farm", "history", "--store", store_dir]) == 0
        assert "no ledger runs" in capsys.readouterr().out

    def test_history_list_and_inspect(self, ledgered_store, capsys):
        assert main(["farm", "history", "--store", ledgered_store]) == 0
        out = capsys.readouterr().out
        assert "run-cold" in out and "run-warm2" in out

        assert main(["farm", "history", "last",
                     "--store", ledgered_store]) == 0
        out = capsys.readouterr().out
        assert "run run-warm2" in out
        assert "healthy" in out          # span tree passes check_spans
        assert "slowest jobs:" in out

    def test_history_compare_identical_runs_zero_drift(
            self, ledgered_store, capsys):
        assert main(["farm", "history", "run-warm2", "--compare",
                     "run-warm1", "--store", ledgered_store]) == 0
        assert "zero drift" in capsys.readouterr().out

    def test_history_compare_defaults_to_previous_same_sweep(
            self, ledgered_store, capsys):
        # run-warm2's previous same-key run is run-warm1: also zero drift
        assert main(["farm", "history", "run-warm2", "--compare",
                     "--store", ledgered_store]) == 0
        out = capsys.readouterr().out
        assert "run-warm1 -> run-warm2" in out

    def test_history_compare_flags_cold_to_warm(self, ledgered_store,
                                                capsys):
        # status drift (done -> hit) must flag and exit nonzero
        assert main(["farm", "history", "run-warm1", "--compare",
                     "run-cold", "--store", ledgered_store, "--json"]) == 1
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.farm-drift/1"
        assert any(d["field"] == "status" for d in payload["drifts"])

    def test_history_unknown_run(self, ledgered_store, capsys):
        assert main(["farm", "history", "no-such-run",
                     "--store", ledgered_store]) == 2

    def test_timeline_text_tree(self, ledgered_store, capsys):
        assert main(["farm", "timeline", "run-cold",
                     "--store", ledgered_store]) == 0
        out = capsys.readouterr().out
        assert "sweep" in out
        assert "job:build:eqntott" in out
        assert "execute:build:eqntott" in out

    def test_timeline_chrome_export(self, ledgered_store, tmp_path,
                                    capsys):
        trace = tmp_path / "timeline.json"
        assert main(["farm", "timeline", "last", "--store", ledgered_store,
                     "--chrome", str(trace)]) == 0
        doc = json.loads(trace.read_text())
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e.get("ph") == "M" and e["name"] == "thread_name"}
        assert "scheduler" in names

    def test_top_once_renders_complete_sweep(self, ledgered_store, capsys):
        assert main(["farm", "top", "--store", ledgered_store,
                     "--once"]) == 0
        out = capsys.readouterr().out
        assert "COMPLETE" in out
        assert "hit ratio" in out

    def test_top_once_without_live_file(self, store_dir, capsys):
        assert main(["farm", "top", "--store", store_dir, "--once"]) == 1
        assert "no sweep" in capsys.readouterr().out
