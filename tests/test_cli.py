"""CLI tests (python -m repro)."""

import pytest

from repro.__main__ import main


@pytest.fixture
def minic_file(tmp_path):
    path = tmp_path / "prog.mc"
    path.write_text('int main() { print_str("cli-ok\\n"); return 3; }')
    return str(path)


@pytest.fixture
def asm_file(tmp_path):
    path = tmp_path / "prog.s"
    path.write_text("""
.text
.globl __start
__start:
    li $a0, 7
    li $v0, 1
    syscall
    li $v0, 10
    syscall
""")
    return str(path)


class TestRun:
    def test_run_file(self, minic_file, capsys):
        code = main(["run", minic_file])
        assert code == 3
        assert capsys.readouterr().out == "cli-ok\n"

    def test_run_with_support(self, minic_file, capsys):
        code = main(["run", "--software-support", minic_file])
        assert code == 3
        assert capsys.readouterr().out == "cli-ok\n"


class TestAsm:
    def test_asm_file(self, asm_file, capsys):
        code = main(["asm", asm_file])
        assert code == 0
        assert capsys.readouterr().out == "7"


class TestSuite:
    def test_lists_benchmarks(self, capsys):
        assert main(["suite"]) == 0
        out = capsys.readouterr().out
        assert "compress" in out and "tomcatv" in out


class TestBench:
    """``repro stats``: one benchmark's timing and prediction report."""

    def test_bench_runs(self, capsys):
        assert main(["stats", "yacr2"]) == 0
        out = capsys.readouterr().out
        assert "speedup" in out
        assert "prediction fail" in out

    def test_bench_unknown(self, capsys):
        assert main(["stats", "nope"]) == 2

    def test_old_command_name_is_gone(self, capsys):
        with pytest.raises(SystemExit):
            main(["bench", "yacr2"])
        assert "invalid choice" in capsys.readouterr().err


class TestExperiment:
    def test_fig5(self, capsys):
        assert main(["experiment", "fig5"]) == 0
        assert "MISPREDICT" in capsys.readouterr().out

    def test_unknown(self):
        assert main(["experiment", "nope"]) == 2


@pytest.fixture
def mem_asm_file(tmp_path):
    path = tmp_path / "mem.s"
    path.write_text("""
.data
.align 14
buf:    .space 128

.text
.globl __start
__start:
        la    $t1, buf
        addiu $t1, $t1, 24
        .loc mem.c 5
        lw    $t0, 12($t1)
        lw    $t2, 0($t1)
        li    $v0, 10
        syscall
""")
    return str(path)


def snapshot_file(tmp_path, name, cycles=5000, hits=900):
    from repro.obs.metrics import MetricsRegistry

    registry = MetricsRegistry()
    registry.counter("bench.fac32.cycles").incr(cycles)
    ratio = registry.ratio("bench.fac32.fac")
    for _ in range(hits):
        ratio.record(True)
    for _ in range(1000 - hits):
        ratio.record(False)
    path = tmp_path / name
    import json
    path.write_text(json.dumps(registry.snapshot(meta={"kind": "test"})))
    return str(path)


class TestPipeview:
    def test_dump_lists_instructions(self, mem_asm_file, capsys):
        assert main(["pipeview", mem_asm_file, "--dump"]) == 0
        out = capsys.readouterr().out
        assert "lw $t0, 12($t1)" in out
        assert "replay" in out          # the engineered carry-out
        assert "predict" in out

    def test_waterfall_renders_ruler(self, mem_asm_file, capsys):
        assert main(["pipeview", mem_asm_file, "--no-color"]) == 0
        captured = capsys.readouterr()
        assert captured.out.startswith("cycle")
        assert "\x1b[" not in captured.out
        assert "block-carry-out" in captured.out

    def test_chrome_export(self, mem_asm_file, tmp_path, capsys):
        import json
        out = tmp_path / "flight.json"
        assert main(["pipeview", mem_asm_file, "--chrome", str(out),
                     "--dump"]) == 0
        doc = json.loads(out.read_text())
        names = {e["args"]["name"] for e in doc["traceEvents"]
                 if e["name"] == "thread_name"}
        assert {"IF", "ID", "EX", "MEM", "WB"} <= names

    def test_around_cycle_trigger(self, mem_asm_file, capsys):
        assert main(["pipeview", mem_asm_file, "--dump",
                     "--around", "cycle:4"]) == 0

    def test_bad_around_spec(self, mem_asm_file, capsys):
        assert main(["pipeview", mem_asm_file, "--around", "pc:zzz"]) == 2


class TestExplainCli:
    def test_reports_and_exits_zero_when_consistent(self, mem_asm_file,
                                                    capsys):
        assert main(["explain", mem_asm_file]) == 0
        out = capsys.readouterr().out
        assert "block-carry-out" in out
        assert "2 sites" in out
        assert "DISAGREE" not in out

    def test_line_selection(self, mem_asm_file, capsys):
        assert main(["explain", mem_asm_file, "--line", "mem.c:5"]) == 0
        assert "1 sites" in capsys.readouterr().out

    def test_unmatched_line_exits_2(self, mem_asm_file, capsys):
        assert main(["explain", mem_asm_file, "--line", "mem.c:999"]) == 2

    def test_json_payload(self, mem_asm_file, capsys):
        import json
        assert main(["explain", mem_asm_file, "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["schema"] == "repro.explain/1"
        assert len(payload["sites"]) == 2
        assert payload["sites"][0]["example"]["primary"] == "block-carry-out"

    def test_pc_and_line_are_exclusive(self, mem_asm_file, capsys):
        assert main(["explain", mem_asm_file, "--pc", "0x400008",
                     "--line", "mem.c:5"]) == 2


class TestDiffCli:
    def test_identical_snapshots_exit_zero(self, tmp_path, capsys):
        old = snapshot_file(tmp_path, "old.json")
        new = snapshot_file(tmp_path, "new.json")
        assert main(["diff", old, new]) == 0
        assert "0 gate violations" in capsys.readouterr().out

    def test_any_drift_fails_without_gates(self, tmp_path, capsys):
        old = snapshot_file(tmp_path, "old.json")
        new = snapshot_file(tmp_path, "new.json", cycles=5001)
        assert main(["diff", old, new]) == 1
        assert "FAIL" in capsys.readouterr().out

    def test_gated_prediction_regression_fails(self, tmp_path, capsys):
        old = snapshot_file(tmp_path, "old.json")
        new = snapshot_file(tmp_path, "new.json", hits=880)
        gates = tmp_path / "gates.toml"
        gates.write_text(
            '[[gate]]\npattern = "*.fac.ratio"\n'
            'max_rel_delta = 0.01\ndirection = "down"\n\n'
            '[default]\nignore = true\n')
        assert main(["diff", old, new, "--gate", str(gates)]) == 1
        assert "bench.fac32.fac.ratio" in capsys.readouterr().out

    def test_gates_can_absorb_drift(self, tmp_path, capsys):
        old = snapshot_file(tmp_path, "old.json")
        new = snapshot_file(tmp_path, "new.json", cycles=5050)
        gates = tmp_path / "gates.toml"
        gates.write_text('[default]\nmax_rel_delta = 0.05\n')
        assert main(["diff", old, new, "--gate", str(gates)]) == 0


class TestReportCli:
    def test_from_snapshot_writes_dashboard(self, tmp_path, capsys):
        import json
        source = snapshot_file(tmp_path, "sweep.json")
        out_dir = tmp_path / "report"
        assert main(["report", "--from-snapshot", source,
                     "--out", str(out_dir)]) == 0
        html = (out_dir / "index.html").read_text()
        assert "repro suite report" in html
        assert "bench.fac32.cycles" in html
        round_trip = json.loads((out_dir / "snapshot.json").read_text())
        assert round_trip["schema"] == "repro.metrics/1"


class TestProfileSortFlag:
    def test_sort_and_top_flags(self, mem_asm_file, capsys):
        assert main(["profile", mem_asm_file, "--json",
                     "--sort", "predict_rate", "--top", "1"]) == 0
        import json
        payload = json.loads(capsys.readouterr().out)
        assert len(payload["sites"]) == 1
        # worst prediction rate first: the engineered replay site
        assert payload["sites"][0]["prediction_rate"] == 0.0

    def test_rejects_unknown_sort(self, mem_asm_file, capsys):
        with pytest.raises(SystemExit):
            main(["profile", mem_asm_file, "--sort", "alphabetical"])
