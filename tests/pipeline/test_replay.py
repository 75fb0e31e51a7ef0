"""The shared-front timing engine against the scalar pipeline.

:mod:`repro.pipeline.replay` times one run on many machine flavours,
its front fed from a recorded trace (one decode) or live by
``CPU.run_trace``. Both feeds' snapshots must equal, byte for byte,
those of the :class:`PipelineSimulator` oracle fed from the ``step()``
spec interpreter, on every flavour of
``repro.experiments.common.MACHINES``; so must a watched run's
per-instruction columns, as the flight recorder decodes them, equal
the oracle's per-instruction tap (:class:`tests.oracles.FlightTap`).
"""

import json
import sys
from pathlib import Path

import pytest

from repro.cache.cache import CacheConfig
from repro.cpu import CPU
from repro.cpu.tracefile import record_trace, simulate_trace
from repro.experiments.common import MACHINES
from repro.fac import FacConfig
from repro.farm.snapshots import sim_to_snapshot
from repro.isa.assembler import assemble
from repro.linker import LinkOptions, link
from repro.obs.flight import FlightRecorder
from repro.pipeline import MachineConfig
from repro.pipeline import pipeline, replay
from repro.pipeline.replay import Front, time_flavours, time_live
from repro.workloads import build_benchmark
from tests.oracles import (
    MODES_ASM,
    FlightTap,
    RetireLog,
    asm_program,
    flight_rows,
    record_fields,
    run_trace_records,
    step_feed,
    step_simulation,
)

FIXTURE = Path(__file__).parent / "fixtures" / "store_burst.s"


def canon(result) -> str:
    return json.dumps(sim_to_snapshot(result), sort_keys=True)


def recorded(program, tmp_path, budget=50_000_000):
    path = str(tmp_path / "trace.fact.gz")
    cpu = CPU(program)
    record_trace(program, path, budget, cpu=cpu)
    return path, cpu.memory_usage


def assert_grouped_equals_step(program, tmp_path, budget=50_000_000):
    """The trace-fed and the live-fed engine both equal the step-fed
    pipeline on every flavour, and so does a live run watched by a
    flight recorder per flavour, whose entries equal the step-fed
    per-instruction tap."""
    path, memory_usage = recorded(program, tmp_path, budget)
    machines = list(MACHINES.values())
    grouped = time_flavours(program, path, machines,
                            memory_usage=memory_usage)
    live, _ = time_live(program, machines, budget)
    recorders = [FlightRecorder(program, machine, window_cycles=None)
                 for machine in machines]
    watched, _ = time_live(program, machines, budget,
                           tee=replay._FanOut(recorders),
                           outcomes=dict(zip(machines, recorders)))
    for (label, machine), traced, fed, seen, recorder in zip(
            MACHINES.items(), grouped, live, watched, recorders):
        tap = FlightTap(machine)
        oracle = canon(step_feed(tap, program, budget))
        assert canon(traced) == oracle, label
        assert canon(fed) == oracle, label
        assert canon(seen) == oracle, label
        assert flight_rows(recorder.entries()) == tap.rows, label
    return grouped


@pytest.fixture(scope="module")
def burst():
    return link([assemble(FIXTURE.read_text(), FIXTURE.name)],
                LinkOptions())


class TestStoreBurstFixture:
    def test_every_flavour_stalls_on_a_full_store_buffer(self, burst,
                                                         tmp_path):
        grouped = assert_grouped_equals_step(burst, tmp_path)
        assert all(r.store_buffer_full_stalls > 0 for r in grouped)

    def test_fixture_reaches_every_recurrence_arm(self, burst, tmp_path):
        path, memory_usage = recorded(burst, tmp_path)
        fac = simulate_trace(burst, path, MACHINES["fac32"], memory_usage)
        norr = simulate_trace(burst, path, MACHINES["fac32norr"],
                              memory_usage)
        assert fac.fac_load_mispredicted > 0      # negative index load
        assert fac.fac_store_mispredicted > 0     # negative index store
        assert fac.fac_not_speculated > 0         # EX port taken
        assert norr.fac_mispredicted == 0         # reg+reg not speculated
        assert fac.branch_mispredicts > 0


class TestPortTablePrune:
    """Pruning the cache-port table is housekeeping. Nothing reads a
    port below the lower of the issue cycle and the store-buffer
    drain's cursor, so a small limit, the default and no limit give
    the same results. Without software support, xlisp's FAC flavours
    are among the suite runs that read a cycle between the two."""

    FLAVOURS = ("fac16", "fac32", "fac32norr")

    @pytest.mark.parametrize("name", ["store_burst", "xlisp"])
    def test_limit_is_unobservable(self, name, burst, monkeypatch):
        program = burst if name == "store_burst" else build_benchmark(name)
        machines = [MACHINES[label] for label in self.FLAVOURS]
        runs = []
        for limit in (8, replay.PORT_LIMIT, sys.maxsize):
            monkeypatch.setattr(replay, "PORT_LIMIT", limit)
            monkeypatch.setattr(pipeline, "PORT_LIMIT", limit)
            results, _ = time_live(program, machines)
            if name == "store_burst":     # the oracle prunes alike
                results += [step_simulation(program, machine)
                            for machine in machines]
            runs.append([canon(result) for result in results])
        assert runs[0] == runs[1] == runs[2]


class TestGroupedEqualsStep:
    def test_addressing_modes_program(self, tmp_path):
        assert_grouped_equals_step(asm_program(MODES_ASM), tmp_path)

    @pytest.mark.parametrize("name,software", [
        ("compress", False), ("tomcatv", True)])
    def test_suite_prefix(self, name, software, tmp_path):
        assert_grouped_equals_step(
            build_benchmark(name, software_support=software), tmp_path,
            budget=40_000)


class TestLiveFeed:
    def test_run_cut_in_the_middle_of_a_chunk(self, tmp_path,
                                              monkeypatch):
        """Many full chunks, then ``max_instructions`` stops the run
        part way into the next one."""
        monkeypatch.setattr(replay, "CHUNK", 1000)
        assert_grouped_equals_step(build_benchmark("compress"), tmp_path,
                                   budget=40_500)

    def test_cache_groups_share_one_run(self, burst):
        """A flavour with another D-cache gets its own front, fed by
        the same execution."""
        small = MachineConfig(
            dcache=CacheConfig(size=4096, block_size=16, name="dcache"),
            fac=FacConfig(cache_size=4096, block_size=16))
        machines = [MACHINES["fac32"], small, MACHINES["base"]]
        results, cpu = time_live(burst, machines)
        assert cpu.halted
        assert [canon(r) for r in results] == \
            [canon(step_simulation(burst, m)) for m in machines]

    def test_tee_sees_the_same_run(self):
        program = asm_program(MODES_ASM)
        log = RetireLog()
        (result,), cpu = time_live(program, [MACHINES["fac32"]], tee=log)
        reference_cpu, reference = run_trace_records(program)
        assert [record_fields(r) for r in log.records()] == \
            [record_fields(r) for r in reference]
        assert cpu.stdout() == reference_cpu.stdout()
        assert result.memory_usage == reference_cpu.memory_usage

    def test_tee_has_a_chunk_before_its_watcher(self, monkeypatch):
        """A full chunk flushes inside the front's ``retire``: by then
        the tee has seen the chunk's last record."""
        monkeypatch.setattr(replay, "CHUNK", 1000)
        log = RetireLog()
        watched = []

        def watch(indices, flags, outcomes, issues, readies):
            watched.append(len(indices))
            assert len(log.calls) == sum(watched)
            assert len(issues) == len(readies) == len(indices)

        time_live(build_benchmark("compress"), [MACHINES["fac32"]],
                  2500, tee=log, outcomes={MACHINES["fac32"]: watch})
        assert watched == [1000, 1000, 500]

    def test_outcomes_watch_one_of_its_machines(self, burst):
        with pytest.raises(ValueError):
            time_live(burst, [MACHINES["base"]],
                      outcomes={MACHINES["fac32"]: print})

    def test_live_front_has_no_result_before_close(self, burst):
        front = Front(burst, None, [MACHINES["base"]])
        with pytest.raises(ValueError):
            front.result(MACHINES["base"])
        front.open()
        with pytest.raises(ValueError):
            front.open()


class TestFront:
    def test_chunked_run_equals_one_chunk(self, burst, tmp_path,
                                          monkeypatch):
        """Recurrences keep their state across chunk boundaries."""
        path, memory_usage = recorded(burst, tmp_path)
        machines = list(MACHINES.values())
        whole = [canon(r) for r in time_flavours(burst, path, machines,
                                                  memory_usage)]
        monkeypatch.setattr(replay, "CHUNK", 7)
        chunked = [canon(r) for r in time_flavours(burst, path, machines,
                                                    memory_usage)]
        assert chunked == whole

    def test_decodes_once_per_cache_group(self, burst, tmp_path,
                                          monkeypatch):
        """Flavours sharing caches and BTB share one decode; a flavour
        with another D-cache gets its own front."""
        path, memory_usage = recorded(burst, tmp_path)
        decodes = []
        real = replay.replay_into

        def counted(program, trace, consumer):
            decodes.append(trace)
            return real(program, trace, consumer)

        monkeypatch.setattr(replay, "replay_into", counted)
        small = MachineConfig(
            dcache=CacheConfig(size=4096, block_size=16, name="dcache"),
            fac=FacConfig(cache_size=4096, block_size=16))
        machines = [*MACHINES.values(), small]
        results = time_flavours(burst, path, machines, memory_usage)
        assert len(decodes) == 2
        assert canon(results[-1]) == canon(step_simulation(burst, small))

    def test_results_are_fresh_objects(self, burst, tmp_path):
        path, memory_usage = recorded(burst, tmp_path)
        front = Front(burst, path, [MACHINES["base"]])
        first = simulate_trace(burst, front, MACHINES["base"], memory_usage)
        first.cycles = -1
        again = simulate_trace(burst, front, MACHINES["base"], memory_usage)
        assert again.cycles > 0

    def test_front_rejects_foreign_machines(self, burst, tmp_path):
        path, _ = recorded(burst, tmp_path)
        front = Front(burst, path, [MACHINES["base"]])
        with pytest.raises(ValueError):
            front.result(MACHINES["fac32"])
        with pytest.raises(ValueError):
            Front(burst, path, [MACHINES["base"],
                                MachineConfig(btb_entries=64)])
