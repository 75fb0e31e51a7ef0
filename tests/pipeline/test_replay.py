"""The shared-front trace timing engine against the scalar pipeline.

:mod:`repro.pipeline.replay` times one trace on many machine flavours
from one decode. Its snapshots must equal, byte for byte, those of the
:class:`PipelineSimulator` oracle fed from the ``step()`` spec
interpreter, on every flavour of ``repro.experiments.common.MACHINES``.
"""

import json
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
from repro.pipeline import MachineConfig
from repro.pipeline import replay
from repro.pipeline.replay import Front, time_flavours
from repro.workloads import build_benchmark
from tests.oracles import MODES_ASM, asm_program, step_simulation

FIXTURE = Path(__file__).parent / "fixtures" / "store_burst.s"


def canon(result) -> str:
    return json.dumps(sim_to_snapshot(result), sort_keys=True)


def recorded(program, tmp_path, budget=50_000_000):
    path = str(tmp_path / "trace.fact.gz")
    cpu = CPU(program)
    record_trace(program, path, budget, cpu=cpu)
    return path, cpu.memory_usage


def assert_grouped_equals_step(program, tmp_path, budget=50_000_000):
    path, memory_usage = recorded(program, tmp_path, budget)
    grouped = time_flavours(program, path, list(MACHINES.values()),
                            memory_usage=memory_usage)
    for (label, machine), result in zip(MACHINES.items(), grouped):
        oracle = step_simulation(program, machine, budget)
        assert canon(result) == canon(oracle), label
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


class TestGroupedEqualsStep:
    def test_addressing_modes_program(self, tmp_path):
        assert_grouped_equals_step(asm_program(MODES_ASM), tmp_path)

    @pytest.mark.parametrize("name,software", [
        ("compress", False), ("tomcatv", True)])
    def test_suite_prefix(self, name, software, tmp_path):
        assert_grouped_equals_step(
            build_benchmark(name, software_support=software), tmp_path,
            budget=40_000)


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
