"""The shared-front timing engine against the scalar pipeline.

:mod:`repro.pipeline.replay` times one run on many machine flavours,
its front fed from a recorded trace (one decode) or live by
``CPU.run_trace``. Both feeds' snapshots must equal, byte for byte,
those of the :class:`PipelineSimulator` oracle fed from the ``step()``
spec interpreter, on every flavour of
``repro.experiments.common.MACHINES``; so must a watched run's
per-instruction columns, as the flight recorder decodes them, equal
the oracle's per-instruction tap (:class:`tests.oracles.FlightTap`).
The recurrence's window memo is held to the same recurrence with the
memo off (``MEMO_LIMIT`` 0).
"""

import json
import random
import sys
from array import array
from functools import lru_cache
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.cache import CacheConfig
from repro.cpu import CPU
from repro.cpu.tracefile import record_trace, simulate_trace
from repro.experiments.common import MACHINES
from repro.fac import FacConfig
from repro.farm.snapshots import sim_to_snapshot
from repro.isa.assembler import assemble
from repro.isa.opcodes import OP_INFO, OpClass
from repro.linker import LinkOptions, link
from repro.obs.flight import FlightRecorder
from repro.pipeline import MachineConfig
from repro.pipeline import pipeline, replay
from repro.pipeline.replay import (
    DMISS,
    IMISS,
    IN_MEM,
    MISPREDICT,
    REDIRECT,
    REPLAYED,
    Front,
    time_flavours,
    time_live,
)
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


def timed(program, machines, budget):
    """Time ``program`` live on ``machines`` (one front), unwatched and
    watched: both runs' snapshots, every watched chunk's outcome, issue
    and ready columns, and the unwatched run's memo statistics."""
    front = Front(program, None, machines)
    front.close(CPU(program).run_trace(front.open(), budget))
    columns = {machine: [] for machine in machines}

    def watcher(kept):
        def watch(indices, flags, outcomes, issues, readies):
            kept.append((bytes(outcomes), issues.tobytes(),
                         readies.tobytes()))
        return watch

    watched = Front(program, None, machines,
                    {m: watcher(columns[m]) for m in machines})
    watched.close(CPU(program).run_trace(watched.open(), budget))
    return ([canon(front.result(m)) for m in machines],
            [canon(watched.result(m)) for m in machines],
            columns, front.memo_stats)


def assert_memo_unobservable(program, machines, monkeypatch,
                             budget=50_000_000):
    """The memo changes no result and no watched column; returns its
    statistics."""
    *memo, stats = timed(program, machines, budget)
    monkeypatch.setattr(replay, "MEMO_LIMIT", 0)
    *plain, no_memo = timed(program, machines, budget)
    assert memo == plain
    assert all(s == {"windows": 0, "hits": 0, "entries": 0}
               for s in no_memo.values())
    return stats


def recurrence_run(program, config, chunks, watched, paths):
    """Feed ``chunks`` straight to one flavour's recurrence; returns
    its counters and, when ``watched``, every chunk's columns, then its
    memo statistics."""
    kept = []

    def watch(indices, flags, outcomes, issues, readies):
        kept.append((bytes(outcomes), issues.tobytes(), readies.tobytes()))

    flavour = replay._recurrence(program, config,
                                 0 if config.fac is None else 1,
                                 watch if watched else None, paths)
    next(flavour)
    for chunk in chunks:
        flavour.send(chunk)
    try:
        flavour.send(None)
    except StopIteration as done:
        counters, stats = done.value
    return (counters, kept), stats


# 0 and 1, or 2 and 3, issue in one cycle (one accessed in MEM, the
# other replayed), then 4 and 5 (or their copies 7 and 8) in the next
REPLAY_ASM = """
.text
.globl __start
__start:
    swx $t1, $t2($sp)       # store, never speculated
    lw $t3, 0($sp)          # load, speculated
    lwx $t3, $t2($sp)       # load, never speculated
    sw $t1, 4($sp)          # store, speculated
    addu $t4, $t0, $t0
    lw $t5, 8($sp)
    addu $t6, $t0, $t0      # padding
    addu $t4, $t0, $t0
    lw $t5, 8($sp)
"""


@lru_cache(maxsize=None)
def fixture_program(name):
    return asm_program(MODES_ASM) if name == "modes" else link(
        [assemble(FIXTURE.read_text(), FIXTURE.name)], LinkOptions())


class TestMemo:
    """A window's state changes are replayed only when every state the
    window can read is in its key, so the memo is unobservable: every
    result and watched column equals that of the recurrence stepping
    every record (``MEMO_LIMIT`` 0)."""

    def test_store_burst_on_every_flavour(self, burst, monkeypatch):
        stats = assert_memo_unobservable(burst, list(MACHINES.values()),
                                         monkeypatch)
        assert all(s["hits"] > 0 for s in stats.values())

    def test_xlisp_fac_flavours_with_a_small_port_table(self,
                                                        monkeypatch):
        """xlisp is where port and store-buffer state below the issue
        cycle once changed results; a limit of 8 prunes the port table
        as often as it can."""
        monkeypatch.setattr(replay, "PORT_LIMIT", 8)
        machines = [MACHINES[label]
                    for label in ("fac16", "fac32", "fac32norr")]
        stats = assert_memo_unobservable(build_benchmark("xlisp"),
                                         machines, monkeypatch)
        assert all(s["hits"] > s["windows"] // 2 for s in stats.values())

    @pytest.mark.parametrize("chunk", [7, 1000])
    def test_windows_cut_at_chunk_ends(self, chunk, monkeypatch):
        """A window that would cross the end of its chunk is stepped;
        a chunk shorter than a window leaves the memo unused."""
        monkeypatch.setattr(replay, "CHUNK", chunk)
        machines = [MACHINES[label] for label in ("base", "fac32")]
        stats = assert_memo_unobservable(build_benchmark("compress"),
                                         machines, monkeypatch,
                                         budget=20_500)
        windows = sum(s["windows"] for s in stats.values())
        assert windows == 0 if chunk < replay.WINDOW else windows > 0

    def test_nine_geometries_give_a_list_fail_column(self, monkeypatch):
        machines = [MachineConfig(fac=FacConfig(cache_size=size,
                                                block_size=block))
                    for size in (4096, 8192, 16384)
                    for block in (16, 32, 64)]
        stats = assert_memo_unobservable(build_benchmark("compress"),
                                         machines, monkeypatch,
                                         budget=20_000)
        assert all(s["hits"] > 0 for s in stats.values())

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(data=st.data())
    def test_memo_forgets_no_state(self, data):
        """Random records, flags, fail bits, window cuts and machine
        limits, fed straight to one flavour's recurrence. The records
        are drawn from a few static instructions of a fixture in any
        order, and windows are cut after any record: windows of real
        code start after a branch, in states too alike for a forgotten
        part of the key to change a result."""
        program = fixture_program(data.draw(st.sampled_from(
            ["store_burst", "modes"])))
        size = len(program.instructions)
        fac = data.draw(st.sampled_from(
            [FacConfig(block_size=16), FacConfig(speculate_reg_reg=False),
             None]))
        config = MachineConfig(
            fac=fac,
            issue_width=data.draw(st.integers(1, 4)),
            dcache_read_ports=data.draw(st.integers(1, 2)),
            dcache_write_ports=data.draw(st.integers(1, 2)),
            store_buffer_entries=data.draw(st.sampled_from([1, 2, 4, 16])),
            one_cycle_loads=fac is None and data.draw(st.booleans()),
            perfect_dcache=data.draw(st.booleans()))
        # mostly loads and stores, whose replays and ports carry state
        # across a window cut, and a divide, which keeps a unit busy
        infos = [OP_INFO[inst.op] for inst in program.instructions]
        memory = [index for index, info in enumerate(infos)
                  if info.is_load or info.is_store]
        divides = [index for index, info in enumerate(infos)
                   if info.klass in (OpClass.IDIV, OpClass.FPDIV)]
        pool = [*data.draw(st.lists(st.sampled_from(memory), min_size=2,
                                    max_size=5)),
                *data.draw(st.lists(st.integers(0, size - 1), max_size=3))]
        divide = data.draw(st.sampled_from(divides))
        rate = data.draw(st.sampled_from([0.05, 0.15, 0.3]))
        fail_rate = data.draw(st.sampled_from([0.1, 0.3, 0.6]))
        rng = random.Random(data.draw(st.integers(0, 2 ** 32)))
        indices = array("I", [divide if rng.random() < 0.02
                              else rng.choice(pool) for _ in range(3000)])
        flag_col = bytearray(sum(bit for bit in (IMISS, DMISS, REDIRECT,
                                                 MISPREDICT)
                                 if rng.random() < rate)
                             for _ in indices)
        fail_col = bytearray(int(rng.random() < fail_rate)
                             for _ in indices)
        step = data.draw(st.sampled_from([50, 700, 3000]))
        chunks = [(indices[pos:pos + step], flag_col[pos:pos + step],
                   fail_col[pos:pos + step])
                  for pos in range(0, len(indices), step)]
        paths = replay._Paths(program)
        paths.runs = data.draw(st.lists(st.integers(1, 2), min_size=size,
                                        max_size=size))
        window = data.draw(st.integers(1, 2))
        for watched in (False, True):
            with mock.patch.object(replay, "WINDOW", window):
                memo, _ = recurrence_run(program, config, chunks, watched,
                                         paths)
                with mock.patch.object(replay, "MEMO_LIMIT", 0):
                    plain, _ = recurrence_run(program, config, chunks,
                                              watched, paths)
            assert memo == plain

    def test_a_load_after_a_replayed_store_needs_no_key(self):
        """``mis_load`` is left out of the key: a load that issues the
        cycle after a replayed store finds the replay's store port
        taken, so it is accessed in MEM whichever kind the replay was.
        A MEM store and a replayed load in one cycle, or a MEM load and
        a replayed store, leave the next cycle in states that differ
        only in ``mis_load``. Once the ALU record has issued there, the
        load's window the second time hits the entry of the first (one
        hit more than with a copy of the load), and every result and
        column equals stepping."""
        program = asm_program(REPLAY_ASM)
        config = MachineConfig(fac=FacConfig(speculate_reg_reg=False),
                               issue_width=2)
        paths = replay._Paths(program)
        paths.runs = [1] * len(program.instructions)   # a window a record

        def chunks(after_store):
            indices = array("I", [0, 1, 4, 5, *[6] * 8,
                                  2, 3, *after_store, *[6] * 8])
            fails = bytearray(int(index in (1, 3)) for index in indices)
            return [(indices, bytearray(len(indices)), fails)]

        with mock.patch.object(replay, "WINDOW", 1):
            memo, stats = recurrence_run(program, config, chunks([4, 5]),
                                         True, paths)
            _, copied = recurrence_run(program, config, chunks([7, 8]),
                                       True, paths)
            with mock.patch.object(replay, "MEMO_LIMIT", 0):
                plain, _ = recurrence_run(program, config, chunks([4, 5]),
                                          True, paths)
        assert memo == plain
        assert stats["hits"] == copied["hits"] + 1
        ((outcomes, issues, _),) = plain[1]
        assert outcomes == bytes([IN_MEM, REPLAYED, IN_MEM,
                                  IN_MEM, REPLAYED, IN_MEM])
        issues = array("q", issues)
        for start in (0, 12):
            assert [cycle - issues[start]
                    for cycle in issues[start:start + 4]] == [0, 0, 1, 1]
