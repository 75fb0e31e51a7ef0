"""Per-site timing counts from the replay engine's columns.

``repro profile`` splits the run's memory counters by load/store pc
from the live engine's static-index and D-miss columns and the
recurrence's outcome column (:class:`repro.obs.profile.SiteTally`).
Its rows must equal the step-fed pipeline's counter tap
(:class:`tests.oracles.SiteCounters`), sum back to the
:class:`SimResult` totals, and asking for them must never change what
the engine schedules.
"""

from functools import lru_cache

import pytest

from repro.fac.config import FacConfig
from repro.obs.profile import SiteTally
from repro.pipeline import MachineConfig
from repro.pipeline.replay import time_live
from repro.workloads.suite import build_benchmark
from tests.oracles import SiteCounters, step_feed

WORKLOADS = ("compress", "xlisp", "tomcatv")
CONFIG = MachineConfig(fac=FacConfig(block_size=32))
BUDGET = 10_000_000


@lru_cache(maxsize=None)
def program(name):
    return build_benchmark(name)


@lru_cache(maxsize=None)
def tallied(name):
    """The engine's result and per-site rows ({pc: [accesses, misses,
    replays]}, load latency -> loads)."""
    prog = program(name)
    tally = SiteTally(prog)
    (result,), _ = time_live(prog, (CONFIG,), BUDGET,
                             outcomes={CONFIG: tally})
    rows = {prog.text_base + 4 * index: [int(tally.accesses[index]),
                                         int(tally.misses[index]),
                                         int(tally.replays[index])]
            for index in tally.accesses.nonzero()[0]}
    return result, rows, tally.load_latency


@lru_cache(maxsize=None)
def oracle(name):
    tap = SiteCounters(CONFIG)
    return step_feed(tap, program(name), BUDGET), tap


@pytest.mark.parametrize("name", WORKLOADS)
def test_site_rows_equal_oracle_tap(name):
    result, rows, latency = tallied(name)
    stepped, tap = oracle(name)
    assert result == stepped
    assert rows == tap.per_pc
    assert latency == tap.load_latency


@pytest.mark.parametrize("name", WORKLOADS)
def test_site_rows_sum_to_run_totals(name):
    result, rows, _ = tallied(name)
    accesses, misses, replays = (sum(column) for column
                                 in zip(*rows.values()))
    assert accesses == result.dcache_accesses
    assert misses == result.dcache_misses
    assert replays == result.fac_mispredicted
    assert result.fac_mispredicted > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_latency_counts_cover_every_load(name):
    result, _, latency = tallied(name)
    assert sum(latency.values()) == result.loads
    assert sum(cycles * loads for cycles, loads in latency.items()) \
        == result.load_latency_sum


@pytest.mark.parametrize("name", WORKLOADS)
def test_tap_never_perturbs_timing(name):
    result, _, _ = tallied(name)
    (plain,), _ = time_live(program(name), (CONFIG,), BUDGET)
    assert result == plain
