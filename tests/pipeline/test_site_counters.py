"""The pipeline's per-site counter tap (:class:`SiteCounters`).

The tap splits the run's aggregate memory counters by load/store pc,
so its per-site rows must sum back to the :class:`SimResult` totals,
and attaching it must never change what the pipeline schedules.
"""

from functools import lru_cache

import pytest

from repro.cpu.executor import CPU
from repro.fac.config import FacConfig
from repro.pipeline import MachineConfig, PipelineSimulator, SiteCounters
from repro.workloads.suite import build_benchmark

WORKLOADS = ("compress", "xlisp", "tomcatv")
CONFIG = MachineConfig(fac=FacConfig(block_size=32))


def run(name, sites=None):
    program = build_benchmark(name)
    cpu = CPU(program)
    pipe = PipelineSimulator(CONFIG)
    pipe.sites = sites
    cpu.run_trace(pipe, 10_000_000)
    return pipe.finalize(memory_usage=cpu.memory_usage)


@lru_cache(maxsize=None)
def tapped(name):
    sites = SiteCounters()
    return run(name, sites), sites


@pytest.mark.parametrize("name", WORKLOADS)
def test_site_rows_sum_to_run_totals(name):
    result, sites = tapped(name)
    accesses, misses, replays = (sum(column) for column
                                 in zip(*sites.per_pc.values()))
    assert accesses == result.dcache_accesses
    assert misses == result.dcache_misses
    assert replays == result.fac_mispredicted
    assert result.fac_mispredicted > 0


@pytest.mark.parametrize("name", WORKLOADS)
def test_latency_counts_cover_every_load(name):
    result, sites = tapped(name)
    latency = sites.load_latency
    assert sum(latency.values()) == result.loads
    assert sum(cycles * loads for cycles, loads in latency.items()) \
        == result.load_latency_sum


@pytest.mark.parametrize("name", WORKLOADS)
def test_tap_never_perturbs_timing(name):
    result, _ = tapped(name)
    assert result.as_dict() == run(name).as_dict()


def test_detached_by_default():
    assert PipelineSimulator(CONFIG).sites is None
