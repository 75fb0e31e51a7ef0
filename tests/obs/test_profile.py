"""``repro profile`` consistency: functional analyzer, lint, schema.

The satellite contract: per-PC numbers reported by the profiler agree
*exactly* with the dynamic analyzer's trace counts on at least three
suite workloads at both cache geometries (16- and 32-byte blocks), and
no site the static linter certifies ALWAYS ever shows a misprediction.

The full ``to_json()`` payload and ``render_text()`` table of each
workload at both primary block sizes are pinned byte for byte by the
``golden/profile_*`` files (regenerate with
``PYTHONPATH=src python tests/obs/make_golden.py`` and review the diff).
"""

import json
from functools import lru_cache
from pathlib import Path

import pytest

from repro.analysis.prediction import analyze_program
from repro.analysis.reporting import validate_against_schema
from repro.obs.profile import PROFILE_SCHEMA, profile_program
from repro.workloads.suite import BENCHMARKS, build_benchmark

WORKLOADS = ("compress", "xlisp", "tomcatv")
BLOCK_SIZES = (16, 32)
GOLDEN_DIR = Path(__file__).parent / "golden"


@lru_cache(maxsize=None)
def profiled(name, primary_block_size=32):
    return profile_program(build_benchmark(name), name=name,
                           block_sizes=BLOCK_SIZES,
                           primary_block_size=primary_block_size)


def golden_texts(name, primary_block_size):
    """(golden file name, current text) for one profile's JSON payload
    (formatted as ``repro profile --json`` prints it) and text table."""
    profile = profiled(name, primary_block_size)
    stem = f"profile_{name}_b{primary_block_size}"
    return ((f"{stem}.json", json.dumps(profile.to_json(), indent=2) + "\n"),
            (f"{stem}.txt", profile.render_text() + "\n"))


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("primary_block_size", BLOCK_SIZES)
def test_output_matches_golden(name, primary_block_size):
    for filename, text in golden_texts(name, primary_block_size):
        assert text == (GOLDEN_DIR / filename).read_text(), filename


@lru_cache(maxsize=None)
def analyzed(name):
    return analyze_program(build_benchmark(name), block_sizes=BLOCK_SIZES,
                           per_pc=True)


@pytest.mark.parametrize("name", WORKLOADS)
@pytest.mark.parametrize("block_size", BLOCK_SIZES)
def test_per_pc_counts_match_dynamic_analyzer(name, block_size):
    profile = profiled(name)
    reference = analyzed(name).per_pc[block_size]
    assert profile.sites, f"{name}: profiler found no memory sites"
    profiled_counts = {site.pc: list(site.counts[block_size])
                       for site in profile.sites}
    assert profiled_counts == {pc: list(pair)
                               for pc, pair in reference.items()}


@pytest.mark.parametrize("name", WORKLOADS)
def test_no_always_site_mispredicts(name):
    profile = profiled(name)
    offenders = [site for site in profile.sites
                 if site.verdict == "always" and site.failures > 0]
    assert offenders == [], (
        f"{name}: static ALWAYS sites with dynamic mispredictions: "
        + ", ".join(f"0x{s.pc:08x}" for s in offenders))


@pytest.mark.parametrize("name", WORKLOADS)
def test_source_attribution_present(name):
    profile = profiled(name)
    located = [site for site in profile.sites if site.source]
    # every suite kernel is MiniC, so the bulk of its sites carry
    # file:line attribution (runtime stubs may not)
    assert len(located) >= len(profile.sites) // 2
    assert all(":" in site.source for site in located)


@pytest.mark.parametrize("name", WORKLOADS)
def test_json_payload_validates(name):
    payload = profiled(name).to_json()
    assert validate_against_schema(payload, PROFILE_SCHEMA) == []
    assert payload["summary"]["sites"] == len(profiled(name).sites)
    # functional output must match the registered expected stdout
    assert profiled(name).analysis.stdout == BENCHMARKS[name].expected_output


def test_hottest_ordering_is_deterministic():
    profile = profiled("compress")
    ranked = profile.hottest()
    keys = [(-s.replay_cycles, -s.accesses, s.pc) for s in ranked]
    assert keys == sorted(keys)
    assert profile.hottest(top=5) == ranked[:5]


def test_site_lookup_and_summary_consistency():
    profile = profiled("compress")
    first = profile.sites[0]
    assert profile.site_at(first.pc) is first
    assert profile.site_at(0) is None
    assert profile.replay_cycles == sum(s.replay_cycles
                                        for s in profile.sites)


class TestSortOrders:
    """``--sort`` semantics: each key ranks its own column, ties break
    deterministically by pc."""

    def test_sort_misses_ranks_miss_column(self):
        profile = profiled("compress")
        ranked = profile.hottest(sort="misses")
        keys = [(-s.misses, -s.accesses, s.pc) for s in ranked]
        assert keys == sorted(keys)

    def test_sort_predict_rate_puts_worst_sites_first(self):
        profile = profiled("compress")
        ranked = profile.hottest(sort="predict_rate")
        keys = [(s.prediction_rate, -s.accesses, s.pc) for s in ranked]
        assert keys == sorted(keys)
        rates = [s.prediction_rate for s in ranked]
        assert rates[0] == min(rates)

    def test_unknown_sort_raises(self):
        with pytest.raises(ValueError, match="unknown sort"):
            profiled("compress").hottest(sort="alphabetical")

    def test_top_truncates_after_sorting(self):
        profile = profiled("compress")
        assert profile.hottest(top=3, sort="misses") == \
            profile.hottest(sort="misses")[:3]

    def test_to_json_respects_sort_and_top(self):
        profile = profiled("compress")
        payload = profile.to_json(top=4, sort="predict_rate")
        expected = [s.pc for s in profile.hottest(top=4,
                                                  sort="predict_rate")]
        assert [s["pc"] for s in payload["sites"]] == expected

    def test_equal_sites_tie_break_by_pc(self):
        profile = profiled("compress")
        for sort in ("replays", "misses", "predict_rate"):
            ranked = profile.hottest(sort=sort)
            a = profile.hottest(sort=sort)
            assert [s.pc for s in ranked] == [s.pc for s in a]
