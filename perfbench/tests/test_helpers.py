"""Unit tests of the benchmark's own helpers.

Run from the checkout root: ``python3 -m pytest perfbench/tests -q``.
"""

import json
import random
import statistics
from pathlib import Path

import pytest

from perfbench import inputs, run, stats
from perfbench.layers import PER_LAYER, SpanTotals, self_times

ROOT = Path(__file__).resolve().parents[2]


# ------------------------------------------------------------------ #
# stats


def test_percentile_is_nearest_rank():
    values = list(range(1, 101))
    assert stats.percentile(values, 50) == 50
    assert stats.percentile(values, 95) == 95
    assert stats.percentile(values, 100) == 100
    assert stats.percentile([7.0], 99) == 7.0


def test_tail_percentile_keeps_ten_samples_beyond():
    assert stats.tail_percentile(9) is None
    assert stats.tail_percentile(40) == 75
    assert stats.tail_percentile(100) == 90
    assert stats.tail_percentile(200) == 95
    assert stats.tail_percentile(1000) == 99
    for count in (40, 100, 200, 1000, 10_000):
        pct = stats.tail_percentile(count)
        assert count * (100 - pct) / 100 >= stats.MIN_BEYOND


def test_summarize_reports_median_tail_and_count():
    values = [float(v) for v in range(200)]
    summary = stats.summarize(values)
    assert summary["n"] == 200
    assert summary["p50"] == statistics.median(values)
    assert summary["tail_pct"] == 95
    assert summary["tail"] == 189.0
    assert stats.summarize([1.0, 2.0])["tail"] is None
    assert stats.summarize([])["n"] == 0


# ------------------------------------------------------------------ #
# seeded inputs


@pytest.mark.parametrize("choices", [inputs.SWEEP_SLICES,
                                     inputs.PROFILE_PICKS])
def test_picks_are_stratified_over_int_and_fp(choices):
    from repro.workloads.suite import BENCHMARKS

    assert len(set(choices)) == len(choices) >= 4
    for int_name, fp_name in choices:
        assert BENCHMARKS[int_name].category == "int"
        assert BENCHMARKS[fp_name].category == "fp"


def test_pick_is_a_function_of_seed_and_salt():
    choices = inputs.SWEEP_SLICES
    assert inputs.pick(3, "sweep", choices) == inputs.pick(3, "sweep", choices)
    assert len({inputs.pick(seed, "sweep", choices)
                for seed in range(40)}) > 1


def test_inline_program_prints_what_the_generator_computed():
    from repro.compiler import compile_and_link
    from repro.cpu import CPU

    rng = random.Random(5)
    for index in range(3):
        program = inputs.inline_program(rng, f"t{index}")
        cpu = CPU(compile_and_link(program.source))
        cpu.run(1_000_000)
        assert cpu.stdout() == program.expected_output


def test_poisson_schedule_is_seeded_and_exact_in_count():
    owned = [inputs.inline_program(random.Random(i), f"w{i}")
             for i in range(4)]
    first = inputs.poisson_schedule(7, 10.0, 300, 1 / 3, owned)
    again = inputs.poisson_schedule(7, 10.0, 300, 1 / 3, owned)
    other = inputs.poisson_schedule(8, 10.0, 300, 1 / 3, owned)
    assert first == again
    assert first != other
    assert len(first) == 300
    assert sum(a.cold for a in first) == 100
    dues = [a.due for a in first]
    assert dues == sorted(dues)
    assert 20 < dues[-1] < 40          # ~ count / rate seconds
    cold_sources = [a.program.source for a in first if a.cold]
    assert len(set(cold_sources)) == len(cold_sources)
    assert not {p.source for p in owned} & set(cold_sources)
    for index, arrival in enumerate(first):
        assert arrival.tenant == f"tenant-{index % 4}"
        if not arrival.cold:          # a tenant re-submits its own program
            assert arrival.program == owned[index % 4]


# ------------------------------------------------------------------ #
# spans


def _span(span_id, parent, name, t0, t1, **attrs):
    return {"span_id": span_id, "parent_id": parent, "name": name,
            "cat": "layer", "t0": t0, "t1": t1, "status": "ok",
            "attrs": attrs}


def test_self_time_subtracts_the_union_of_children():
    batch = [
        _span(1, None, "experiments", 0.0, 10.0),
        _span(2, 1, "store.get", 1.0, 4.0, hit=True),
        _span(3, 1, "snapshots", 3.0, 6.0),     # overlaps span 2
        _span(4, None, "open", 0.0, None),      # never closed: skipped
    ]
    got = {span["span_id"]: self_s for span, self_s in self_times(batch)}
    assert got == {1: pytest.approx(5.0), 2: pytest.approx(3.0),
                   3: pytest.approx(3.0)}


def test_span_totals_count_nested_store_calls_once():
    batch = [
        _span(1, None, "store.get", 0.0, 2.0, hit=True),   # get_json
        _span(2, 1, "store.get", 0.0, 0.5, hit=True),      # its get_meta
        _span(3, None, "store.get", 3.0, 3.5, hit=False),
    ]
    totals = SpanTotals([batch])
    assert totals.calls["store.get"] == 2
    assert totals.total_s["store.get"] == pytest.approx(2.5)
    assert totals.attr("store.get", "hit") == 1
    # spans started before the measured work are set-up, left out
    assert SpanTotals([batch], since=2.9).calls["store.get"] == 1


# ------------------------------------------------------------------ #
# the definitions file


def test_benchmark_json_matches_the_code():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [name for name, _ in PER_LAYER]
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == \
        dict(PER_LAYER)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END_UNITS
    assert tuple(w["name"] for w in spec["workloads"]) == run.WORKLOAD_NAMES
