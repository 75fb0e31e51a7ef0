"""Metrics containers, registry, and the uniform protocol adopters."""

import pytest

from repro.cache.cache import Cache, CacheConfig
from repro.cache.tlb import TLB
from repro.obs.metrics import (
    SNAPSHOT_VERSION,
    Counter,
    Histogram,
    MetricsRegistry,
    RatioStat,
    TimingHistogram,
    safe_ratio,
)
from repro.pipeline.result import SimResult


class TestContainers:
    def test_safe_ratio(self):
        assert safe_ratio(1, 4) == 0.25
        assert safe_ratio(1, 0) == 0.0

    def test_counter_protocol(self):
        counter = Counter("x")
        counter.incr()
        counter.incr(4)
        assert counter.as_dict() == {"type": "counter", "count": 5}
        other = Counter("x")
        other.incr(2)
        counter.merge(other)
        assert counter.count == 7
        counter.reset()
        assert counter.count == 0

    def test_ratio_protocol(self):
        ratio = RatioStat("hits")
        ratio.record(True)
        ratio.record(False)
        ratio.record(True)
        assert ratio.hit_ratio == pytest.approx(2 / 3)
        assert ratio.as_dict() == {"type": "ratio", "hits": 2, "total": 3}
        other = RatioStat("hits")
        other.record(False)
        ratio.merge(other)
        assert (ratio.hits, ratio.total) == (2, 4)

    def test_histogram_protocol(self):
        hist = Histogram("h")
        hist.record(4)
        hist.record(4)
        hist.record(16, 3)
        assert hist.count(4) == 2 and hist.total == 5
        assert hist.as_dict()["counts"] == {"4": 2, "16": 3}
        assert hist.cumulative([4, 16]) == [0.4, 1.0]
        other = Histogram("h")
        other.record(4)
        hist.merge(other)
        assert hist.count(4) == 3


class TestTimingHistogram:
    def test_bucket_edges_are_exclusive_inclusive(self):
        # bucket i covers (BASE * G**(i-1), BASE * G**i]
        base = TimingHistogram.BASE
        growth = TimingHistogram.GROWTH
        assert TimingHistogram.bucket_index(base) == 0  # underflow
        assert TimingHistogram.bucket_index(base * growth) == 1
        assert TimingHistogram.bucket_index(base * growth * 1.001) == 2
        upper = TimingHistogram.bucket_upper_bound(4)
        assert upper == pytest.approx(base * 2.0)  # 4 buckets per octave

    def test_exact_moments_and_negative_clamp(self):
        hist = TimingHistogram("t")
        for value in (0.001, 0.002, 0.004, -1.0):
            hist.record(value)
        assert hist.count == 4
        assert hist.sum == pytest.approx(0.007)
        assert hist.min == 0.0 and hist.max == 0.004
        assert hist.mean == pytest.approx(0.007 / 4)

    def test_quantile_never_understates(self):
        hist = TimingHistogram("t")
        samples = [0.0001 * (i + 1) for i in range(100)]
        for value in samples:
            hist.record(value)
        for q in (0.5, 0.9, 0.99):
            exact = samples[min(len(samples) - 1,
                                int(q * len(samples)))]
            estimate = hist.quantile(q)
            assert estimate >= exact * 0.999  # conservative (upper bound)
            assert estimate <= exact * TimingHistogram.GROWTH  # ~19% wide
        assert hist.quantile(1.0) == hist.max
        assert TimingHistogram("e").quantile(0.99) == 0.0
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_merge_and_reset(self):
        a, b = TimingHistogram("t"), TimingHistogram("t")
        a.record(0.01)
        b.record(0.02)
        b.record(0.0000001)  # underflow bucket
        a.merge(b)
        assert a.count == 3
        assert (a.min, a.max) == (0.0000001, 0.02)
        assert dict(a.buckets())[0] == 1
        a.merge(TimingHistogram("empty"))  # empty merge keeps min intact
        assert a.min == 0.0000001
        a.reset()
        assert a.count == 0 and a.as_dict()["min"] == 0.0

    def test_snapshot_round_trip_via_registry(self):
        registry = MetricsRegistry()
        timing = registry.timing("lat")
        timing.record(0.005)
        timing.record(0.150)
        snapshot = registry.snapshot(meta={"workload": "unit-test"})
        payload = snapshot["metrics"]["lat"]
        assert payload["type"] == "timing"
        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert rebuilt.snapshot(meta={"workload": "unit-test"}) == snapshot
        assert rebuilt.timing("lat").quantile(0.5) == timing.quantile(0.5)


class TestRegistry:
    def test_get_or_create_and_type_conflict(self):
        registry = MetricsRegistry()
        counter = registry.counter("a.b")
        assert registry.counter("a.b") is counter
        with pytest.raises(TypeError):
            registry.ratio("a.b")

    def test_subtree_and_paths(self):
        registry = MetricsRegistry()
        registry.counter("dcache.reads")
        registry.counter("dcache.writes")
        registry.counter("icache.reads")
        assert set(registry.subtree("dcache")) == {"dcache.reads",
                                                   "dcache.writes"}
        assert registry.paths() == sorted(registry.paths())

    def test_snapshot_round_trip(self):
        registry = MetricsRegistry()
        registry.counter("n").incr(3)
        registry.ratio("r").record(True)
        registry.histogram("h").record(7, 2)
        snapshot = registry.snapshot(meta={"workload": "unit-test"})
        assert snapshot["schema"] == SNAPSHOT_VERSION
        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert rebuilt.snapshot(meta={"workload": "unit-test"}) == snapshot

    def test_from_snapshot_rejects_unknown_version(self):
        with pytest.raises(ValueError):
            MetricsRegistry.from_snapshot({"schema": "repro.metrics/999",
                                           "meta": {}, "metrics": {}})

    def test_registry_merge(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("n").incr(1)
        b.counter("n").incr(2)
        b.counter("m").incr(5)
        a.merge(b)
        assert a.counter("n").count == 3
        assert a.counter("m").count == 5


class TestProtocolAdopters:
    """pipeline/result.py and the cache models share the same protocol."""

    def test_simresult_as_dict_and_merge(self):
        a = SimResult(cycles=10, instructions=8, loads=2)
        b = SimResult(cycles=5, instructions=4, loads=1)
        payload = a.as_dict()
        assert payload["cycles"] == {"type": "counter", "value": 10}
        assert "extras" not in payload
        a.merge(b)
        assert (a.cycles, a.instructions, a.loads) == (15, 12, 3)

    def test_simresult_to_registry(self):
        result = SimResult(cycles=10, instructions=8,
                           dcache_accesses=4, dcache_misses=1)
        registry = MetricsRegistry()
        result.to_registry(registry, prefix="sim")
        assert registry.counter("sim.cycles").count == 10
        assert registry.ratio("sim.dcache").hit_ratio == 0.75

    def test_cache_metrics_protocol(self):
        cache = Cache(CacheConfig(size=256, block_size=16, name="d"))
        cache.access(0)
        cache.access(0)
        cache.access(4096, is_write=True)
        payload = cache.as_dict()
        assert payload["d.accesses"] == {"type": "ratio", "hits": 1,
                                         "total": 3}
        other = Cache(CacheConfig(size=256, block_size=16, name="d"))
        other.access(0)
        cache.merge_stats(other)
        assert cache.accesses == 4

    def test_tlb_and_storebuffer_protocol(self):
        """The TLB half; the store-buffer model left ``repro.cache`` (the
        pipeline's own store buffer is timed in tests/pipeline)."""
        tlb = TLB(entries=4)
        tlb.access(0)
        tlb.access(0)
        assert tlb.as_dict()["tlb.accesses"]["total"] == 2
