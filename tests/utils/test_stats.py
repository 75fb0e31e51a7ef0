"""Tests for the statistics containers."""

from hypothesis import given, strategies as st

from repro.obs.metrics import Counter, Histogram, RatioStat


class TestCounter:
    def test_incr_and_rate(self):
        counter = Counter("events")
        counter.incr()
        counter.incr(4)
        assert counter.count == 5
        assert counter.rate(10) == 0.5

    def test_rate_zero_total(self):
        assert Counter("x").rate(0) == 0.0

    def test_reset(self):
        counter = Counter("x")
        counter.incr(3)
        counter.reset()
        assert counter.count == 0


class TestRatioStat:
    def test_basic(self):
        stat = RatioStat("hits")
        stat.record(True)
        stat.record(False)
        stat.record(True)
        assert stat.hits == 2
        assert stat.misses == 1
        assert abs(stat.hit_ratio - 2 / 3) < 1e-12
        assert abs(stat.miss_ratio - 1 / 3) < 1e-12

    def test_empty(self):
        stat = RatioStat("empty")
        assert stat.hit_ratio == 0.0
        assert stat.miss_ratio == 0.0


class TestHistogram:
    def test_record_and_count(self):
        hist = Histogram("h")
        hist.record(3)
        hist.record(3)
        hist.record(7, 4)
        assert hist.count(3) == 2
        assert hist.count(7) == 4
        assert hist.count(99) == 0
        assert hist.total == 6
        assert len(hist) == 2

    def test_cumulative(self):
        hist = Histogram()
        for key in (0, 0, 1, 4):
            hist.record(key)
        assert hist.cumulative([0, 1, 2, 4]) == [0.5, 0.75, 0.75, 1.0]

    def test_cumulative_empty(self):
        assert Histogram().cumulative([1, 2]) == [0.0, 0.0]

    def test_merge(self):
        a, b = Histogram(), Histogram()
        a.record(1)
        b.record(1)
        b.record(2)
        a.merge(b)
        assert a.count(1) == 2
        assert a.count(2) == 1

    @given(st.lists(st.integers(-100, 100)))
    def test_cumulative_is_monotone_and_ends_at_one(self, keys):
        hist = Histogram()
        for key in keys:
            hist.record(key)
        points = sorted(set(keys)) or [0]
        cumulative = hist.cumulative(points)
        assert all(b >= a for a, b in zip(cumulative, cumulative[1:]))
        if keys:
            assert abs(cumulative[-1] - 1.0) < 1e-12
