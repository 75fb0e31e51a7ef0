"""TLB tests."""

from repro.cache.tlb import TLB


class TestTLB:
    def test_miss_then_hit(self):
        tlb = TLB(entries=4)
        assert not tlb.access(0x1000)
        assert tlb.access(0x1FFF)  # same page
        assert not tlb.access(0x2000)
        assert (tlb.accesses, tlb.hits, tlb.misses) == (3, 1, 2)

    def test_capacity_and_replacement(self):
        tlb = TLB(entries=4)
        for page in range(8):
            tlb.access(page << 12)
        # only 4 pages can be resident
        resident = sum(tlb.access(page << 12) for page in range(8))
        assert resident <= 4

    def test_deterministic(self):
        def run():
            tlb = TLB(entries=8, seed=99)
            pattern = [(i * 7919) % 64 for i in range(500)]
            for page in pattern:
                tlb.access(page << 12)
            return tlb.misses

        assert run() == run()

    def test_miss_ratio(self):
        tlb = TLB(entries=64)
        for __ in range(10):
            tlb.access(0x5000)
        assert abs(tlb.miss_ratio - 0.1) < 1e-12

    def test_page_size_validation(self):
        import pytest
        with pytest.raises(ValueError):
            TLB(page_size=1000)
