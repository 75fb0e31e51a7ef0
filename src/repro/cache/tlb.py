"""A 64-entry fully-associative, randomly-replaced data TLB (4 KB pages).

Used for the Section 5.4 check that the software alignment support does
not hurt virtual-memory behaviour ("we examined TLB performance running
with a 64 entry fully associative randomly replaced data TLB with 4k
pages and found the largest absolute difference in the miss ratio to be
less than 0.1%").

Replacement uses a deterministic xorshift PRNG so runs are repeatable.
"""

from __future__ import annotations

from repro.obs.metrics import RatioStat


class TLB:
    """Fully-associative TLB with random replacement."""

    def __init__(self, entries: int = 64, page_size: int = 4096,
                 seed: int = 0x2545F491):
        self.capacity = entries
        self.page_shift = (page_size - 1).bit_length()
        if 1 << self.page_shift != page_size:
            raise ValueError("page size must be a power of two")
        self._pages: set[int] = set()
        self._order: list[int] = []
        self._rng_state = seed or 1
        self._accesses = RatioStat("tlb.accesses")

    def _rand(self) -> int:
        # xorshift32
        x = self._rng_state
        x ^= (x << 13) & 0xFFFFFFFF
        x ^= x >> 17
        x ^= (x << 5) & 0xFFFFFFFF
        self._rng_state = x
        return x

    def access(self, address: int) -> bool:
        """Translate one address; returns True on TLB hit."""
        page = address >> self.page_shift
        if page in self._pages:
            self._accesses.record(True)
            return True
        self._accesses.record(False)
        if len(self._order) >= self.capacity:
            victim_slot = self._rand() % self.capacity
            victim = self._order[victim_slot]
            self._pages.discard(victim)
            self._order[victim_slot] = page
        else:
            self._order.append(page)
        self._pages.add(page)
        return False

    @property
    def hits(self) -> int:
        return self._accesses.hits

    @property
    def misses(self) -> int:
        return self._accesses.misses

    @property
    def accesses(self) -> int:
        return self._accesses.total

    @property
    def miss_ratio(self) -> float:
        return self._accesses.miss_ratio

    def as_dict(self) -> dict:
        """Uniform metrics protocol (see :mod:`repro.obs.metrics`)."""
        return {self._accesses.name: self._accesses.as_dict()}

    def merge_stats(self, other: "TLB") -> None:
        self._accesses.merge(other._accesses)

    def reset_stats(self) -> None:
        self._accesses.reset()
