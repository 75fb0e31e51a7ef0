"""A 64-entry fully-associative, randomly-replaced data TLB (4 KB pages).

Used for the Section 5.4 check that the software alignment support does
not hurt virtual-memory behaviour ("we examined TLB performance running
with a 64 entry fully associative randomly replaced data TLB with 4k
pages and found the largest absolute difference in the miss ratio to be
less than 0.1%").

Replacement uses a deterministic xorshift PRNG so runs are repeatable.
"""

from __future__ import annotations


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
        self.accesses = self.misses = 0

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
        self.accesses += 1
        page = address >> self.page_shift
        if page in self._pages:
            return True
        self.misses += 1
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
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        accesses = self.accesses
        return 1.0 - self.hits / accesses if accesses else 0.0
