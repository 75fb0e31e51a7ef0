"""Set-associative cache model with write-back / write-allocate policy.

The model tracks tags, valid and dirty bits, and LRU state; data values
live in the simulated :class:`~repro.mem.memory.Memory` (timing and
contents are decoupled, as in trace-driven simulators). The baseline
machine of Table 5 uses 16 KB direct-mapped caches with 32-byte blocks
and a 6-cycle miss latency.

Statistics are plain int counters, cheap on every access. Per-access
activity is not streamed: the timing engine's D-cache outcomes reach
observers as the replay engine's flags column
(:mod:`repro.pipeline.replay`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.utils.bits import is_pow2, log2_exact


@dataclass(frozen=True)
class CacheConfig:
    """Geometry and timing of one cache."""

    size: int = 16 * 1024
    block_size: int = 32
    assoc: int = 1
    miss_latency: int = 6
    write_back: bool = True
    write_allocate: bool = True
    name: str = "cache"

    def __post_init__(self):
        if not is_pow2(self.size) or not is_pow2(self.block_size):
            raise ConfigError("cache size and block size must be powers of two")
        if not is_pow2(self.assoc) or self.assoc < 1:
            raise ConfigError("associativity must be a positive power of two")
        if self.size % (self.block_size * self.assoc) != 0:
            raise ConfigError("size must be a multiple of block_size * assoc")

    @property
    def num_sets(self) -> int:
        return self.size // (self.block_size * self.assoc)

    @property
    def offset_bits(self) -> int:
        return log2_exact(self.block_size)

    @property
    def index_bits(self) -> int:
        return log2_exact(self.num_sets)


class Cache:
    """Tag store with hit/miss and write-back accounting."""

    def __init__(self, config: CacheConfig | None = None):
        self.config = config or CacheConfig()
        cfg = self.config
        self._offset_bits = cfg.offset_bits
        self._index_bits = cfg.index_bits
        self._index_mask = cfg.num_sets - 1
        self._assoc = cfg.assoc
        # Per set: list of [tag, dirty] entries ordered most-recent first.
        self._sets: list[list[list]] = [[] for _ in range(cfg.num_sets)]
        self.read_accesses = self.write_accesses = 0
        self.misses = self.writebacks = 0

    # ------------------------------------------------------------------ #

    def _locate(self, address: int) -> tuple[int, int]:
        block = address >> self._offset_bits
        return block & self._index_mask, block >> self._index_bits

    def probe(self, address: int) -> bool:
        """Non-destructive lookup: would this access hit?"""
        index, tag = self._locate(address)
        return any(entry[0] == tag for entry in self._sets[index])

    def access(self, address: int, is_write: bool = False) -> bool:
        """Perform one access; returns True on hit.

        On a miss the block is filled (allocated on writes too, per the
        write-allocate policy); a dirty eviction increments
        ``writebacks``.
        """
        if is_write:
            self.write_accesses += 1
        else:
            self.read_accesses += 1
        index, tag = self._locate(address)
        entries = self._sets[index]
        for position, entry in enumerate(entries):
            if entry[0] == tag:
                if is_write:
                    entry[1] = True
                if position != 0:
                    entries.insert(0, entries.pop(position))
                return True
        self.misses += 1
        if not (is_write and not self.config.write_allocate):
            if len(entries) >= self._assoc:
                victim = entries.pop()
                if victim[1]:
                    self.writebacks += 1
            entries.insert(0, [tag, is_write and self.config.write_back])
        return False

    def invalidate_all(self) -> None:
        self._sets = [[] for _ in range(self.config.num_sets)]

    # ------------------------------------------------------------------ #
    # statistics

    @property
    def accesses(self) -> int:
        return self.read_accesses + self.write_accesses

    @property
    def hits(self) -> int:
        return self.accesses - self.misses

    @property
    def miss_ratio(self) -> float:
        accesses = self.accesses
        return 1.0 - self.hits / accesses if accesses else 0.0

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        cfg = self.config
        return (
            f"<Cache {cfg.name} {cfg.size >> 10}k {cfg.assoc}-way "
            f"{cfg.block_size}B miss_ratio={self.miss_ratio:.4f}>"
        )
