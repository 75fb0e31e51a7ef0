"""Set-associative cache model with write-back / write-allocate policy.

The model tracks tags, valid and dirty bits, and LRU state; data values
live in the simulated :class:`~repro.mem.memory.Memory` (timing and
contents are decoupled, as in trace-driven simulators). The baseline
machine of Table 5 uses 16 KB direct-mapped caches with 32-byte blocks
and a 6-cycle miss latency.

Statistics live in :mod:`repro.obs.metrics` containers (the uniform
``as_dict()``/``merge()`` protocol). Per-access activity is not streamed:
the timing model's D-cache outcomes reach observers through the
pipeline's flight-recorder ring (:mod:`repro.obs.flight`).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.errors import ConfigError
from repro.obs.metrics import Counter, RatioStat
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
        self._accesses = RatioStat(f"{cfg.name}.accesses")  # hit = True
        self._writebacks = Counter(f"{cfg.name}.writebacks")
        self._reads = Counter(f"{cfg.name}.reads")
        self._writes = Counter(f"{cfg.name}.writes")

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
        (self._writes if is_write else self._reads).incr()
        index, tag = self._locate(address)
        entries = self._sets[index]
        for position, entry in enumerate(entries):
            if entry[0] == tag:
                self._accesses.record(True)
                if is_write:
                    entry[1] = True
                if position != 0:
                    entries.insert(0, entries.pop(position))
                return True
        self._accesses.record(False)
        if not (is_write and not self.config.write_allocate):
            if len(entries) >= self._assoc:
                victim = entries.pop()
                if victim[1]:
                    self._writebacks.incr()
            entries.insert(0, [tag, is_write and self.config.write_back])
        return False

    def invalidate_all(self) -> None:
        self._sets = [[] for _ in range(self.config.num_sets)]

    # ------------------------------------------------------------------ #
    # statistics (metrics-protocol containers with legacy accessors)

    @property
    def hits(self) -> int:
        return self._accesses.hits

    @property
    def misses(self) -> int:
        return self._accesses.misses

    @property
    def writebacks(self) -> int:
        return self._writebacks.count

    @property
    def read_accesses(self) -> int:
        return self._reads.count

    @property
    def write_accesses(self) -> int:
        return self._writes.count

    @property
    def accesses(self) -> int:
        return self._accesses.total

    @property
    def miss_ratio(self) -> float:
        return self._accesses.miss_ratio

    def metrics(self) -> dict[str, object]:
        """The stat containers, keyed by metric path."""
        return {
            metric.name: metric
            for metric in (self._accesses, self._writebacks,
                           self._reads, self._writes)
        }

    def as_dict(self) -> dict:
        """Uniform protocol: every stat container, serialized."""
        return {name: metric.as_dict()
                for name, metric in sorted(self.metrics().items())}

    def merge_stats(self, other: "Cache") -> None:
        """Absorb another cache's counters (sharded-run aggregation)."""
        self._accesses.merge(other._accesses)
        self._writebacks.merge(other._writebacks)
        self._reads.merge(other._reads)
        self._writes.merge(other._writes)

    def reset_stats(self) -> None:
        self._accesses.reset()
        self._writebacks.reset()
        self._reads.reset()
        self._writes.reset()

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        cfg = self.config
        return (
            f"<Cache {cfg.name} {cfg.size >> 10}k {cfg.assoc}-way "
            f"{cfg.block_size}B miss_ratio={self.miss_ratio:.4f}>"
        )
