"""Aggregated statistics from one timing-simulation run."""

from __future__ import annotations

from dataclasses import dataclass, field, fields

from repro.obs.metrics import safe_ratio


@dataclass
class SimResult:
    """Everything the paper's tables and figures need from one run."""

    cycles: int = 0
    instructions: int = 0
    loads: int = 0
    stores: int = 0

    # caches
    dcache_accesses: int = 0
    dcache_misses: int = 0
    icache_accesses: int = 0
    icache_misses: int = 0

    # branch prediction
    branches: int = 0
    branch_mispredicts: int = 0

    # fast address calculation
    fac_speculated: int = 0          # accesses attempted speculatively
    fac_mispredicted: int = 0        # failed -> replayed in MEM
    fac_not_speculated: int = 0      # policy-excluded accesses
    fac_load_mispredicted: int = 0
    fac_store_mispredicted: int = 0

    # store buffer
    store_buffer_full_stalls: int = 0

    # sum over loads of (result_ready - issue_cycle); the paper's
    # "effective load latency" is this divided by the load count
    load_latency_sum: int = 0

    memory_usage: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def ipc(self) -> float:
        return safe_ratio(self.instructions, self.cycles)

    @property
    def dcache_miss_ratio(self) -> float:
        return safe_ratio(self.dcache_misses, self.dcache_accesses)

    @property
    def icache_miss_ratio(self) -> float:
        return safe_ratio(self.icache_misses, self.icache_accesses)

    @property
    def memory_refs(self) -> int:
        return self.loads + self.stores

    @property
    def fac_extra_accesses(self) -> int:
        """Mispredicted speculative accesses = extra cache bandwidth."""
        return self.fac_mispredicted

    @property
    def effective_load_latency(self) -> float:
        """Average cycles from load issue to result availability."""
        return safe_ratio(self.load_latency_sum, self.loads)

    @property
    def bandwidth_overhead(self) -> float:
        """Table 6 metric: extra accesses as a fraction of total refs."""
        return safe_ratio(self.fac_extra_accesses, self.memory_refs)

    def speedup_over(self, baseline: "SimResult") -> float:
        """Execution-time speedup of this run relative to ``baseline``."""
        return safe_ratio(baseline.cycles, self.cycles)

    def to_registry(self, registry, prefix: str = "sim") -> None:
        """Record every counter into a
        :class:`~repro.obs.metrics.MetricsRegistry` under ``prefix``."""
        for f in fields(self):
            if f.name == "extras":
                continue
            registry.counter(f"{prefix}.{f.name}").incr(getattr(self, f.name))
        registry.ratio(f"{prefix}.dcache").hits = \
            self.dcache_accesses - self.dcache_misses
        registry.ratio(f"{prefix}.dcache").total = self.dcache_accesses
        registry.ratio(f"{prefix}.icache").hits = \
            self.icache_accesses - self.icache_misses
        registry.ratio(f"{prefix}.icache").total = self.icache_accesses
        registry.ratio(f"{prefix}.fac").hits = \
            self.fac_speculated - self.fac_mispredicted
        registry.ratio(f"{prefix}.fac").total = self.fac_speculated
