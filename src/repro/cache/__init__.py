"""Cache-hierarchy substrates: set-associative caches and a data TLB."""

from repro.cache.cache import Cache, CacheConfig
from repro.cache.tlb import TLB

__all__ = ["Cache", "CacheConfig", "TLB"]
