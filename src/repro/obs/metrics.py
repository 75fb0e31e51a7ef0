"""Hierarchical metrics registry with a uniform container protocol.

Every metric implements the same small protocol:

* ``as_dict()``  -- a JSON-serializable, self-describing dict
                    (``{"type": ..., ...}``),
* ``reset()``    -- zero the metric in place.

:class:`Histogram` also has ``merge(other)``: the farm folds per-class
offset histograms together when it stores and loads an analysis.

Four concrete metrics cover everything the simulators and the serving
layer need:

* :class:`Counter`   -- a monotonically increasing event count,
* :class:`RatioStat` -- hits over accesses (cache hit ratio,
                       prediction accuracy),
* :class:`Histogram` -- sparse integer histogram with CDF support
                       (offset sizes, replay penalties, load-use
                       distances),
* :class:`TimingHistogram` -- log-bucketed duration histogram with
                       quantile estimates (request latency, queue
                       wait).

A :class:`MetricsRegistry` names metrics hierarchically with dot-separated
paths (``"fac.replay_penalty"``) and serializes to a **versioned snapshot**
(:data:`SNAPSHOT_VERSION`); the structural schema lives in
:data:`SNAPSHOT_SCHEMA` and is shared with
:mod:`repro.analysis.reporting`. Snapshots are deterministic: paths are
sorted, histogram keys are sorted, and no wall-clock fields are emitted
unless the caller passes them explicitly in ``meta``.
"""

from __future__ import annotations

import math
from collections import defaultdict
from typing import Iterable, Iterator

#: Version tag carried by every snapshot. Bump the trailing integer when
#: the snapshot structure changes incompatibly (see docs/observability.md
#: for the version policy).
SNAPSHOT_VERSION = "repro.metrics/1"

#: Structural schema (the JSON-Schema subset understood by
#: :func:`repro.analysis.reporting.validate_against_schema`) for
#: :meth:`MetricsRegistry.snapshot` output.
SNAPSHOT_SCHEMA = {
    "type": "object",
    "required": ["schema", "meta", "metrics"],
    "properties": {
        "schema": {"type": "string"},
        "meta": {"type": "object"},
        "metrics": {"type": "object"},
    },
}


def safe_ratio(numerator: float, denominator: float) -> float:
    """``numerator / denominator``, or 0.0 for an empty denominator.

    The one aggregation idiom every stats consumer used to hand-roll.
    """
    return numerator / denominator if denominator else 0.0


class Counter:
    """A named event counter with a convenient ``rate`` helper."""

    __slots__ = ("name", "count")

    kind = "counter"

    def __init__(self, name: str):
        self.name = name
        self.count = 0

    def incr(self, amount: int = 1) -> None:
        self.count += amount

    def rate(self, total: int) -> float:
        """Return count / total, or 0.0 when ``total`` is zero."""
        return safe_ratio(self.count, total)

    def reset(self) -> None:
        self.count = 0

    def as_dict(self) -> dict:
        return {"type": self.kind, "count": self.count}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Counter({self.name}={self.count})"


class RatioStat:
    """Hits over accesses, e.g. cache hit ratio or prediction accuracy."""

    __slots__ = ("name", "hits", "total")

    kind = "ratio"

    def __init__(self, name: str):
        self.name = name
        self.hits = 0
        self.total = 0

    def record(self, hit: bool) -> None:
        self.total += 1
        if hit:
            self.hits += 1

    @property
    def misses(self) -> int:
        return self.total - self.hits

    @property
    def hit_ratio(self) -> float:
        return safe_ratio(self.hits, self.total)

    @property
    def miss_ratio(self) -> float:
        return 1.0 - self.hit_ratio if self.total else 0.0

    def reset(self) -> None:
        self.hits = 0
        self.total = 0

    def as_dict(self) -> dict:
        return {"type": self.kind, "hits": self.hits, "total": self.total}

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"RatioStat({self.name}: {self.hits}/{self.total})"


class Histogram:
    """Sparse integer histogram with cumulative-distribution support.

    Used for the paper's Figure 3 offset-size distributions and the
    profiler's replay-penalty / load-use-distance distributions.
    """

    kind = "histogram"

    def __init__(self, name: str = ""):
        self.name = name
        self._counts: dict[int, int] = defaultdict(int)

    def record(self, key: int, amount: int = 1) -> None:
        self._counts[key] += amount

    def count(self, key: int) -> int:
        return self._counts.get(key, 0)

    @property
    def total(self) -> int:
        return sum(self._counts.values())

    def keys(self) -> Iterator[int]:
        return iter(sorted(self._counts))

    def items(self) -> Iterable[tuple[int, int]]:
        return sorted(self._counts.items())

    def cumulative(self, keys: Iterable[int]) -> list[float]:
        """Fraction of samples with key <= k, for each k in ``keys``.

        ``keys`` must be given in ascending order.
        """
        total = self.total
        if total == 0:
            return [0.0 for _ in keys]
        items = sorted(self._counts.items())
        result = []
        running = 0
        idx = 0
        for k in keys:
            while idx < len(items) and items[idx][0] <= k:
                running += items[idx][1]
                idx += 1
            result.append(running / total)
        return result

    def reset(self) -> None:
        self._counts.clear()

    def as_dict(self) -> dict:
        # JSON keys must be strings; sort numerically for determinism.
        return {
            "type": self.kind,
            "counts": {str(k): v for k, v in sorted(self._counts.items())},
        }

    def merge(self, other: "Histogram") -> None:
        for key, amount in other._counts.items():
            self._counts[key] += amount

    def __len__(self) -> int:
        return len(self._counts)

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"Histogram({self.name}, n={self.total}, bins={len(self)})"


class TimingHistogram:
    """Log-bucketed duration histogram with conservative quantiles.

    Durations (seconds) land in geometrically spaced buckets: bucket
    ``i`` covers ``(BASE * GROWTH**(i-1), BASE * GROWTH**i]``, with a
    dedicated underflow bucket for samples at or below :data:`BASE`.
    With ``GROWTH = 2**0.25`` every bucket is ~19% wide, so quantile
    estimates carry at most that relative error — and the estimate is
    always the bucket's *upper* bound (clamped to the exact observed
    min/max), i.e. it never understates a latency. That bias is what
    makes it safe to gate SLOs on.

    Count, sum, min, and max are tracked exactly. The sparse
    ``{bucket_index: count}`` layout snapshots like :class:`Histogram`.
    """

    kind = "timing"

    #: Lower edge of the first real bucket: 1 microsecond.
    BASE = 1e-6
    #: Geometric bucket growth factor (four buckets per octave).
    GROWTH = 2 ** 0.25

    _LOG_GROWTH = math.log(GROWTH)

    def __init__(self, name: str = ""):
        self.name = name
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0
        self._counts: dict[int, int] = defaultdict(int)

    @classmethod
    def bucket_index(cls, seconds: float) -> int:
        """Bucket index for a duration; 0 is the underflow bucket."""
        if seconds <= cls.BASE:
            return 0
        return max(1, math.ceil(math.log(seconds / cls.BASE) / cls._LOG_GROWTH))

    @classmethod
    def bucket_upper_bound(cls, index: int) -> float:
        """Inclusive upper edge of bucket ``index`` in seconds."""
        return cls.BASE * cls.GROWTH ** index

    def record(self, seconds: float) -> None:
        if seconds < 0:
            seconds = 0.0
        self.count += 1
        self.sum += seconds
        if seconds < self.min:
            self.min = seconds
        if seconds > self.max:
            self.max = seconds
        self._counts[self.bucket_index(seconds)] += 1

    @property
    def mean(self) -> float:
        return safe_ratio(self.sum, self.count)

    def quantile(self, q: float) -> float:
        """Conservative quantile estimate in seconds (0.0 when empty).

        Walks buckets in order until the cumulative count reaches
        ``q * count`` and returns that bucket's upper bound, clamped to
        the exact observed ``[min, max]`` range.
        """
        if self.count == 0:
            return 0.0
        if not 0.0 <= q <= 1.0:
            raise ValueError(f"quantile must be in [0, 1], got {q!r}")
        rank = q * self.count
        running = 0
        for index, amount in sorted(self._counts.items()):
            running += amount
            if running >= rank:
                estimate = self.bucket_upper_bound(index)
                return min(max(estimate, self.min), self.max)
        return self.max  # pragma: no cover - rank <= count always hits

    def buckets(self) -> Iterable[tuple[int, int]]:
        """Sorted ``(bucket_index, count)`` pairs."""
        return sorted(self._counts.items())

    def reset(self) -> None:
        self.count = 0
        self.sum = 0.0
        self.min = math.inf
        self.max = 0.0
        self._counts.clear()

    def as_dict(self) -> dict:
        return {
            "type": self.kind,
            "count": self.count,
            "sum": self.sum,
            "min": self.min if self.count else 0.0,
            "max": self.max,
            "buckets": {str(k): v for k, v in sorted(self._counts.items())},
        }

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"TimingHistogram({self.name}, n={self.count})"


_METRIC_TYPES = {
    cls.kind: cls for cls in (Counter, RatioStat, Histogram, TimingHistogram)
}


class MetricsRegistry:
    """Get-or-create store of named metrics with dot-path hierarchy.

    Paths are plain strings (``"dcache.accesses"``); the hierarchy is a
    naming convention, not a tree of objects, which keeps lookups cheap
    and snapshots flat.
    """

    def __init__(self):
        self._metrics: dict[str, object] = {}

    # -------------------------------------------------------------- #
    # get-or-create accessors

    def _get(self, path: str, cls):
        metric = self._metrics.get(path)
        if metric is None:
            metric = cls(path)
            self._metrics[path] = metric
        elif not isinstance(metric, cls):
            raise TypeError(
                f"metric {path!r} already registered as "
                f"{type(metric).__name__}, not {cls.__name__}"
            )
        return metric

    def counter(self, path: str) -> Counter:
        return self._get(path, Counter)

    def ratio(self, path: str) -> RatioStat:
        return self._get(path, RatioStat)

    def histogram(self, path: str) -> Histogram:
        return self._get(path, Histogram)

    def timing(self, path: str) -> TimingHistogram:
        return self._get(path, TimingHistogram)

    # -------------------------------------------------------------- #

    def __contains__(self, path: str) -> bool:
        return path in self._metrics

    def __len__(self) -> int:
        return len(self._metrics)

    def paths(self) -> list[str]:
        return sorted(self._metrics)

    def subtree(self, prefix: str) -> dict[str, object]:
        """All metrics whose path starts with ``prefix + '.'``."""
        dotted = prefix + "."
        return {p: m for p, m in sorted(self._metrics.items())
                if p.startswith(dotted)}

    def reset(self) -> None:
        for metric in self._metrics.values():
            metric.reset()

    # -------------------------------------------------------------- #
    # snapshots

    def snapshot(self, meta: dict | None = None) -> dict:
        """Versioned, deterministic JSON form of every metric.

        No wall-clock or host fields are added: two runs of the same
        deterministic workload produce byte-identical snapshots. Callers
        that *want* timestamps put them in ``meta`` explicitly.
        """
        return {
            "schema": SNAPSHOT_VERSION,
            "meta": dict(meta or {}),
            "metrics": {
                path: metric.as_dict()
                for path, metric in sorted(self._metrics.items())
            },
        }

    @classmethod
    def from_snapshot(cls, snapshot: dict) -> "MetricsRegistry":
        """Rebuild a registry from :meth:`snapshot` output."""
        if snapshot.get("schema") != SNAPSHOT_VERSION:
            raise ValueError(
                f"unsupported snapshot schema {snapshot.get('schema')!r}; "
                f"expected {SNAPSHOT_VERSION!r}"
            )
        registry = cls()
        for path, payload in snapshot.get("metrics", {}).items():
            metric_cls = _METRIC_TYPES.get(payload.get("type"))
            if metric_cls is None:
                raise ValueError(f"unknown metric type {payload.get('type')!r}")
            metric = registry._get(path, metric_cls)
            if metric_cls is Counter:
                metric.count = int(payload["count"])
            elif metric_cls is RatioStat:
                metric.hits = int(payload["hits"])
                metric.total = int(payload["total"])
            elif metric_cls is TimingHistogram:
                metric.count = int(payload["count"])
                metric.sum = float(payload["sum"])
                metric.min = float(payload["min"]) if metric.count else math.inf
                metric.max = float(payload["max"])
                for key, amount in payload["buckets"].items():
                    metric._counts[int(key)] += int(amount)
            else:
                for key, amount in payload["counts"].items():
                    metric.record(int(key), int(amount))
        return registry

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"<MetricsRegistry {len(self._metrics)} metrics>"
