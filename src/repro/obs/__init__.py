"""``repro.obs`` -- the unified telemetry layer.

Four pillars:

* :mod:`repro.obs.events` -- typed structured events and the
  :class:`~repro.obs.events.EventBus` that carries them from the
  functional CPU (syscalls), the farm, span trackers and the serve
  layer,
* :mod:`repro.obs.metrics` -- the hierarchical metrics registry with the
  uniform ``as_dict()``/``merge()`` container protocol and versioned
  snapshots,
* :mod:`repro.obs.sinks` -- pluggable event consumers: null, in-memory,
  JSONL, access log, and Chrome trace-event JSON (Perfetto-loadable),
* :mod:`repro.obs.spans` -- hierarchical wall-clock spans
  (:class:`~repro.obs.spans.SpanTracker`) with parent links and
  cross-process adoption; the farm threads these through every sweep.

Higher-level drivers live in submodules imported on demand (they pull in
the whole simulator stack): :mod:`repro.obs.profile` for source-level FAC
profiling (``repro profile``), :mod:`repro.obs.trace` for per-instruction
trace export (``repro trace``), :mod:`repro.obs.flight` for the pipeline
flight recorder (``repro pipeview``, and the unbounded ring behind
``repro trace``), :mod:`repro.obs.explain` for the misprediction
root-cause explainer (``repro explain``), :mod:`repro.obs.diff` for gated
snapshot comparison (``repro diff``), and :mod:`repro.obs.report` for the
static HTML dashboard (``repro report``).

The default is observability *off*. The timing model has two taps, both
None when detached: the flight-recorder ring (one attribute test per
instruction) and the per-site counter tap (one per memory op);
``benchmarks/test_obs_overhead.py`` bounds what each costs when
attached. Event producers take ``obs=None`` and guard each emission with
one attribute test.
"""

from repro.obs.events import (
    EVENT_TYPES,
    Event,
    EventBus,
    HttpRequestServed,
    Syscall,
)
from repro.obs.metrics import (
    SNAPSHOT_SCHEMA,
    SNAPSHOT_VERSION,
    Counter,
    Histogram,
    MetricsRegistry,
    RatioStat,
    TimingHistogram,
    safe_ratio,
)
from repro.obs.sinks import (
    AccessLogSink,
    ChromeTraceSink,
    CollectingSink,
    JsonlSink,
    NullSink,
)
from repro.obs.spans import Span, SpanTracker, orphan_spans, span_roots

__all__ = [
    "EVENT_TYPES",
    "Event",
    "EventBus",
    "HttpRequestServed",
    "Syscall",
    "SNAPSHOT_SCHEMA",
    "SNAPSHOT_VERSION",
    "Counter",
    "Histogram",
    "MetricsRegistry",
    "RatioStat",
    "TimingHistogram",
    "safe_ratio",
    "AccessLogSink",
    "ChromeTraceSink",
    "CollectingSink",
    "JsonlSink",
    "NullSink",
    "Span",
    "SpanTracker",
    "orphan_spans",
    "span_roots",
]
