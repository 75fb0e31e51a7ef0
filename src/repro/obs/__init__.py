"""``repro.obs`` -- the unified telemetry layer.

Four pillars:

* :mod:`repro.obs.events` -- typed structured events and the
  :class:`~repro.obs.events.EventBus` that carries them from the
  functional CPU (syscalls) and the serve layer,
* :mod:`repro.obs.metrics` -- the hierarchical metrics registry, its
  four container types and versioned snapshots,
* :mod:`repro.obs.sinks` -- pluggable event consumers: null, in-memory,
  JSONL, access log, and Chrome trace-event JSON (Perfetto-loadable),
* :mod:`repro.obs.spans` -- hierarchical wall-clock spans
  (:class:`~repro.obs.spans.SpanTracker`) with parent links and
  cross-process adoption; the farm threads these through every sweep,
  and its job lifecycle (progress line, SSE ``farm.*`` entries) is read
  off them through the tracker's listener.

Higher-level drivers live in submodules imported on demand (they pull in
the whole simulator stack): :mod:`repro.obs.profile` for source-level FAC
profiling (``repro profile``), :mod:`repro.obs.trace` for per-instruction
trace export (``repro trace``), :mod:`repro.obs.flight` for the pipeline
flight recorder (``repro pipeview``, and the unbounded recorder behind
``repro trace``), :mod:`repro.obs.explain` for the misprediction
root-cause explainer (``repro explain``), :mod:`repro.obs.diff` for gated
snapshot comparison (``repro diff``), and :mod:`repro.obs.report` for the
static HTML dashboard (``repro report``).

The default is observability *off*. The timing engine is observed
through columns that a watched recurrence emits (per-record issue and
ready cycles, per-access outcomes), read by the flight recorder and the
per-site tally; an unwatched recurrence pays one test per record and
one per memory access, and ``benchmarks/test_obs_overhead.py`` bounds
what each watcher costs when attached. Event producers take
``obs=None`` and guard each emission with one attribute test.
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
