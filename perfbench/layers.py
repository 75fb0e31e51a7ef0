"""Layer spans recorded from the benchmark's own code.

:class:`LayerTracer` wraps the public entry points of each layer (the
compiler, linker, predecoder, trace writer, timing replay, columnar
decoder, batch analyzer, static analyzer, artifact store, snapshot
decoder, farm planner and scheduler, and the figure harnesses) in
:class:`repro.obs.spans.SpanTracker` spans. Nothing under ``src/`` changes: the wrappers are installed by
patching module attributes for the duration of a traced unit of work
and removed afterwards.

Farm workers are forked, so they inherit the wrappers. Each job runs
under a fresh tracker whose spans are appended, when the job ends, to a
spool directory (one JSON line per job); :func:`read_spool` collects
them. Spans stay in memory until then.

:func:`layer_metrics` turns the collected spans, the benchmark's
calibration passes and the served metrics into the per-layer figures
named in ``BENCHMARK.json``. Busy figures are *self* times: a span's
duration minus the part its child spans cover.
"""

from __future__ import annotations

import functools
import importlib
import json
import os
from contextlib import contextmanager, nullcontext

from repro.obs.spans import SpanTracker

#: Farm job kinds reported per kind by the scheduler metrics.
JOB_KINDS = ("build", "trace", "analysis", "sim")

#: Every per-layer metric, with its unit, in report order.
PER_LAYER = (
    ("pipeline.busy_s", "s"),
    ("pipeline.instr_per_s", "1/s"),
    ("pipeline.share", "frac"),
    ("tracefile.encode_s", "s"),
    ("tracefile.bytes", "bytes"),
    ("tracefile.replay_s", "s"),
    ("cpu.busy_s", "s"),
    ("cpu.instr_per_s", "1/s"),
    ("predecode.busy_s", "s"),
    ("coltrace.decode_s", "s"),
    ("coltrace.records", "count"),
    ("batch.analyze_s", "s"),
    ("static_fac.busy_s", "s"),
    ("compiler.calls", "count"),
    ("compiler.busy_s", "s"),
    ("linker.busy_s", "s"),
    ("store.get_calls", "count"),
    ("store.get_s", "s"),
    ("store.put_calls", "count"),
    ("store.put_s", "s"),
    ("store.bytes_written", "bytes"),
    ("store.hit_ratio", "frac"),
    ("snapshots.decode_s", "s"),
    ("experiments.render_s", "s"),
    *((f"scheduler.jobs.{kind}", "count") for kind in JOB_KINDS),
    *((f"scheduler.busy_s.{kind}", "s") for kind in JOB_KINDS),
    ("scheduler.idle_frac", "frac"),
    ("scheduler.plan_s", "s"),
    ("serve.queue_wait_p50_s", "s"),
    ("serve.queue_wait_p95_s", "s"),
    ("serve.hit_ratio", "frac"),
    ("serve.rejected", "count"),
    ("serve.backlog_max", "count"),
    ("loadgen.lag_max_s", "s"),
    ("profile.busy_s", "s"),
    ("profile.timing_overhead", "ratio"),
    ("tracing.overhead", "frac"),
)


def _describe_record(args, kwargs, result) -> dict:
    path = kwargs.get("path", args[1] if len(args) > 1 else None)
    return {"records": result, "bytes": os.path.getsize(path)}


def _describe_sim(args, kwargs, result) -> dict:
    return {"instructions": result.instructions}


def _describe_columns(args, kwargs, result) -> dict:
    return {"records": result.count}


def _describe_get(args, kwargs, result) -> dict:
    return {"hit": result is not None}


def _describe_put(args, kwargs, result) -> dict:
    meta = kwargs.get("meta", args[3] if len(args) > 3 else None)
    payloads = kwargs.get("payloads", args[4] if len(args) > 4 else None)
    size = len(json.dumps(meta, indent=2, sort_keys=True)) + 1
    # payload paths have been moved into the artifact by now
    for name, src in (payloads or {}).items():
        if isinstance(src, bytes):
            size += len(src)
        else:
            landed = result / name
            size += landed.stat().st_size if landed.exists() else 0
    return {"bytes": size}


def _describe_farm_run(args, kwargs, result) -> dict:
    width = kwargs.get("jobs", args[2] if len(args) > 2 else 1)
    attrs = {"capacity": result.elapsed * max(1, width)}
    for outcome in result.outcomes.values():
        attrs[f"jobs.{outcome.kind}"] = attrs.get(f"jobs.{outcome.kind}", 0) + 1
        attrs[f"busy.{outcome.kind}"] = \
            attrs.get(f"busy.{outcome.kind}", 0.0) + outcome.wall
    return attrs


#: (owner, attribute, span name, attribute describer) of every wrapped
#: public function; ``module:Class`` owners wrap a method on the class.
WRAPPED = (
    ("repro.compiler.driver", "compile_units", "compiler", None),
    ("repro.compiler.driver", "link", "linker", None),
    ("repro.cpu.predecode", "build_tables", "predecode", None),
    ("repro.cpu.tracefile", "record_trace", "tracefile.record",
     _describe_record),
    ("repro.cpu.tracefile", "simulate_trace", "pipeline", _describe_sim),
    ("repro.cpu.coltrace", "decode_tracefile", "coltrace",
     _describe_columns),
    ("repro.cpu.coltrace", "columns_from_bytes", "coltrace",
     _describe_columns),
    ("repro.analysis.batch", "analyze_trace_columns", "batch", None),
    ("repro.analysis.batch", "load_use_distances", "batch", None),
    ("repro.obs.profile", "analyze_static", "static_fac", None),
    ("repro.farm.api", "sim_from_snapshot", "snapshots", None),
    ("repro.farm.api", "analysis_from_snapshot", "snapshots", None),
    ("repro.farm.store:ArtifactStore", "get_meta", "store.get",
     _describe_get),
    ("repro.farm.store:ArtifactStore", "get_json", "store.get",
     _describe_get),
    ("repro.farm.store:ArtifactStore", "get_bytes", "store.get",
     _describe_get),
    ("repro.farm.store:ArtifactStore", "put", "store.put", _describe_put),
    ("repro.farm.cli", "plan_jobs", "scheduler.plan", None),
    ("repro.serve.worker", "plan_serve_graph", "scheduler.plan", None),
    ("repro.farm.cli", "run_graph", "scheduler.run", _describe_farm_run),
    ("repro.serve.worker", "run_graph", "scheduler.run",
     _describe_farm_run),
)


def _harness_runners():
    """A span ``experiments`` around each harness runner ``farm run``
    renders with (it looks each one up on its module at call time)."""
    from repro.farm.cli import HARNESSES

    return tuple((f"repro.experiments.{module}", runner, "experiments", None)
                 for module, runner in HARNESSES.values())


def _resolve(owner_path: str):
    """``"pkg.module"`` or ``"pkg.module:Class"`` -> the object."""
    module_path, _, cls = owner_path.partition(":")
    module = importlib.import_module(module_path)
    return getattr(module, cls) if cls else module


class LayerTracer:
    """Installs the layer wrappers and owns the tracker they record to.

    ``tracker`` is the tracker receiving spans in this process (None
    records nothing). ``spool_dir`` is where forked farm workers append
    their per-job spans.
    """

    def __init__(self, spool_dir: str):
        self.spool_dir = spool_dir
        self.tracker: SpanTracker | None = None
        self._saved: list[tuple[object, str, object]] = []

    # ---------------------------------------------------------------- #
    # installation

    def install(self) -> None:
        if self._saved:
            return
        for owner_path, attr, name, describe in (*WRAPPED,
                                                 *_harness_runners()):
            owner = _resolve(owner_path)
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(original, name, describe))
        scheduler = importlib.import_module("repro.farm.scheduler")
        original = scheduler.execute_job
        self._saved.append((scheduler, "execute_job", original))
        scheduler.execute_job = self._wrap_job(original)

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)

    @contextmanager
    def paused(self):
        """Record nothing inside the block (the benchmark's own checks)."""
        saved, self.tracker = self.tracker, None
        try:
            yield
        finally:
            self.tracker = saved

    def span(self, name: str, **attrs):
        """A span in the benchmark's own code (no-op while untraced)."""
        if self.tracker is None:
            return nullcontext()
        return self.tracker.span(name, cat="layer", attrs=attrs)

    # ---------------------------------------------------------------- #
    # wrappers

    def _wrap(self, func, name: str, describe):
        tracer = self

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            tracker = tracer.tracker
            if tracker is None:
                return func(*args, **kwargs)
            with tracker.span(name, cat="layer") as span_id:
                result = func(*args, **kwargs)
                if describe is not None:
                    tracker.annotate(span_id, describe(args, kwargs, result))
                return result

        return wrapper

    def _wrap_job(self, execute_job):
        """Run each farm job (in its worker) under a fresh tracker and
        spool the job's spans when it ends."""
        tracer = self

        @functools.wraps(execute_job)
        def wrapper(spec, store):
            outer = tracer.tracker
            tracer.tracker = SpanTracker()
            # the store's own spans would double-count the wrapped reads
            saved, store.tracer = store.tracer, None
            try:
                with tracer.tracker.span(f"job.{spec.kind}", cat="job"):
                    return execute_job(spec, store)
            finally:
                store.tracer = saved
                tracer.spool(tracer.tracker.export())
                tracer.tracker = outer

        return wrapper

    def spool(self, records: list[dict]) -> None:
        """Append one batch of exported spans to this process's spool."""
        path = os.path.join(self.spool_dir, f"{os.getpid()}.jsonl")
        with open(path, "a") as handle:
            handle.write(json.dumps(records) + "\n")


def read_spool(spool_dir: str) -> list[list[dict]]:
    """Every spooled span batch, in a stable order."""
    batches = []
    for name in sorted(os.listdir(spool_dir)):
        if name.endswith(".jsonl"):
            with open(os.path.join(spool_dir, name)) as handle:
                batches.extend(json.loads(line) for line in handle if line.strip())
    return batches


# -------------------------------------------------------------------- #
# self time


def _union_length(intervals) -> float:
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(batch: list[dict]) -> list[tuple[dict, float]]:
    """``(span, self seconds)`` for every closed span of one batch."""
    children: dict[int, list[tuple[float, float]]] = {}
    for span in batch:
        if span["parent_id"] is not None and span["t1"] is not None:
            children.setdefault(span["parent_id"], []).append(
                (span["t0"], span["t1"]))
    out = []
    for span in batch:
        if span["t1"] is None:
            continue
        t0, t1 = span["t0"], span["t1"]
        covered = _union_length(
            (max(lo, t0), min(hi, t1))
            for lo, hi in children.get(span["span_id"], ()) if hi > t0 and lo < t1)
        out.append((span, max(0.0, (t1 - t0) - covered)))
    return out


class SpanTotals:
    """Per-name call counts, self seconds, inclusive seconds and summed
    numeric attributes, over any number of span batches. Spans that
    started before ``since`` (a ``time.monotonic`` reading, shared by
    every process on the host) are set-up work and are left out."""

    def __init__(self, batches, since: float | None = None):
        self.calls: dict[str, int] = {}
        self.self_s: dict[str, float] = {}
        self.total_s: dict[str, float] = {}
        self.attrs: dict[str, dict[str, float]] = {}
        for batch in batches:
            names = {span["span_id"]: span["name"] for span in batch}
            for span, self_s in self_times(batch):
                if since is not None and span["t0"] < since:
                    continue
                name = span["name"]
                # a store call nested in another store call is one access
                if name.startswith("store.") and \
                        names.get(span["parent_id"], "").startswith("store."):
                    continue
                self.calls[name] = self.calls.get(name, 0) + 1
                self.self_s[name] = self.self_s.get(name, 0.0) + self_s
                self.total_s[name] = self.total_s.get(name, 0.0) + \
                    span["t1"] - span["t0"]
                bucket = self.attrs.setdefault(name, {})
                for key, value in span["attrs"].items():
                    if isinstance(value, bool):
                        value = int(value)
                    if isinstance(value, (int, float)):
                        bucket[key] = bucket.get(key, 0) + value

    def busy(self, *names: str) -> float:
        return sum(self.self_s.get(name, 0.0) for name in names)

    def attr(self, name: str, key: str) -> float:
        return self.attrs.get(name, {}).get(key, 0)

    def prefixed_total(self, prefix: str) -> float:
        return sum(value for name, value in self.total_s.items()
                   if name.startswith(prefix))


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def layer_metrics(totals: SpanTotals, units: int, calibration: dict,
                  serve: dict | None = None,
                  tracing_overhead: float = 0.0) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric (0 where a layer did no work).

    Times, counts and bytes are per unit of work (``units`` traced
    regenerations, profiled picks or served schedules); rates, shares
    and ratios are unit-free. ``calibration`` holds the benchmark's own
    bare-execution, hook-less-replay and detached-timing passes (see
    :func:`perfbench.calibrate.calibrate`).
    """
    units = max(1, units)
    per = 1.0 / units
    records = totals.attr("tracefile.record", "records")
    cpu_rate = _ratio(calibration["instructions"], calibration["bare_s"])
    replay_rate = _ratio(calibration["instructions"], calibration["replay_s"])
    cpu_busy = _ratio(records, cpu_rate)
    profile_self = totals.busy("profile")
    if totals.calls.get("pipeline"):
        pipeline_busy = totals.busy("pipeline")
        pipeline_instr = totals.attr("pipeline", "instructions")
        job_busy = totals.prefixed_total("job.")
    else:
        # the profiler's timing pass runs inside profile_program; its
        # detached twin (same program, no observer) is the calibration
        pipeline_busy = calibration["detached_sim_s"] * units
        pipeline_instr = calibration["instructions"] * units
        job_busy = totals.total_s.get("profile", 0.0)
    replayed = totals.attr("pipeline", "instructions")
    get_calls = totals.calls.get("store.get", 0)
    job_wall = sum(totals.attr("scheduler.run", f"busy.{kind}")
                   for kind in JOB_KINDS)
    serve = serve or {}
    metrics = {
        "pipeline.busy_s": pipeline_busy * per,
        "pipeline.instr_per_s": _ratio(pipeline_instr, pipeline_busy),
        "pipeline.share": _ratio(pipeline_busy, job_busy),
        "tracefile.encode_s": max(0.0, totals.busy("tracefile.record")
                                  - cpu_busy) * per,
        "tracefile.bytes": totals.attr("tracefile.record", "bytes") * per,
        "tracefile.replay_s": _ratio(replayed, replay_rate) * per,
        "cpu.busy_s": cpu_busy * per,
        "cpu.instr_per_s": cpu_rate if records else 0.0,
        "predecode.busy_s": totals.busy("predecode") * per,
        "coltrace.decode_s": totals.busy("coltrace") * per,
        "coltrace.records": totals.attr("coltrace", "records") * per,
        "batch.analyze_s": totals.busy("batch") * per,
        "static_fac.busy_s": totals.busy("static_fac") * per,
        "compiler.calls": totals.calls.get("compiler", 0) * per,
        "compiler.busy_s": totals.busy("compiler") * per,
        "linker.busy_s": totals.busy("linker") * per,
        "store.get_calls": get_calls * per,
        "store.get_s": totals.total_s.get("store.get", 0.0) * per,
        "store.put_calls": totals.calls.get("store.put", 0) * per,
        "store.put_s": totals.total_s.get("store.put", 0.0) * per,
        "store.bytes_written": totals.attr("store.put", "bytes") * per,
        "store.hit_ratio": _ratio(totals.attr("store.get", "hit"), get_calls),
        "snapshots.decode_s": totals.busy("snapshots") * per,
        "experiments.render_s": totals.busy("experiments") * per,
        "scheduler.idle_frac": (
            1.0 - _ratio(job_wall, totals.attr("scheduler.run", "capacity"))
            if totals.calls.get("scheduler.run") else 0.0),
        "scheduler.plan_s": totals.busy("scheduler.plan") * per,
        "serve.queue_wait_p50_s": serve.get("queue_wait_p50_s", 0.0),
        "serve.queue_wait_p95_s": serve.get("queue_wait_p95_s", 0.0),
        "serve.hit_ratio": serve.get("hit_ratio", 0.0),
        "serve.rejected": serve.get("rejected", 0),
        "serve.backlog_max": serve.get("backlog_max", 0),
        "loadgen.lag_max_s": serve.get("lag_max_s", 0.0),
        "profile.busy_s": totals.total_s.get("profile", 0.0) * per,
        "profile.timing_overhead": _ratio(
            profile_self, calibration["detached_sim_s"] * units),
        "tracing.overhead": tracing_overhead,
    }
    for kind in JOB_KINDS:
        metrics[f"scheduler.jobs.{kind}"] = \
            totals.attr("scheduler.run", f"jobs.{kind}") * per
        metrics[f"scheduler.busy_s.{kind}"] = \
            totals.attr("scheduler.run", f"busy.{kind}") * per
    return {name: float(metrics[name]) for name, _ in PER_LAYER}
