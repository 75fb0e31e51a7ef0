"""Typed farm jobs: what one experiment cell needs, and how to run it.

The grid of one sweep is a set of :class:`Cell` requests (an *analysis*
of one benchmark build, or a *simulation* of one build on one machine
flavour). :func:`plan_jobs` lowers cells onto a dependency graph of four
job kinds::

    build(name, software)                 -> build manifest (program CRC)
      sim(name, software, machines)       -> one repro.metrics/1
                                             snapshot per machine,
                                             and the trace (columns)
        analysis(name, software)          -> repro.metrics/1 snapshot

    build(name, software)                 (a build with no sim cells)
      trace(name, software)               -> trace artifact (columns)
        analysis(name, software)          -> repro.metrics/1 snapshot

Each build is executed once. Its sim job runs it live and times every
flavour from that one run (:func:`repro.pipeline.replay.time_live`,
which shares the cache, BTB and FAC outcomes across flavours), writing
each flavour's snapshot under its own :func:`sim_key`. The same run
tees an :class:`~repro.cpu.recorder.ArrayRecorder`, which keeps only
what the analysis reads -- every record's static index and every
memory record's ea, base and offset -- and the farm stores those
columns, deflated, as the build's ``trace`` artifact, with the facts a
run's columns cannot hold (instruction count, memory usage, stdout) in
its meta. A build with only an analysis cell gets a trace job, which
runs the recorder alone. The analysis job loads the columns with
``np.frombuffer`` (:func:`repro.cpu.coltrace.load_columns`); it never
executes the build. A sim job that finds the trace already stored
executes the build live with no tee: the columns hold nothing a
timing front can replay.

Execution is *store-idempotent*: every ``ensure_*`` function first
consults the :class:`~repro.farm.store.ArtifactStore` and only
computes on a miss, so the same functions serve the in-process API
(:mod:`repro.farm.api`), the worker pool, and warm re-runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.compiler import CompilerOptions, FacSoftwareOptions
from repro.farm.fingerprint import (
    FARM_SCHEMA,
    config_digest,
    fingerprint,
    source_digest,
)
from repro.farm.snapshots import analysis_to_snapshot, sim_to_snapshot
from repro.farm.store import ArtifactStore
from repro.pipeline.config import MachineConfig

TRACE_PAYLOAD = "columns.bin.z"
SNAPSHOT_PAYLOAD = "snapshot.json"

#: Analyzer geometry baked into analysis artifacts (the Tables 3/4
#: configuration). Part of the analysis fingerprint, so changing it
#: invalidates exactly the analysis artifacts.
ANALYSIS_BLOCK_SIZES = (16, 32)
ANALYSIS_CACHE_SIZE = 16 * 1024


# ------------------------------------------------------------------ #
# cells and job specs

@dataclass(frozen=True, order=True)
class Cell:
    """One experiment-grid cell: an artifact some table/figure needs."""

    kind: str               # 'analysis' or 'sim'
    name: str               # benchmark name
    software: bool = False  # Section 4 software support?
    machine: str | None = None  # machine-flavour label (sim cells only)

    def __post_init__(self):
        if self.kind not in ("analysis", "sim"):
            raise ValueError(f"unknown cell kind {self.kind!r}")
        if (self.machine is None) != (self.kind == "analysis"):
            raise ValueError(f"cell {self} needs a machine iff kind=='sim'")


@dataclass(frozen=True)
class JobSpec:
    """One schedulable unit of work (picklable, sent to workers).

    ``source`` carries inline MiniC text for ad-hoc programs that are
    not in the benchmark registry (``repro serve`` submissions). When
    set, ``name`` is just a display label: fingerprints hash the source
    text itself, so two tenants submitting identical programs share
    every artifact regardless of what they called them.

    ``machines`` holds a sim job's ``(label, MachineConfig)`` flavours,
    sorted by label; the job writes one artifact per flavour.
    """

    job_id: str
    kind: str                       # build | trace | analysis | sim
    name: str
    software: bool
    max_instructions: int
    machines: tuple[tuple[str, MachineConfig], ...] = ()
    deps: tuple[str, ...] = ()
    source: str | None = None


@dataclass
class JobGraph:
    """The lowered sweep: specs by id, plus the cell -> job mapping
    (every sim cell of one build maps to that build's sim job)."""

    jobs: dict[str, JobSpec] = field(default_factory=dict)
    cell_jobs: dict[Cell, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.jobs)


def _tag(name: str, software: bool) -> str:
    return f"{name}+sw" if software else name


def plan_jobs(cells, machines: dict[str, MachineConfig],
              max_instructions: int, source: str | None = None) -> JobGraph:
    """Lower a set of :class:`Cell` requests onto a job graph.

    ``machines`` maps flavour labels (as used in sim cells) to their
    :class:`MachineConfig`; unknown labels raise ``KeyError`` here, at
    planning time, not inside a worker. Each build gets one job that
    executes it after its ``build:<tag>`` job: a sim job covering all
    its requested flavours, with id ``sim:<tag>:<labels, sorted and
    ","-joined>``, which also stores the trace columns; or, for a build with
    only an analysis cell, a ``trace:<tag>`` job. The analysis depends
    on that job. ``source`` is the inline MiniC text every job of the
    graph builds from (see :class:`JobSpec`).
    """
    cells = sorted(set(cells))
    graph = JobGraph()
    # each build's flavour labels, in sorted order as the cells are
    flavours: dict[tuple[str, bool], list[str]] = {}
    for cell in cells:
        if cell.kind == "sim":
            flavours.setdefault((cell.name, cell.software), []).append(
                cell.machine)
    # the job that executes each build and stores its trace
    runs: dict[tuple[str, bool], str] = {}
    for name, software in sorted({(c.name, c.software) for c in cells}):
        tag = _tag(name, software)
        build_id = f"build:{tag}"
        graph.jobs[build_id] = JobSpec(
            job_id=build_id, kind="build", name=name, software=software,
            max_instructions=max_instructions, source=source)
        labels = flavours.get((name, software))
        if labels:
            run_id = f"sim:{tag}:{','.join(labels)}"
            graph.jobs[run_id] = JobSpec(
                job_id=run_id, kind="sim", name=name, software=software,
                max_instructions=max_instructions,
                machines=tuple((label, machines[label])
                               for label in labels),
                deps=(build_id,), source=source)
        else:
            run_id = f"trace:{tag}"
            graph.jobs[run_id] = JobSpec(
                job_id=run_id, kind="trace", name=name, software=software,
                max_instructions=max_instructions, deps=(build_id,),
                source=source)
        runs[(name, software)] = run_id
    for cell in cells:
        run_id = runs[(cell.name, cell.software)]
        if cell.kind == "analysis":
            job_id = f"analysis:{_tag(cell.name, cell.software)}"
            graph.jobs[job_id] = JobSpec(
                job_id=job_id, kind="analysis", name=cell.name,
                software=cell.software, max_instructions=max_instructions,
                deps=(run_id,), source=source)
        else:
            job_id = run_id
        graph.cell_jobs[cell] = job_id
    return graph


# ------------------------------------------------------------------ #
# fingerprints

def benchmark_options(software: bool) -> CompilerOptions:
    """The compiler options behind a (name, software) build -- mirrors
    :func:`repro.workloads.suite.build_benchmark`."""
    options = CompilerOptions()
    if software:
        options = options.with_fac(FacSoftwareOptions.enabled())
    return options


def _content_label(name: str, source: str | None) -> str:
    """The identity component of a downstream fingerprint.

    Registered benchmarks are unambiguous by ``name``. Inline programs
    all share a name, and the program CRC alone is too weak to tell
    them apart (it hashes opcodes, not operands), so their label is the
    full source digest -- content-correct, and still shared by
    identical submissions regardless of tenant or display name.
    """
    if source is None:
        return name
    return f"<inline>:{source_digest(source)}"


def manifest_key(name: str, software: bool,
                 source: str | None = None) -> str:
    if source is None:
        from repro.workloads.suite import load_source

        source = load_source(name)
        label = name
    else:
        # Inline programs key on content alone: the same source under
        # two submission names is one artifact.
        label = "<inline>"
    return fingerprint("build", label, source_digest(source),
                       benchmark_options(software))


def trace_key(name: str, software: bool, program_crc: int,
              max_instructions: int, source: str | None = None) -> str:
    """The key of a build's trace artifact. The payload's format tag
    is folded in, so a store holding another format's trace (a v1
    tracefile, say) recomputes it instead of misreading it."""
    from repro.cpu.recorder import CONTAINER

    return fingerprint("trace", _content_label(name, source), program_crc,
                       benchmark_options(software), max_instructions,
                       CONTAINER)


def analysis_key(name: str, software: bool, program_crc: int,
                 max_instructions: int, source: str | None = None) -> str:
    return fingerprint("analysis", _content_label(name, source),
                       program_crc,
                       benchmark_options(software), max_instructions,
                       list(ANALYSIS_BLOCK_SIZES), ANALYSIS_CACHE_SIZE)


def sim_key(name: str, software: bool, program_crc: int,
            machine_label: str, machine: MachineConfig,
            max_instructions: int, source: str | None = None) -> str:
    return fingerprint("sim", _content_label(name, source), program_crc,
                       benchmark_options(software), max_instructions,
                       machine_label, config_digest(machine))


def resolve_keys(spec: JobSpec,
                 store: ArtifactStore) -> tuple[str, ...] | None:
    """A job's artifact keys (one per flavour for a sim job, else one),
    computed *without building anything*.

    Build keys derive from source text alone. Downstream keys need the
    program CRC from the build manifest; returns None when the manifest
    is not in the store yet (the job must then run on a worker, which
    rebuilds and re-derives the keys itself).
    """
    if spec.kind == "build":
        return (manifest_key(spec.name, spec.software, spec.source),)
    manifest = store.get_meta(
        "build", manifest_key(spec.name, spec.software, spec.source))
    if manifest is None:
        return None
    crc = manifest["program_crc"]
    if spec.kind == "trace":
        return (trace_key(spec.name, spec.software, crc,
                          spec.max_instructions, spec.source),)
    if spec.kind == "analysis":
        return (analysis_key(spec.name, spec.software, crc,
                             spec.max_instructions, spec.source),)
    return tuple(sim_key(spec.name, spec.software, crc, label, machine,
                         spec.max_instructions, spec.source)
                 for label, machine in spec.machines)


def artifact_ready(spec: JobSpec,
                   store: ArtifactStore) -> tuple[str, ...] | None:
    """The job's keys when all of its artifacts are already stored."""
    keys = resolve_keys(spec, store)
    if keys is None:
        return None
    if spec.kind == "trace":
        if store.has("trace", keys[0]) and \
                store.payload_path("trace", keys[0], TRACE_PAYLOAD):
            return keys
        return None
    return keys if all(store.has(spec.kind, key) for key in keys) else None


# ------------------------------------------------------------------ #
# execution (idempotent against the store)

def build_program(name: str, software: bool, source: str | None = None):
    if source is not None:
        from repro.compiler import compile_and_link

        return compile_and_link(source, benchmark_options(software))
    from repro.workloads.suite import build_benchmark

    return build_benchmark(name, software_support=software)


def ensure_manifest(store: ArtifactStore, name: str, software: bool,
                    source: str | None = None) -> dict:
    """Build manifest: the program CRC under a source+options key."""
    from repro.cpu.tracefile import program_crc

    key = manifest_key(name, software, source)
    meta = store.get_meta("build", key)
    if meta is not None:
        return meta
    program = build_program(name, software, source)
    meta = {
        "schema": FARM_SCHEMA,
        "kind": "build",
        "name": name,
        "software_support": software,
        "program_crc": program_crc(program),
        "instructions_static": len(program.instructions),
    }
    store.put("build", key, meta)
    return meta


def _execute(store: ArtifactStore, name: str, software: bool,
             max_instructions: int, machines, source: str | None = None
             ) -> tuple[str, dict, list]:
    """Time one build on ``machines`` (a sequence of
    :class:`MachineConfig`), recording its trace if the store lacks it.

    The build is executed once, live
    (:func:`repro.pipeline.replay.time_live`). When its trace is not
    stored yet, an :class:`~repro.cpu.recorder.ArrayRecorder` is teed
    beside the timing fronts and its columns are published; with the
    trace stored the run has no tee, and with no machines as well there
    is nothing to run. Returns the trace key, its meta and the results
    in ``machines`` order.

    The trace artifact carries the facts its columns cannot:
    instruction count, memory usage, and captured stdout -- everything
    downstream analyses need to match a live run exactly.
    """
    from repro.cpu.recorder import ArrayRecorder
    from repro.pipeline.replay import time_live

    manifest = ensure_manifest(store, name, software, source)
    key = trace_key(name, software, manifest["program_crc"],
                    max_instructions, source)
    meta = store.get_meta("trace", key)
    stored = meta is not None and \
        store.payload_path("trace", key, TRACE_PAYLOAD) is not None
    if stored and not machines:
        return key, meta, []
    program = build_program(name, software, source)
    if stored:
        results, _ = time_live(program, machines, max_instructions)
        return key, meta, results
    recorder = ArrayRecorder(program)
    results, cpu = time_live(program, machines, max_instructions,
                             tee=recorder)
    meta = {
        "schema": FARM_SCHEMA,
        "kind": "trace",
        "name": name,
        "software_support": software,
        "program_crc": manifest["program_crc"],
        "max_instructions": max_instructions,
        "instructions": recorder.count,
        "memory_usage": cpu.memory_usage,
        "stdout": cpu.stdout(),
    }
    store.put("trace", key, meta,
              payloads={TRACE_PAYLOAD: recorder.to_bytes()})
    return key, meta, results


def ensure_trace(store: ArtifactStore, name: str, software: bool,
                 max_instructions: int,
                 source: str | None = None) -> tuple[str, dict]:
    """Record (or find) the functional trace of one build: a build
    executed with no flavours to time (see :func:`_execute`)."""
    key, meta, _ = _execute(store, name, software, max_instructions, (),
                            source)
    return key, meta


def ensure_analysis(store: ArtifactStore, name: str, software: bool,
                    max_instructions: int,
                    source: str | None = None) -> tuple[str, dict]:
    """Compute (or find) the trace analysis snapshot of one build.

    The cell loads the stored trace columns and runs the vectorized
    batch analyzer, whose snapshot the test suite holds byte-identical
    to the scalar spec analyzer's.
    """
    manifest = ensure_manifest(store, name, software, source)
    key = analysis_key(name, software, manifest["program_crc"],
                       max_instructions, source)
    snapshot = store.get_json("analysis", key)
    if snapshot is not None:
        return key, snapshot
    # imported on a miss only: a store hit must not pay for numpy
    from repro.analysis.batch import analyze_trace_columns
    from repro.cpu.coltrace import load_columns

    tkey, tmeta = ensure_trace(store, name, software, max_instructions,
                               source)
    program = build_program(name, software, source)
    # pin the input for the duration of the cell: a size-budgeted gc
    # running between jobs must not evict what we are reading
    store.pin("trace", tkey)
    try:
        trace_path = store.payload_path("trace", tkey, TRACE_PAYLOAD)
        cols = load_columns(program, trace_path.read_bytes(),
                            str(trace_path))
        analysis = analyze_trace_columns(
            program, cols, block_sizes=ANALYSIS_BLOCK_SIZES,
            memory_usage=tmeta["memory_usage"], stdout=tmeta["stdout"],
        )
    finally:
        store.unpin("trace", tkey)
    snapshot = analysis_to_snapshot(analysis, meta={
        "cell": "analysis",
        "name": name,
        "software_support": software,
        "max_instructions": max_instructions,
    })
    store.put_json("analysis", key, snapshot, meta={
        "schema": FARM_SCHEMA,
        "kind": "analysis",
        "name": name,
        "software_support": software,
        "program_crc": manifest["program_crc"],
        "max_instructions": max_instructions,
    })
    return key, snapshot


def ensure_sims(store: ArtifactStore, name: str, software: bool,
                machines, max_instructions: int,
                source: str | None = None) -> list[tuple[str, dict]]:
    """Time (or find) one build on several machine flavours.

    ``machines`` is a sequence of ``(label, MachineConfig)``. Only the
    flavours missing from the store are computed, all from one live run
    of the build (see :func:`_execute`), which also records and stores
    the build's trace when the store lacks it. Each snapshot lands under its
    own :func:`sim_key`. Returns ``(key, snapshot)`` per flavour, in
    ``machines`` order.
    """
    manifest = ensure_manifest(store, name, software, source)
    crc = manifest["program_crc"]
    keys = [sim_key(name, software, crc, label, machine, max_instructions,
                    source)
            for label, machine in machines]
    snapshots = [store.get_json("sim", key) for key in keys]
    missing = [i for i, snapshot in enumerate(snapshots) if snapshot is None]
    if missing:
        _, _, results = _execute(store, name, software, max_instructions,
                                 [machines[i][1] for i in missing], source)
        for i, result in zip(missing, results):
            label = machines[i][0]
            snapshots[i] = sim_to_snapshot(result, meta={
                "cell": "sim",
                "name": name,
                "software_support": software,
                "machine": label,
                "max_instructions": max_instructions,
            })
            store.put_json("sim", keys[i], snapshots[i], meta={
                "schema": FARM_SCHEMA,
                "kind": "sim",
                "name": name,
                "software_support": software,
                "machine": label,
                "program_crc": crc,
                "max_instructions": max_instructions,
            })
    return list(zip(keys, snapshots))


def execute_job(spec: JobSpec, store: ArtifactStore) -> tuple[str, ...]:
    """Run one job against the store; returns its artifact keys (one
    per flavour for a sim job).

    Each job re-ensures its own inputs through the store, so a worker
    can execute any job without payload plumbing -- dependencies exist
    to order the sweep and scope failures, not to carry data.
    """
    if spec.kind == "build":
        ensure_manifest(store, spec.name, spec.software, spec.source)
        return (manifest_key(spec.name, spec.software, spec.source),)
    if spec.kind == "trace":
        key, _ = ensure_trace(store, spec.name, spec.software,
                              spec.max_instructions, spec.source)
        return (key,)
    if spec.kind == "analysis":
        key, _ = ensure_analysis(store, spec.name, spec.software,
                                 spec.max_instructions, spec.source)
        return (key,)
    if spec.kind == "sim":
        return tuple(key for key, _ in ensure_sims(
            store, spec.name, spec.software, spec.machines,
            spec.max_instructions, spec.source))
    raise ValueError(f"unknown job kind {spec.kind!r}")
