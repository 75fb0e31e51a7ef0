"""Typed farm jobs: what one experiment cell needs, and how to run it.

The grid of one sweep is a set of :class:`Cell` requests (an *analysis*
of one benchmark build, or a *simulation* of one build on one machine
flavour). :func:`plan_jobs` lowers cells onto a dependency graph of four
job kinds::

    build(name, software)                 -> build manifest (program CRC)
      trace(name, software)               -> functional trace artifact
        analysis(name, software)          -> repro.metrics/1 snapshot
        sim(name, software, machine)      -> repro.metrics/1 snapshot

One functional capture (the trace) drives every timing replay and the
build's analysis, which decodes it straight into numpy columns -- the
decoupled access/execute split that makes the sweep embarrassingly
parallel. Execution is *store-idempotent*: every ``ensure_*`` function
first consults the :class:`~repro.farm.store.ArtifactStore` and only
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

TRACE_PAYLOAD = "trace.fact.gz"
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
    """

    job_id: str
    kind: str                       # build | trace | analysis | sim
    name: str
    software: bool
    max_instructions: int
    machine_label: str | None = None
    machine: MachineConfig | None = None
    deps: tuple[str, ...] = ()
    source: str | None = None


@dataclass
class JobGraph:
    """The lowered sweep: specs by id, plus the cell -> job mapping."""

    jobs: dict[str, JobSpec] = field(default_factory=dict)
    cell_jobs: dict[Cell, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.jobs)


def _tag(name: str, software: bool) -> str:
    return f"{name}+sw" if software else name


def plan_jobs(cells, machines: dict[str, MachineConfig],
              max_instructions: int) -> JobGraph:
    """Lower a set of :class:`Cell` requests onto a job graph.

    ``machines`` maps flavour labels (as used in sim cells) to their
    :class:`MachineConfig`; unknown labels raise ``KeyError`` here, at
    planning time, not inside a worker.
    """
    graph = JobGraph()
    builds_needed = sorted({(c.name, c.software) for c in cells})
    for name, software in builds_needed:
        tag = _tag(name, software)
        build_id = f"build:{tag}"
        trace_id = f"trace:{tag}"
        graph.jobs[build_id] = JobSpec(
            job_id=build_id, kind="build", name=name, software=software,
            max_instructions=max_instructions)
        graph.jobs[trace_id] = JobSpec(
            job_id=trace_id, kind="trace", name=name, software=software,
            max_instructions=max_instructions, deps=(build_id,))
    for cell in sorted(set(cells)):
        tag = _tag(cell.name, cell.software)
        trace_id = f"trace:{tag}"
        if cell.kind == "analysis":
            job_id = f"analysis:{tag}"
            spec = JobSpec(job_id=job_id, kind="analysis", name=cell.name,
                           software=cell.software,
                           max_instructions=max_instructions,
                           deps=(trace_id,))
        else:
            job_id = f"sim:{tag}:{cell.machine}"
            spec = JobSpec(job_id=job_id, kind="sim", name=cell.name,
                           software=cell.software,
                           max_instructions=max_instructions,
                           machine_label=cell.machine,
                           machine=machines[cell.machine],
                           deps=(trace_id,))
        graph.jobs[job_id] = spec
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
    return fingerprint("trace", _content_label(name, source), program_crc,
                       benchmark_options(software), max_instructions)


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


def resolve_key(spec: JobSpec, store: ArtifactStore) -> str | None:
    """Compute a job's artifact key *without building anything*.

    Build keys derive from source text alone. Downstream keys need the
    program CRC from the build manifest; returns None when the manifest
    is not in the store yet (the job must then run on a worker, which
    rebuilds and re-derives the key itself).
    """
    if spec.kind == "build":
        return manifest_key(spec.name, spec.software, spec.source)
    manifest = store.get_meta(
        "build", manifest_key(spec.name, spec.software, spec.source))
    if manifest is None:
        return None
    crc = manifest["program_crc"]
    if spec.kind == "trace":
        return trace_key(spec.name, spec.software, crc,
                         spec.max_instructions, spec.source)
    if spec.kind == "analysis":
        return analysis_key(spec.name, spec.software, crc,
                            spec.max_instructions, spec.source)
    return sim_key(spec.name, spec.software, crc, spec.machine_label,
                   spec.machine, spec.max_instructions, spec.source)


def artifact_ready(spec: JobSpec, store: ArtifactStore) -> str | None:
    """The job's key when its artifact is already in the store."""
    key = resolve_key(spec, store)
    if key is None:
        return None
    if spec.kind == "trace":
        if store.has("trace", key) and \
                store.payload_path("trace", key, TRACE_PAYLOAD):
            return key
        return None
    return key if store.has(spec.kind, key) else None


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


def ensure_trace(store: ArtifactStore, name: str, software: bool,
                 max_instructions: int,
                 source: str | None = None) -> tuple[str, dict]:
    """Record (or find) the functional trace of one build.

    The artifact carries the facts a trace cannot: instruction count,
    memory usage, and captured stdout -- everything downstream analyses
    and simulations need to match a live run exactly.
    """
    from repro.cpu import CPU
    from repro.cpu.tracefile import record_trace

    manifest = ensure_manifest(store, name, software, source)
    key = trace_key(name, software, manifest["program_crc"],
                    max_instructions, source)
    meta = store.get_meta("trace", key)
    if meta is not None and store.payload_path("trace", key, TRACE_PAYLOAD):
        return key, meta
    program = build_program(name, software, source)
    cpu = CPU(program)
    scratch = store.scratch(f"{name}-{key[:12]}.fact.gz")
    count = record_trace(program, str(scratch), max_instructions, cpu=cpu)
    meta = {
        "schema": FARM_SCHEMA,
        "kind": "trace",
        "name": name,
        "software_support": software,
        "program_crc": manifest["program_crc"],
        "max_instructions": max_instructions,
        "instructions": count,
        "memory_usage": cpu.memory_usage,
        "stdout": cpu.stdout(),
    }
    store.put("trace", key, meta, payloads={TRACE_PAYLOAD: scratch})
    return key, meta


def ensure_analysis(store: ArtifactStore, name: str, software: bool,
                    max_instructions: int,
                    source: str | None = None) -> tuple[str, dict]:
    """Compute (or find) the trace analysis snapshot of one build.

    The cell decodes the stored trace straight into columns and runs
    the vectorized batch analyzer, whose snapshot the test suite holds
    byte-identical to the scalar spec analyzer's.
    """
    manifest = ensure_manifest(store, name, software, source)
    key = analysis_key(name, software, manifest["program_crc"],
                       max_instructions, source)
    snapshot = store.get_json("analysis", key)
    if snapshot is not None:
        return key, snapshot
    # imported on a miss only: a store hit must not pay for numpy
    from repro.analysis.batch import analyze_trace_columns
    from repro.cpu.coltrace import decode_tracefile

    tkey, tmeta = ensure_trace(store, name, software, max_instructions,
                               source)
    program = build_program(name, software, source)
    # pin the input for the duration of the cell: a size-budgeted gc
    # running between jobs must not evict what we are reading
    store.pin("trace", tkey)
    try:
        trace_path = store.payload_path("trace", tkey, TRACE_PAYLOAD)
        cols = decode_tracefile(program, str(trace_path))
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


def ensure_sim(store: ArtifactStore, name: str, software: bool,
               machine_label: str, machine: MachineConfig,
               max_instructions: int,
               source: str | None = None) -> tuple[str, dict]:
    """Replay (or find) one timing simulation snapshot."""
    from repro.cpu.tracefile import simulate_trace

    manifest = ensure_manifest(store, name, software, source)
    key = sim_key(name, software, manifest["program_crc"], machine_label,
                  machine, max_instructions, source)
    snapshot = store.get_json("sim", key)
    if snapshot is not None:
        return key, snapshot
    tkey, tmeta = ensure_trace(store, name, software, max_instructions,
                               source)
    program = build_program(name, software, source)
    trace_path = store.payload_path("trace", tkey, TRACE_PAYLOAD)
    result = simulate_trace(program, str(trace_path), machine,
                            memory_usage=tmeta["memory_usage"])
    snapshot = sim_to_snapshot(result, meta={
        "cell": "sim",
        "name": name,
        "software_support": software,
        "machine": machine_label,
        "max_instructions": max_instructions,
    })
    store.put_json("sim", key, snapshot, meta={
        "schema": FARM_SCHEMA,
        "kind": "sim",
        "name": name,
        "software_support": software,
        "machine": machine_label,
        "program_crc": manifest["program_crc"],
        "max_instructions": max_instructions,
    })
    return key, snapshot


def execute_job(spec: JobSpec, store: ArtifactStore) -> str:
    """Run one job against the store; returns the artifact key.

    Each job re-ensures its own inputs through the store, so a worker
    can execute any job without payload plumbing -- dependencies exist
    to order the sweep and scope failures, not to carry data.
    """
    if spec.kind == "build":
        ensure_manifest(store, spec.name, spec.software, spec.source)
        return manifest_key(spec.name, spec.software, spec.source)
    if spec.kind == "trace":
        key, _ = ensure_trace(store, spec.name, spec.software,
                              spec.max_instructions, spec.source)
        return key
    if spec.kind == "analysis":
        key, _ = ensure_analysis(store, spec.name, spec.software,
                                 spec.max_instructions, spec.source)
        return key
    if spec.kind == "sim":
        key, _ = ensure_sim(store, spec.name, spec.software,
                            spec.machine_label, spec.machine,
                            spec.max_instructions, spec.source)
        return key
    raise ValueError(f"unknown job kind {spec.kind!r}")
