"""Typed farm jobs: what one experiment cell needs, and how to run it.

The grid of one sweep is a set of :class:`Cell` requests (an *analysis*
of one benchmark build, or a *simulation* of one build on one machine
flavour). :func:`plan_jobs` lowers cells onto a dependency graph of two
job kinds, two jobs per build::

    build(name, software)             -> build manifest (program CRC)
      run(name, software)             -> one repro.metrics/1 snapshot
                                         per machine flavour, and the
                                         analysis repro.metrics/1
                                         snapshot

A run job executes its build once, live. It times the flavours missing
from the store from that one run
(:func:`repro.pipeline.replay.time_live`, which shares the cache, BTB
and FAC outcomes across flavours), writing each flavour's snapshot
under its own :func:`sim_key`. When the build's analysis is asked for
and missing, the same run tees an
:class:`~repro.cpu.recorder.ArrayRecorder`, which keeps only what the
analysis reads -- every record's static index and every memory
record's ea, base and offset -- and the job analyzes those columns in
memory. Every execution also stores the build's ``trace`` artifact:
meta only, the facts of the run its snapshots do not hold (instruction
count, memory usage, stdout).

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

    A run job's ``machines`` holds the ``(label, MachineConfig)``
    flavours its build's sim cells name, sorted by label, and
    ``analysis`` says whether an analysis cell names the build; the job
    writes one artifact per flavour, then the analysis.
    """

    job_id: str
    kind: str                       # build | run
    name: str
    software: bool
    max_instructions: int
    machines: tuple[tuple[str, MachineConfig], ...] = ()
    analysis: bool = False
    deps: tuple[str, ...] = ()
    source: str | None = None


@dataclass
class JobGraph:
    """The lowered sweep: specs by id, plus the cell -> job mapping
    (every cell of one build maps to that build's run job)."""

    jobs: dict[str, JobSpec] = field(default_factory=dict)
    cell_jobs: dict[Cell, str] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.jobs)

    def cell_key(self, cell: Cell, keys: tuple[str, ...]) -> str:
        """``cell``'s artifact key among ``keys``, its run job's keys
        (see :func:`resolve_keys`)."""
        if cell.kind == "analysis":
            return keys[-1]
        spec = self.jobs[self.cell_jobs[cell]]
        return keys[[label for label, _ in spec.machines].index(cell.machine)]


def _tag(name: str, software: bool) -> str:
    return f"{name}+sw" if software else name


def plan_jobs(cells, machines: dict[str, MachineConfig],
              max_instructions: int, source: str | None = None) -> JobGraph:
    """Lower a set of :class:`Cell` requests onto a job graph.

    ``machines`` maps flavour labels (as used in sim cells) to their
    :class:`MachineConfig`; unknown labels raise ``KeyError`` here, at
    planning time, not inside a worker. Each build gets a
    ``build:<tag>`` job and a ``run:<tag>`` job that depends on it,
    carrying the flavours of the build's sim cells and whether an
    analysis cell names it; every cell of the build maps to its run
    job. ``source`` is the inline MiniC text every job of the graph
    builds from (see :class:`JobSpec`).
    """
    graph = JobGraph()
    builds: dict[tuple[str, bool], list[Cell]] = {}
    for cell in sorted(set(cells)):
        builds.setdefault((cell.name, cell.software), []).append(cell)
    for (name, software), its_cells in sorted(builds.items()):
        tag = _tag(name, software)
        build_id, run_id = f"build:{tag}", f"run:{tag}"
        graph.jobs[build_id] = JobSpec(
            job_id=build_id, kind="build", name=name, software=software,
            max_instructions=max_instructions, source=source)
        # sorted cells put a build's sim cells in label order
        graph.jobs[run_id] = JobSpec(
            job_id=run_id, kind="run", name=name, software=software,
            max_instructions=max_instructions,
            machines=tuple((cell.machine, machines[cell.machine])
                           for cell in its_cells if cell.kind == "sim"),
            analysis=any(cell.kind == "analysis" for cell in its_cells),
            deps=(build_id,), source=source)
        for cell in its_cells:
            graph.cell_jobs[cell] = run_id
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


def resolve_keys(spec: JobSpec,
                 store: ArtifactStore) -> tuple[str, ...] | None:
    """A job's artifact keys, computed *without building anything*: a
    build job's manifest key, or a run job's sim keys, one per flavour
    in label order, then its analysis key.

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
    return _run_keys(spec.name, spec.software, manifest["program_crc"],
                     spec.machines, spec.analysis, spec.max_instructions,
                     spec.source)


def _run_keys(name, software, crc, machines, analysis, max_instructions,
              source) -> tuple[str, ...]:
    keys = tuple(sim_key(name, software, crc, label, machine,
                         max_instructions, source)
                 for label, machine in machines)
    if analysis:
        keys += (analysis_key(name, software, crc, max_instructions,
                              source),)
    return keys


def artifact_ready(spec: JobSpec,
                   store: ArtifactStore) -> tuple[str, ...] | None:
    """The job's keys when all of its artifacts are already stored (a
    run job's trace meta is a by-product, not one of them)."""
    keys = resolve_keys(spec, store)
    if keys is None:
        return None
    kinds = ("build",) if spec.kind == "build" else \
        ("sim",) * len(spec.machines) + ("analysis",) * spec.analysis
    return keys if all(map(store.has, kinds, keys)) else None


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


def _run(store: ArtifactStore, name: str, software: bool,
         max_instructions: int, machines=(), analysis: bool = False,
         source: str | None = None):
    """Execute one build at most once, for what the store lacks of it.

    ``machines`` is a sequence of ``(label, MachineConfig)`` and
    ``analysis`` asks for the build's analysis snapshot; a call that
    asks for neither asks for the trace meta. The build is executed
    only when something asked for is missing, and then once, live: the
    missing flavours are timed by :func:`repro.pipeline.replay.time_live`,
    with an :class:`~repro.cpu.recorder.ArrayRecorder` teed beside their
    fronts when the analysis is missing, whose columns are analyzed in
    memory; with no flavour missing the recorder runs alone, and with
    only the trace meta missing the run has no consumer at all. Every
    execution stores the trace meta when the store lacks it: the
    instruction count, memory usage and captured stdout of the run.

    Returns ``(artifacts, trace)``: ``(key, snapshot)`` per flavour in
    ``machines`` order, then the analysis's if asked for (the order of
    :func:`resolve_keys`); and the trace's ``(key, meta)`` when the call
    read or wrote the meta, else None.
    """
    manifest = ensure_manifest(store, name, software, source)
    crc = manifest["program_crc"]
    keys = _run_keys(name, software, crc, machines, analysis,
                     max_instructions, source)
    kinds = ["sim"] * len(machines) + ["analysis"] * analysis
    artifacts = [(key, store.get_json(kind, key))
                 for kind, key in zip(kinds, keys)]
    todo = [machine for (_, machine), (_, snapshot)
            in zip(machines, artifacts) if snapshot is None]
    record = analysis and artifacts[-1][1] is None
    if (machines or analysis) and not todo and not record:
        return artifacts, None
    tkey = trace_key(name, software, crc, max_instructions, source)
    trace = None
    if not machines and not analysis:
        trace = (tkey, store.get_meta("trace", tkey))
        if trace[1] is not None:
            return artifacts, trace

    program = build_program(name, software, source)
    recorder = None
    if record:
        from repro.cpu.recorder import ArrayRecorder

        recorder = ArrayRecorder(program)
    if todo:
        from repro.pipeline.replay import time_live

        results, cpu = time_live(program, todo, max_instructions,
                                 tee=recorder)
    else:
        from repro.cpu.executor import CPU

        results, cpu = [], CPU(program)
        cpu.run_trace(recorder, max_instructions)
    # what a cell's snapshot meta and every artifact's stored meta hold
    cell = {"name": name, "software_support": software,
            "max_instructions": max_instructions}
    stored = {"schema": FARM_SCHEMA, "program_crc": crc, **cell}
    if trace is not None or not store.has("trace", tkey):
        trace = (tkey, {**stored, "kind": "trace",
                        "instructions": cpu.instructions_retired,
                        "memory_usage": cpu.memory_usage,
                        "stdout": cpu.stdout()})
        store.put("trace", *trace)
    results = iter(results)
    for i, (label, _) in enumerate(machines):
        if artifacts[i][1] is None:
            snapshot = sim_to_snapshot(next(results), meta={
                "cell": "sim", "machine": label, **cell})
            store.put_json("sim", keys[i], snapshot, meta={
                **stored, "kind": "sim", "machine": label})
            artifacts[i] = (keys[i], snapshot)
    if record:
        # imported only to compute an analysis: timing and store hits
        # must not pay for numpy
        from repro.analysis.batch import analyze_trace_columns
        from repro.cpu.coltrace import AccessColumns

        snapshot = analysis_to_snapshot(analyze_trace_columns(
            program, AccessColumns.of(recorder),
            block_sizes=ANALYSIS_BLOCK_SIZES,
            memory_usage=cpu.memory_usage, stdout=cpu.stdout(),
        ), meta={"cell": "analysis", **cell})
        store.put_json("analysis", keys[-1], snapshot,
                       meta={**stored, "kind": "analysis"})
        artifacts[-1] = (keys[-1], snapshot)
    return artifacts, trace


def ensure_trace(store: ArtifactStore, name: str, software: bool,
                 max_instructions: int,
                 source: str | None = None) -> tuple[str, dict]:
    """Find (or record) the trace meta of one build: its instruction
    count, memory usage and stdout (see :func:`_run`)."""
    return _run(store, name, software, max_instructions, source=source)[1]


def ensure_analysis(store: ArtifactStore, name: str, software: bool,
                    max_instructions: int,
                    source: str | None = None) -> tuple[str, dict]:
    """Compute (or find) the trace analysis snapshot of one build: the
    vectorized batch analyzer over the columns of one run, whose
    snapshot the test suite holds byte-identical to the scalar spec
    analyzer's (see :func:`_run`)."""
    [item], _ = _run(store, name, software, max_instructions,
                     analysis=True, source=source)
    return item


def ensure_sims(store: ArtifactStore, name: str, software: bool,
                machines, max_instructions: int,
                source: str | None = None) -> list[tuple[str, dict]]:
    """Time (or find) one build on several machine flavours.

    ``machines`` is a sequence of ``(label, MachineConfig)``. Only the
    flavours missing from the store are computed, all from one live run
    of the build (see :func:`_run`). Returns ``(key, snapshot)`` per
    flavour, in ``machines`` order.
    """
    return _run(store, name, software, max_instructions, machines,
                source=source)[0]


def execute_job(spec: JobSpec, store: ArtifactStore) -> tuple[str, ...]:
    """Run one job against the store; returns its artifact keys (see
    :func:`resolve_keys`).

    Each job re-ensures its own inputs through the store, so a worker
    can execute any job without payload plumbing -- dependencies exist
    to order the sweep and scope failures, not to carry data.
    """
    if spec.kind == "build":
        ensure_manifest(store, spec.name, spec.software, spec.source)
        return (manifest_key(spec.name, spec.software, spec.source),)
    if spec.kind == "run":
        artifacts, _ = _run(store, spec.name, spec.software,
                            spec.max_instructions, spec.machines,
                            spec.analysis, spec.source)
        return tuple(key for key, _ in artifacts)
    raise ValueError(f"unknown job kind {spec.kind!r}")
