"""The three workloads: what one unit of work is, and how it is checked.

Every workload has the same shape. ``prepare`` runs once before
measuring (inputs, a filled store, a booted server); ``unit`` performs
one unit of work, checks its outputs and returns the seconds the work
took, checks excluded; ``run.py`` repeats units for the requested
seconds. The served workload is the exception: its unit is
the whole open-loop schedule.
"""

from __future__ import annotations

import importlib
import io
import json
import os
import random
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

from perfbench import inputs
from perfbench.stats import summarize

ROOT = Path(__file__).resolve().parent.parent

#: Farm pool width of the cold sweep.
FARM_WIDTH = min(2, os.cpu_count() or 1)

#: Served workload. The mix follows ``repro.serve.loadgen``: 8 tenants,
#: each owning one program that it submits once cold and then re-submits
#: (loadgen's default of two warm rounds makes a third of the requests
#: cold), with loadgen's submission shape (machine ``base``, no analysis).
#: At the measured costs of a cold (~0.26 s) and a warm (~8 ms) request
#: on a 2-vCPU host, the rate keeps the server's single worker ~55% busy
#: and gives 40 cold requests in 20 s, enough for a median and a p75
#: with 10 samples beyond it. ``SERVE_SLO_S`` is the latency limit of
#: ``slo_miss_frac``.
SERVE_TENANTS = 8
SERVE_COLD_SHARE = 1 / 3
SERVE_RATE = 6.0
SERVE_SLO_S = 1.0
SERVE_MACHINES = ["base"]

#: Set-up repetitions per run; ``setup_s`` is their median.
SETUP_REPEATS = 15

#: Seconds a server gets to start listening or to stop.
SERVER_START_TIMEOUT = 60.0
SERVER_STOP_TIMEOUT = 15.0


class CorrectnessError(Exception):
    """An output of the program under test is wrong."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise CorrectnessError(message)


class Workload:
    """What ``run.py`` needs from a workload; defaults fit the sweep.

    ``tracer`` is the :class:`perfbench.layers.LayerTracer` of the run.
    """

    name = ""
    #: report name of the unit timing (``regen_s`` ...)
    unit_name = ""
    #: a traced run alternates untraced and traced units in-process
    alternates = True
    #: ``time.monotonic`` start of the measured work, when spans
    #: recorded before it are set-up (see ``layers.SpanTotals``)
    started_at: float | None = None

    def __init__(self, seed: int, workdir: str, tracer):
        self.seed = seed
        self.workdir = workdir
        self.tracer = tracer
        self.names: tuple[str, ...] = ()
        self.attempted = 0
        self.failed = 0

    def prepare(self) -> None:
        """Set-up before measuring."""

    def unit(self) -> float:
        """One checked unit of work; returns its seconds."""
        raise NotImplementedError

    def finish(self) -> None:
        """Stop whatever ``prepare`` started."""

    def result_s(self, unit_seconds: list[float]) -> float:
        return statistics.median(unit_seconds)

    def setup_samples(self) -> list[float] | None:
        """Set-up seconds measured in-run; None to time fresh-interpreter
        set-ups with ``probe.py``."""
        return None

    def report(self, unit_seconds: list[float]) -> dict:
        """Workload-specific report lines: ``{name: (value, unit)}``."""
        return {}

    def calibration_programs(self) -> list:
        return []

    def timing_config(self):
        """Machine of the detached timing calibration, if any."""
        return None

    def serve_layer(self) -> dict | None:
        return None


# ------------------------------------------------------------------ #
# figure regeneration


def _import_harnesses() -> None:
    """Import the CLI and every harness ``farm run`` drives."""
    import repro.__main__  # noqa: F401
    from repro.farm.cli import HARNESSES

    for module, _ in HARNESSES.values():
        importlib.import_module(f"repro.experiments.{module}")


def regenerate(names, store_root: str) -> tuple[str, dict]:
    """``repro farm run --suite NAMES --jobs FARM_WIDTH --store DIR``,
    in-process; returns ``(rendered text, run summary)``.

    ``REPRO_FARM_DIR`` points at the same store, so the render reads the
    cells the sweep just filled (``--store`` alone renders from the
    default store; see README). The in-memory memo of
    ``repro.experiments.common`` is cleared first, as in a fresh process.
    """
    from repro.__main__ import main as repro_main
    from repro.experiments import common

    os.environ["REPRO_FARM_DIR"] = store_root
    common.clear_caches()
    summary_path = os.path.join(store_root, "summary.json")
    argv = ["farm", "run", "--suite", ",".join(names),
            "--jobs", str(FARM_WIDTH), "--store", store_root,
            "--summary-json", summary_path]
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = repro_main(argv)
    with open(summary_path) as handle:
        summary = json.load(handle)
    _check(code == 0 or summary["failed"],
           f"farm run exited {code}: {err.getvalue()[-2000:]}")
    return out.getvalue(), summary


def check_sweep(names, store_root: str) -> None:
    """Every trace printed its program's expected output, and Figure 5
    still agrees with the paper."""
    from repro.experiments import common
    from repro.experiments.fig5_examples import run_fig5
    from repro.farm import jobs as farm_jobs
    from repro.farm.store import ArtifactStore
    from repro.workloads.suite import BENCHMARKS

    store = ArtifactStore(store_root)
    for name in names:
        for software in (False, True):
            _, meta = farm_jobs.ensure_trace(store, name, software,
                                             common.MAX_INSTRUCTIONS)
            _check(meta["stdout"] == BENCHMARKS[name].expected_output,
                   f"{name} (software={software}) printed "
                   f"{meta['stdout']!r}")
    fig5 = run_fig5().predictions      # raises on disagreement
    _check([fig5[k].success for k in "abcd"] == [True, True, True, False],
           "Figure 5 predictions changed")


class SweepCold(Workload):
    """Regenerate every table and figure of a slice from an empty store."""

    name = "sweep_cold"
    unit_name = "regen_s"

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.names = inputs.pick(seed, "sweep", inputs.SWEEP_SLICES)
        self.reference: str | None = None
        self.sim_rates: list[float] = []    # per untraced unit
        self._stores = 0

    def prepare(self) -> None:
        _import_harnesses()

    def _fresh_store(self) -> str:
        self._stores += 1
        root = os.path.join(self.workdir, f"store-{self._stores}")
        os.makedirs(root)
        return root

    def unit(self) -> float:
        store_root = self._fresh_store()
        start = time.perf_counter()
        text, summary = regenerate(self.names, store_root)
        seconds = time.perf_counter() - start
        traced = self.tracer.tracker is not None
        with self.tracer.paused():
            self._account(summary)
            self._compare(text)
            check_sweep(self.names, store_root)
            self._check_warm(store_root, text)
            if not traced:
                self.sim_rates.append(_sim_instructions(store_root) / seconds)
        shutil.rmtree(store_root, ignore_errors=True)
        return seconds

    def _account(self, summary: dict) -> None:
        self.attempted += summary["total"]
        self.failed += len(summary["failed"])
        _check(not summary["failed"], f"farm jobs failed: {summary['failed']}")

    def _compare(self, text: str) -> None:
        if self.reference is None:
            self.reference = text
        _check(text == self.reference,
               "a regeneration rendered different tables than the first")

    def _check_warm(self, store_root: str, cold_text: str) -> None:
        """Run again on the store just filled: nothing is computed and
        the render is byte-identical to the cold one."""
        text, summary = regenerate(self.names, store_root)
        _check(summary["computed"] == 0,
               f"a warm regeneration computed {summary['computed']} jobs")
        _check(text == cold_text,
               "the warm render differs from the cold render")

    def calibration_programs(self):
        from repro.workloads.suite import build_benchmark

        return [build_benchmark(name, software_support=software)
                for name in self.names for software in (False, True)]

    def report(self, unit_seconds) -> dict:
        return {"sim_instr_per_s": (statistics.median(self.sim_rates), "1/s")}


def _sim_instructions(store_root: str) -> int:
    """Instructions timed by the sim cells in a store a cold sweep
    filled (so every one of them was computed by that sweep)."""
    from repro.farm.store import ArtifactStore

    store = ArtifactStore(store_root)
    return sum(store.get_json("sim", info.key)
               ["metrics"]["sim.instructions"]["count"]
               for info in store.ls() if info.kind == "sim")


# ------------------------------------------------------------------ #
# site profiling


class ProfileSites(Workload):
    """``profile_program`` over a seeded, cost-matched pick of programs."""

    name = "profile_sites"
    unit_name = "profile_s"

    def __init__(self, seed, workdir, tracer):
        super().__init__(seed, workdir, tracer)
        self.names = inputs.pick(seed, "profile", inputs.PROFILE_PICKS)
        self.programs = []

    def prepare(self) -> None:
        # the profiler imports its columnar passes on first use
        import repro.analysis.batch  # noqa: F401
        import repro.cpu.coltrace  # noqa: F401
        from repro.workloads.suite import build_benchmark

        self.programs = [(name, build_benchmark(name))
                         for name in self.names]

    def unit(self) -> float:
        from repro.obs.profile import profile_program
        from repro.workloads.suite import BENCHMARKS

        results = []
        start = time.perf_counter()
        for name, program in self.programs:
            with self.tracer.span("profile", program=name):
                results.append((name, profile_program(program, name=name)))
        seconds = time.perf_counter() - start
        for name, result in results:
            self.attempted += 1
            stats = result.analysis.predictions[result.primary_block_size]
            sites = sum(site.accesses for site in result.sites)
            _check(sites == stats.loads + stats.stores,
                   f"{name}: per-site accesses {sites} != "
                   f"{stats.loads} loads + {stats.stores} stores")
            _check(result.analysis.stdout == BENCHMARKS[name].expected_output,
                   f"{name} printed {result.analysis.stdout!r}")
        return seconds

    def calibration_programs(self):
        return [program for _, program in self.programs]

    def timing_config(self):
        from repro.fac.config import FacConfig
        from repro.pipeline.config import MachineConfig

        return MachineConfig(fac=FacConfig(cache_size=16 * 1024,
                                           block_size=32))


# ------------------------------------------------------------------ #
# served traffic


class ServerProcess:
    """``repro serve`` on an ephemeral port, as a child process."""

    def __init__(self, workdir: str, store_root: str, index: int,
                 spool_dir: str | None):
        self.log_path = os.path.join(workdir, f"serve-{index}.log")
        command = [sys.executable]
        if spool_dir is None:
            command += ["-m", "repro"]
        else:
            command += [str(ROOT / "perfbench" / "serve_child.py"),
                        spool_dir]
        command += ["serve", "--port", "0", "--store", store_root,
                    "--quota", "100000"]
        self._log = open(self.log_path, "w")
        self.process = subprocess.Popen(command, stdout=subprocess.DEVNULL,
                                        stderr=self._log, cwd=ROOT)
        self.base_url = self._wait_listening()

    def _wait_listening(self) -> str:
        deadline = time.monotonic() + SERVER_START_TIMEOUT
        marker = "listening on "
        while time.monotonic() < deadline:
            with open(self.log_path) as handle:
                for line in handle:
                    if marker in line:
                        return line.split(marker, 1)[1].split()[0]
            if self.process.poll() is not None:
                break
            time.sleep(0.002)
        self.stop()
        raise RuntimeError(f"server did not start; see {self.log_path}")

    def stop(self) -> None:
        if self.process.poll() is None:
            self.process.send_signal(signal.SIGINT)
            try:
                self.process.wait(timeout=SERVER_STOP_TIMEOUT)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait()
        self._log.close()


class ServeMixed(Workload):
    """Open-loop Poisson traffic of new and re-submitted inline programs.

    ``seconds`` sizes the schedule; ``traced`` starts the server with
    the layer spans installed.
    """

    name = "serve_mixed"
    unit_name = "cold_req_p50_s"
    #: the server is traced for the whole schedule, which is one unit
    alternates = False

    def __init__(self, seed, workdir, tracer, seconds: float, traced: bool):
        super().__init__(seed, workdir, tracer)
        self.spool_dir = tracer.spool_dir if traced else None
        self.store_root = os.path.join(workdir, "serve-store")
        self.server: ServerProcess | None = None
        self.boot_s: list[float] = []
        self.samples: list[dict] = []
        self.server_metrics: dict = {}
        self.backlog_max = 0
        rng = random.Random(f"owned:{seed}")
        self.owned = [inputs.inline_program(rng, f"s{seed}-tenant-{t}")
                      for t in range(SERVE_TENANTS)]
        self.schedule = inputs.poisson_schedule(
            seed, SERVE_RATE, max(1, round(SERVE_RATE * seconds)),
            SERVE_COLD_SHARE, self.owned)

    # -- set-up ---------------------------------------------------- #

    def boot(self, index: int) -> ServerProcess:
        start = time.perf_counter()
        server = ServerProcess(self.workdir, self.store_root, index,
                               self.spool_dir)
        self.boot_s.append(time.perf_counter() - start)
        return server

    def prepare(self) -> None:
        os.makedirs(self.store_root, exist_ok=True)
        for index in range(SETUP_REPEATS - 1):
            self.boot(index).stop()
        self.server = self.boot(SETUP_REPEATS - 1)
        # each tenant's first (cold) submission of the program it owns
        for tenant, program in enumerate(self.owned):
            sample = self._request(program, f"tenant-{tenant}",
                                   time.monotonic(), True)
            _check(sample["ok"], f"warming {program.tag} failed: "
                   f"{sample['error']}")

    def setup_samples(self) -> list[float]:
        return list(self.boot_s)

    # -- one request ------------------------------------------------ #

    def _request(self, program, tenant: str, due: float, cold: bool) -> dict:
        from repro.serve import client
        from repro.serve.schemas import SERVE_JOB_SCHEMA_VERSION

        sample = {"program": program, "cold": cold, "due": due, "ok": False,
                  "error": None, "sent": time.monotonic(), "latency": None}
        submission = {"schema": SERVE_JOB_SCHEMA_VERSION,
                      "tenant": tenant, "name": "inline",
                      "source": program.source, "machines": SERVE_MACHINES}
        try:
            status, record = client.submit(self.server.base_url, submission)
            if status != 202:
                sample["error"] = f"submit returned {status}: {record}"
                return sample
            job_id = record["job_id"]
            client.stream_events(self.server.base_url, job_id, timeout=120)
            sample["latency"] = time.monotonic() - due
            record = client.wait_job(self.server.base_url, job_id,
                                     timeout=30, poll=0.01)
        except (OSError, RuntimeError, TimeoutError) as exc:
            sample["error"] = f"{type(exc).__name__}: {exc}"
            return sample
        if record.get("state") != "done":
            sample["error"] = f"job {job_id} {record.get('state')}"
            return sample
        summary = record["result"]["summary"]
        sample["warm_hit"] = summary["hits"] == summary["total"]
        sample["ok"] = True
        return sample

    def _check_outputs(self) -> None:
        """Every served program printed what the generator computed
        (read from the trace the server stored for it), and every
        re-submission was served from the store alone."""
        from repro.farm import jobs as farm_jobs
        from repro.farm.store import ArtifactStore
        from repro.serve.schemas import MAX_SERVE_INSTRUCTIONS

        store = ArtifactStore(self.store_root)
        checked = set()
        for sample in self.samples:
            if not sample["ok"]:
                continue
            _check(sample["cold"] or sample["warm_hit"],
                   "a re-submitted program recomputed farm jobs")
            program = sample["program"]
            if program.tag in checked:
                continue
            checked.add(program.tag)
            manifest = store.get_meta("build", farm_jobs.manifest_key(
                "inline", False, program.source))
            _check(manifest is not None, f"{program.tag}: no build stored")
            trace = store.get_meta("trace", farm_jobs.trace_key(
                "inline", False, manifest["program_crc"],
                MAX_SERVE_INSTRUCTIONS, program.source))
            _check(trace is not None, f"{program.tag}: no trace stored")
            _check(trace["stdout"] == program.expected_output,
                   f"{program.tag} printed {trace['stdout']!r}, expected "
                   f"{program.expected_output!r}")

    # -- the schedule ------------------------------------------------ #

    def unit(self) -> float:
        outstanding = 0
        backlog_max = 0
        lock = threading.Lock()

        def one(arrival, due):
            nonlocal outstanding
            try:
                return self._request(arrival.program, arrival.tenant, due,
                                     arrival.cold)
            finally:
                with lock:
                    outstanding -= 1

        start = self.started_at = time.monotonic() + 0.05
        begin = time.perf_counter()
        futures = []
        with ThreadPoolExecutor(max_workers=64) as pool:
            for arrival in self.schedule:
                due = start + arrival.due
                delay = due - time.monotonic()
                if delay > 0:
                    time.sleep(delay)
                with lock:
                    outstanding += 1
                    backlog_max = max(backlog_max, outstanding)
                futures.append(pool.submit(one, arrival, due))
            self.samples = [future.result() for future in futures]
        seconds = time.perf_counter() - begin
        self.attempted = len(self.samples)
        self.failed = sum(1 for s in self.samples if not s["ok"])
        self.backlog_max = backlog_max
        self._check_outputs()
        self.server_metrics = self._server_metrics()
        return seconds

    def _server_metrics(self) -> dict:
        from repro.obs.metrics import MetricsRegistry
        from repro.serve import client

        status, doc = client.get_metrics(self.server.base_url)
        _check(status == 200, f"GET /v1/metrics returned {status}")
        registry = MetricsRegistry.from_snapshot(doc["metrics"])
        wait = registry.timing("jobs.queue_wait")
        farm = registry.ratio("jobs.farm_cache")
        rejected = sum(registry.counter(path).count
                       for path in registry.paths()
                       if path.endswith(".throttled"))
        return {
            "queue_wait_p50_s": wait.quantile(0.5),
            "queue_wait_p95_s": wait.quantile(0.95),
            "hit_ratio": farm.hit_ratio,
            "rejected": rejected,
        }

    def finish(self) -> None:
        if self.server is not None:
            self.server.stop()
            self.server = None

    # -- report ------------------------------------------------------ #

    def latencies(self, cold=None) -> list[float]:
        return [s["latency"] for s in self.samples
                if s["ok"] and (cold is None or s["cold"] == cold)]

    def serve_layer(self) -> dict:
        lags = [s["sent"] - s["due"] for s in self.samples]
        return {**self.server_metrics,
                "backlog_max": self.backlog_max,
                "lag_max_s": max(lags, default=0.0)}

    def result_s(self, unit_seconds) -> float:
        """Median seconds, due to done, of a request for a new program:
        the compile, trace, sim and store writes this workload exists
        for, plus its wait behind the traffic around it."""
        return statistics.median(self.latencies(cold=True))

    def report(self, unit_seconds) -> dict:
        attempts = max(1, self.attempted)
        missed = sum(1 for s in self.samples
                     if not s["ok"] or s["latency"] > SERVE_SLO_S)
        report = {}
        for prefix, cold in (("req", None), ("cold_req", True),
                             ("warm_req", False)):
            summary = summarize(self.latencies(cold))
            report[f"{prefix}_p50_s"] = (summary["p50"], "s")
            report[f"{prefix}_n"] = (summary["n"], "count")
            if summary["tail"] is not None:
                report[f"{prefix}_p{summary['tail_pct']:g}_s"] = \
                    (summary["tail"], "s")
        report["failed_frac"] = (self.failed / attempts, "frac")
        report["slo_miss_frac"] = (missed / attempts, "frac")
        return report

    def calibration_programs(self):
        from repro.compiler import compile_and_link

        return [compile_and_link(program.source) for program in self.owned]


WORKLOADS = {cls.name: cls for cls in
             (SweepCold, ServeMixed, ProfileSites)}


def create(name: str, seed: int, workdir: str, tracer, seconds: float,
           traced: bool) -> Workload:
    """The named workload; only the served one is sized by ``seconds``
    and told whether the run is traced."""
    if name == ServeMixed.name:
        return ServeMixed(seed, workdir, tracer, seconds, traced)
    return WORKLOADS[name](seed, workdir, tracer)
