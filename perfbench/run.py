"""The repository's benchmark: one command, three workloads.

Usage::

    python3 perfbench/run.py --workload sweep_cold --seed 1 --seconds 20 \\
        --trace 0

Runs one workload for ``--seconds`` seconds on inputs generated from
``--seed``, checks every output, prints a human-readable report and, as
the last line, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``. With ``--trace 0`` the metrics are the end-to-end metrics
of ``BENCHMARK.json``; with ``--trace 1`` they are its per-layer
metrics, read from spans recorded around each layer's public functions.
Exits 1 on a correctness mismatch and 2 when the checkout holds no
program to measure.

Every run works in its own directory under ``.perfbench_work/`` in the
checkout (artifact store, caches, temporary files) and removes it when
it ends; the spans of a traced run are kept beside it.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORK = ROOT / ".perfbench_work"

WORKLOAD_NAMES = ("sweep_cold", "serve_mixed", "profile_sites")

END_TO_END_UNITS = {
    "setup_s": "s",
    "result_s": "s",
    "peak_rss_mb": "MB",
    "done_frac": "frac",
}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def isolate(workdir: Path) -> None:
    """Point every store, cache and temporary file of this run (and of
    the processes it starts) into ``workdir``."""
    import tempfile

    for sub in ("farm", "cache", "tmp", "spool"):
        (workdir / sub).mkdir(parents=True, exist_ok=True)
    os.environ["REPRO_FARM_DIR"] = str(workdir / "farm")
    os.environ["XDG_CACHE_HOME"] = str(workdir / "cache")
    os.environ["TMPDIR"] = str(workdir / "tmp")
    for name in ("REPRO_SUITE", "REPRO_FARM"):
        os.environ.pop(name, None)
    tempfile.tempdir = str(workdir / "tmp")
    path = [str(ROOT / "src"), str(ROOT)]
    os.environ["PYTHONPATH"] = os.pathsep.join(path)
    sys.path[:0] = path


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest finished child."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def probe_setup(workload) -> list[float]:
    """The workload's own set-up timings, or ``SETUP_REPEATS``
    fresh-interpreter set-ups timed here."""
    from perfbench.workloads import SETUP_REPEATS

    samples = workload.setup_samples()
    if samples is not None:
        return samples
    command = [sys.executable, str(ROOT / "perfbench" / "probe.py"),
               workload.name, ",".join(workload.names)]
    samples = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run(command, check=True, cwd=ROOT)
        samples.append(time.perf_counter() - start)
    return samples


def measure(workload, tracer, seconds: float, trace: bool):
    """Repeat units for ``seconds``; returns (untraced, traced) unit
    seconds. A traced run alternates untraced and traced units so the
    tracing overhead is measured on the same inputs."""
    from repro.obs.spans import SpanTracker

    untraced: list[float] = []
    traced: list[float] = []
    tracker = SpanTracker()
    start = time.monotonic()
    while True:
        tracing = trace and (not workload.alternates or len(untraced) > len(traced))
        if tracing and workload.alternates:
            tracer.install()
            tracer.tracker = tracker
        try:
            unit_s = workload.unit()
        finally:
            tracer.tracker = None
            tracer.uninstall()
        (traced if tracing else untraced).append(unit_s)
        if not workload.alternates:
            break                  # the unit is the whole schedule
        enough = not trace or (untraced and traced)
        if time.monotonic() - start >= seconds and enough:
            break
    return untraced, traced, tracker


def layer_report(workload, tracer, tracker, traced, untraced, workdir):
    from repro.experiments import common

    from perfbench.calibrate import calibrate
    from perfbench.layers import SpanTotals, layer_metrics, read_spool

    batches = [tracker.export()] + read_spool(tracer.spool_dir)
    spans_path = WORK / f"{workload.name}-seed{workload.seed}.spans.json"
    with open(spans_path, "w") as handle:
        json.dump(batches, handle)
    calibration = calibrate(workload.calibration_programs(), str(workdir),
                            common.MAX_INSTRUCTIONS, workload.timing_config())
    overhead = 0.0
    if workload.alternates:
        overhead = statistics.median(traced) / statistics.median(untraced) - 1
    units = len(traced) if workload.alternates else 1
    totals = SpanTotals(batches, since=workload.started_at)
    return layer_metrics(totals, units, calibration, workload.serve_layer(),
                         overhead), spans_path


def run(args, workdir: Path) -> int:
    from perfbench.layers import PER_LAYER, LayerTracer
    from perfbench.stats import summarize
    from perfbench.workloads import CorrectnessError, create

    tracer = LayerTracer(str(workdir / "spool"))
    workload = create(args.workload, args.seed, str(workdir), tracer,
                      args.seconds, bool(args.trace))
    try:
        workload.prepare()
        untraced, traced, tracker = measure(workload, tracer, args.seconds,
                                            bool(args.trace))
    except CorrectnessError as exc:
        print(f"perfbench: INCORRECT: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False,
                          "attempted": max(1, workload.attempted),
                          "failed": workload.failed, "metrics": {}}))
        return 1
    finally:
        workload.finish()

    rss = peak_rss_mb()
    setup = probe_setup(workload)
    units = untraced or traced
    unit = summarize(units)
    attempted = max(1, workload.attempted)
    lines = {
        "setup_s": (statistics.median(setup), "s"),
        "result_s": (workload.result_s(units), "s"),
        "peak_rss_mb": (rss, "MB"),
        "done_frac": (1.0 - workload.failed / attempted, "frac"),
    }
    print(f"# workload {workload.name}, seed {args.seed}, "
          f"programs {','.join(workload.names) or 'inline'}")
    print(f"# {len(untraced)} untraced and {len(traced)} traced units; "
          f"set-ups {', '.join(f'{s:.3f}' for s in setup)} s")
    report = dict(lines)
    if workload.alternates:
        report[workload.unit_name] = (unit["p50"], "s")
        report[f"{workload.unit_name[:-2]}_n"] = (unit["n"], "count")
        if unit["tail"] is not None:
            report[f"{workload.unit_name[:-2]}_p{unit['tail_pct']:g}_s"] = \
                (unit["tail"], "s")
    report.update(workload.report(units))
    for name, (value, unit_name) in report.items():
        print(f"{name} {value:.6g} {unit_name}")

    if args.trace:
        metrics, spans_path = layer_report(workload, tracer, tracker, traced,
                                           untraced, workdir)
        print(f"# spans: {spans_path.relative_to(ROOT)}")
        units_of = dict(PER_LAYER)
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units_of[name]}")
        out = {name: {"value": value, "unit": units_of[name]}
               for name, value in metrics.items()}
    else:
        out = {name: {"value": value, "unit": END_TO_END_UNITS[name]}
               for name, (value, _) in lines.items()}
    print(json.dumps({"correct": True, "attempted": attempted,
                      "failed": workload.failed, "metrics": out}))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure ({ROOT / 'src' / 'repro'} "
              f"is missing)", file=sys.stderr)
        return 2
    workdir = WORK / f"run-{os.getpid()}"
    isolate(workdir)
    try:
        return run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
