"""``python -m repro farm`` -- drive experiment sweeps through the farm.

Subcommands:

* ``farm run``      -- plan the cells behind one or more figures, execute
                       the job graph across a worker pool (recording the
                       span tree and a ``repro.ledger/1`` manifest), then
                       (unless ``--no-render``) render each figure from
                       the now-warm store.
* ``farm status``   -- store location, per-kind artifact counts/bytes,
                       the last run's summary, and the ledger index
                       (``--json`` emits a ``repro.farm-status/1``
                       document).
* ``farm top``      -- live ANSI dashboard of the currently running
                       sweep (running jobs, queue depth, hit ratio,
                       worker utilization), from another terminal.
* ``farm history``  -- list/inspect persisted runs and flag wall-time
                       drift against the previous run of the same sweep.
* ``farm timeline`` -- export one run's span tree as Chrome trace-event
                       JSON (Perfetto-loadable, per-worker tracks).
* ``farm gc``       -- evict artifacts (LRU under ``--max-bytes``, or
                       everything with ``--all``).
"""

from __future__ import annotations

import json
import sys

from repro.farm import ledger as ledger_mod
from repro.farm.jobs import plan_jobs
from repro.farm.progress import ProgressSink
from repro.farm.scheduler import lifecycle_listener, run_graph
from repro.farm.store import ArtifactStore, default_store_root

#: figure name -> (harness module name, runner attribute).
HARNESSES = {
    "fig1": ("fig1_pipeline", "run_fig1"),
    "fig2": ("fig2_ipc", "run_fig2"),
    "fig3": ("fig3_offsets", "run_fig3"),
    "fig5": ("fig5_examples", "run_fig5"),
    "fig6": ("fig6_speedups", "run_fig6"),
    "table1": ("table1_refbehavior", "run_table1"),
    "table3": ("table3_nosupport", "run_table3"),
    "table4": ("table4_withsupport", "run_table4"),
    "table6": ("table6_bandwidth", "run_table6"),
    "signals": ("signals_report", "run_signals"),
}

#: Runners whose signature has no ``benchmarks`` parameter.
_NO_BENCHMARKS = ("fig1", "fig5")


def _split_csv(value: str | None) -> list[str] | None:
    if not value:
        return None
    return [item.strip() for item in value.split(",") if item.strip()]


def parse_size(text: str) -> int:
    """Parse ``500M``-style sizes (K/M/G suffixes, powers of 1024)."""
    text = text.strip()
    multiplier = 1
    suffixes = {"k": 1024, "m": 1024 ** 2, "g": 1024 ** 3}
    if text and text[-1].lower() in suffixes:
        multiplier = suffixes[text[-1].lower()]
        text = text[:-1]
    return int(float(text) * multiplier)


def _store_for(args) -> ArtifactStore:
    root = getattr(args, "store", None) or default_store_root()
    return ArtifactStore(root)


def cmd_farm_run(args) -> int:
    import importlib

    from repro.farm.top import live_path
    from repro.experiments import common
    from repro.obs.spans import SpanTracker

    figures = _split_csv(args.figures) or sorted(HARNESSES)
    unknown = [f for f in figures if f not in HARNESSES]
    if unknown:
        print(f"unknown figure(s) {unknown}; choose from {sorted(HARNESSES)}",
              file=sys.stderr)
        return 2
    benchmarks = _split_csv(args.suite)
    if benchmarks:
        bad = [b for b in benchmarks if b not in common.suite_names(None)]
        if bad:
            print(f"unknown benchmark(s) {bad}; see 'python -m repro suite'",
                  file=sys.stderr)
            return 2

    modules = {}
    cells = set()
    for figure in figures:
        module_name, _ = HARNESSES[figure]
        module = importlib.import_module(f"repro.experiments.{module_name}")
        modules[figure] = module
        cells |= module.farm_cells(benchmarks)

    store = _store_for(args)
    graph = plan_jobs(cells, common.MACHINES,
                      max_instructions=common.MAX_INSTRUCTIONS)
    print(f"[farm] {len(cells)} cells -> {len(graph.jobs)} jobs "
          f"(store: {store.root}, workers: {args.jobs})", file=sys.stderr)

    progress = ProgressSink(sys.stderr, enabled=not args.quiet)
    tracker = SpanTracker(listener=lifecycle_listener(graph, progress.handle))
    try:
        result = run_graph(graph, store, jobs=args.jobs,
                           timeout=args.timeout, retries=args.retries,
                           tracker=tracker, heartbeat_path=live_path(store))
    finally:
        progress.close()

    summary = result.summary()
    summary["figures"] = figures
    summary["benchmarks"] = benchmarks or sorted(common.suite_names(None))
    store.write_last_run(summary)
    if not args.no_spans:
        run = ledger_mod.run_from_sweep(
            args.run_id or ledger_mod.new_run_id(), graph, result, tracker,
            meta={"figures": figures,
                  "benchmarks": summary["benchmarks"],
                  "workers": args.jobs})
        ledger_path = ledger_mod.write_run(store, run)
        summary["run_id"] = run.run_id
        print(f"[farm] ledger: {ledger_path}", file=sys.stderr)
    if args.summary_json:
        with open(args.summary_json, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")
    print(f"[farm] {summary['total']} jobs: {summary['hits']} hits, "
          f"{summary['computed']} computed, {len(summary['failed'])} failed "
          f"({summary['elapsed_seconds']}s)", file=sys.stderr)
    for job_id in summary["failed"]:
        print(f"[farm] FAILED {job_id}: {summary['errors'][job_id]}",
              file=sys.stderr)

    if not args.no_render and not summary["failed"]:
        # Figures read through common.*_for, which hits the warm store
        # the sweep just filled (not necessarily $REPRO_FARM_DIR's).
        from repro.farm.api import using_store

        with using_store(store):
            for figure in figures:
                _, runner_name = HARNESSES[figure]
                runner = getattr(modules[figure], runner_name)
                if figure in _NO_BENCHMARKS:
                    print(runner().render())
                else:
                    print(runner(benchmarks).render())
                print()
    return 1 if summary["failed"] else 0


def _run_index(store) -> list[dict]:
    """Ledger index rows for ``farm status --json`` / ``farm history``."""
    rows = []
    for run in ledger_mod.list_runs(store):
        rows.append({
            "run_id": run.run_id,
            "sweep_key": run.sweep_key,
            "created": run.created,
            "jobs": len(run.jobs),
            "failed": len(run.summary.get("failed", [])),
            "elapsed_seconds": run.summary.get("elapsed_seconds", 0.0),
        })
    return rows


def cmd_farm_status(args) -> int:
    store = _store_for(args)
    stats = store.stats()
    if args.json:
        payload = {
            "schema": ledger_mod.FARM_STATUS_SCHEMA_VERSION,
            "store": stats["root"],
            "stats": stats,
            "last_run": store.read_last_run(),
            "runs": _run_index(store),
        }
        print(json.dumps(payload, indent=2, sort_keys=True))
        return 0
    print(f"store: {stats['root']}")
    if not stats["kinds"]:
        print("  (empty)")
    for kind, bucket in sorted(stats["kinds"].items()):
        print(f"  {kind:10s} {bucket['count']:5d} artifacts  "
              f"{bucket['bytes'] / 1024:10.1f} KiB")
    total = stats["total"]
    print(f"  {'total':10s} {total['count']:5d} artifacts  "
          f"{total['bytes'] / 1024:10.1f} KiB")
    last = store.read_last_run()
    if last:
        print(f"last run: {last.get('total', '?')} jobs, "
              f"{last.get('hits', '?')} hits, "
              f"{last.get('computed', '?')} computed, "
              f"{len(last.get('failed', []))} failed "
              f"({last.get('elapsed_seconds', '?')}s)")
    runs = _run_index(store)
    if runs:
        print(f"ledger: {len(runs)} run(s), latest {runs[-1]['run_id']}")
    return 0


def cmd_farm_top(args) -> int:
    from repro.farm.top import watch

    return watch(_store_for(args), interval=args.interval, once=args.once,
                 duration=args.duration)


def _render_drift(delta) -> str:
    lines = [f"compare {delta.old_id} -> {delta.new_id}"]
    if not delta.same_sweep:
        lines.append("  DIFFERENT SWEEPS (sweep keys do not match); "
                     "job-level comparison is best-effort")
    lines.append(f"  elapsed {delta.elapsed_old:.3f}s -> "
                 f"{delta.elapsed_new:.3f}s")
    if not delta.drifts:
        lines.append("  zero drift")
    for drift in delta.drifts:
        if drift.field == "wall":
            lines.append(f"  DRIFT {drift.job_id}: wall {drift.old:.3f}s "
                         f"-> {drift.new:.3f}s ({drift.delta:+.3f}s)")
        else:
            lines.append(f"  DRIFT {drift.job_id}: {drift.field} "
                         f"{drift.old} -> {drift.new}")
    return "\n".join(lines)


def _drift_json(delta) -> dict:
    return {
        "old": delta.old_id,
        "new": delta.new_id,
        "same_sweep": delta.same_sweep,
        "elapsed_old": delta.elapsed_old,
        "elapsed_new": delta.elapsed_new,
        "drifts": [
            {"job_id": d.job_id, "field": d.field, "old": d.old,
             "new": d.new, "delta": d.delta}
            for d in delta.drifts
        ],
    }


def cmd_farm_history(args) -> int:
    store = _store_for(args)
    runs = ledger_mod.list_runs(store)

    if args.run is None and args.compare is None:
        # list mode
        if args.json:
            print(json.dumps({"schema": "repro.farm-history/1",
                              "runs": _run_index(store)},
                             indent=2, sort_keys=True))
            return 0
        if not runs:
            print("(no ledger runs; sweeps record one unless --no-spans)")
            return 0
        print(f"{'RUN':28s} {'SWEEP':10s} {'JOBS':>5} {'FAIL':>5} "
              f"{'ELAPSED':>9}")
        for run in runs:
            print(f"{run.run_id:28s} {run.sweep_key[:10]:10s} "
                  f"{len(run.jobs):>5} "
                  f"{len(run.summary.get('failed', [])):>5} "
                  f"{run.summary.get('elapsed_seconds', 0.0):>8.3f}s")
        return 0

    run = ledger_mod.find_run(store, args.run or "last")
    if run is None:
        print(f"no ledger run {args.run or 'last'!r} under {store.root}",
              file=sys.stderr)
        return 2

    if args.compare is not None:
        if args.compare == "__prev__":
            old = ledger_mod.previous_run(store, run)
            if old is None:
                print(f"no earlier run of sweep {run.sweep_key[:10]} "
                      f"to compare against", file=sys.stderr)
                return 2
        else:
            old = ledger_mod.find_run(store, args.compare)
            if old is None:
                print(f"no ledger run {args.compare!r} under {store.root}",
                      file=sys.stderr)
                return 2
        delta = ledger_mod.compare_runs(old, run)
        if args.json:
            print(json.dumps({"schema": "repro.farm-drift/1",
                              **_drift_json(delta)},
                             indent=2, sort_keys=True))
        else:
            print(_render_drift(delta))
        return 0 if delta.ok else 1

    # inspect mode
    if args.json:
        print(json.dumps({
            "schema": ledger_mod.LEDGER_SCHEMA,
            "header": run.header(),
            "jobs": run.jobs,
            "summary": run.summary,
            "spans": len(run.spans),
        }, indent=2, sort_keys=True))
        return 0
    print(f"run {run.run_id} (sweep {run.sweep_key[:10]})")
    summary = run.summary
    print(f"  {summary.get('total', len(run.jobs))} jobs: "
          f"{summary.get('hits', '?')} hits, "
          f"{summary.get('computed', '?')} computed, "
          f"{len(summary.get('failed', []))} failed  "
          f"({summary.get('elapsed_seconds', 0.0)}s wall, "
          f"{summary.get('cpu_seconds', 0.0)}s cpu)")
    problems = ledger_mod.check_spans(run)
    print(f"  spans: {len(run.spans)} "
          f"({'healthy' if not problems else '; '.join(problems)})")
    slowest = sorted(run.jobs.values(), key=lambda j: -j["wall"])[:8]
    if slowest:
        print("  slowest jobs:")
        for job in slowest:
            rss = job["max_rss"] / (1024 * 1024)
            print(f"    {job['wall']:>8.3f}s  cpu {job['cpu']:>7.3f}s  "
                  f"rss {rss:>6.1f}M  [{job['status']}] {job['job_id']}")
    return 0


def cmd_farm_timeline(args) -> int:
    store = _store_for(args)
    run = ledger_mod.find_run(store, args.run)
    if run is None:
        print(f"no ledger run {args.run!r} under {store.root}",
              file=sys.stderr)
        return 2
    if args.chrome:
        with open(args.chrome, "w") as handle:
            written = ledger_mod.run_to_chrome(run, handle)
        print(f"[farm] {written} spans -> {args.chrome} "
              f"(load in https://ui.perfetto.dev)", file=sys.stderr)
        return 0
    # text mode: the span tree, depth-indented
    by_parent: dict[int | None, list[dict]] = {}
    for span in run.spans:
        by_parent.setdefault(span["parent_id"], []).append(span)

    def emit(span, depth):
        dur = "   open  " if span["t1"] is None else \
            f"{span['t1'] - span['t0']:>8.3f}s"
        print(f"{dur}  {'  ' * depth}{span['name']}")
        for child in sorted(by_parent.get(span["span_id"], []),
                            key=lambda s: s["t0"]):
            emit(child, depth + 1)

    print(f"run {run.run_id} (sweep {run.sweep_key[:10]})")
    for root in sorted(by_parent.get(None, []), key=lambda s: s["t0"]):
        emit(root, 0)
    return 0


def cmd_farm_gc(args) -> int:
    store = _store_for(args)
    if not args.all and args.max_bytes is None:
        print("farm gc: pass --max-bytes SIZE or --all", file=sys.stderr)
        return 2
    if args.all:
        evicted, freed = store.gc(clear=True)
    else:
        evicted, freed = store.gc(max_bytes=parse_size(args.max_bytes))
    print(f"[farm] evicted {evicted} artifacts, freed {freed / 1024:.1f} KiB")
    return 0


def add_farm_parser(sub) -> None:
    """Register the ``farm`` subcommand on a ``__main__`` subparser set."""
    p_farm = sub.add_parser(
        "farm", help="parallel, artifact-cached experiment execution"
    )
    farm_sub = p_farm.add_subparsers(dest="farm_command", required=True)

    p_run = farm_sub.add_parser("run", help="execute an experiment sweep")
    p_run.add_argument("--jobs", "-j", type=int, default=1,
                       help="worker-pool width (default 1)")
    p_run.add_argument("--suite", default=None, metavar="NAMES",
                       help="comma-separated benchmark subset (default: all)")
    p_run.add_argument("--figures", default=None, metavar="LIST",
                       help="comma-separated figures "
                            f"(default: all of {','.join(sorted(HARNESSES))})")
    p_run.add_argument("--timeout", type=float, default=600.0,
                       help="per-job attempt timeout, seconds (default 600)")
    p_run.add_argument("--retries", type=int, default=1,
                       help="extra attempts after a crash/timeout (default 1)")
    p_run.add_argument("--store", default=None, metavar="DIR",
                       help="artifact store root (default: $REPRO_FARM_DIR "
                            "or .repro-farm/)")
    p_run.add_argument("--summary-json", default=None, metavar="FILE",
                       help="also write the run summary JSON to FILE")
    p_run.add_argument("--no-render", action="store_true",
                       help="skip rendering figures after the sweep")
    p_run.add_argument("--no-spans", action="store_true",
                       help="write no run ledger")
    p_run.add_argument("--run-id", default=None, metavar="ID",
                       help="ledger run id (default: timestamp-pid)")
    p_run.add_argument("--quiet", action="store_true",
                       help="suppress the live progress line")
    p_run.set_defaults(func=cmd_farm_run)

    p_status = farm_sub.add_parser("status", help="store and last-run summary")
    p_status.add_argument("--store", default=None, metavar="DIR")
    p_status.add_argument("--json", action="store_true",
                          help="emit a repro.farm-status/1 document")
    p_status.set_defaults(func=cmd_farm_status)

    p_top = farm_sub.add_parser(
        "top", help="live dashboard of the running sweep")
    p_top.add_argument("--store", default=None, metavar="DIR")
    p_top.add_argument("--interval", type=float, default=0.5,
                       help="refresh interval, seconds (default 0.5)")
    p_top.add_argument("--once", action="store_true",
                       help="render one frame and exit")
    p_top.add_argument("--duration", type=float, default=None,
                       help="stop watching after this many seconds")
    p_top.set_defaults(func=cmd_farm_top)

    p_history = farm_sub.add_parser(
        "history", help="list/inspect/compare persisted sweep runs")
    p_history.add_argument("run", nargs="?", default=None,
                           help="run id to inspect (or 'last')")
    p_history.add_argument("--compare", nargs="?", const="__prev__",
                           default=None, metavar="OLD",
                           help="drift vs OLD (default: the previous run "
                                "of the same sweep); nonzero exit on drift")
    p_history.add_argument("--json", action="store_true")
    p_history.add_argument("--store", default=None, metavar="DIR")
    p_history.set_defaults(func=cmd_farm_history)

    p_timeline = farm_sub.add_parser(
        "timeline", help="export one run's span tree")
    p_timeline.add_argument("run", nargs="?", default="last",
                            help="run id (default: last)")
    p_timeline.add_argument("--chrome", default=None, metavar="FILE",
                            help="write Chrome trace-event JSON "
                                 "(Perfetto-loadable, per-worker tracks) "
                                 "instead of the text tree")
    p_timeline.add_argument("--store", default=None, metavar="DIR")
    p_timeline.set_defaults(func=cmd_farm_timeline)

    p_gc = farm_sub.add_parser("gc", help="evict artifacts")
    p_gc.add_argument("--max-bytes", default=None, metavar="SIZE",
                      help="evict LRU-first until the store fits SIZE "
                           "(K/M/G suffixes)")
    p_gc.add_argument("--all", action="store_true",
                      help="remove every artifact")
    p_gc.add_argument("--store", default=None, metavar="DIR")
    p_gc.set_defaults(func=cmd_farm_gc)
