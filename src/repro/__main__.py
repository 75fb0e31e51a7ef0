"""Command-line interface: ``python -m repro <command>``.

Commands:

* ``run FILE.mc``      -- compile and run a MiniC program
* ``asm FILE.s``       -- assemble, link, and run raw assembly
* ``suite``            -- list the benchmark registry
* ``stats NAME``       -- run one benchmark and report timing/prediction
* ``lint TARGET``      -- static FAC-predictability lint of a MiniC file,
                          assembly file, or benchmark name
* ``sanitize TARGET``  -- whole-program static sanitizer: calling
                          convention, stack discipline, data bounds, and
                          control-flow integrity (``--json``/``--sarif``)
* ``profile TARGET``   -- source-level FAC profile: hottest loads/stores
                          with prediction rate, miss rate, replay cycles
* ``trace TARGET``     -- structured event trace (Chrome/Perfetto JSON or
                          JSON Lines)
* ``pipeview TARGET``  -- pipeline flight recorder: ANSI waterfall of the
                          trailing execution window (``--around pc:X`` /
                          ``--around cycle:N`` to centre it elsewhere)
* ``explain TARGET``   -- FAC misprediction root-cause report for one or
                          all memory sites (``--pc X`` / ``--line F:N``)
* ``diff OLD NEW``     -- compare two ``repro.metrics/1`` snapshots under
                          per-metric gates; nonzero exit on violation
* ``report``           -- static HTML dashboard of a suite sweep from
                          farm artifacts
* ``experiment WHICH`` -- regenerate a paper table/figure
                          (table1|table3|table4|table6|fig1|fig2|fig3|fig5|fig6)
* ``farm ...``         -- parallel, artifact-cached experiment sweeps
                          (``farm run``, ``farm status``, ``farm top``,
                          ``farm history``, ``farm timeline``, ``farm gc``)
* ``serve``            -- simulation-as-a-service HTTP server on top of
                          the farm (``--check`` for offline health,
                          ``serve trace JOB_ID`` for one request's
                          span tree)
* ``submit``           -- submit one job to a running serve instance
                          (``--follow`` streams its SSE events)
* ``slo``              -- evaluate TOML service-level objectives over
                          ``repro.serve-metrics/1`` snapshots with
                          burn-rate math; exits 1 on breach
"""

from __future__ import annotations

import argparse
import json
import sys

from repro.analysis import analyze_program, lint_program
from repro.compiler import CompilerOptions, FacSoftwareOptions, compile_and_link
from repro.cpu import CPU
from repro.fac import FacConfig
from repro.isa.assembler import assemble
from repro.linker import LinkOptions, link
from repro.pipeline import MachineConfig


def _options(args) -> CompilerOptions:
    if getattr(args, "software_support", False):
        return CompilerOptions(fac=FacSoftwareOptions.enabled())
    return CompilerOptions()


def cmd_run(args) -> int:
    with open(args.file) as handle:
        source = handle.read()
    program = compile_and_link(source, _options(args))
    cpu = CPU(program)
    cpu.run(args.max_instructions)
    sys.stdout.write(cpu.stdout())
    if args.stats:
        print(f"\n[{cpu.instructions_retired} instructions, "
              f"exit code {cpu.exit_code}]", file=sys.stderr)
    return cpu.exit_code


def cmd_asm(args) -> int:
    with open(args.file) as handle:
        source = handle.read()
    program = link([assemble(source, args.file)], LinkOptions())
    cpu = CPU(program)
    cpu.run(args.max_instructions)
    sys.stdout.write(cpu.stdout())
    return cpu.exit_code


def cmd_suite(args) -> int:
    from repro.workloads import BENCHMARKS

    for name, bench in BENCHMARKS.items():
        print(f"{name:10s} [{bench.category}] {bench.description}")
    return 0


def cmd_stats(args) -> int:
    from repro.pipeline.replay import time_live
    from repro.workloads import BENCHMARKS, build_benchmark

    if args.name not in BENCHMARKS:
        print(f"unknown benchmark {args.name!r}; try 'python -m repro suite'",
              file=sys.stderr)
        return 2
    program = build_benchmark(args.name, software_support=args.software_support)
    analysis = analyze_program(program)
    # one functional run times both flavours (they share a front)
    (base, fac), _ = time_live(
        program, (MachineConfig(), MachineConfig(fac=FacConfig())))
    stats = analysis.predictions[32]
    print(f"benchmark        : {args.name} "
          f"({'with' if args.software_support else 'no'} software support)")
    print(f"output           : {analysis.stdout!r}")
    print(f"instructions     : {analysis.instructions}")
    print(f"baseline cycles  : {base.cycles} (IPC {base.ipc:.3f})")
    print(f"FAC cycles       : {fac.cycles} (speedup {base.cycles / fac.cycles:.3f})")
    print(f"prediction fail  : loads {100 * stats.load_failure_rate:.1f}%  "
          f"stores {100 * stats.store_failure_rate:.1f}%")
    print(f"extra bandwidth  : {100 * fac.bandwidth_overhead:.2f}% of refs")
    if args.snapshot is not None:
        from repro.obs.metrics import MetricsRegistry

        registry = MetricsRegistry()
        base.to_registry(registry, prefix="baseline")
        fac.to_registry(registry, prefix="fac")
        snapshot = registry.snapshot(meta={
            "benchmark": args.name,
            "software_support": bool(args.software_support),
        })
        path = args.snapshot or "stats_snapshot.json"
        with open(path, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"metrics snapshot : {path}")
    return 0


def _load_target(args):
    """Resolve a CLI target (MiniC file, assembly file, or benchmark name)
    to a linked Program; shared by lint/profile/trace. Returns None and
    prints a diagnostic when the target is unknown."""
    target = args.target
    if target.endswith(".mc"):
        with open(target) as handle:
            return compile_and_link(handle.read(), _options(args))
    if target.endswith(".s"):
        with open(target) as handle:
            return link([assemble(handle.read(), target)], LinkOptions())
    from repro.workloads import BENCHMARKS, build_benchmark

    if target not in BENCHMARKS:
        print(f"unknown target {target!r}: expected a .mc/.s file "
              "or a benchmark name (see 'python -m repro suite')",
              file=sys.stderr)
        return None
    return build_benchmark(
        target, software_support=getattr(args, "software_support", False)
    )


def _usage_error_json(schema: str, target: str) -> dict:
    """Machine-readable usage-error payload: ``--json`` consumers get the
    same schema-tagged shape on exit 2 instead of an empty stdout."""
    return {
        "schema": schema,
        "program": target,
        "error": f"unknown target {target!r}: expected a .mc/.s file "
                 "or a benchmark name",
    }


def cmd_lint(args) -> int:
    """Statically classify every memory access and report alignment lint.

    Exit status: 0 when clean, 1 when warnings were found, 2 on usage
    errors -- identical for text and ``--json`` output, so the linter
    can gate CI like a conventional lint tool.
    """
    from repro.analysis.reporting import LINT_SCHEMA_VERSION

    target = args.target
    program = _load_target(args)
    if program is None:
        if args.json:
            print(json.dumps(_usage_error_json(LINT_SCHEMA_VERSION, target),
                             indent=2))
        return 2
    config = FacConfig(cache_size=args.cache_size, block_size=args.block_size)
    report = lint_program(program, config, name=target)
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())
    return 1 if report.warnings else 0


def cmd_sanitize(args) -> int:
    """Whole-program static sanitizer (convention/stack/bounds/cfi).

    Exit status mirrors ``lint``: 0 clean, 1 when any finding was
    produced, 2 on usage errors.
    """
    from repro.analysis.sanitize import SANITIZE_SCHEMA_VERSION, \
        sanitize_program

    target = args.target
    program = _load_target(args)
    if program is None:
        if args.json:
            print(json.dumps(
                _usage_error_json(SANITIZE_SCHEMA_VERSION, target), indent=2))
        return 2
    report = sanitize_program(program, name=target)
    if args.sarif is not None:
        with open(args.sarif, "w") as handle:
            handle.write(report.sarif_text())
            handle.write("\n")
    if args.json:
        print(json.dumps(report.to_json(), indent=2))
    else:
        print(report.render_text())
    return 0 if report.clean else 1


def cmd_profile(args) -> int:
    """Source-level FAC profile (see :mod:`repro.obs.profile`)."""
    from repro.obs.profile import profile_program

    program = _load_target(args)
    if program is None:
        return 2
    result = profile_program(
        program,
        name=args.target,
        primary_block_size=args.block_size,
        cache_size=args.cache_size,
        max_instructions=args.max_instructions,
    )
    top = args.top or None  # --top 0 means "all sites"
    if args.json:
        print(json.dumps(result.to_json(top, sort=args.sort), indent=2))
    else:
        print(result.render_text(top=top, sort=args.sort))
    return 0


def cmd_trace(args) -> int:
    """Structured event trace (see :mod:`repro.obs.trace`)."""
    from repro.obs.trace import trace_program

    program = _load_target(args)
    if program is None:
        return 2
    if args.output:
        with open(args.output, "w") as stream:
            result = trace_program(program, stream, fmt=args.format,
                                   max_instructions=args.max_instructions)
        print(f"{args.format} trace written to {args.output} "
              f"({result.instructions} instructions, {result.cycles} cycles)",
              file=sys.stderr)
    else:
        result = trace_program(program, sys.stdout, fmt=args.format,
                               max_instructions=args.max_instructions)
    return 0


def cmd_pipeview(args) -> int:
    """Flight-recorder waterfall (see :mod:`repro.obs.flight`)."""
    from repro.obs.flight import record_flight

    program = _load_target(args)
    if program is None:
        return 2
    around_pc = around_cycle = None
    if args.around:
        spec = args.around
        try:
            if spec.startswith("pc:"):
                around_pc = int(spec[3:], 0)
            elif spec.startswith("cycle:"):
                around_cycle = int(spec[6:])
            elif spec.lower().startswith("0x"):
                around_pc = int(spec, 16)
            else:
                around_cycle = int(spec)
        except ValueError:
            print(f"bad --around {spec!r}: expected pc:0xADDR, cycle:N, "
                  "a hex pc, or a decimal cycle", file=sys.stderr)
            return 2
    recorder, result = record_flight(
        program, window_cycles=args.window,
        around_pc=around_pc, around_cycle=around_cycle,
        max_instructions=args.max_instructions,
    )
    if args.chrome:
        with open(args.chrome, "w") as stream:
            recorder.to_chrome(stream)
        print(f"chrome trace written to {args.chrome}", file=sys.stderr)
    if args.dump:
        sys.stdout.write(recorder.dump())
    else:
        color = (sys.stdout.isatty() if args.color is None else args.color)
        sys.stdout.write(recorder.render(color=color))
    print(f"[{result.instructions} instructions, {result.cycles} cycles, "
          f"window {args.window} cycles]", file=sys.stderr)
    return 0


def cmd_explain(args) -> int:
    """FAC misprediction root-cause report (see :mod:`repro.obs.explain`)."""
    from repro.fac.predictor import FastAddressCalculator
    from repro.obs.explain import (
        explain_program,
        render_report,
        resolve_line,
    )

    program = _load_target(args)
    if program is None:
        return 2
    config = FacConfig(cache_size=args.cache_size, block_size=args.block_size)
    pcs = None
    if args.pc is not None:
        try:
            pcs = {int(args.pc, 0)}
        except ValueError:
            print(f"bad --pc {args.pc!r}", file=sys.stderr)
            return 2
        if args.line is not None:
            print("--pc and --line are mutually exclusive", file=sys.stderr)
            return 2
    elif args.line is not None:
        filename, sep, lineno = args.line.rpartition(":")
        if not sep or not lineno.isdigit():
            print(f"bad --line {args.line!r}: expected FILE:N",
                  file=sys.stderr)
            return 2
        matches = resolve_line(program, filename, int(lineno))
        if not matches:
            print(f"no instructions found at {args.line}", file=sys.stderr)
            return 2
        pcs = set(matches)
    report = explain_program(program, config, pcs=pcs,
                             max_instructions=args.max_instructions,
                             sweep=args.sweep)
    if pcs is not None and not report.sites:
        print("the selected instructions performed no memory accesses",
              file=sys.stderr)
        return 2
    if args.json:
        print(json.dumps({
            "schema": "repro.explain/1",
            "program": args.target,
            "sites": [site.to_dict() for site in report.sites],
        }, indent=2))
    else:
        sys.stdout.write(render_report(report, FastAddressCalculator(config)))
    return 0 if all(site.consistent for site in report.sites) else 1


def cmd_diff(args) -> int:
    """Gate one metrics snapshot against another (see :mod:`repro.obs.diff`)."""
    from repro.obs.diff import (
        diff_snapshots,
        load_gates,
        load_snapshot,
        render_diff,
    )

    old = load_snapshot(args.old)
    new = load_snapshot(args.new)
    gates = load_gates(args.gate) if args.gate else None
    result = diff_snapshots(old, new, gates)
    sys.stdout.write(render_diff(result, show_all=args.all))
    return 0 if result.ok else 1


def cmd_report(args) -> int:
    """Static HTML dashboard of a suite sweep (see :mod:`repro.obs.report`)."""
    from repro.farm.snapshots import suite_snapshot
    from repro.obs.diff import load_snapshot
    from repro.obs.report import write_report

    if args.from_snapshot:
        snapshot = load_snapshot(args.from_snapshot)
    else:
        benchmarks = None
        if args.suite:
            benchmarks = [n.strip() for n in args.suite.split(",")
                          if n.strip()]
        machines = tuple(n.strip() for n in args.machines.split(",")
                         if n.strip())
        snapshot = suite_snapshot(benchmarks, machines=machines,
                                  software=args.software_support)
    if args.snapshot:
        with open(args.snapshot, "w") as handle:
            json.dump(snapshot, handle, indent=2, sort_keys=True)
            handle.write("\n")
        print(f"sweep snapshot written to {args.snapshot}", file=sys.stderr)
    index = write_report(args.out, snapshot)
    print(f"report written to {index}", file=sys.stderr)
    return 0


def cmd_experiment(args) -> int:
    from repro import experiments

    runners = {
        "fig1": experiments.run_fig1,
        "table1": experiments.run_table1,
        "table3": experiments.run_table3,
        "table4": experiments.run_table4,
        "table6": experiments.run_table6,
        "fig2": experiments.run_fig2,
        "fig3": lambda: experiments.run_fig3(),
        "fig5": experiments.run_fig5,
        "fig6": experiments.run_fig6,
        "signals": experiments.run_signals,
    }
    runner = runners.get(args.which)
    if runner is None:
        print(f"unknown experiment {args.which!r}; choose from "
              f"{sorted(runners)}", file=sys.stderr)
        return 2
    print(runner().render())
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Fast Address Calculation (ISCA 1995) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="compile and run a MiniC file")
    p_run.add_argument("file")
    p_run.add_argument("--software-support", action="store_true",
                       help="compile with the paper's Section 4 support")
    p_run.add_argument("--stats", action="store_true")
    p_run.add_argument("--max-instructions", type=int, default=100_000_000)
    p_run.set_defaults(func=cmd_run)

    p_asm = sub.add_parser("asm", help="assemble and run an assembly file")
    p_asm.add_argument("file")
    p_asm.add_argument("--max-instructions", type=int, default=100_000_000)
    p_asm.set_defaults(func=cmd_asm)

    p_suite = sub.add_parser("suite", help="list the benchmark suite")
    p_suite.set_defaults(func=cmd_suite)

    p_stats = sub.add_parser("stats", help="run one benchmark with timing")
    p_stats.add_argument("name")
    p_stats.add_argument("--software-support", action="store_true")
    p_stats.add_argument("--snapshot", nargs="?", const="stats_snapshot.json",
                         default=None, metavar="FILE",
                         help="write a versioned metrics snapshot "
                              "(default FILE: stats_snapshot.json)")
    p_stats.set_defaults(func=cmd_stats)

    p_lint = sub.add_parser(
        "lint", help="static FAC-predictability lint (repro.analysis.static_fac)"
    )
    p_lint.add_argument("target", help="MiniC file, assembly file, or "
                                       "benchmark name")
    p_lint.add_argument("--json", action="store_true",
                        help="emit the machine-readable report "
                             "(schema: repro.analysis.reporting.LINT_SCHEMA)")
    p_lint.add_argument("--software-support", action="store_true",
                        help="compile with the paper's Section 4 support")
    p_lint.add_argument("--cache-size", type=int, default=16 * 1024)
    p_lint.add_argument("--block-size", type=int, default=32)
    p_lint.set_defaults(func=cmd_lint)

    p_sanitize = sub.add_parser(
        "sanitize",
        help="whole-program static sanitizer (repro.analysis.sanitize)",
    )
    p_sanitize.add_argument("target", help="MiniC file, assembly file, or "
                            "benchmark name")
    p_sanitize.add_argument("--json", action="store_true",
                            help="emit the machine-readable report "
                            "(schema repro.sanitize/1)")
    p_sanitize.add_argument("--sarif", metavar="FILE", default=None,
                            help="also write a SARIF 2.1.0 document to FILE")
    p_sanitize.add_argument("--software-support", action="store_true",
                            help="build benchmark targets with the paper's "
                            "Section 4 software support")
    p_sanitize.set_defaults(func=cmd_sanitize)

    p_profile = sub.add_parser(
        "profile", help="source-level FAC profile (repro.obs.profile)"
    )
    p_profile.add_argument("target", help="MiniC file, assembly file, or "
                                          "benchmark name")
    p_profile.add_argument("--json", action="store_true",
                           help="emit the machine-readable report "
                                "(schema: repro.obs.profile.PROFILE_SCHEMA)")
    p_profile.add_argument("--top", type=int, default=20,
                           help="rows to show (0 = all)")
    p_profile.add_argument("--sort",
                           choices=["replays", "misses", "predict_rate"],
                           default="replays",
                           help="ranking: replay cycles (default), dcache "
                                "misses, or worst prediction rate first; "
                                "ties always break by pc")
    p_profile.add_argument("--software-support", action="store_true",
                           help="compile with the paper's Section 4 support")
    p_profile.add_argument("--cache-size", type=int, default=16 * 1024)
    p_profile.add_argument("--block-size", type=int, default=32)
    p_profile.add_argument("--max-instructions", type=int, default=50_000_000)
    p_profile.set_defaults(func=cmd_profile)

    p_trace = sub.add_parser(
        "trace", help="structured event trace (repro.obs.trace)"
    )
    p_trace.add_argument("target", help="MiniC file, assembly file, or "
                                        "benchmark name")
    p_trace.add_argument("--format", choices=["chrome", "jsonl"],
                         default="chrome",
                         help="chrome = Perfetto-loadable trace-event JSON; "
                              "jsonl = one event object per line")
    p_trace.add_argument("-o", "--output", default=None,
                         help="write to FILE instead of stdout")
    p_trace.add_argument("--software-support", action="store_true",
                         help="compile with the paper's Section 4 support")
    p_trace.add_argument("--max-instructions", type=int, default=50_000_000)
    p_trace.set_defaults(func=cmd_trace)

    p_pipeview = sub.add_parser(
        "pipeview", help="pipeline flight-recorder waterfall (repro.obs.flight)"
    )
    p_pipeview.add_argument("target", help="MiniC file, assembly file, or "
                                           "benchmark name")
    p_pipeview.add_argument("--around", default=None, metavar="PC|CYCLE",
                            help="centre the window: pc:0xADDR / a hex pc "
                                 "freezes half a window after that pc "
                                 "retires; cycle:N / a decimal freezes at "
                                 "cycle N + window/2")
    p_pipeview.add_argument("--window", type=int, default=64,
                            help="window size in cycles (default 64)")
    p_pipeview.add_argument("--dump", action="store_true",
                            help="deterministic one-line-per-instruction "
                                 "dump instead of the waterfall")
    p_pipeview.add_argument("--chrome", default=None, metavar="FILE",
                            help="also export the window as Chrome trace "
                                 "JSON with named stage tracks")
    p_pipeview.add_argument("--color", action=argparse.BooleanOptionalAction,
                            default=None,
                            help="force ANSI colour on/off (default: tty)")
    p_pipeview.add_argument("--software-support", action="store_true",
                            help="compile with the paper's Section 4 support")
    p_pipeview.add_argument("--max-instructions", type=int,
                            default=50_000_000)
    p_pipeview.set_defaults(func=cmd_pipeview)

    p_explain = sub.add_parser(
        "explain", help="FAC misprediction root-cause report (repro.obs.explain)"
    )
    p_explain.add_argument("target", help="MiniC file, assembly file, or "
                                          "benchmark name")
    p_explain.add_argument("--pc", default=None, metavar="ADDR",
                           help="explain only the site at this text address")
    p_explain.add_argument("--line", default=None, metavar="FILE:N",
                           help="explain the site(s) at this source line")
    p_explain.add_argument("--json", action="store_true",
                           help="emit the machine-readable report")
    p_explain.add_argument("--sweep", action="store_true",
                           help="predict per-site miss ratios across block "
                                "sizes 8-128 with the analytical cache model")
    p_explain.add_argument("--software-support", action="store_true",
                           help="compile with the paper's Section 4 support")
    p_explain.add_argument("--cache-size", type=int, default=16 * 1024)
    p_explain.add_argument("--block-size", type=int, default=32)
    p_explain.add_argument("--max-instructions", type=int,
                           default=50_000_000)
    p_explain.set_defaults(func=cmd_explain)

    p_diff = sub.add_parser(
        "diff", help="gate two repro.metrics/1 snapshots (repro.obs.diff)"
    )
    p_diff.add_argument("old", help="baseline snapshot JSON")
    p_diff.add_argument("new", help="candidate snapshot JSON")
    p_diff.add_argument("--gate", default=None, metavar="GATES.toml",
                        help="per-metric thresholds; without it any change "
                             "at all is a violation")
    p_diff.add_argument("--all", action="store_true",
                        help="list unchanged metrics too")
    p_diff.set_defaults(func=cmd_diff)

    p_report = sub.add_parser(
        "report", help="static HTML dashboard of a suite sweep "
                       "(repro.obs.report)"
    )
    p_report.add_argument("--suite", default=None, metavar="A,B,...",
                          help="benchmarks to sweep (default: $REPRO_SUITE "
                               "or all)")
    p_report.add_argument("--machines", default="base,fac32",
                          metavar="M,N,...",
                          help="machine flavours (default base,fac32)")
    p_report.add_argument("--out", default="report", metavar="DIR",
                          help="output directory (default ./report)")
    p_report.add_argument("--snapshot", default=None, metavar="FILE",
                          help="also write the sweep snapshot JSON here "
                               "(the input for a later 'repro diff')")
    p_report.add_argument("--from-snapshot", default=None, metavar="FILE",
                          help="render an existing sweep snapshot instead "
                               "of computing one")
    p_report.add_argument("--software-support", action="store_true",
                          help="build the suite with Section 4 support")
    p_report.set_defaults(func=cmd_report)

    p_exp = sub.add_parser("experiment", help="regenerate a table/figure")
    p_exp.add_argument("which")
    p_exp.set_defaults(func=cmd_experiment)

    from repro.farm.cli import add_farm_parser
    from repro.serve.cli import add_serve_parser, add_slo_parser

    add_farm_parser(sub)
    add_serve_parser(sub)
    add_slo_parser(sub)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
