"""FAC misprediction root-cause explainer: the engine behind
``repro explain``.

For each memory site (optionally narrowed to ``--pc``/``--line``) the
explainer runs the program once, replaying every access through the
:class:`~repro.fac.predictor.FastAddressCalculator` twice -- the
allocation-free :meth:`fails` verdict the timing model uses, and the
full :meth:`predict` circuit with its
:class:`~repro.fac.predictor.FailureSignals` -- and cross-checks the two
against each other, against the static analyzer's verdict
(``possible``/``certain`` signal sets), and against the FAC1xx lint
diagnostics anchored at the site. The first failing access is kept as a
worked example, decoded into the tag / set-index / block-offset bit
fields of Figure 4 so the user can see *which bits* broke the carry-free
addition.

Replay cost uses the timing model's rule: a verification failure re-runs
the access in MEM, one extra cycle per failure (plus the issue-policy
shadow it casts on the following cycle, which is workload-dependent and
not attributed per-site here).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.static_fac.interp import StaticAnalysis, analyze_static
from repro.analysis.static_fac.lint import Diagnostic, lint_program
from repro.cpu.executor import CPU
from repro.fac.config import FacConfig
from repro.fac.predictor import SIGNAL_LABELS, FastAddressCalculator
from repro.isa.disassembler import disassemble
from repro.isa.opcodes import OP_INFO
from repro.isa.program import Program
from repro.utils.bits import to_signed32

_MODE_NAMES = {"c": "register+constant", "x": "register+register",
               "p": "post-increment"}


def split_fields(addr: int, b: int, s: int) -> tuple[int, int, int]:
    """Decompose a 32-bit address into (tag, set-index, block-offset)."""
    return addr >> s, (addr >> b) & ((1 << (s - b)) - 1), addr & ((1 << b) - 1)


@dataclass
class FailureExample:
    """The first failing access at a site, fully decoded."""

    base: int
    offset: int
    predicted: int
    actual: int
    signals: tuple[str, ...]       # every signal that fired (attr names)
    primary: str                   # primary_reason label


@dataclass
class ExplainSite:
    """Everything known about one memory site."""

    pc: int
    disasm: str
    mode: str
    is_store: bool
    source: str | None = None
    function: str | None = None
    # dynamic
    accesses: int = 0
    speculated: int = 0            # accesses the policy allowed to speculate
    failures: int = 0
    signal_counts: dict = field(default_factory=dict)  # primary label -> n
    observed: set = field(default_factory=set)         # attr names fired
    example: FailureExample | None = None
    cross_mismatches: int = 0      # fails() vs predict().success disagreements
    # static
    static_verdict: str | None = None
    static_possible: frozenset = frozenset()
    static_certain: frozenset = frozenset()
    diagnostics: list = field(default_factory=list)
    # analytical model: {block_size: predicted miss ratio} for this
    # site's reference stream (``repro explain --sweep``)
    sweep: dict[int, float] | None = None

    @property
    def replay_cycles(self) -> int:
        return self.failures

    @property
    def consistent(self) -> bool:
        """Dynamic observations agree with ``fails()`` and the static
        analysis (observed signals within the static ``possible`` set)."""
        if self.cross_mismatches:
            return False
        if self.static_verdict is None:
            return True
        if self.static_verdict == "always" and self.failures:
            return False
        if self.static_verdict == "never" and self.speculated \
                and self.failures != self.speculated:
            return False
        return self.observed <= set(self.static_possible)

    def to_dict(self) -> dict:
        return {
            "pc": self.pc,
            "disasm": self.disasm,
            "mode": self.mode,
            "is_store": self.is_store,
            "source": self.source,
            "function": self.function,
            "accesses": self.accesses,
            "speculated": self.speculated,
            "failures": self.failures,
            "replay_cycles": self.replay_cycles,
            "signal_counts": dict(sorted(self.signal_counts.items())),
            "observed_signals": sorted(self.observed),
            "static_verdict": self.static_verdict,
            "static_possible": sorted(self.static_possible),
            "static_certain": sorted(self.static_certain),
            "diagnostics": [d.to_dict() for d in self.diagnostics],
            "consistent": self.consistent,
            "sweep": None if self.sweep is None else {
                str(bs): round(ratio, 6)
                for bs, ratio in sorted(self.sweep.items())
            },
            "example": None if self.example is None else {
                "base": self.example.base,
                "offset": self.example.offset,
                "predicted": self.example.predicted,
                "actual": self.example.actual,
                "signals": list(self.example.signals),
                "primary": self.example.primary,
            },
        }


@dataclass
class ExplainReport:
    sites: list[ExplainSite]
    analysis: StaticAnalysis
    instructions: int

    def site_at(self, pc: int) -> ExplainSite | None:
        for site in self.sites:
            if site.pc == pc:
                return site
        return None


class _Collector:
    """run_trace consumer: tallies the FAC verdict of every load and
    store; other instructions return at once."""

    def __init__(self, fac: FastAddressCalculator, want: set[int] | None,
                 collect_eas: bool = False):
        self.fac = fac
        self.want = want
        self.sites: dict[int, ExplainSite] = {}
        # per-site effective-address streams for the analytical sweep
        self.eas: dict[int, list[int]] | None = {} if collect_eas else None

    def retire(self, pc, inst, rec) -> None:
        if rec is None or rec.ea is None:
            return
        if self.want is not None and pc not in self.want:
            return
        site = self.sites.get(pc)
        info = OP_INFO[rec.inst.op]
        if site is None:
            site = ExplainSite(
                pc=pc, disasm=disassemble(rec.inst),
                mode=info.mem_mode, is_store=info.is_store,
            )
            self.sites[pc] = site
        if self.eas is not None:
            self.eas.setdefault(pc, []).append(rec.ea)
        site.accesses += 1
        mode = info.mem_mode
        if mode == "p":
            # the address IS the base register: always speculated, exact
            site.speculated += 1
            return
        fac = self.fac
        if not fac.should_speculate(mode == "x", info.is_store):
            return
        site.speculated += 1
        offset = rec.offset_value if mode == "c" \
            else to_signed32(rec.offset_value)
        failed = fac.fails(rec.base_value, offset, mode == "x")
        prediction = fac.predict(rec.base_value, offset, mode == "x")
        if prediction.success == failed:        # they must be opposites
            site.cross_mismatches += 1
        if not failed:
            return
        site.failures += 1
        signals = prediction.signals
        fired = tuple(name for name in SIGNAL_LABELS
                      if getattr(signals, name))
        site.observed.update(fired)
        primary = signals.primary_reason
        site.signal_counts[primary] = site.signal_counts.get(primary, 0) + 1
        if site.example is None:
            site.example = FailureExample(
                base=rec.base_value, offset=offset,
                predicted=prediction.predicted, actual=prediction.actual,
                signals=fired, primary=primary,
            )


# ------------------------------------------------------------------ #


def resolve_line(program: Program, filename: str, line: int) -> list[int]:
    """pcs whose source location matches ``filename:line``; the file
    matches on exact name or trailing path components."""
    out = []
    for addr, file, ln in program.line_table:
        if ln != line:
            continue
        if file == filename or file.endswith("/" + filename):
            out.append(addr)
    return out


def explain_program(
    program: Program,
    fac_config: FacConfig | None = None,
    pcs: set[int] | None = None,
    max_instructions: int = 50_000_000,
    sweep: bool = False,
) -> ExplainReport:
    """Run ``program`` and build the per-site explanation report.

    With ``sweep=True`` each site also gets predicted direct-mapped
    miss ratios across block sizes 8-128 for its own reference stream,
    from the reuse-profile model
    (:class:`repro.cache.analytical.AnalyticalCacheModel`) -- no
    per-geometry replays.
    """
    config = fac_config or FacConfig()
    fac = FastAddressCalculator(config)
    collector = _Collector(fac, pcs, collect_eas=sweep)
    cpu = CPU(program)
    retired = cpu.run_trace(collector, max_instructions)

    if sweep:
        from repro.cache.analytical import AnalyticalCacheModel

        for pc, stream in collector.eas.items():
            model = AnalyticalCacheModel(stream)
            collector.sites[pc].sweep = model.sweep(
                cache_size=config.cache_size)

    analysis = analyze_static(program, config)
    lint = lint_program(program, config, analysis=analysis)
    by_addr: dict[int, list[Diagnostic]] = {}
    for diag in lint.diagnostics:
        by_addr.setdefault(diag.address, []).append(diag)

    sites = sorted(collector.sites.values(), key=lambda s: s.pc)
    for site in sites:
        report = analysis.by_addr.get(site.pc)
        if report is not None:
            site.static_verdict = report.verdict.value
            site.static_possible = report.possible
            site.static_certain = report.certain
            site.function = report.function
        src = program.source_of(site.pc)
        if src is not None:
            site.source = f"{src[0]}:{src[1]}"
        site.diagnostics = by_addr.get(site.pc, [])
    return ExplainReport(sites=sites, analysis=analysis,
                         instructions=retired)


# ------------------------------------------------------------------ #
# rendering


def _field_row(label: str, tag: int, index: int, block: int) -> str:
    return f"    {label:<10s} tag=0x{tag:05x}  index=0x{index:03x}  " \
           f"block=0x{block:02x}"


def render_site(site: ExplainSite, fac: FastAddressCalculator) -> str:
    b, s = fac.config.b_bits, fac.config.s_bits
    lines = []
    where = site.source or ""
    if site.function:
        where += f"  ({site.function})" if where else f"({site.function})"
    header = f"0x{site.pc:08x}  {site.disasm}"
    if where:
        header += f"    [{where}]"
    lines.append(header)
    lines.append(
        f"  mode={_MODE_NAMES.get(site.mode, site.mode)}"
        f"  store={'yes' if site.is_store else 'no'}"
        f"  static={site.static_verdict or 'n/a'}"
    )
    pct = 100.0 * site.failures / site.speculated if site.speculated else 0.0
    lines.append(
        f"  dynamic: {site.accesses} accesses, {site.speculated} speculated, "
        f"{site.failures} replays ({pct:.1f}%), "
        f"replay cost {site.replay_cycles} cycles"
    )
    if site.signal_counts:
        parts = [f"{name} x{count}"
                 for name, count in sorted(site.signal_counts.items())]
        lines.append(f"  signals: {', '.join(parts)}")
    ex = site.example
    if ex is not None:
        sign = "+" if ex.offset >= 0 else ""
        lines.append(
            f"  example failure: base=0x{ex.base:08x} "
            f"offset={sign}{ex.offset} -> ea=0x{ex.actual:08x}"
        )
        lines.append(_field_row("base", *split_fields(ex.base, b, s)))
        off_bits = ex.offset & 0xFFFFFFFF
        lines.append(_field_row("offset", *split_fields(off_bits, b, s)))
        lines.append(_field_row("actual", *split_fields(ex.actual, b, s)))
        lines.append(_field_row("predicted",
                                *split_fields(ex.predicted, b, s)))
        lines.append(f"    fired: {', '.join(ex.signals)} "
                     f"(primary: {ex.primary})")
    if site.sweep:
        cells = [f"{bs}B {100.0 * ratio:.2f}%"
                 for bs, ratio in sorted(site.sweep.items())]
        lines.append(f"  predicted miss ratio (analytical model, "
                     f"{fac.config.cache_size >> 10}K direct-mapped): "
                     + "  ".join(cells))
    if site.static_possible or site.static_certain:
        lines.append(
            f"  static: possible={{{', '.join(sorted(site.static_possible))}}}"
            f" certain={{{', '.join(sorted(site.static_certain))}}}"
        )
    for diag in site.diagnostics:
        lines.append(f"  lint: {diag.code} {diag.severity}: {diag.message}")
    ok = "agree" if site.consistent else "DISAGREE"
    lines.append(
        f"  cross-check: fails() vs predict() vs static: {ok}"
        f" ({site.cross_mismatches} mismatches)"
    )
    return "\n".join(lines)


def render_report(report: ExplainReport,
                  fac: FastAddressCalculator) -> str:
    if not report.sites:
        return "no memory accesses matched\n"
    blocks = [render_site(site, fac) for site in report.sites]
    total_fail = sum(s.failures for s in report.sites)
    total_spec = sum(s.speculated for s in report.sites)
    footer = (
        f"{len(report.sites)} sites, {total_spec} speculated accesses, "
        f"{total_fail} replays, {report.instructions} instructions retired"
    )
    return "\n\n".join(blocks) + "\n\n" + footer + "\n"
