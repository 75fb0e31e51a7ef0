"""Calling-convention checker (SAN101..SAN103).

Verifies, per function, that every ``jr $ra`` return leaves the MIPS
O32 callee-saved registers (``$s0..$s7 $fp $gp``) holding their entry
values, ``$sp`` restored to entry, and ``$ra`` uncorrupted — using the
entry-relative symbolic domain of
:mod:`repro.analysis.sanitize.frame`.

Functions are analysed to a bottom-up call-graph fixpoint with
*optimistic* initialisation: every callee is first assumed convention-
clean, each function is checked intraprocedurally under the current
facts, and any newly discovered clobber re-triggers its callers. Since
clobber sets only grow and are finite, this terminates; by induction on
concrete call depth the least fixpoint is sound — a function reported
clean preserves the registers on every real execution (modulo the
frame-locality assumption documented in the frame module).

The resulting ``clobbers`` map is the checker's exported *fact*:
``repro lint`` feeds it into the known-bits call summaries, replacing
the historical "callees follow the convention" assumption with a
verified input.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.absint.cfg import ControlFlowGraph, FunctionSpan
from repro.analysis.absint.solver import Solution, solve_function
from repro.analysis.sanitize.frame import CHECKED_REGS, FrameDomain, render
from repro.analysis.sanitize.report import SEVERITY_ERROR, Finding
from repro.isa import dataflow as df
from repro.isa.registers import Reg, reg_name


@dataclass
class FunctionCheck:
    """Per-function result: the fixpoint solution plus return facts."""

    span: FunctionSpan
    solution: Solution
    # (return address, register -> offending symbolic value)
    return_sites: list[tuple[int, dict[int, object]]]
    clobbered: frozenset[int]
    ra_corrupt_at: list[int] = field(default_factory=list)


@dataclass
class ConventionAnalysis:
    """Whole-program convention facts and findings."""

    cfg: ControlFlowGraph
    checks: dict[str, FunctionCheck]
    clobbers: dict[str, frozenset[int]]     # only non-empty sets
    findings: list[Finding]


def _check_function(
    cfg: ControlFlowGraph,
    span: FunctionSpan,
    clobbers: dict[str, frozenset[int]],
) -> FunctionCheck:
    solution = solve_function(cfg, FrameDomain(clobbers), span)
    return_sites: list[tuple[int, dict[int, object]]] = []
    ra_corrupt: list[int] = []
    clobbered: set[int] = set()

    def visit(i, inst, state):
        if state is None or not df.is_return(inst):
            return
        regs = state[0]
        addr = cfg.addr_of(i)
        bad: dict[int, object] = {}
        for r in CHECKED_REGS:
            expected = ("sp", 0) if r == Reg.SP else ("init", r)
            if regs[r] != expected:
                bad[r] = regs[r]
                clobbered.add(r)
        if regs[Reg.RA] != ("init", Reg.RA):
            ra_corrupt.append(addr)
        if bad:
            return_sites.append((addr, bad))

    solution.walk(visit, blocks=span.blocks)
    return FunctionCheck(
        span=span,
        solution=solution,
        return_sites=return_sites,
        clobbered=frozenset(clobbered),
        ra_corrupt_at=ra_corrupt,
    )


def analyze_conventions(cfg: ControlFlowGraph) -> ConventionAnalysis:
    """Run the bottom-up fixpoint and derive findings."""
    clobbers: dict[str, frozenset[int]] = {}
    checks: dict[str, FunctionCheck] = {}
    # optimistic fixpoint: clobber sets only grow, so iterate until no
    # function's set changes under the facts of the previous round
    for _round in range(len(cfg.functions) * len(CHECKED_REGS) + 2):
        changed = False
        for span in cfg.functions:
            check = _check_function(cfg, span, clobbers)
            checks[span.name] = check
            merged = clobbers.get(span.name, frozenset()) | check.clobbered
            if merged != clobbers.get(span.name, frozenset()):
                clobbers[span.name] = merged
                changed = True
        if not changed:
            break

    findings: list[Finding] = []
    for name in sorted(checks):
        check = checks[name]
        for addr, bad in check.return_sites:
            saved = sorted(r for r in bad if r != Reg.SP)
            if saved:
                what = ", ".join(
                    f"{reg_name(r)} = {render(bad[r])}" for r in saved
                )
                plural = "s" if len(saved) > 1 else ""
                findings.append(Finding(
                    "SAN101", SEVERITY_ERROR, addr, name,
                    f"`{name}` returns with callee-saved register{plural} "
                    f"not restored: {what}",
                    hint="save the register in the prologue and reload it "
                         "before `jr $ra` (MIPS O32 requires callees to "
                         "preserve $s0-$s7/$fp/$gp)",
                ))
            if Reg.SP in bad:
                findings.append(Finding(
                    "SAN102", SEVERITY_ERROR, addr, name,
                    f"`{name}` returns with $sp = {render(bad[Reg.SP])} "
                    "instead of its entry value",
                    hint="pop exactly the bytes the prologue pushed "
                         "(or reload the saved $sp for variable frames)",
                ))
        for addr in check.ra_corrupt_at:
            findings.append(Finding(
                "SAN103", SEVERITY_ERROR, addr, name,
                f"`{name}` returns through a corrupted $ra (not the "
                "caller's return address)",
                hint="save $ra before any call and restore it before "
                     "`jr $ra`",
            ))
    clobbers = {name: regs for name, regs in clobbers.items() if regs}
    return ConventionAnalysis(
        cfg=cfg, checks=checks, clobbers=clobbers, findings=findings,
    )


def convention_clobbers(program) -> dict[str, frozenset[int]]:
    """The convention facts alone (for ``repro lint``): function name ->
    callee-saved registers it fails to preserve. Empty when the whole
    program is convention-clean."""
    from repro.analysis.absint import build_cfg

    return analyze_conventions(build_cfg(program)).clobbers
