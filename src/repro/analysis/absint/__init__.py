"""Reusable abstract-interpretation framework for linked MIPS programs.

The framework factors the dataflow core that originally lived inside
``repro.analysis.static_fac`` into independent, pluggable pieces:

* :mod:`~repro.analysis.absint.cfg` — basic-block CFG + function table
  over a linked program's text segment, cached per program;
* :mod:`~repro.analysis.absint.domain` — the abstract-domain interface
  (state lifecycle, transfer function, interprocedural call protocol);
* :mod:`~repro.analysis.absint.solver` — the worklist fixpoint solver,
  whole-program (context-insensitive interprocedural) or restricted to
  one function's blocks;
* :mod:`~repro.analysis.absint.knownbits` /
  :mod:`~repro.analysis.absint.knownbits_domain` — the known-bits
  lattice and domain driving ``repro lint``.

Clients: ``repro lint`` (FAC predictability, ``static_fac``) and
``repro sanitize`` (whole-program sanitizer, ``repro.analysis.sanitize``).
See ``docs/static_analysis.md`` for the framework/client split.
"""

from repro.analysis.absint.cfg import ControlFlowGraph, FunctionSpan, build_cfg
from repro.analysis.absint.domain import AbstractDomain
from repro.analysis.absint.knownbits_domain import (
    PRESERVED_ACROSS_CALLS,
    KnownBitsDomain,
)
from repro.analysis.absint.solver import Solution, solve, solve_function

__all__ = [
    "AbstractDomain",
    "ControlFlowGraph",
    "FunctionSpan",
    "KnownBitsDomain",
    "PRESERVED_ACROSS_CALLS",
    "Solution",
    "build_cfg",
    "solve",
    "solve_function",
]
