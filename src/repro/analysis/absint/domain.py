"""The pluggable abstract-domain interface.

A domain packages everything the worklist solver
(:mod:`repro.analysis.absint.solver`) needs to know about one lattice
of abstract machine states:

* how states are created (program entry, havoc), copied, and joined,
* the transfer function for one instruction, applied **in place**,
* the interprocedural call protocol (entry state for a callee, summary
  state for the return site),
* which instructions provably halt the program (so the solver can stop
  propagating past them).

States are deliberately opaque to the solver: the known-bits domain
uses a flat list of 32 ``(mask, value)`` pairs and the
calling-convention domain a ``(registers, frame)`` pair. The only structural requirement is that
``join_into`` is monotone with finite ascending chains, which makes the
fixpoint terminate.

Call summaries receive the *callee name* (or ``None`` for indirect
calls), so a domain can consult per-function facts — the sanitizer's
convention checker feeds the set of callee-saved registers each
function fails to preserve back into the FAC domain this way, which is
what discharges the old "callees follow the O32 convention" assumption.
"""

from __future__ import annotations

from repro.isa.instruction import Instruction
from repro.isa.program import Program


class AbstractDomain:
    """Base class every pluggable domain implements."""

    #: short identifier used in diagnostics and benchmarks
    name = "abstract"

    # -- state lifecycle ----------------------------------------------- #

    def entry_state(self, program: Program):
        """Abstract state at the program (or function) entry point."""
        raise NotImplementedError

    def havoc_state(self, program: Program):
        """Weakest state soundly describing an unknown control transfer
        into a function entry (indirect call with unknown target)."""
        raise NotImplementedError

    def copy(self, state):
        """Independent copy of ``state`` (mutated by ``transfer``)."""
        raise NotImplementedError

    def join_into(self, current, incoming) -> bool:
        """Widen ``current`` (in place) with ``incoming``; return True
        when ``current`` changed. Must be monotone with finite chains."""
        raise NotImplementedError

    # -- semantics ----------------------------------------------------- #

    def transfer(self, state, inst: Instruction) -> None:
        """Apply one instruction's effect to ``state`` in place."""
        raise NotImplementedError

    def halts(self, state, inst: Instruction) -> bool:
        """True when ``inst`` provably terminates the program in
        ``state`` (e.g. an exit syscall with a known service number)."""
        return False

    # -- interprocedural protocol -------------------------------------- #

    def call_entry(self, state, return_addr: int):
        """State propagated into a directly-called function's entry
        (the caller state with the return address materialised)."""
        return self.copy(state)

    def call_summary(self, state, callee: str | None):
        """State at the return site after a completed call to
        ``callee`` (``None`` when the callee is statically unknown)."""
        raise NotImplementedError
