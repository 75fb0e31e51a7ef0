"""Reference-type classification and offset distributions (paper Section 2).

The paper classifies every load by the *base register* of its effective
address computation:

* **global pointer** addressing -- base is ``$gp``,
* **stack pointer** addressing -- base is ``$sp`` (or ``$fp``),
* **general pointer** addressing -- everything else.

Offset-size distributions (Figure 3) bucket each access by the bit-width
of its offset: bucket ``k`` holds offsets in ``[2**(k-1), 2**k)`` (bucket
0 holds zero offsets), with a separate bucket for negative offsets,
cumulated per reference type.
"""

from __future__ import annotations

from repro.cpu.executor import TraceRecord
from repro.isa.opcodes import OP_INFO
from repro.isa.registers import Reg
from repro.utils.bits import to_signed32
from repro.obs.metrics import Histogram

# Figure 3's x axis: offset size in bits 0..15, then "More", plus "Neg".
OFFSET_BUCKETS = tuple(range(16)) + ("More", "Neg")

GLOBAL = "global"
STACK = "stack"
GENERAL = "general"


def classify_base(base_reg: int) -> str:
    """Reference type from the base register number."""
    if base_reg == Reg.GP:
        return GLOBAL
    if base_reg == Reg.SP or base_reg == Reg.FP:
        return STACK
    return GENERAL


def offset_bucket(offset: int):
    """Figure 3 bucket for a signed offset value."""
    if offset < 0:
        return "Neg"
    bits = offset.bit_length()
    return bits if bits <= 15 else "More"


class ReferenceProfile:
    """Accumulates Table 1 and Figure 3 statistics from a trace."""

    def __init__(self):
        self.instructions = 0
        self.loads = 0
        self.stores = 0
        self.load_class = {GLOBAL: 0, STACK: 0, GENERAL: 0}
        self.store_class = {GLOBAL: 0, STACK: 0, GENERAL: 0}
        self.offset_hist = {
            GLOBAL: Histogram("global"),
            STACK: Histogram("stack"),
            GENERAL: Histogram("general"),
        }

    def observe(self, rec: TraceRecord) -> None:
        self.instructions += 1
        inst = rec.inst
        info = OP_INFO[inst.op]
        if not info.mem_width:
            return
        ref_class = classify_base(inst.rs)
        if info.mem_mode == "x":
            offset = to_signed32(rec.offset_value)
        else:
            offset = rec.offset_value
        if info.is_load:
            self.loads += 1
            self.load_class[ref_class] += 1
            self.offset_hist[ref_class].record(_bucket_key(offset))
        else:
            self.stores += 1
            self.store_class[ref_class] += 1

    # ------------------------------------------------------------------ #

    @property
    def refs(self) -> int:
        return self.loads + self.stores

    def load_fraction(self, ref_class: str) -> float:
        return self.load_class[ref_class] / self.loads if self.loads else 0.0

    def cumulative_offsets(self, ref_class: str) -> list[float]:
        """Cumulative fraction per Figure 3 bucket (Neg first, then
        0..15 bits, then More) for ``ref_class`` loads."""
        hist = self.offset_hist[ref_class]
        total = hist.total
        if total == 0:
            return [0.0] * 18
        running = 0
        out = []
        for bucket in ("Neg",) + tuple(range(16)) + ("More",):
            running += hist.count(_KEY_ORDER[bucket])
            out.append(running / total)
        return out


# Histogram keys are ints; map the symbolic buckets onto sentinels.
_KEY_ORDER = {**{b: b for b in range(16)}, "Neg": -1, "More": 16}


def _bucket_key(offset: int) -> int:
    bucket = offset_bucket(offset)
    return _KEY_ORDER[bucket] if not isinstance(bucket, int) else bucket
