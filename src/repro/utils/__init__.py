"""Shared low-level helpers: bit manipulation.

Note: the :mod:`repro.utils.bits` module is accessed as a module (it has
a function also named ``bits``, which would shadow the module if it were
re-exported here).
"""

from repro.utils.bits import (
    align_down,
    align_up,
    carry_free_add,
    is_pow2,
    log2_exact,
    next_pow2,
    sext,
    to_signed32,
    to_unsigned32,
)

__all__ = [
    "align_down",
    "align_up",
    "carry_free_add",
    "is_pow2",
    "log2_exact",
    "next_pow2",
    "sext",
    "to_signed32",
    "to_unsigned32",
]
