"""Abstract version of the FAC verification circuit.

Given known-bits facts about the base register (and, for reg+reg mode,
the index register), decide for each of the predictor's failure signals
(:class:`repro.fac.predictor.FailureSignals`) whether it *may* fire and
whether it *must* fire, then fold those sets into one of three verdicts:

* ``ALWAYS_PREDICTS`` -- no signal can fire for any concrete value in
  the abstraction: the access provably never mispredicts.
* ``NEVER_PREDICTS``  -- some signal fires for every concrete value:
  the access provably always mispredicts.
* ``DATA_DEPENDENT``  -- anything in between.

Soundness contract (checked against the dynamic
:class:`~repro.analysis.prediction.TraceAnalyzer` by the test suite):
both ALWAYS and NEVER are universally quantified over the
concretisation, so a single dynamic counterexample falsifies the
analysis. ``tag_mismatch`` is therefore never allowed to contribute to
the *certain* set -- proving the OR-tag always differs from the true
tag would need relational reasoning the lattice cannot express -- it
only blocks ALWAYS when it might fire.

The signal math mirrors ``FastAddressCalculator.predict`` field by
field. The block-offset predicates are monotone in the field value, so
testing them at the field's abstract min and max is exact; the
index-field predicates are bitwise, so possible/certain one-bits decide
them exactly.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from repro.analysis.absint import knownbits as kb
from repro.fac.config import FacConfig
from repro.utils.bits import MASK32


class Verdict(Enum):
    """Static predictability of one memory instruction."""

    ALWAYS_PREDICTS = "always"
    NEVER_PREDICTS = "never"
    DATA_DEPENDENT = "data_dependent"
    UNREACHABLE = "unreachable"


#: Failure-signal names, matching FailureSignals field names.
SIGNALS = (
    "overflow",
    "gen_carry",
    "large_neg_const",
    "neg_index_reg",
    "tag_mismatch",
)


@dataclass(frozen=True)
class Geometry:
    """Address-field masks for one predictor design point."""

    b_bits: int
    block_mask: int
    index_mask: int
    tag_mask: int
    full_tag_add: bool

    @classmethod
    def from_config(cls, config: FacConfig) -> "Geometry":
        b = config.b_bits
        s = config.s_bits
        block_mask = (1 << b) - 1
        return cls(
            b_bits=b,
            block_mask=block_mask,
            index_mask=((1 << s) - 1) ^ block_mask,
            tag_mask=MASK32 ^ ((1 << s) - 1),
            full_tag_add=config.full_tag_add,
        )


@dataclass(frozen=True)
class Classification:
    """Outcome of abstractly running the verifier on one access shape."""

    verdict: Verdict
    possible: frozenset[str]  # signals that may fire for some value
    certain: frozenset[str]   # signals that fire for every value

    @classmethod
    def from_signals(
        cls, possible: set[str], certain: set[str]
    ) -> "Classification":
        if certain:
            verdict = Verdict.NEVER_PREDICTS
        elif possible:
            verdict = Verdict.DATA_DEPENDENT
        else:
            verdict = Verdict.ALWAYS_PREDICTS
        return cls(verdict, frozenset(possible), frozenset(certain))


ALWAYS = Classification(Verdict.ALWAYS_PREDICTS, frozenset(), frozenset())


def classify_const(
    base: kb.KnownBits, offset: int, geom: Geometry
) -> Classification:
    """Classify a base+constant access (mode ``c``).

    ``offset`` is the signed 16-bit immediate exactly as the executor
    hands it to the predictor.
    """
    possible: set[str] = set()
    certain: set[str] = set()
    bmask = geom.block_mask
    base_blk_min = kb.min_in_field(base, bmask)
    base_blk_max = kb.max_in_field(base, bmask)

    if offset >= 0:
        c_blk = offset & bmask
        if base_blk_max + c_blk > bmask:
            possible.add("overflow")
            if base_blk_min + c_blk > bmask:
                certain.add("overflow")
        c_idx = offset & geom.index_mask
        if kb.possible_ones(base, geom.index_mask) & c_idx:
            possible.add("gen_carry")
            if kb.certain_ones(base, geom.index_mask) & c_idx:
                certain.add("gen_carry")
        offset_tag_clear = (offset & geom.tag_mask) == 0
    else:
        if (offset >> geom.b_bits) != -1:
            # Constant fact about the instruction itself: always fails.
            possible.add("large_neg_const")
            certain.add("large_neg_const")
            return Classification.from_signals(possible, certain)
        # Small negative constant: the inverted index/tag fields are zero,
        # so gen_carry cannot fire. The block adder must carry out
        # (no borrow), which needs base_blk >= -offset.
        if base_blk_min < -offset:
            possible.add("overflow")
            if base_blk_max < -offset:
                certain.add("overflow")
        offset_tag_clear = True

    if not geom.full_tag_add and not (
        offset_tag_clear and not possible
    ):
        # The OR-tag can differ from the true tag; never provably always.
        possible.add("tag_mismatch")
    return Classification.from_signals(possible, certain)


def classify_reg(
    base: kb.KnownBits, index: kb.KnownBits, geom: Geometry
) -> Classification:
    """Classify a base+register access (mode ``x``).

    The predictor treats the index register's raw bits like a positive
    offset but additionally fails whenever its sign bit is set.
    """
    possible: set[str] = set()
    certain: set[str] = set()
    sign = 0x80000000
    if kb.possible_ones(index, sign):
        possible.add("neg_index_reg")
        if kb.certain_ones(index, sign):
            certain.add("neg_index_reg")

    bmask = geom.block_mask
    # Field minima/maxima of both operands are attained at the
    # all-unknown-bits-zero / all-ones assignments, so the sums below are
    # realised by concrete states even when base and index share bits.
    if kb.max_in_field(base, bmask) + kb.max_in_field(index, bmask) > bmask:
        possible.add("overflow")
        if kb.min_in_field(base, bmask) + kb.min_in_field(index, bmask) > bmask:
            certain.add("overflow")

    imask = geom.index_mask
    if kb.possible_ones(base, imask) & kb.possible_ones(index, imask):
        possible.add("gen_carry")
        if kb.certain_ones(base, imask) & kb.certain_ones(index, imask):
            certain.add("gen_carry")

    index_tag_clear = kb.possible_ones(index, geom.tag_mask) == 0
    if not geom.full_tag_add and not (index_tag_clear and not possible):
        possible.add("tag_mismatch")
    return Classification.from_signals(possible, certain)


def classify_post_increment() -> Classification:
    """Post-increment accesses use the base register directly -- no
    addition, hence nothing to predict and nothing to fail."""
    return ALWAYS
