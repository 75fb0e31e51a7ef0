"""Unit and end-to-end tests for the static FAC-predictability pass."""

from __future__ import annotations

import random

import pytest

from repro.analysis import analyze_program, analyze_static, check_soundness
from repro.analysis.absint import knownbits as kb
from repro.analysis.static_fac.classify import (
    Geometry,
    Verdict,
    classify_const,
    classify_reg,
)
from repro.compiler import CompilerOptions, FacSoftwareOptions, compile_and_link
from repro.fac.config import FacConfig
from repro.fac.predictor import FastAddressCalculator
from repro.isa.assembler import assemble
from repro.isa.registers import Reg
from repro.linker import LinkOptions, link
from repro.utils.bits import MASK32
from repro.workloads import build_benchmark


# ---------------------------------------------------------------------- #
# known-bits lattice

def _concretize(rng, mv):
    mask, value = mv
    return (value | (rng.getrandbits(32) & ~mask)) & MASK32


def _contains(mv, concrete):
    mask, value = mv
    return concrete & mask == value


def _random_kb(rng):
    mask = rng.getrandbits(32)
    return (mask, rng.getrandbits(32) & mask)


def test_knownbits_constants_and_top():
    assert kb.const(0x1234) == (MASK32, 0x1234)
    assert kb.is_const(kb.const(7))
    assert not kb.is_const(kb.TOP)
    assert kb.join(kb.const(5), kb.const(5)) == kb.const(5)
    # join keeps exactly the agreeing bits
    assert kb.join(kb.const(0b1100), kb.const(0b1010)) == \
        (MASK32 ^ 0b0110, 0b1000)


def test_knownbits_operations_sound():
    """Property test: for random abstract operands and random concrete
    members, the concrete result is contained in the abstract result."""
    rng = random.Random(1995)
    ops = [
        ("add", kb.add, lambda x, y: (x + y) & MASK32),
        ("sub", kb.sub, lambda x, y: (x - y) & MASK32),
        ("and", kb.bit_and, lambda x, y: x & y),
        ("or", kb.bit_or, lambda x, y: x | y),
        ("xor", kb.bit_xor, lambda x, y: x ^ y),
    ]
    for _ in range(300):
        a = _random_kb(rng)
        b = _random_kb(rng)
        x = _concretize(rng, a)
        y = _concretize(rng, b)
        for name, abstract, concrete in ops:
            result = abstract(a, b)
            assert result[1] & ~result[0] == 0, f"{name}: invariant broken"
            assert _contains(result, concrete(x, y)), (
                f"{name}: {kb.render(a)} op {kb.render(b)} -> "
                f"{kb.render(result)} excludes {concrete(x, y):08x}"
            )
        joined = kb.join(a, b)
        assert _contains(joined, x) and _contains(joined, y)


def test_knownbits_shifts_sound():
    rng = random.Random(451)
    for _ in range(200):
        a = _random_kb(rng)
        x = _concretize(rng, a)
        amount = rng.randrange(32)
        assert _contains(kb.shl(a, amount), (x << amount) & MASK32)
        assert _contains(kb.shr(a, amount), x >> amount)
        signed = x - (1 << 32) if x & 0x80000000 else x
        assert _contains(kb.sar(a, amount), (signed >> amount) & MASK32)


def test_knownbits_add_exact_when_const():
    assert kb.add(kb.const(0xFFFFFFFF), kb.const(1)) == kb.const(0)
    assert kb.sub(kb.const(0), kb.const(1)) == kb.const(0xFFFFFFFF)


def test_knownbits_field_queries():
    # value 0b1010 with the low nibble known, everything else unknown
    a = (0xF, 0b1010)
    assert kb.min_in_field(a, 0xF) == 0b1010
    assert kb.max_in_field(a, 0xF) == 0b1010
    assert kb.max_in_field(a, 0xFF) == 0xFA
    assert kb.possible_ones(a, 0xFF) == 0xFA
    assert kb.certain_ones(a, 0xFF) == 0b1010


# ---------------------------------------------------------------------- #
# classifier vs the concrete predictor circuit

_SMALL = FacConfig(cache_size=256, block_size=16)  # b=4, s=8: enumerable


def _enumerate(mv, field_bits=12):
    """All concrete values of ``mv`` whose unknown bits lie in the low
    ``field_bits`` (the rest are pinned to 0 for enumeration)."""
    mask, value = mv
    unknown = [i for i in range(field_bits) if not mask & (1 << i)]
    for assignment in range(1 << len(unknown)):
        concrete = value
        for position, bit in enumerate(unknown):
            if assignment & (1 << position):
                concrete |= 1 << bit
        yield concrete


@pytest.mark.parametrize("offset", [0, 4, 12, 60, 124, 255, -4, -16, -20, -300])
def test_classify_const_matches_circuit(offset):
    """ALWAYS/NEVER verdicts must agree with exhaustive concrete runs."""
    geom = Geometry.from_config(_SMALL)
    predictor = FastAddressCalculator(_SMALL)
    rng = random.Random(offset & 0xFFFF)
    for _ in range(40):
        low_mask = rng.getrandbits(12)
        mask = (low_mask | 0xFFFFF000) & MASK32
        base = (mask, rng.getrandbits(32) & mask)
        outcome = classify_const(base, offset, geom)
        results = {
            predictor.predict(value, offset, False).success
            for value in _enumerate(base)
        }
        if outcome.verdict is Verdict.ALWAYS_PREDICTS:
            assert results == {True}, kb.render(base)
        elif outcome.verdict is Verdict.NEVER_PREDICTS:
            assert results == {False}, kb.render(base)
        else:
            assert results == {True, False}, (
                f"data-dependent but uniform: {kb.render(base)} "
                f"offset={offset} results={results}"
            )


def test_classify_reg_matches_circuit():
    geom = Geometry.from_config(_SMALL)
    predictor = FastAddressCalculator(_SMALL)
    rng = random.Random(7)
    for _ in range(30):
        base_mask = (rng.getrandbits(8) | 0xFFFFFF00) & MASK32
        base = (base_mask, rng.getrandbits(32) & base_mask)
        index_mask = (rng.getrandbits(8) | 0xFFFFFF00) & MASK32
        index_value = rng.getrandbits(32) & index_mask
        if rng.random() < 0.7:  # mostly small positive indices
            index_mask |= 0xFFFFFF00
            index_value &= 0xFF
        index = (index_mask, index_value)
        outcome = classify_reg(base, index, geom)
        results = set()
        for base_c in _enumerate(base, 8):
            for index_c in _enumerate(index, 8):
                signed = index_c - (1 << 32) if index_c & 0x80000000 \
                    else index_c
                results.add(predictor.predict(base_c, signed, True).success)
        if outcome.verdict is Verdict.ALWAYS_PREDICTS:
            assert results == {True}
        elif outcome.verdict is Verdict.NEVER_PREDICTS:
            assert results == {False}
        # DATA_DEPENDENT may be imprecise (both or either), which is sound


def test_large_negative_constant_never_predicts():
    geom = Geometry.from_config(_SMALL)
    outcome = classify_const(kb.TOP, -300, geom)
    assert outcome.verdict is Verdict.NEVER_PREDICTS
    assert "large_neg_const" in outcome.certain


def test_post_increment_always_predicts():
    source = """
    .text
    __start:
        lwpi $t0, ($sp)+8
        swpi $t1, ($sp)+-8
        addiu $v0, $zero, 10
        syscall
    """
    program = link([assemble(source, "t")], LinkOptions())
    analysis = analyze_static(program)
    verdicts = [site.verdict for site in analysis.sites]
    assert verdicts == [Verdict.ALWAYS_PREDICTS, Verdict.ALWAYS_PREDICTS]


# ---------------------------------------------------------------------- #
# end-to-end over hand-written assembly

def test_interpreter_tracks_alignment_through_code():
    # $t0 = $sp & -64: 64-byte aligned; +60 stays inside one block span,
    # +68 crosses into the set-index field via the block carry.
    source = """
    .text
    __start:
        addiu $t1, $zero, -64
        and $t0, $sp, $t1
        lw $t2, 60($sp)
        lw $t3, 4($t0)
        lw $t4, 68($t0)
        addiu $v0, $zero, 10
        syscall
    """
    program = link([assemble(source, "t")], LinkOptions())
    analysis = analyze_static(program, FacConfig(block_size=32))
    by_offset = {site.offset: site for site in analysis.sites}
    # 4($t0): block field 4+0 < 32, index field of offset is 0 -> always
    assert by_offset[4].verdict is Verdict.ALWAYS_PREDICTS
    # 68($t0): offset has index-field bit 64, base 64-aligned low bits are
    # zero up to 64 but bits 6+ are unknown -> carry possible, not certain
    assert by_offset[68].verdict in (
        Verdict.DATA_DEPENDENT, Verdict.NEVER_PREDICTS, Verdict.ALWAYS_PREDICTS
    )
    # $sp is a known constant at the entry, so 60($sp) is decided exactly
    assert by_offset[60].verdict in (
        Verdict.ALWAYS_PREDICTS, Verdict.NEVER_PREDICTS
    )


def test_interpreter_call_summary_preserves_sp():
    source = """
    .text
    __start:
        jal helper
        lw $t0, 4($sp)
        addiu $v0, $zero, 10
        syscall
    helper:
        addiu $sp, $sp, -32
        sw $ra, 0($sp)
        lw $ra, 0($sp)
        addiu $sp, $sp, 32
        jr $ra
    """
    program = link([assemble(source, "t")], LinkOptions())
    analysis = analyze_static(program)
    # the lw after the call sees $sp as the (known) entry constant, so
    # its verdict is exact (never DATA_DEPENDENT)
    site = next(s for s in analysis.sites
                if s.inst.rt == Reg.T0 and not s.is_store)
    assert site.verdict in (Verdict.ALWAYS_PREDICTS, Verdict.NEVER_PREDICTS)
    assert kb.is_const(site.base)


def test_unreachable_code_flagged():
    source = """
    .text
    __start:
        addiu $v0, $zero, 10
        syscall
        j out
    dead:
        lw $t0, 0($sp)
    out:
        jr $ra
    """
    program = link([assemble(source, "t")], LinkOptions())
    analysis = analyze_static(program)
    # 'dead' is jumped over and is not a function symbol: nothing reaches it
    assert [s.verdict for s in analysis.sites] == [Verdict.UNREACHABLE]


# ---------------------------------------------------------------------- #
# soundness against the dynamic trace (fast subset; the full suite sweep
# lives in test_static_fac_suite.py)

@pytest.mark.parametrize("software_support", [False, True])
def test_soundness_compress(software_support):
    program = build_benchmark("compress", software_support=software_support)
    dynamic = analyze_program(program, block_sizes=(16, 32), per_pc=True)
    for block_size in (16, 32):
        analysis = analyze_static(program, FacConfig(block_size=block_size))
        report = check_soundness(analysis, dynamic.per_pc[block_size])
        assert report.sound, (
            f"bs={block_size}: ALWAYS sites failed dynamically: "
            f"{[(hex(a), n, f) for a, n, f in report.always_violations]} / "
            f"NEVER sites succeeded: "
            f"{[(hex(a), n, f) for a, n, f in report.never_violations]}"
        )
        assert report.bounds_hold, (
            f"bs={block_size}: measured {report.measured_success_rate} "
            f"outside [{report.success_rate_lower}, "
            f"{report.success_rate_upper}]"
        )


def test_static_bounds_tighten_with_software_support():
    baseline = build_benchmark("compress", software_support=False)
    supported = build_benchmark("compress", software_support=True)
    lo_base = _lower_bound(baseline)
    lo_supported = _lower_bound(supported)
    assert lo_supported > lo_base


def _lower_bound(program) -> float:
    dynamic = analyze_program(program, block_sizes=(32,), per_pc=True)
    analysis = analyze_static(program, FacConfig(block_size=32))
    return check_soundness(analysis, dynamic.per_pc[32]).success_rate_lower
