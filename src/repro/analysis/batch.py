"""Vectorized whole-trace analysis over columnar traces.

:func:`analyze_trace_columns` is the batch twin of the scalar
:class:`repro.analysis.prediction.TraceAnalyzer`: the same
:class:`~repro.analysis.prediction.TraceAnalysis` out of a handful of
numpy passes over :class:`~repro.cpu.coltrace.TraceColumns` instead of
one Python callback per record. The two are *snapshot-equal* -- their
``repro.metrics/1`` encodings are identical on every benchmark -- which
the suite-wide equivalence test and the ``columnar-equivalence`` CI job
enforce. The scalar analyzer, driven by ``CPU.step`` or
``replay_into``, is that oracle; no production path calls it.

The FAC verification signals vectorize directly because the circuit is
pure bit arithmetic (paper Section 3): Overflow, GenCarry,
LargeNegConst, and IndexReg<31> are masks-and-compares on the base and
offset columns, mirroring :meth:`FastAddressCalculator.predict`
branch for branch (:func:`failure_signal_columns` is property-tested
against it). Cache and TLB models become sorting problems: a
direct-mapped cache hits exactly when the previous access to the same
set touched the same block, which one stable sort by set index exposes
as a neighbour comparison.
"""

from __future__ import annotations

# coltrace first: it owns the friendly "numpy is a declared runtime
# dependency" ImportError for environments missing numpy
from repro.cpu.coltrace import TraceColumns

import numpy as np

from repro.analysis.prediction import PredictionStats, TraceAnalysis
from repro.analysis.refclass import GENERAL, GLOBAL, STACK, ReferenceProfile
from repro.cache.tlb import TLB
from repro.isa.opcodes import OP_INFO
from repro.isa.program import Program
from repro.isa.registers import Reg
from repro.obs.metrics import Histogram
from repro.pipeline.deps import sources_and_dests
from repro.utils.bits import MASK32

_SIGNALS = ("overflow", "gen_carry", "large_neg_const", "neg_index_reg",
            "tag_mismatch")

_CLASS_ORDER = (GLOBAL, STACK, GENERAL)

#: Figure 3 bucket keys are -1 ("Neg"), 0..15, 16 ("More") -- see
#: ``_KEY_ORDER`` in :mod:`repro.analysis.refclass`.
_BUCKET_SHIFT = 1
_BUCKET_BINS = 18

# powers of two bounding each bit-length bucket: bit_length(v) for v>=0
# equals searchsorted(_POW2, v, side="right")
_POW2 = np.array([1 << k for k in range(32)], dtype=np.int64)


# ------------------------------------------------------------------ #
# static per-instruction tables

def _static_tables(program: Program):
    """Per text-word arrays the columns index into: load/store flags,
    addressing-mode codes, and the Section 2 reference class."""
    n = len(program.instructions)
    is_load = np.zeros(n, dtype=bool)
    is_x = np.zeros(n, dtype=bool)
    is_p = np.zeros(n, dtype=bool)
    ref_class = np.zeros(n, dtype=np.int8)
    for i, inst in enumerate(program.instructions):
        info = OP_INFO[inst.op]
        if not info.mem_width:
            continue
        is_load[i] = info.is_load
        mode = info.mem_mode
        is_x[i] = mode == "x"
        is_p[i] = mode == "p"
        if inst.rs == Reg.GP:
            ref_class[i] = 0
        elif inst.rs in (Reg.SP, Reg.FP):
            ref_class[i] = 1
        else:
            ref_class[i] = 2
    return is_load, is_x, is_p, ref_class


# ------------------------------------------------------------------ #
# FAC failure-signal kernels

def failure_signal_columns(base, offset, offset_is_reg, *, block_size: int,
                           cache_size: int = 16 * 1024,
                           full_tag_add: bool = True) -> dict:
    """The five verification signals for whole access columns at once.

    ``base`` is the unsigned 32-bit base value column, ``offset`` the
    *signed* offset column (the signed interpretation of the index
    register for register+register accesses), ``offset_is_reg`` the
    register-mode mask. Mirrors
    :meth:`repro.fac.predictor.FastAddressCalculator.predict` exactly;
    the randomized kernel tests assert elementwise agreement.
    """
    base = np.asarray(base, dtype=np.int64) & MASK32
    offset = np.asarray(offset, dtype=np.int64)
    offset_is_reg = np.asarray(offset_is_reg, dtype=bool)

    b = (block_size - 1).bit_length()
    s = (cache_size - 1).bit_length()
    block_mask = (1 << b) - 1
    index_mask = ((1 << s) - 1) ^ block_mask
    tag_mask = MASK32 ^ ((1 << s) - 1)

    ofs_bits = offset & MASK32
    block_sum = (base & block_mask) + (ofs_bits & block_mask)
    carry_out = block_sum >> b

    negative = offset < 0
    # predict()'s branch condition: register offsets and non-negative
    # constants share the uninverted path; negative constants invert
    # the offset's index/tag fields.
    plain = offset_is_reg | ~negative
    inverted_bits = ~ofs_bits
    ofs_index = np.where(plain, ofs_bits, inverted_bits) & index_mask

    neg_index_reg = offset_is_reg & negative
    large_neg_const = ~plain & ((offset >> b) != -1)
    overflow = np.where(plain, carry_out == 1, carry_out == 0)
    gen_carry = ((base & index_mask) & ofs_index) != 0
    if full_tag_add:
        tag_mismatch = np.zeros(len(base), dtype=bool)
    else:
        ofs_tag = np.where(plain, ofs_bits, inverted_bits) & tag_mask
        pred_tag = (base & tag_mask) | ofs_tag
        actual_tag = ((base + offset) & MASK32) & tag_mask
        tag_mismatch = pred_tag != actual_tag
    return {
        "overflow": overflow,
        "gen_carry": gen_carry,
        "large_neg_const": large_neg_const,
        "neg_index_reg": neg_index_reg,
        "tag_mismatch": tag_mismatch,
    }


def prediction_failed_column(base, offset, offset_is_reg, *, block_size: int,
                             cache_size: int = 16 * 1024,
                             full_tag_add: bool = True) -> np.ndarray:
    """The OR of the verification signals -- the vectorized
    :meth:`FastAddressCalculator.fails` verdict."""
    signals = failure_signal_columns(
        base, offset, offset_is_reg, block_size=block_size,
        cache_size=cache_size, full_tag_add=full_tag_add)
    failed = signals["overflow"]
    for name in _SIGNALS[1:]:
        failed = failed | signals[name]
    return failed


# ------------------------------------------------------------------ #
# cache / TLB batch passes

def direct_mapped_misses(addresses: np.ndarray, *, block_size: int,
                         cache_size: int) -> int:
    """Exact miss count of a direct-mapped cache over an access stream.

    In time order, an access hits iff the previous access *to its set*
    was to the same block. A stable sort by set index makes per-set
    access streams contiguous, so that predecessor is simply the
    previous element.
    """
    if len(addresses) == 0:
        return 0
    offset_bits = (block_size - 1).bit_length()
    num_sets = cache_size // block_size
    block = np.asarray(addresses, dtype=np.int64) >> offset_bits
    sets = block & (num_sets - 1)
    order = np.argsort(sets, kind="stable")
    set_sorted = sets[order]
    block_sorted = block[order]
    hits = ((set_sorted[1:] == set_sorted[:-1])
            & (block_sorted[1:] == block_sorted[:-1]))
    return len(addresses) - int(hits.sum())


def tlb_misses(addresses: np.ndarray, *, entries: int = 64,
               page_size: int = 4096) -> int:
    """Exact miss count of the Section 5.4 TLB over an access stream.

    When the footprint fits (distinct pages <= capacity) nothing is
    ever evicted and each page misses exactly once. Otherwise the
    stream is run-length compressed (a repeat of the page just touched
    is always a hit and never perturbs TLB state, including the
    replacement PRNG) and replayed through the exact :class:`TLB`.
    """
    if len(addresses) == 0:
        return 0
    page_shift = (page_size - 1).bit_length()
    pages = np.asarray(addresses, dtype=np.int64) >> page_shift
    if len(np.unique(pages)) <= entries:
        return len(np.unique(pages))
    keep = np.empty(len(pages), dtype=bool)
    keep[0] = True
    np.not_equal(pages[1:], pages[:-1], out=keep[1:])
    tlb = TLB(entries=entries, page_size=page_size)
    misses = 0
    for page in pages[keep].tolist():
        if not tlb.access(page << page_shift):
            misses += 1
    return misses


def _miss_ratio(misses: int, total: int) -> float:
    """Bit-identical to :attr:`repro.obs.metrics.RatioStat.miss_ratio`."""
    if not total:
        return 0.0
    return 1.0 - (total - misses) / total


# ------------------------------------------------------------------ #
# the batch analyzer

def _offset_buckets(offsets: np.ndarray) -> np.ndarray:
    """Figure 3 bucket keys (-1 Neg, 0..15 bits, 16 More), vectorized."""
    bits = np.searchsorted(_POW2, offsets, side="right")
    keys = np.minimum(bits, 16)
    return np.where(offsets < 0, -1, keys)


def analyze_trace_columns(program: Program, cols: TraceColumns,
                          block_sizes: tuple[int, ...] = (16, 32),
                          cache_size: int = 16 * 1024,
                          full_tag_add: bool = True,
                          per_pc: bool = False, memory_usage: int = 0,
                          stdout: str = "") -> TraceAnalysis:
    """The full :class:`TraceAnalysis` of one trace, from its columns.

    Produces a :class:`TraceAnalysis` whose ``repro.metrics/1`` snapshot
    equals the scalar analyzer's for the same trace (``per_pc`` tables
    included); counters come out as plain Python ints so snapshots stay
    JSON-serializable.
    """
    cols.verify(program)
    is_load, is_x, is_p, ref_class = _static_tables(program)
    idx = cols.index.astype(np.int64)
    total_records = cols.count

    mem_mask = cols.is_mem
    mem_idx = idx[mem_mask]
    loads_mask = is_load[mem_idx]
    x_mask = is_x[mem_idx]
    p_mask = is_p[mem_idx]
    classes = ref_class[mem_idx].astype(np.int64)
    base_col = cols.base[mem_mask].astype(np.int64)
    offset_col = cols.offset[mem_mask].astype(np.int64)

    # ---- reference profile (Table 1 / Figure 3) --------------------
    profile = ReferenceProfile()
    profile.instructions = total_records
    mem_count = len(mem_idx)
    load_count = int(loads_mask.sum())
    profile.loads = load_count
    profile.stores = mem_count - load_count
    load_by_class = np.bincount(classes[loads_mask], minlength=3)
    store_by_class = np.bincount(classes[~loads_mask], minlength=3)
    for code, name in enumerate(_CLASS_ORDER):
        profile.load_class[name] = int(load_by_class[code])
        profile.store_class[name] = int(store_by_class[code])
    buckets = _offset_buckets(offset_col)
    for code, name in enumerate(_CLASS_ORDER):
        mask = loads_mask & (classes == code)
        counts = np.bincount(buckets[mask] + _BUCKET_SHIFT,
                             minlength=_BUCKET_BINS)
        hist = profile.offset_hist[name]
        for key in np.flatnonzero(counts):
            hist.record(int(key) - _BUCKET_SHIFT, int(counts[key]))

    # ---- prediction failures per block size (Tables 3/4) -----------
    predictions: dict[int, PredictionStats] = {}
    per_pc_tables: dict[int, dict[int, list[int]]] | None = (
        {} if per_pc else None)
    store_mask = ~loads_mask
    norr_mask = ~x_mask
    if per_pc:
        static_n = len(is_load)
        access_counts = np.bincount(mem_idx, minlength=static_n)
        touched = np.flatnonzero(access_counts)
        text_base = program.text_base
    for block_size in block_sizes:
        signals = failure_signal_columns(
            base_col, offset_col, x_mask, block_size=block_size,
            cache_size=cache_size, full_tag_add=full_tag_add)
        failed = np.zeros(mem_count, dtype=bool)
        for name in _SIGNALS:
            failed |= signals[name]
        # post-increment accesses need no addition: never a failure,
        # and their signals are never accounted.
        failed &= ~p_mask
        stats = PredictionStats(block_size=block_size)
        stats.loads = load_count
        stats.stores = mem_count - load_count
        stats.load_failures = int((failed & loads_mask).sum())
        stats.store_failures = int((failed & store_mask).sum())
        stats.norr_loads = int((norr_mask & loads_mask).sum())
        stats.norr_stores = int((norr_mask & store_mask).sum())
        stats.norr_load_failures = int((failed & norr_mask & loads_mask).sum())
        stats.norr_store_failures = int((failed & norr_mask
                                         & store_mask).sum())
        for name in _SIGNALS:
            stats.signal_counts[name] = int((signals[name] & ~p_mask).sum())
        predictions[block_size] = stats
        if per_pc:
            failure_counts = np.bincount(mem_idx[failed], minlength=static_n)
            per_pc_tables[block_size] = {
                int(text_base + 4 * i): [int(access_counts[i]),
                                         int(failure_counts[i])]
                for i in touched
            }

    # ---- cache and TLB models (Table 3/4 miss-ratio columns) -------
    if total_records:
        pc = cols.pc.astype(np.int64)
        iblock = pc >> 5
        transitions = np.empty(total_records, dtype=bool)
        transitions[0] = True   # the analyzer's initial _last_iblock = -1
        np.not_equal(iblock[1:], iblock[:-1], out=transitions[1:])
        iaddrs = pc[transitions]
        icache_accesses = len(iaddrs)
        icache_misses = direct_mapped_misses(iaddrs, block_size=32,
                                             cache_size=16 * 1024)
    else:
        icache_accesses = icache_misses = 0
    eas = cols.ea[mem_mask].astype(np.int64)
    dcache_misses = direct_mapped_misses(eas, block_size=32,
                                         cache_size=16 * 1024)
    tlb_miss_count = tlb_misses(eas)

    return TraceAnalysis(
        profile=profile,
        predictions=predictions,
        icache_miss_ratio=_miss_ratio(icache_misses, icache_accesses),
        dcache_miss_ratio=_miss_ratio(dcache_misses, mem_count),
        tlb_miss_ratio=_miss_ratio(tlb_miss_count, mem_count),
        memory_usage=memory_usage,
        instructions=total_records,
        stdout=stdout,
        per_pc=per_pc_tables,
    )


# ------------------------------------------------------------------ #
# load-use distances (the profiler's functional histogram)

def _register_events(program: Program):
    """Flattened per-static-instruction register events.

    For each text word: one *read* event per source slot followed by
    one *write* event per destination slot (type 1 when the
    instruction is a load, type 2 for any other definition -- a kill).
    The flattening order matches the scalar tracker, which resolves
    sources before destinations.
    """
    slots: list[int] = []
    types: list[int] = []
    counts = np.zeros(len(program.instructions), dtype=np.int64)
    starts = np.zeros(len(program.instructions), dtype=np.int64)
    for i, inst in enumerate(program.instructions):
        sources, dests = sources_and_dests(inst)
        starts[i] = len(slots)
        write_type = 1 if inst.info.is_load else 2
        for slot in sources:
            slots.append(slot)
            types.append(0)
        for slot in dests:
            slots.append(slot)
            types.append(write_type)
        counts[i] = len(sources) + len(dests)
    return (np.asarray(slots, dtype=np.int64),
            np.asarray(types, dtype=np.int8), counts, starts)


def load_use_distances(program: Program, cols: TraceColumns,
                       histogram: Histogram | None = None) -> Histogram:
    """Vectorized load-use distance histogram (retired instructions
    between a load and the first consumer of its destination register;
    1 = back-to-back). ``tests/analysis/test_load_use_distances.py``
    checks it against a scalar per-retirement oracle."""
    hist = histogram if histogram is not None else Histogram("load_use")
    ev_slots, ev_types, counts, starts = _register_events(program)
    idx = cols.index.astype(np.int64)
    per_record = counts[idx]
    total = int(per_record.sum())
    if total == 0:
        return hist
    record_of = np.repeat(np.arange(len(idx), dtype=np.int64), per_record)
    group_start = np.cumsum(per_record) - per_record
    within = np.arange(total, dtype=np.int64) - group_start[record_of]
    flat = starts[idx][record_of] + within
    slots = ev_slots[flat]
    types = ev_types[flat]
    # stable sort by slot keeps global time order (and the
    # reads-before-writes order within one record) inside each slot
    order = np.argsort(slots, kind="stable")
    slot_sorted = slots[order]
    type_sorted = types[order]
    time_sorted = record_of[order]
    # a read records a distance iff the previous event on its slot was
    # a load's write (a pending load not yet consumed or overwritten)
    pair = ((slot_sorted[1:] == slot_sorted[:-1])
            & (type_sorted[:-1] == 1) & (type_sorted[1:] == 0))
    distances = time_sorted[1:][pair] - time_sorted[:-1][pair]
    values, amounts = np.unique(distances, return_counts=True)
    for value, amount in zip(values.tolist(), amounts.tolist()):
        hist.record(int(value), int(amount))
    return hist
