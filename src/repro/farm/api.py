"""In-process, store-backed experiment results.

This is what :mod:`repro.experiments.common` calls: the serial
equivalent of one farm cell. Every lookup goes through the artifact
store -- compute on miss, read back on hit -- so results survive the
process, sweeps resume for free, and a full-suite run never holds more
than a small bounded window of results in memory (the unbounded
``lru_cache`` memoization this replaces held every ``SimResult`` and
``TraceAnalysis`` of the sweep at once).

The store root comes from ``$REPRO_FARM_DIR`` (see
:func:`repro.farm.store.default_store_root`). Setting ``REPRO_FARM=off``
keeps everything working against a throwaway per-process store in a
temporary directory: same code path, no persistence.
"""

from __future__ import annotations

import atexit
import shutil
import tempfile
from collections import OrderedDict
from contextlib import contextmanager
from contextvars import ContextVar

from repro.analysis.prediction import TraceAnalysis
from repro.farm import jobs as farm_jobs
from repro.farm.snapshots import analysis_from_snapshot, sim_from_snapshot
from repro.farm.store import (
    ENV_DIR,
    ArtifactStore,
    default_store_root,
    store_enabled,
)
from repro.pipeline.config import MachineConfig
from repro.pipeline.result import SimResult

DEFAULT_MAX_INSTRUCTIONS = 10_000_000

#: Deserialized results kept in memory (per process). Small and bounded:
#: the artifact store is the real cache; this only spares re-reading the
#: same snapshot inside one harness's loop.
_MEMO_SIZE = 16
_memo: OrderedDict[tuple, object] = OrderedDict()

_ephemeral_root: str | None = None

#: The store :func:`using_store` pins for the current context.
_pinned_store: ContextVar[ArtifactStore | None] = ContextVar(
    "repro_farm_pinned_store", default=None)


def _ephemeral_store_root() -> str:
    """Throwaway store used when persistence is disabled (REPRO_FARM=off)."""
    global _ephemeral_root
    if _ephemeral_root is None:
        _ephemeral_root = tempfile.mkdtemp(prefix="repro-farm-")
        atexit.register(shutil.rmtree, _ephemeral_root, ignore_errors=True)
    return _ephemeral_root


def active_store() -> ArtifactStore:
    """The store :func:`using_store` pinned, else the one the current
    environment selects."""
    pinned = _pinned_store.get()
    if pinned is not None:
        return pinned
    if store_enabled():
        return ArtifactStore(default_store_root())
    return ArtifactStore(_ephemeral_store_root())


@contextmanager
def using_store(store: ArtifactStore):
    """Serve every store-backed lookup inside the block from ``store``,
    whatever ``$REPRO_FARM_DIR`` says (``farm run --store DIR``)."""
    token = _pinned_store.set(store)
    try:
        yield store
    finally:
        _pinned_store.reset(token)


def _memoize(key: tuple, value) -> None:
    _memo[key] = value
    _memo.move_to_end(key)
    while len(_memo) > _MEMO_SIZE:
        _memo.popitem(last=False)


def clear_memo() -> None:
    """Drop the in-memory window (the on-disk store is untouched)."""
    _memo.clear()


def analysis_for(name: str, software: bool = False,
                 max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
                 store: ArtifactStore | None = None) -> TraceAnalysis:
    """The functional-trace analysis of one benchmark build. On a miss
    the build is executed once, with only the column recorder attached
    (see :func:`repro.farm.jobs.ensure_analysis`)."""
    store = store if store is not None else active_store()
    key = ("analysis", str(store.root), name, software, max_instructions)
    cached = _memo.get(key)
    if cached is not None:
        _memo.move_to_end(key)
        return cached
    _, snapshot = farm_jobs.ensure_analysis(store, name, software,
                                            max_instructions)
    analysis = analysis_from_snapshot(snapshot)
    _memoize(key, analysis)
    return analysis


def sim_for(name: str, software: bool, machine: MachineConfig,
            label: str | None = None,
            max_instructions: int = DEFAULT_MAX_INSTRUCTIONS,
            store: ArtifactStore | None = None) -> SimResult:
    """The timing simulation of one build on one machine flavour.

    ``label`` names the flavour in artifact keys and snapshot metadata;
    anonymous configurations get a digest-derived label. On a miss the
    build is executed once, timing this flavour alone (see
    :func:`repro.farm.jobs.ensure_sims`).
    """
    from repro.farm.fingerprint import config_digest

    store = store if store is not None else active_store()
    if label is None:
        label = "cfg-" + config_digest(machine)[:12]
    key = ("sim", str(store.root), name, software, label, max_instructions)
    cached = _memo.get(key)
    if cached is not None:
        _memo.move_to_end(key)
        return cached
    [(_, snapshot)] = farm_jobs.ensure_sims(
        store, name, software, ((label, machine),), max_instructions)
    result = sim_from_snapshot(snapshot)
    _memoize(key, result)
    return result
