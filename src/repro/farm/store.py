"""Content-addressed on-disk artifact store.

Layout (all under one root directory, default ``.repro-farm/``)::

    <root>/objects/<kind>/<k2>/<k4>/<key>/meta.json    # always present
    <root>/objects/<kind>/<k2>/<k4>/<key>/<payload>    # optional payload
    <root>/runs/last.json                              # last run summary
    <root>/serve/                                      # repro.serve state
    <root>/tmp/                                        # staging area

``kind`` is one of :data:`KINDS`; ``key`` is a fingerprint hex digest
(see :mod:`repro.farm.fingerprint`), and ``<k2>``/``<k4>`` are its
first and second byte (``key[:2]``, ``key[2:4]``) -- two-level fan-out
keeps directories small when thousands of tenants share one warm cache
through ``repro serve`` (65536 leaf shards instead of 256).

Writes are atomic: an artifact is staged under ``tmp/`` and published
with a single ``os.rename``, so concurrent workers computing the same
key race harmlessly -- the loser discards its copy. Reads touch the
artifact's ``meta.json`` mtime, which :meth:`ArtifactStore.gc` uses for
least-recently-used eviction; :meth:`ArtifactStore.pin` protects
in-flight artifacts (a job mid-execution, a result mid-response) from a
concurrent size-budgeted gc in the same process.
"""

from __future__ import annotations

import errno
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path

_META = "meta.json"

#: Every artifact kind the farm stores: a build job writes ``build``; a
#: run job writes ``sim`` and ``analysis``, and ``trace`` (meta only).
KINDS = ("build", "trace", "analysis", "sim")

#: Environment variable naming the store root.
ENV_DIR = "REPRO_FARM_DIR"
#: Set to ``off``/``0``/``disabled`` to run without any on-disk store.
ENV_TOGGLE = "REPRO_FARM"

DEFAULT_DIRNAME = ".repro-farm"


def store_enabled() -> bool:
    return os.environ.get(ENV_TOGGLE, "").strip().lower() not in (
        "off", "0", "disabled", "no",
    )


def default_store_root() -> Path:
    """Resolve the artifact-store root.

    Order: ``$REPRO_FARM_DIR`` if set; else ``$XDG_CACHE_HOME/repro-farm``
    if ``XDG_CACHE_HOME`` is set; else ``.repro-farm/`` in the current
    directory (gitignored).
    """
    env = os.environ.get(ENV_DIR, "").strip()
    if env:
        return Path(env)
    xdg = os.environ.get("XDG_CACHE_HOME", "").strip()
    if xdg:
        return Path(xdg) / "repro-farm"
    return Path(DEFAULT_DIRNAME)


@dataclass(frozen=True)
class ArtifactInfo:
    """One stored artifact, as enumerated by :meth:`ArtifactStore.ls`."""

    kind: str
    key: str
    path: Path
    size: int       # bytes, meta + payload
    mtime: float    # of meta.json (touched on read)


class ArtifactStore:
    """Content-addressed store with atomic publication and LRU gc.

    ``tracer`` (assignable after construction) is an optional
    :class:`repro.obs.spans.SpanTracker`; when set, every ``get``/``put``
    is wrapped in a ``store.*`` span nested under the caller's current
    span -- how farm workers attribute store traffic to their job.
    """

    def __init__(self, root: str | Path):
        self.root = Path(root)
        self.tracer = None
        self._pins: set[tuple[str, str]] = set()

    def _traced(self, op: str, kind: str, key: str):
        """``store.get``/``store.put`` span context (no-op untracked)."""
        return self.tracer.span(
            f"store.{op}", cat="store",
            attrs={"artifact_kind": kind, "key": key[:12]})

    # -------------------------------------------------------------- #
    # paths

    def _object_dir(self, kind: str, key: str) -> Path:
        """Home of an artifact (two-level sharded)."""
        return (self.root / "objects" / kind
                / (key[:2] or "__") / (key[2:4] or "__") / key)

    def _tmp_dir(self) -> Path:
        tmp = self.root / "tmp"
        tmp.mkdir(parents=True, exist_ok=True)
        return tmp

    def scratch(self, name: str) -> Path:
        """A staging path on the store's filesystem (so the final
        ``os.rename`` publication stays atomic)."""
        return self._tmp_dir() / f"{os.getpid()}-{name}"

    def runs_dir(self) -> Path:
        runs = self.root / "runs"
        runs.mkdir(parents=True, exist_ok=True)
        return runs

    # -------------------------------------------------------------- #
    # reads

    def has(self, kind: str, key: str) -> bool:
        return (self._object_dir(kind, key) / _META).is_file()

    def get_meta(self, kind: str, key: str) -> dict | None:
        """Load an artifact's metadata, touching it for LRU purposes."""
        if self.tracer is not None:
            with self._traced("get", kind, key) as span_id:
                meta = self._get_meta(kind, key)
                self.tracer.annotate(span_id, {"hit": meta is not None})
                return meta
        return self._get_meta(kind, key)

    def _get_meta(self, kind: str, key: str) -> dict | None:
        meta_path = self._object_dir(kind, key) / _META
        try:
            with open(meta_path) as handle:
                meta = json.load(handle)
        except (OSError, ValueError):
            return None
        try:
            os.utime(meta_path)
        except OSError:
            pass
        return meta

    def payload_path(self, kind: str, key: str, name: str) -> Path | None:
        """Path of a payload file, or None when absent."""
        path = self._object_dir(kind, key) / name
        return path if path.is_file() else None

    def get_json(self, kind: str, key: str, name: str = "snapshot.json"):
        """Load a JSON payload (with the LRU touch), or None."""
        if self.get_meta(kind, key) is None:
            return None
        path = self._object_dir(kind, key) / name
        try:
            with open(path) as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def get_bytes(self, kind: str, key: str, name: str) -> bytes | None:
        path = self._object_dir(kind, key) / name
        try:
            return path.read_bytes()
        except OSError:
            return None

    # -------------------------------------------------------------- #
    # writes

    def put(self, kind: str, key: str, meta: dict,
            payloads: dict[str, str | Path | bytes] | None = None) -> Path:
        """Atomically publish an artifact.

        ``payloads`` maps payload file names to either a source path
        (moved into the artifact) or raw bytes. Returns the artifact
        directory; if another process already published ``key``, the
        existing artifact wins and the staged copy is discarded.
        """
        if self.tracer is not None:
            with self._traced("put", kind, key):
                return self._put(kind, key, meta, payloads)
        return self._put(kind, key, meta, payloads)

    def _put(self, kind: str, key: str, meta: dict,
             payloads: dict[str, str | Path | bytes] | None = None) -> Path:
        final = self._object_dir(kind, key)
        if (final / _META).is_file():
            for src in (payloads or {}).values():
                if not isinstance(src, bytes):
                    Path(src).unlink(missing_ok=True)
            return final
        stage = self._tmp_dir() / f"{os.getpid()}-{kind}-{key[:16]}"
        if stage.exists():
            shutil.rmtree(stage, ignore_errors=True)
        stage.mkdir(parents=True)
        try:
            for name, src in (payloads or {}).items():
                dst = stage / name
                if isinstance(src, bytes):
                    dst.write_bytes(src)
                else:
                    shutil.move(str(src), str(dst))
            with open(stage / _META, "w") as handle:
                json.dump(meta, handle, indent=2, sort_keys=True)
                handle.write("\n")
            final.parent.mkdir(parents=True, exist_ok=True)
            try:
                os.rename(stage, final)
            except OSError as exc:
                if exc.errno not in (errno.ENOTEMPTY, errno.EEXIST,
                                     errno.ENOTDIR):
                    raise
                # concurrent publication won the race; ours is equivalent
                shutil.rmtree(stage, ignore_errors=True)
        finally:
            shutil.rmtree(stage, ignore_errors=True)
        return final

    def put_json(self, kind: str, key: str, obj, meta: dict,
                 name: str = "snapshot.json") -> Path:
        """Publish a JSON payload with deterministic byte encoding."""
        encoded = (json.dumps(obj, indent=2, sort_keys=True) + "\n").encode()
        return self.put(kind, key, meta, payloads={name: encoded})

    # -------------------------------------------------------------- #
    # enumeration / gc

    def _iter_object_dirs(self, kind_dir: Path):
        """Every object directory (``<k2>/<k4>/<key>``) under one kind."""
        for obj in sorted(kind_dir.glob("*/*/*/" + _META)):
            yield obj.parent

    def ls(self) -> list[ArtifactInfo]:
        objects = self.root / "objects"
        found = []
        if not objects.is_dir():
            return found
        for kind_dir in sorted(objects.iterdir()):
            if not kind_dir.is_dir():
                continue
            for obj in self._iter_object_dirs(kind_dir):
                size = sum(f.stat().st_size
                           for f in obj.iterdir() if f.is_file())
                found.append(ArtifactInfo(
                    kind=kind_dir.name, key=obj.name, path=obj,
                    size=size, mtime=(obj / _META).stat().st_mtime,
                ))
        return found

    def stats(self) -> dict:
        """Per-kind artifact counts and byte totals."""
        per_kind: dict[str, dict] = {}
        total = {"count": 0, "bytes": 0}
        for info in self.ls():
            bucket = per_kind.setdefault(info.kind, {"count": 0, "bytes": 0})
            bucket["count"] += 1
            bucket["bytes"] += info.size
            total["count"] += 1
            total["bytes"] += info.size
        return {"root": str(self.root), "kinds": per_kind, "total": total}

    def shard_stats(self) -> dict:
        """Directory fan-out statistics (the serve health endpoint).

        Per kind: object count, number of leaf shards in use, and the
        most crowded leaf shard -- the number an operator watches to
        know the two-level fan-out is keeping directories small.
        """
        objects = self.root / "objects"
        kinds: dict[str, dict] = {}
        if objects.is_dir():
            for kind_dir in sorted(objects.iterdir()):
                if not kind_dir.is_dir():
                    continue
                shards: dict[Path, int] = {}
                for obj in self._iter_object_dirs(kind_dir):
                    shards[obj.parent] = shards.get(obj.parent, 0) + 1
                kinds[kind_dir.name] = {
                    "objects": sum(shards.values()),
                    "shards": len(shards),
                    "max_per_shard": max(shards.values(), default=0),
                }
        return {"levels": 2, "kinds": kinds}

    def remove(self, kind: str, key: str) -> bool:
        path = self._object_dir(kind, key)
        if not path.is_dir():
            return False
        shutil.rmtree(path, ignore_errors=True)
        return True

    # -------------------------------------------------------------- #
    # pinning (in-process protection from concurrent gc)

    def pin(self, kind: str, key: str) -> None:
        """Shield an in-flight artifact from :meth:`gc` until unpinned.

        Pins are per-store-instance (in-memory): the serve worker pins
        the artifacts a request just produced while the size-budgeted
        gc runs, so the cache can be trimmed between jobs without ever
        evicting a result that is still being streamed to a client.
        """
        self._pins.add((kind, key))

    def unpin(self, kind: str, key: str) -> None:
        self._pins.discard((kind, key))

    def pinned(self, kind: str, key: str) -> bool:
        return (kind, key) in self._pins

    def gc(self, max_bytes: int | None = None,
           clear: bool = False) -> tuple[int, int]:
        """Evict artifacts; returns ``(evicted_count, freed_bytes)``.

        ``clear=True`` removes everything (except pinned artifacts).
        Otherwise artifacts are evicted least-recently-used first until
        the store fits within ``max_bytes``. The staging area is always
        emptied; pinned artifacts are never evicted (their bytes still
        count toward the budget, so a pin can make the budget
        unreachable -- by design: in-flight results beat the quota).
        """
        shutil.rmtree(self.root / "tmp", ignore_errors=True)
        artifacts = self.ls()
        evicted = freed = 0
        if clear:
            for info in artifacts:
                if (info.kind, info.key) in self._pins:
                    continue
                self.remove(info.kind, info.key)
                evicted += 1
                freed += info.size
            return evicted, freed
        if max_bytes is None:
            return 0, 0
        total = sum(info.size for info in artifacts)
        for info in sorted(artifacts, key=lambda i: (i.mtime, i.key)):
            if total <= max_bytes:
                break
            if (info.kind, info.key) in self._pins:
                continue
            self.remove(info.kind, info.key)
            evicted += 1
            freed += info.size
            total -= info.size
        return evicted, freed

    # -------------------------------------------------------------- #
    # run summaries (for ``repro farm status``)

    def write_last_run(self, summary: dict) -> None:
        path = self.runs_dir() / "last.json"
        with open(path, "w") as handle:
            json.dump(summary, handle, indent=2, sort_keys=True)
            handle.write("\n")

    def read_last_run(self) -> dict | None:
        try:
            with open(self.root / "runs" / "last.json") as handle:
                return json.load(handle)
        except (OSError, ValueError):
            return None

    def __repr__(self) -> str:  # pragma: no cover - debug helper
        return f"ArtifactStore({str(self.root)!r})"
