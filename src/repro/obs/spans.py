"""Hierarchical spans: causally-linked wall-clock timing.

A :class:`SpanTracker` hands out integer span ids, records monotonic
start/end timestamps, and keeps the parent link that turns them into a
tree -- sweep -> cell -> build/trace/analysis job -> store get/put. The
tracker keeps the record the run ledger persists
(:mod:`repro.farm.ledger`).

Spans cross process boundaries by value: a worker builds its own
tracker, wraps its work in spans, and ships ``export()`` -- a list of
plain dicts -- back over its pipe to the parent, which then calls
:meth:`SpanTracker.adopt` to splice those records under the job's span,
remapping ids so they stay unique within the run. On Linux
``time.monotonic`` shares one boot-time base across processes, so child
timestamps land directly on the parent's axis.

An optional listener sees each span as it starts and as it ends
(adopted spans arrive finished and are not announced): the farm
scheduler's progress line and a served job's event log are both read
off its job spans this way.

The clock is injectable for deterministic tests; nothing here reads the
wall clock.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field

#: ``status`` of a span that was still open when the tracker exported.
OPEN = "open"

#: Sentinel parent for :meth:`SpanTracker.span`: nest under the
#: innermost open ``span()`` block (or become a root if there is none).
CURRENT = object()


@dataclass
class Span:
    """One span: a named interval with a parent link and attributes."""

    span_id: int
    parent_id: int | None
    name: str
    cat: str
    t0: float
    t1: float | None = None
    status: str = OPEN
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.t1 - self.t0) if self.t1 is not None else 0.0

    def as_dict(self) -> dict:
        return {
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "name": self.name,
            "cat": self.cat,
            "t0": self.t0,
            "t1": self.t1,
            "status": self.status,
            "attrs": dict(self.attrs),
        }

    @classmethod
    def from_dict(cls, record: dict) -> "Span":
        return cls(
            span_id=record["span_id"], parent_id=record["parent_id"],
            name=record["name"], cat=record["cat"], t0=record["t0"],
            t1=record["t1"], status=record["status"],
            attrs=dict(record.get("attrs") or {}),
        )


class SpanTracker:
    """Issues, times, and retains spans for one run.

    ``clock`` defaults to ``time.monotonic`` and is injectable for tests.
    ``listener``, if given, is called with the :class:`Span` after each
    :meth:`start` and after the :meth:`end` that closes it.
    """

    def __init__(self, clock=time.monotonic, listener=None):
        self.clock = clock
        self.listener = listener
        self._next_id = 1
        self.spans: dict[int, Span] = {}
        self._stack: list[int] = []     # open span() blocks, innermost last

    # -------------------------------------------------------------- #
    # recording

    def start(self, name: str, parent: int | None = None,
              cat: str = "span", attrs: dict | None = None) -> int:
        span_id = self._next_id
        self._next_id += 1
        span = Span(span_id=span_id, parent_id=parent, name=name, cat=cat,
                    t0=self.clock(), attrs=dict(attrs or {}))
        self.spans[span_id] = span
        if self.listener is not None:
            self.listener(span)
        return span_id

    def end(self, span_id: int, status: str = "ok",
            attrs: dict | None = None) -> Span:
        span = self.spans[span_id]
        closing = span.t1 is None
        if closing:
            span.t1 = self.clock()
            span.status = status
        if attrs:
            span.attrs.update(attrs)
        if closing and self.listener is not None:
            self.listener(span)
        return span

    def annotate(self, span_id: int, attrs: dict) -> None:
        self.spans[span_id].attrs.update(attrs)

    @contextmanager
    def span(self, name: str, parent=CURRENT,
             cat: str = "span", attrs: dict | None = None):
        """``with tracker.span("build") as sid:`` -- ends on exit, with
        ``status='error'`` when the body raised.

        With the default ``parent=CURRENT`` the span nests under the
        innermost enclosing ``span()`` block, so instrumented callees
        (e.g. the artifact store's get/put timing) land in the right
        place without explicit parent plumbing. Pass ``parent=None`` to
        force a root, or an id for an explicit parent.
        """
        if parent is CURRENT:
            parent = self._stack[-1] if self._stack else None
        span_id = self.start(name, parent=parent, cat=cat, attrs=attrs)
        self._stack.append(span_id)
        try:
            yield span_id
        except BaseException:
            self.end(span_id, status="error")
            raise
        else:
            self.end(span_id, status="ok")
        finally:
            self._stack.remove(span_id)

    # -------------------------------------------------------------- #
    # cross-process splicing

    def export(self) -> list[dict]:
        """Plain-dict snapshot of every span, in id (creation) order.

        Open spans export with ``t1=None`` / ``status='open'``; the
        consumer (ledger, Chrome export) decides how to terminate them.
        """
        return [self.spans[sid].as_dict() for sid in sorted(self.spans)]

    def adopt(self, records: list[dict],
              parent: int | None = None) -> dict[int, int]:
        """Splice exported spans from another tracker under ``parent``.

        Ids are remapped into this tracker's sequence (preserving the
        internal parent links); records whose parent is not in the batch
        are attached to ``parent``. Returns the old-id -> new-id map.
        """
        mapping: dict[int, int] = {}
        for record in records:
            mapping[record["span_id"]] = self._next_id
            self._next_id += 1
        for record in records:
            span = Span.from_dict(record)
            span.span_id = mapping[record["span_id"]]
            old_parent = record["parent_id"]
            span.parent_id = mapping.get(old_parent, parent) \
                if old_parent is not None else parent
            self.spans[span.span_id] = span
        return mapping


def orphan_spans(records: list[dict]) -> list[int]:
    """Ids of spans whose parent is neither None nor in the record set.

    The farm's acceptance check: a ledger with orphans lost part of its
    causal tree (a worker export that was never adopted, a job that
    never got a span).
    """
    known = {r["span_id"] for r in records}
    return sorted(r["span_id"] for r in records
                  if r["parent_id"] is not None and r["parent_id"] not in known)


def span_roots(records: list[dict]) -> list[dict]:
    """The records with no parent (normally exactly one: the sweep)."""
    return [r for r in records if r["parent_id"] is None]
