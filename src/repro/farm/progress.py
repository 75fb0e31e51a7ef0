"""Live one-line progress display for farm sweeps.

A :class:`ProgressSink` rewrites a single status line (``\\r``) as jobs
complete::

    [farm] 37/64 done | 21 hits 15 computed 1 failed | sim:gcc:fac32

It reads the lifecycle entries that
:func:`repro.farm.scheduler.lifecycle_listener` derives from the
sweep's job and attempt spans, the same entries a served job streams
over SSE.
"""

from __future__ import annotations

import sys


class ProgressSink:
    """Renders farm lifecycle entries as one self-rewriting status line."""

    def __init__(self, stream=None, enabled: bool = True):
        self.stream = stream if stream is not None else sys.stderr
        self.enabled = enabled
        self.total = 0
        self.done = 0
        self.hits = 0
        self.computed = 0
        self.failed = 0
        self.retries = 0
        self.last = ""
        self._dirty = False

    def handle(self, entry: dict) -> None:
        event, job_id = entry["event"], entry["job_id"]
        if event == "farm.scheduled":
            self.total += 1
        elif event == "farm.started":
            self.last = job_id
        elif event == "farm.finished":
            self.done += 1
            if entry["cached"]:
                self.hits += 1
            else:
                self.computed += 1
            self.last = job_id
        elif event == "farm.failed":
            self.done += 1
            self.failed += 1
            self.last = f"{job_id} FAILED"
        elif event == "farm.job.crashed":
            self.last = f"{job_id} crashed"
        elif event == "farm.job.timeout":
            self.last = f"{job_id} timed out"
        elif event == "farm.job.retry":
            self.retries += 1
            self.last = f"{job_id} retry #{entry['next_attempt']}"
        self._render()

    def _render(self) -> None:
        if not self.enabled:
            return
        retries = f" {self.retries} retries" if self.retries else ""
        line = (f"[farm] {self.done}/{self.total} done | "
                f"{self.hits} hits {self.computed} computed "
                f"{self.failed} failed{retries} | {self.last}")
        self.stream.write("\r" + line[:119].ljust(119))
        self.stream.flush()
        self._dirty = True

    def close(self) -> None:
        if self._dirty:
            self.stream.write("\n")
            self.stream.flush()
            self._dirty = False
