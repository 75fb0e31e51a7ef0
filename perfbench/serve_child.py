"""Run ``repro serve`` with the benchmark's layer spans installed.

Usage: ``python perfbench/serve_child.py SPOOL_DIR serve [ARGS...]``.
The service's farm workers spool their per-job spans into ``SPOOL_DIR``
as they finish; this process's own spans (planning, store reads, farm
scheduling) are spooled when the service exits.
"""

from __future__ import annotations

import sys


def main(argv: list[str]) -> int:
    from repro.__main__ import main as repro_main
    from repro.obs.spans import SpanTracker

    from perfbench.layers import LayerTracer

    tracer = LayerTracer(argv[0])
    tracer.install()
    tracer.tracker = SpanTracker()
    try:
        return repro_main(argv[1:])
    finally:
        tracer.spool(tracer.tracker.export())


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
