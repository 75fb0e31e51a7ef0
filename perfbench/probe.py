"""One set-up of a workload in a fresh interpreter (timed by ``run.py``).

Usage: ``python perfbench/probe.py WORKLOAD NAME,NAME``. Imports what
the workload drives and prepares its inputs the way a user's first
command would: the sweep plans the slice's job graph against an empty
store, the profiler compiles its programs.
"""

from __future__ import annotations

import importlib
import sys


def main(argv: list[str]) -> int:
    workload, names = argv[0], argv[1].split(",")
    if workload == "sweep_cold":
        from repro.experiments import common
        from repro.farm.cli import HARNESSES
        from repro.farm.jobs import plan_jobs

        cells = set()
        for module_name, _ in HARNESSES.values():
            module = importlib.import_module(
                f"repro.experiments.{module_name}")
            cells |= module.farm_cells(names)
        plan_jobs(cells, common.MACHINES, common.MAX_INSTRUCTIONS)
    elif workload == "profile_sites":
        import repro.obs.profile  # noqa: F401 - the profiler's imports
        from repro.workloads.suite import build_benchmark

        for name in names:
            build_benchmark(name)
    else:
        raise SystemExit(f"no set-up probe for {workload!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
