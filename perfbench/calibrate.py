"""Calibration passes of the traced run.

Some layer costs cannot be read off a span because the layer runs
inside another layer's call: the functional CPU runs inside
``record_trace`` (which also encodes), trace decoding runs inside the
timing replay, and the profiler's timing pass runs inside
``profile_program`` with an observer attached. The traced run measures
them directly on the workload's own programs, with tracing off:

* a bare ``CPU.run`` (no trace consumer; predecode excluded, as the
  spans report it on its own),
* ``replay_into`` with a consumer that has no hooks,
* optionally a detached ``PipelineSimulator`` run (no observer).
"""

from __future__ import annotations

import os
import time

from repro.cpu import CPU
from repro.cpu.tracefile import record_trace, replay_into
from repro.pipeline.pipeline import PipelineSimulator


def calibrate(programs, workdir: str, max_instructions: int,
              timing_config=None) -> dict:
    """Summed costs of the calibration passes over ``programs``."""
    totals = {"instructions": 0, "bare_s": 0.0, "replay_s": 0.0,
              "detached_sim_s": 0.0}
    for index, program in enumerate(programs):
        cpu = CPU(program)
        cpu.run(0)      # builds the predecode tables, executes nothing
        start = time.perf_counter()
        cpu.run(max_instructions)
        totals["bare_s"] += time.perf_counter() - start
        totals["instructions"] += cpu.instructions_retired

        path = os.path.join(workdir, f"calibrate-{index}.fact.gz")
        record_trace(program, path, max_instructions)
        try:
            start = time.perf_counter()
            replay_into(program, path, object())
            totals["replay_s"] += time.perf_counter() - start
        finally:
            os.unlink(path)

        if timing_config is not None:
            cpu = CPU(program)
            pipe = PipelineSimulator(timing_config)
            start = time.perf_counter()
            cpu.run_trace(pipe, max_instructions)
            pipe.finalize(memory_usage=cpu.memory_usage)
            totals["detached_sim_s"] += time.perf_counter() - start
    return totals
