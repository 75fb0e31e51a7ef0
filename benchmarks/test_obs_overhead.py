"""Observability overhead gates.

Two kinds of contract are enforced here:

**Against a recorded baseline** (absolute, machine-specific): the
pipeline oracle carries no observation hook, so both the
step-loop simulator and the predecoded ``run_trace`` engine must stay
within 5% of the throughput
recorded before/after instrumentation landed
(``benchmarks/obs_baseline.json``). The baseline carries a host
fingerprint; on a different interpreter or machine the gate re-records
instead of failing. Delete the file to force re-recording.

**Relative, in-process** (portable): the live replay engine with a
``window_cycles=256`` flight recorder attached (a tee plus a column
watcher) is <= 10% over the same live engine without it; the
per-site outcome column that ``repro profile`` runs on (the live
replay engine with a :class:`~repro.obs.profile.SiteTally` watching
its memory accesses) is <= 10% over the same live engine without it.
Both comparisons run the variants adjacently within each repeat and
gate on the *minimum* overhead ratio
across repeats: machine-load drift inflates or deflates any single
repeat by far more than the effect under test, but a genuine
regression is present in every repeat, including the calm ones.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

from repro.cpu import CPU
from repro.fac import FacConfig
from repro.obs.flight import FlightRecorder
from repro.obs.profile import SiteTally
from repro.pipeline import MachineConfig, PipelineSimulator
from repro.pipeline.replay import time_live
from repro.workloads import build_benchmark

sys.path.insert(0, str(Path(__file__).parent))
from _host import fingerprint  # noqa: E402

BASELINE_PATH = Path(__file__).parent / "obs_baseline.json"
BASELINE_SCHEMA = "repro.obs-baseline/2"
WORKLOADS = ("compress", "xlisp", "tomcatv")
MAX_REGRESSION = 0.05          # vs recorded baseline, per engine
MAX_FLIGHT_OVERHEAD = 0.10     # flight recorder vs plain live engine
MAX_SITE_TAP_OVERHEAD = 0.10   # site outcome column vs plain live engine
REPEATS = 3
RELATIVE_REPEATS = 5


def _programs():
    return [build_benchmark(name) for name in WORKLOADS]


def _config() -> MachineConfig:
    return MachineConfig(fac=FacConfig())


# ------------------------------------------------------------------ #
# single-run variants; each returns (instructions, elapsed_seconds)

def _run_step_loop(program):
    cpu = CPU(program)
    pipe = PipelineSimulator(_config())
    feed = pipe.feed
    step = cpu.step
    start = time.perf_counter()
    while not cpu.halted:
        feed(step())
    elapsed = time.perf_counter() - start
    return pipe.result.instructions, elapsed


def _run_predecode(program):
    cpu = CPU(program)
    pipe = PipelineSimulator(_config())
    start = time.perf_counter()
    cpu.run_trace(pipe, 50_000_000)
    elapsed = time.perf_counter() - start
    return pipe.result.instructions, elapsed


def _run_flight(program):
    recorder = FlightRecorder(program, _config(), window_cycles=256)
    start = time.perf_counter()
    result = recorder.run(50_000_000)
    elapsed = time.perf_counter() - start
    return result.instructions, elapsed


def _run_live(program, outcomes=False):
    config = _config()
    watch = {config: SiteTally(program)} if outcomes else None
    start = time.perf_counter()
    (result,), _ = time_live(program, (config,), 50_000_000,
                             outcomes=watch)
    elapsed = time.perf_counter() - start
    return result.instructions, elapsed


def _run_site_tap(program):
    return _run_live(program, outcomes=True)


def _best_rate(runner, programs, repeats=REPEATS) -> float:
    best = 0.0
    for _ in range(repeats):
        instructions = 0
        elapsed = 0.0
        for program in programs:
            count, seconds = runner(program)
            instructions += count
            elapsed += seconds
        best = max(best, instructions / elapsed)
    return best


def _min_overhead(baseline_runner, candidate_runner, programs,
                  repeats=RELATIVE_REPEATS) -> float:
    """Minimum observed overhead of candidate over baseline across N
    adjacent repeats. Load drift swings any single repeat both ways by
    more than the effect under test; a real regression survives the
    min because it is present in every repeat."""
    overheads = []
    for _ in range(repeats):
        rates = []
        for runner in (baseline_runner, candidate_runner):
            instructions = 0
            elapsed = 0.0
            for program in programs:
                count, seconds = runner(program)
                instructions += count
                elapsed += seconds
            rates.append(instructions / elapsed)
        overheads.append(rates[0] / rates[1] - 1.0)
    return min(overheads)


# ------------------------------------------------------------------ #
# baseline bookkeeping

def _load_baseline() -> dict | None:
    """The recorded rates, or None when the file is missing, stale, or
    from another host (callers re-record instead of comparing)."""
    if not BASELINE_PATH.exists():
        return None
    payload = json.loads(BASELINE_PATH.read_text())
    if (payload.get("schema") != BASELINE_SCHEMA
            or payload.get("fingerprint") != fingerprint()
            or tuple(payload.get("workloads", ())) != WORKLOADS):
        return None
    return payload


def _gate_or_record(key: str, rate: float) -> None:
    """Compare ``rate`` against the recorded ``key``; (re-)record when
    the baseline is invalid for this host or lacks the key."""
    baseline = _load_baseline()
    if baseline is None:
        baseline = {
            "schema": BASELINE_SCHEMA,
            "workloads": list(WORKLOADS),
            "rates": {},
            "fingerprint": fingerprint(),
        }
    reference = baseline["rates"].get(key)
    if reference is None:
        baseline["rates"][key] = rate
        BASELINE_PATH.write_text(
            json.dumps(baseline, indent=2, sort_keys=True) + "\n")
        return
    slowdown = 1.0 - rate / reference
    assert slowdown <= MAX_REGRESSION, (
        f"detached {key} engine runs at {rate:.0f} instr/s vs "
        f"recorded baseline {reference:.0f} instr/s "
        f"({100 * slowdown:.1f}% regression > {100 * MAX_REGRESSION:.0f}% "
        f"budget)")


# ------------------------------------------------------------------ #
# gates

def test_null_observer_overhead_within_budget():
    _gate_or_record("step_loop", _best_rate(_run_step_loop, _programs()))


def test_predecode_detached_within_budget():
    _gate_or_record("predecode", _best_rate(_run_predecode, _programs()))


def test_flight_recorder_overhead_within_budget():
    overhead = _min_overhead(_run_live, _run_flight, _programs())
    assert overhead <= MAX_FLIGHT_OVERHEAD, (
        f"flight recorder costs {100 * overhead:.1f}% over the live "
        f"engine without it in every one of {RELATIVE_REPEATS} repeats "
        f"(> {100 * MAX_FLIGHT_OVERHEAD:.0f}% budget)")


def test_site_tap_overhead_within_budget():
    overhead = _min_overhead(_run_live, _run_site_tap, _programs())
    assert overhead <= MAX_SITE_TAP_OVERHEAD, (
        f"site outcome column costs {100 * overhead:.1f}% over the live "
        f"engine without it in every one of {RELATIVE_REPEATS} repeats "
        f"(> {100 * MAX_SITE_TAP_OVERHEAD:.0f}% budget)")
