"""Regenerate the golden files for test_determinism.py, test_flight.py
and test_profile.py.

Run from the repository root::

    PYTHONPATH=src python tests/obs/make_golden.py

Review the diff before committing -- a golden change means the event
vocabulary or field layout changed, which is a compatibility event for
downstream consumers of ``repro trace``.
"""

import io
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from tests.obs.test_determinism import (  # noqa: E402
    GOLDEN_DIR,
    PREFIX_GOLDENS,
    golden_program,
    prefix_trace,
)
from tests.obs.test_flight import loop_program  # noqa: E402
from tests.obs.test_profile import BLOCK_SIZES, WORKLOADS, golden_texts  # noqa: E402

from repro.obs.flight import record_flight  # noqa: E402
from repro.obs.trace import trace_program  # noqa: E402


def main() -> None:
    GOLDEN_DIR.mkdir(exist_ok=True)
    for fmt, filename in (("jsonl", "trace_small.jsonl"),
                          ("chrome", "trace_small.chrome.json")):
        stream = io.StringIO()
        trace_program(golden_program(), stream, fmt=fmt)
        (GOLDEN_DIR / filename).write_text(stream.getvalue())
        print(f"wrote {GOLDEN_DIR / filename}")
    for stem, name, machine in PREFIX_GOLDENS:
        for fmt, suffix in (("jsonl", ".jsonl"), ("chrome", ".chrome.json")):
            (GOLDEN_DIR / (stem + suffix)).write_text(
                prefix_trace(name, machine, fmt))
            print(f"wrote {GOLDEN_DIR / (stem + suffix)}")
    recorder, _ = record_flight(loop_program(), window_cycles=32)
    (GOLDEN_DIR / "flight_small.txt").write_text(recorder.dump())
    print(f"wrote {GOLDEN_DIR / 'flight_small.txt'}")
    for name in WORKLOADS:
        for block_size in BLOCK_SIZES:
            for filename, text in golden_texts(name, block_size):
                (GOLDEN_DIR / filename).write_text(text)
                print(f"wrote {GOLDEN_DIR / filename}")


if __name__ == "__main__":
    main()
