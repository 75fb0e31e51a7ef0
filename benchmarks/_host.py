"""Host fingerprint shared by the benchmarks that keep a baseline file.

A committed baseline is re-recorded rather than compared when it was
measured on a different interpreter or architecture; this dict is what
"different" means.
"""

from __future__ import annotations

import platform


def fingerprint() -> dict:
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": platform.machine(),
    }
