"""Figure 3: cumulative load-offset size distributions.

For the paper's four representative programs (gcc, sc, doduc, spice):
the cumulative fraction of loads whose offset fits in k bits, separately
for global-pointer, stack-pointer, and general-pointer accesses. The
expected shape: general-pointer offsets concentrate at zero/small sizes;
global- and stack-pointer offsets are large (they are partial addresses
and frame offsets).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.analysis.reporting import format_series
from repro.experiments import common

DEFAULT_PROGRAMS = ("gcc", "sc", "doduc", "spice")
BUCKET_LABELS = ["Neg"] + [str(b) for b in range(16)] + ["More"]


@dataclass
class Fig3Result:
    # program -> ref class -> cumulative fractions over BUCKET_LABELS
    curves: dict[str, dict[str, list[float]]] = field(default_factory=dict)

    def render(self) -> str:
        lines = ["Figure 3: cumulative load-offset distributions "
                 "(fraction of loads with offset <= bucket)"]
        for program, classes in self.curves.items():
            lines.append(f"-- {program} --")
            for ref_class, values in classes.items():
                lines.append(format_series(
                    f"  {ref_class:8s}", BUCKET_LABELS, values, "{:.2f}"
                ))
        return "\n".join(lines)


def farm_cells(benchmarks=None, software_support: bool = False) -> set:
    """The farm cells (analyses) Figure 3 reads."""
    from repro.farm import Cell

    return {Cell("analysis", name, software_support)
            for name in (benchmarks or DEFAULT_PROGRAMS)}


def run_fig3(benchmarks=None, software_support: bool = False) -> Fig3Result:
    names = benchmarks or DEFAULT_PROGRAMS
    result = Fig3Result()
    for name in names:
        analysis = common.analysis_for(name, software_support)
        profile = analysis.profile
        result.curves[name] = {
            ref_class: profile.cumulative_offsets(ref_class)
            for ref_class in ("global", "stack", "general")
        }
    return result
