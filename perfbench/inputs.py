"""Seeded workload inputs: suite slices, inline programs, arrival times.

The seed is the only source of variation. The same seed always yields
the same slice, the same inline programs and the same arrival schedule;
the program under test receives only these generated inputs.

Slices are *cost-matched*: every seed draws from the same short list of
(int, fp) suite pairs that take about the same time, so a different
seed changes which programs run without changing how much work a run
does.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

#: Cost-matched (int, fp) slices for the cold sweep: pairs whose cold
#: ten-harness regeneration on a two-worker farm pool took 9.8 s +- 4%
#: (mean of two runs on a 2-core x86-64 host) and whose cold sweep
#: peaked at 81-86 MB RSS.
SWEEP_SLICES = (
    ("eqntott", "ora"), ("espresso", "ora"), ("eqntott", "mdljsp2"),
    ("eqntott", "mdljdp2"), ("yacr2", "doduc"),
)

#: Cost-matched (int, fp) picks for the profiler: pairs whose two
#: ``profile_program`` calls took 4.2 s +- 4% and whose larger program
#: peaked at 70-72 MB RSS (six calls per program in fresh interpreters
#: on the same host).
PROFILE_PICKS = (
    ("elvis", "spice"), ("perl", "alvinn"), ("gcc", "mdljsp2"),
    ("elvis", "ora"),
)


def pick(seed: int, salt: str, choices):
    """The seed's choice among ``choices``. ``salt`` decorrelates the
    picks of different workloads that share a seed."""
    return random.Random(f"{salt}:{seed}").choice(choices)


# ------------------------------------------------------------------ #
# inline MiniC programs for the served workload

_INLINE_TEMPLATE = """\
/* perfbench inline program {tag} */
int data[{n}];
int acc = 0;

int main() {{
    int i;
    for (i = 0; i < {n}; i++) {{
        data[i] = i * {step} + {bias};
    }}
    for (i = 0; i < {n}; i++) {{
        acc = acc + data[i] * {mul};
    }}
    print_str("acc=");
    print_int(acc);
    print_char(10);
    return 0;
}}
"""


@dataclass(frozen=True)
class InlineProgram:
    """One generated MiniC program and the stdout it must produce."""

    tag: str
    source: str
    expected_output: str


def inline_program(rng: random.Random, tag: str) -> InlineProgram:
    """A small array-sum program with seeded sizes and constants.

    ``tag`` lands in a comment, so programs with equal constants still
    have distinct source digests (and so run cold the first time).
    """
    n = rng.randint(24, 64)
    step = rng.randint(1, 9)
    bias = rng.randint(0, 999)
    mul = rng.randint(1, 5)
    acc = mul * (step * n * (n - 1) // 2 + bias * n)
    source = _INLINE_TEMPLATE.format(tag=tag, n=n, step=step, bias=bias,
                                     mul=mul)
    return InlineProgram(tag=tag, source=source,
                         expected_output=f"acc={acc}\n")


# ------------------------------------------------------------------ #
# open-loop arrivals


@dataclass(frozen=True)
class Arrival:
    """One scheduled request: when it is due and what it submits."""

    due: float              # seconds after the start of the schedule
    program: InlineProgram
    cold: bool              # first submission of this program?
    tenant: str


def poisson_schedule(seed: int, rate: float, count: int,
                     cold_share: float,
                     owned: list[InlineProgram]) -> list[Arrival]:
    """``count`` Poisson arrivals at ``rate`` per second from
    ``len(owned)`` tenants, who take turns.

    Exactly ``round(count * cold_share)`` arrivals are new programs
    (never submitted before), evenly spaced from a seeded offset so
    that every seed spreads the cold work alike. Every other arrival is
    its tenant re-submitting the program it owns (``owned[tenant]``),
    which set-up has already run.
    """
    rng = random.Random(f"arrivals:{seed}")
    colds = round(count * cold_share)
    stride = count / max(1, colds)
    offset = rng.random() * stride
    cold_at = {int(offset + k * stride) for k in range(colds)}
    arrivals = []
    due = 0.0
    for index in range(count):
        due += rng.expovariate(rate)
        tenant = index % len(owned)
        if index in cold_at:
            program = inline_program(rng, f"s{seed}-cold-{index}")
        else:
            program = owned[tenant]
        arrivals.append(Arrival(due=due, program=program,
                                cold=index in cold_at,
                                tenant=f"tenant-{tenant}"))
    return arrivals
