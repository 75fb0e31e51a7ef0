"""repro: a full-stack reproduction of *Streamlining Data Cache Access
with Fast Address Calculation* (Austin, Pnevmatikatos & Sohi, ISCA 1995).

The package provides, bottom-up:

* :mod:`repro.isa` -- the paper's extended-MIPS instruction set with an
  assembler and disassembler,
* :mod:`repro.mem` / :mod:`repro.linker` -- memory image and linker (with
  the paper's global-pointer alignment support),
* :mod:`repro.compiler` -- a MiniC optimizing compiler implementing the
  paper's software support (Section 4),
* :mod:`repro.cpu` -- the functional simulator,
* :mod:`repro.cache` -- cache, store buffer, and TLB models,
* :mod:`repro.fac` -- the fast-address-calculation predictor circuit,
* :mod:`repro.pipeline` -- the 4-way in-order superscalar timing model
  of Table 5,
* :mod:`repro.workloads` -- the 19-program benchmark suite,
* :mod:`repro.analysis` / :mod:`repro.experiments` -- reference-behaviour
  analyses and one harness per paper table/figure.

Quickstart::

    from repro import compile_and_link, CPU, FacConfig, FastAddressCalculator

    program = compile_and_link("int main() { return 0; }")
    cpu = CPU(program)
    cpu.run()
"""

from repro.cache import Cache, CacheConfig, TLB
from repro.compiler import CompilerOptions, FacSoftwareOptions, compile_and_link, compile_source
from repro.cpu import CPU, TraceRecord
from repro.fac import FacConfig, FastAddressCalculator, Prediction
from repro.isa import Instruction, Op, assemble, disassemble
from repro.linker import LinkOptions, link
from repro.pipeline import MachineConfig, PipelineSimulator, SimResult

__version__ = "1.0.0"

__all__ = [
    "Cache",
    "CacheConfig",
    "TLB",
    "CompilerOptions",
    "FacSoftwareOptions",
    "compile_and_link",
    "compile_source",
    "CPU",
    "TraceRecord",
    "FacConfig",
    "FastAddressCalculator",
    "Prediction",
    "Instruction",
    "Op",
    "assemble",
    "disassemble",
    "LinkOptions",
    "link",
    "MachineConfig",
    "PipelineSimulator",
    "SimResult",
    "__version__",
]
