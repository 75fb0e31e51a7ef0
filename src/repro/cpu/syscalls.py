"""System-call emulation (SPIM-style conventions).

The service number is taken from ``$v0``:

====  ==============  =========================================
 v0   name            arguments / result
====  ==============  =========================================
  1   print_int       ``$a0`` (signed)
  3   print_double    ``$f12``
  4   print_string    ``$a0`` = address of NUL-terminated string
  9   sbrk            ``$a0`` bytes; old break returned in ``$v0``
 10   exit            exit code 0
 11   print_char      low byte of ``$a0``
 17   exit2           exit code in ``$a0``
====  ==============  =========================================
"""

from __future__ import annotations

from typing import TYPE_CHECKING

from repro.errors import SimulationError
from repro.isa.registers import Reg
from repro.utils.bits import to_signed32

if TYPE_CHECKING:  # pragma: no cover
    from repro.cpu.executor import CPU

SYS_PRINT_INT = 1
SYS_PRINT_DOUBLE = 3
SYS_PRINT_STRING = 4
SYS_SBRK = 9
SYS_EXIT = 10
SYS_PRINT_CHAR = 11
SYS_EXIT2 = 17


SERVICE_NAMES = {
    SYS_PRINT_INT: "print_int",
    SYS_PRINT_DOUBLE: "print_double",
    SYS_PRINT_STRING: "print_string",
    SYS_SBRK: "sbrk",
    SYS_EXIT: "exit",
    SYS_PRINT_CHAR: "print_char",
    SYS_EXIT2: "exit2",
}


def handle_syscall(cpu: "CPU") -> None:
    """Execute the syscall selected by ``$v0`` on ``cpu``."""
    state = cpu.state
    service = state.regs[Reg.V0]
    if cpu.on_syscall is not None:
        cpu.on_syscall(state.pc, service,
                       SERVICE_NAMES.get(service, "unknown"))
    if service == SYS_PRINT_INT:
        cpu.output.append(str(to_signed32(state.regs[Reg.A0])))
    elif service == SYS_PRINT_DOUBLE:
        cpu.output.append(repr(float(state.fregs[12])))
    elif service == SYS_PRINT_STRING:
        cpu.output.append(cpu.memory.read_cstring(state.regs[Reg.A0]))
    elif service == SYS_SBRK:
        amount = to_signed32(state.regs[Reg.A0])
        old_brk = cpu.brk
        new_brk = old_brk + amount
        if new_brk < cpu.heap_base:
            raise SimulationError("sbrk below heap base")
        cpu.brk = new_brk
        cpu.heap_peak = max(cpu.heap_peak, new_brk)
        state.regs[Reg.V0] = old_brk & 0xFFFFFFFF
    elif service == SYS_EXIT:
        cpu.halted = True
        cpu.exit_code = 0
    elif service == SYS_EXIT2:
        cpu.halted = True
        cpu.exit_code = to_signed32(state.regs[Reg.A0])
    elif service == SYS_PRINT_CHAR:
        cpu.output.append(chr(state.regs[Reg.A0] & 0xFF))
    else:
        raise SimulationError(f"unknown syscall {service}")
