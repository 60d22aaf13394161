"""Test-side helpers for the two testbench tiers and the compiled kernels.

:func:`sim_backend` sets ``REPRO_SIM_BACKEND`` for a block: ``"interpreter"``
runs the step-wise tier only, ``"trace"`` the strict trace tier and
``"auto"`` trace with the silent step-wise fallback.  :func:`run_on` and
:func:`run_many_on` make one testbench call under a value.

The library runs compiled kernels only inside trace kernels.
:class:`KernelReplay` drives a :class:`KernelTemplate` point by point through
its ``new_state``/``comb``/``steps``/``slots`` with the interpreter's
poke/peek/step API and deferred-settle rules, and :class:`KernelDevice` wraps
it as a step-wise testbench device.  Tests use them to compare every signal
of a kernel against the interpreter; the verify benchmarks use them as their
point-by-point baseline.
"""

from __future__ import annotations

from contextlib import contextmanager

import pytest

from repro.sim.testbench import VerilogDevice, run_testbench, run_testbenches
from repro.verilog.compile_sim import KernelTemplate, get_kernel


@contextmanager
def sim_backend(value: str):
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("REPRO_SIM_BACKEND", value)
        yield


def run_on(value: str, dut, reference, testbench):
    with sim_backend(value):
        return run_testbench(dut, reference, testbench)


def run_many_on(value: str, jobs):
    with sim_backend(value):
        return run_testbenches(jobs)


class KernelReplay:
    """One module instance on its compiled kernel, driven step by step."""

    def __init__(self, kernel: KernelTemplate):
        self.kernel = kernel
        self.state = kernel.new_state()
        self.settle()  # a fresh instance settles its zeroed state once

    def settle(self) -> None:
        self.needs_settle = False
        self.kernel.comb(self.state)

    def flush(self) -> None:
        if self.needs_settle:
            self.settle()

    def poke(self, name: str, value: int, settle: bool = True) -> None:
        meta = self.kernel.slots[name]
        self.state[meta.slot] = value & meta.mask
        if settle:
            self.settle()
        else:
            self.needs_settle = True

    def poke_many(self, assignments: dict[str, int], settle: bool = True) -> None:
        for name, value in assignments.items():
            self.poke(name, value, settle=False)
        if settle:
            self.settle()

    def peek(self, name: str) -> int:
        self.flush()
        return self.state[self.kernel.slots[name].slot]

    def step(self, clock: str = "clock", cycles: int = 1) -> None:
        edge = self.kernel.steps.get(clock)
        for _ in range(cycles):
            self.flush()
            if edge is not None:
                edge(self.state)
            self.needs_settle = True


class KernelDevice(VerilogDevice):
    """A step-wise testbench device that runs ``module``'s compiled kernel."""

    def __init__(self, module):
        kernel = get_kernel(module)
        if kernel is None:
            raise ValueError(f"module {module.name} is outside the compiled subset")
        self.module = module
        self.simulation = KernelReplay(kernel)
