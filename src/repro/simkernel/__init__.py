"""Discrete-event simulation kernel.

A from-scratch, generator-coroutine discrete-event simulator in the style
of SimPy, providing the substrate on which the whole migration testbed
(network fabric, disks, repositories, hypervisors, workloads) runs.

Public surface:

* :class:`~repro.simkernel.core.Environment` — event loop and clock.
* :class:`~repro.simkernel.core.Event` / :class:`~repro.simkernel.core.Process`
  — the primitive awaitables.
* :class:`~repro.simkernel.events.Timeout`,
  :class:`~repro.simkernel.events.AnyOf`,
  :class:`~repro.simkernel.events.AllOf`,
  :class:`~repro.simkernel.events.Interrupt` — composition and preemption.
* :class:`~repro.simkernel.fluid.FluidShare` — weighted processor-sharing
  fluid resource on a virtual clock, used for disks, page caches and
  single-constraint links.
"""

from repro.simkernel.core import (
    KERNELS,
    Environment,
    Event,
    Process,
    StopSimulation,
    default_kernel,
    kernel_scope,
    set_default_kernel,
)
from repro.simkernel.events import AllOf, AnyOf, Interrupt, RearmableTimer, Timeout
from repro.simkernel.fluid import FluidShare

__all__ = [
    "AllOf",
    "AnyOf",
    "Environment",
    "Event",
    "FluidShare",
    "Interrupt",
    "KERNELS",
    "Process",
    "RearmableTimer",
    "StopSimulation",
    "Timeout",
    "default_kernel",
    "kernel_scope",
    "set_default_kernel",
]
