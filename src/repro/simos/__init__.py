"""Simulated operating system.

A deterministic discrete-event kernel that time-shares simulated threads over
the cores of a :class:`repro.simhw.machine.MachineConfig` machine, with
preemptive round-robin scheduling, direct-handoff mutexes (FIFO by default,
with pluggable handoff policies for ``repro.explore``'s schedule-space
exploration), barriers, events, and
fluid-rate compute segments whose speed responds to DRAM contention
(:mod:`repro.simhw.dram`).

This is the substitute for the Linux scheduler + real hardware in the paper's
testbed.  The phenomena the paper attributes to the OS — preemption and
oversubscription making nested parallelism faster than the fast-forward
emulator predicts (Fig. 7) — emerge from this kernel rather than being
hard-coded.
"""

from repro.simos.thread import (
    SimThread,
    ThreadState,
    Compute,
    Acquire,
    Release,
    BarrierWait,
    Spawn,
    Join,
    YieldCpu,
    GetTime,
    GetCurrentThread,
    EventWait,
    EventSet,
    EventClear,
)
from repro.simos.sync import (
    HANDOFF_POLICIES,
    SimMutex,
    SimBarrier,
    SimEvent,
    handoff_index,
    normalize_handoff,
)
from repro.simos.scheduler import CpuScheduler, next_boundary
from repro.simos.kernel import SimKernel

__all__ = [
    "SimThread",
    "ThreadState",
    "Compute",
    "Acquire",
    "Release",
    "BarrierWait",
    "Spawn",
    "Join",
    "YieldCpu",
    "GetTime",
    "GetCurrentThread",
    "EventWait",
    "EventSet",
    "EventClear",
    "HANDOFF_POLICIES",
    "SimMutex",
    "SimBarrier",
    "SimEvent",
    "CpuScheduler",
    "SimKernel",
    "handoff_index",
    "next_boundary",
    "normalize_handoff",
]
