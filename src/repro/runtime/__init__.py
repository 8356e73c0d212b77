"""Parallel runtimes on top of the simulated OS.

Three threading paradigms, mirroring the paper's targets (Section III):

- :mod:`repro.runtime.openmp` — an OpenMP 2.0-style runtime: fork/join
  thread teams per parallel region, ``static`` / ``static,c`` /
  ``dynamic,c`` / ``guided,c`` loop scheduling, ``nowait`` loop chains,
  implicit end-of-region barriers, and *physical* nested teams
  (oversubscription), which is exactly why naive nested OpenMP scales
  poorly in the paper's Fig. 1(b) discussion.
- :mod:`repro.runtime.taskpool` — the two task-pool runtimes that handle
  recursive parallelism, on one shared task machine (``spawn``/``sync``,
  help-first waits, implicit sync):
  :class:`~repro.runtime.taskpool.CilkPool`, Cilk Plus-style work stealing
  over per-worker deques with a recursive divide-and-conquer ``cilk_for``;
  and :class:`~repro.runtime.taskpool.OmpTaskPool`, OpenMP 3.0 tasking on
  one shared team queue.

All runtime costs (fork, chunk dispatch, steal, lock handling) are explicit
:class:`~repro.runtime.overhead.RuntimeOverheads` constants paid as compute
requests, so the fast-forward emulator can consume the very same numbers —
the paper obtains them from the EPCC microbenchmarks [8]; we obtain them from
:func:`repro.runtime.overhead.measure_overheads` run on the simulator.
"""

from repro.runtime.overhead import RuntimeOverheads, measure_overheads
from repro.runtime.tasks import Schedule, ScheduleKind, TaskBody
from repro.runtime.openmp import OmpRuntime
from repro.runtime.taskpool import CilkPool, OmpTaskPool

__all__ = [
    "RuntimeOverheads",
    "measure_overheads",
    "Schedule",
    "ScheduleKind",
    "TaskBody",
    "OmpRuntime",
    "CilkPool",
    "OmpTaskPool",
]
