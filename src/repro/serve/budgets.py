"""Per-request budgets and the daemon's structured-error taxonomy.

A long-lived server cannot let one request monopolise it: admission control
happens *before* compute.  Three budget classes exist, each with a stable
machine-readable code and an HTTP status the transport maps onto:

- **queue depth** — the bounded work queue refuses new work when full
  (:class:`QueueFull`, 429): the client should back off and retry.
- **grid size** — predict/sweep/explore requests declare their full
  (workloads × schedules × threads × methods) grid up front; grids above
  ``max_grid_points`` are refused (:class:`BudgetExceeded`, 413) rather
  than queued and killed later.
- **wall clock** — every request carries a :class:`Deadline`; work still
  queued at expiry is dropped, and a client waiting past it receives a
  structured 504 (:class:`DeadlineExceeded`).  Python threads cannot be
  interrupted mid-compute, so a request that *started* keeps running to
  completion and warms the caches for its retry — the deadline bounds how
  long the client waits, admission bounds how much work can start.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

from repro.errors import ServeError


class QueueFull(ServeError):
    """The bounded work queue is at capacity; retry after a backoff."""

    status = 429
    code = "queue_full"


class BudgetExceeded(ServeError):
    """The declared request grid exceeds the per-request size budget."""

    status = 413
    code = "grid_budget_exceeded"


class DeadlineExceeded(ServeError):
    """The request's wall-clock budget elapsed before a result was ready."""

    status = 504
    code = "deadline_exceeded"


@dataclass(frozen=True)
class RequestBudgets:
    """Admission limits applied to every request (server-wide defaults).

    ``timeout_s`` is the *ceiling*: a request may ask for less via its
    ``timeout_s`` field but never more.  ``max_grid_points`` counts
    (workload, schedule, thread-count, method) tuples; ``max_threads``
    bounds any single requested thread count so a typo'd ``threads``
    cannot allocate absurd simulated machines.
    """

    max_grid_points: int = 4096
    max_threads: int = 256
    timeout_s: float = 60.0

    def check_grid(self, n_points: int, where: str = "request") -> None:
        """Refuse grids above the per-request point budget."""
        if n_points > self.max_grid_points:
            raise BudgetExceeded(
                f"{where} declares {n_points} grid point(s), over the "
                f"budget of {self.max_grid_points}; split the request"
            )

    def check_threads(self, threads) -> None:
        """Refuse absurd thread counts before they reach the simulator."""
        for t in threads:
            if isinstance(t, bool) or not isinstance(t, int) or t < 1:
                raise ServeError(f"thread counts must be positive integers, got {t!r}")
            if t > self.max_threads:
                raise BudgetExceeded(
                    f"thread count {t} exceeds the budget of {self.max_threads}"
                )

    def clamp_timeout(self, requested: Optional[float]) -> float:
        """The effective deadline: the request's ask capped by the ceiling."""
        if requested is None:
            return self.timeout_s
        try:
            requested = float(requested)
        except (TypeError, ValueError):
            raise ServeError(f"timeout_s must be a number, got {requested!r}")
        if requested <= 0:
            raise ServeError(f"timeout_s must be positive, got {requested}")
        return min(requested, self.timeout_s)


class Deadline:
    """Wall-clock budget for one request, shared by queue and handler.

    The monotonic clock keeps the deadline immune to system time jumps;
    ``remaining()`` is what the handler passes to its wait, and the queue
    worker consults ``expired()`` before starting work so requests that
    aged out while queued are dropped instead of computed for nobody.
    """

    __slots__ = ("timeout_s", "_expires")

    def __init__(self, timeout_s: float) -> None:
        self.timeout_s = timeout_s
        self._expires = time.monotonic() + timeout_s

    def remaining(self) -> float:
        """Seconds left; never negative."""
        return max(0.0, self._expires - time.monotonic())

    def expired(self) -> bool:
        """Whether the deadline has passed."""
        return time.monotonic() >= self._expires

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        return f"Deadline(timeout_s={self.timeout_s}, remaining={self.remaining():.3f})"
