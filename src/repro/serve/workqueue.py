"""Bounded work queue feeding the daemon's predictors.

HTTP handler threads never compute: they submit a closure and wait on its
:class:`Job` with the request's deadline.  A fixed pool of worker threads
drains the queue, which is bounded — a full queue refuses admission
(:class:`~repro.serve.budgets.QueueFull` → 429) instead of buffering
unbounded work the clients have long given up on.

Why one worker by default: a single simulated sweep already saturates a
core, and serial execution in admission order is deterministic.
``workers > 1`` is supported for mixed traffic: the caches shared across
workers — the section memo, each predictor's engine cache and the serve
cache classes — are locked :class:`~repro.core.lru.LRUCache` instances,
and a columnar engine's own caches only gain entries, so two workers on
one key at worst compute the same value twice.  One caveat remains:
a sweep replaces the burden tables attached to a cached profile, so two
concurrent memory-model requests with different thread lists on one
workload can read each other's tables.

Shutdown drains: pending jobs run to completion before the workers exit,
so an orderly stop never drops accepted work (tested by
``tests/test_serve_queue.py``).
"""

from __future__ import annotations

import queue
import threading
from typing import Any, Callable, Optional

from repro.obs import get_metrics
from repro.serve.budgets import Deadline, DeadlineExceeded, QueueFull

#: Worker-loop sentinel; one per worker is enqueued at shutdown.
_STOP = object()


class Job:
    """One unit of accepted work: a closure plus its completion state."""

    __slots__ = ("fn", "deadline", "label", "result", "error", "_done")

    def __init__(self, fn: Callable[[], Any], deadline: Deadline, label: str) -> None:
        self.fn = fn
        self.deadline = deadline
        self.label = label
        self.result: Any = None
        self.error: Optional[BaseException] = None
        self._done = threading.Event()

    def finish(self, result: Any = None, error: Optional[BaseException] = None) -> None:
        """Complete the job with ``result`` or ``error`` and wake its
        waiters."""
        self.result = result
        self.error = error
        self._done.set()

    @property
    def done(self) -> bool:
        return self._done.is_set()

    def wait(self, timeout: Optional[float] = None) -> Any:
        """Block until completion; raise the job's error or a 504 on timeout.

        A timeout does not cancel the work — threads cannot be interrupted
        mid-simulation — so the computation completes and warms the caches
        for the client's retry; only the *wait* is bounded.
        """
        if not self._done.wait(timeout):
            raise DeadlineExceeded(
                f"{self.label}: no result within {self.deadline.timeout_s:.1f}s "
                "(the computation continues and will be cached for a retry)"
            )
        if self.error is not None:
            raise self.error
        return self.result


class WorkQueue:
    """Fixed worker pool over a bounded FIFO queue with admission control."""

    def __init__(self, workers: int = 1, depth: int = 16) -> None:
        if workers < 1:
            raise ValueError(f"workers must be >= 1, got {workers}")
        if depth < 1:
            raise ValueError(f"depth must be >= 1, got {depth}")
        self.depth = depth
        self.submitted = 0
        self.completed = 0
        self.rejected = 0
        self.expired = 0
        self.active = 0
        self._queue: queue.Queue = queue.Queue(maxsize=depth)
        self._lock = threading.Lock()
        self._closed = False
        self._workers = [
            threading.Thread(
                target=self._worker,
                name=f"repro-serve-worker-{i}",
                daemon=True,
            )
            for i in range(workers)
        ]
        for thread in self._workers:
            thread.start()

    # ------------------------------------------------------------ admission

    def submit(self, fn: Callable[[], Any], deadline: Deadline, label: str) -> Job:
        """Admit one closure, or refuse with a structured 429."""
        metrics = get_metrics()
        job = Job(fn, deadline, label)
        with self._lock:
            if self._closed:
                self.rejected += 1
                metrics.inc("serve.queue.rejected")
                raise QueueFull(f"{label}: the daemon is shutting down")
            try:
                self._queue.put_nowait(job)
            except queue.Full:
                self.rejected += 1
                metrics.inc("serve.queue.rejected")
                raise QueueFull(
                    f"{label}: work queue at capacity ({self.depth} pending); "
                    "retry with backoff"
                )
            self.submitted += 1
        metrics.inc("serve.queue.submitted")
        return job

    # ------------------------------------------------------------- execution

    def _worker(self) -> None:
        metrics = get_metrics()
        while True:
            item = self._queue.get()
            if item is _STOP:
                self._queue.task_done()
                return
            job: Job = item
            if job.deadline.expired():
                # Aged out while queued: dropping is cheaper than computing
                # a result nobody is waiting for.
                with self._lock:
                    self.expired += 1
                metrics.inc("serve.queue.expired")
                job.finish(error=DeadlineExceeded(f"{job.label}: expired while queued"))
                self._queue.task_done()
                continue
            with self._lock:
                self.active += 1
            try:
                job.finish(result=job.fn())
            except BaseException as exc:  # surfaced to the waiting client
                job.finish(error=exc)
            finally:
                with self._lock:
                    self.active -= 1
                    self.completed += 1
                metrics.inc("serve.queue.completed")
                self._queue.task_done()

    # -------------------------------------------------------------- teardown

    def shutdown(self, timeout: Optional[float] = None) -> bool:
        """Stop admission, drain pending work, join the workers.

        Returns True if every worker exited within ``timeout`` (None waits
        indefinitely).  Already-accepted jobs complete: the sentinels sit
        *behind* them in FIFO order.  Idempotent: a repeat call enqueues no
        new sentinels but re-joins any still-running workers, so a False
        (timed-out) shutdown can be retried and reports honestly.
        """
        with self._lock:
            first = not self._closed
            self._closed = True
        if first:
            # Sentinels go in exactly once; a repeat call must not enqueue
            # another round that a later worker would mistake for fresh stop
            # orders (or that would sit in a full queue forever).
            for _ in self._workers:
                self._queue.put(_STOP)
        # Always re-join: an earlier call that timed out on a stuck worker
        # reported False, and a repeat call must re-check rather than claim
        # success for workers that may still be alive.
        deadline = Deadline(timeout) if timeout is not None else None
        alive = False
        for thread in self._workers:
            if not thread.is_alive():
                continue
            thread.join(deadline.remaining() if deadline is not None else None)
            alive = alive or thread.is_alive()
        return not alive

    # ----------------------------------------------------------------- stats

    def stats(self) -> dict[str, int]:
        """A consistent snapshot of the queue's depth, workers and job
        counters (the serve daemon's ``GET /stats`` queue block)."""
        with self._lock:
            return {
                "depth": self.depth,
                "pending": self._queue.qsize(),
                "workers": len(self._workers),
                "alive": sum(1 for t in self._workers if t.is_alive()),
                "active": self.active,
                "submitted": self.submitted,
                "completed": self.completed,
                "rejected": self.rejected,
                "expired": self.expired,
            }
