"""Shared task and scheduling vocabulary for the parallel runtimes.

A *task body* is a zero-argument callable returning a fresh generator of
simulated-OS requests — the unit both runtimes execute.  Factories (rather
than generators) are required because a body may run more than once across
estimates and because generators are single-shot.

:class:`Schedule` captures OpenMP's loop-scheduling clause; the paper
evaluates ``(static,1)``, ``(static)``, and ``(dynamic,1)`` (Section VII-B).
"""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass
from typing import Any, Callable, Generator

from repro.errors import ConfigurationError

#: A factory producing a fresh generator of sim-OS requests.
TaskBody = Callable[[], Generator[Any, Any, Any]]


class ScheduleKind(enum.Enum):
    """The OpenMP loop-schedule families the runtimes implement."""

    STATIC = "static"
    STATIC_CHUNK = "static_chunk"
    DYNAMIC = "dynamic"
    GUIDED = "guided"


@dataclass(frozen=True)
class Schedule:
    """An OpenMP-style loop schedule.

    ``Schedule.static()`` — contiguous blocks, one per thread.
    ``Schedule.static_chunk(c)`` — round-robin chunks of ``c`` iterations.
    ``Schedule.dynamic(c)`` — first-come-first-served chunks of ``c``.
    ``Schedule.guided(c)`` — first-come-first-served chunks shrinking
    proportionally to the remaining iterations (libgomp: remaining/t),
    never below ``c``.
    """

    kind: ScheduleKind
    chunk: int = 1

    def __post_init__(self) -> None:
        if self.chunk < 1:
            raise ConfigurationError(f"chunk must be >= 1, got {self.chunk}")

    @staticmethod
    def static() -> "Schedule":
        return Schedule(ScheduleKind.STATIC)

    @staticmethod
    def static_chunk(chunk: int = 1) -> "Schedule":
        return Schedule(ScheduleKind.STATIC_CHUNK, chunk)

    @staticmethod
    def dynamic(chunk: int = 1) -> "Schedule":
        return Schedule(ScheduleKind.DYNAMIC, chunk)

    @staticmethod
    def guided(chunk: int = 1) -> "Schedule":
        return Schedule(ScheduleKind.GUIDED, chunk)

    @staticmethod
    def parse(spec: str) -> "Schedule":
        """Parse ``"static"``, ``"static,1"``, ``"dynamic,4"``…  (the paper's
        notation for OpenMP schedule clauses)."""
        text = spec.strip().lower().replace("(", "").replace(")", "")
        if "," in text:
            kind, _, chunk_text = text.partition(",")
            chunk = int(chunk_text)
        else:
            kind, chunk = text, 0
        kind = kind.strip()
        if kind == "static":
            return Schedule.static() if chunk == 0 else Schedule.static_chunk(chunk)
        if kind == "dynamic":
            return Schedule.dynamic(max(1, chunk))
        if kind == "guided":
            return Schedule.guided(max(1, chunk))
        raise ConfigurationError(f"unknown schedule spec {spec!r}")

    @property
    def label(self) -> str:
        if self.kind is ScheduleKind.STATIC:
            return "static"
        if self.kind is ScheduleKind.STATIC_CHUNK:
            return f"static,{self.chunk}"
        if self.kind is ScheduleKind.GUIDED:
            return f"guided,{self.chunk}"
        return f"dynamic,{self.chunk}"

    @property
    def is_dynamic_family(self) -> bool:
        """True for schedules whose chunks are grabbed first-come-first-
        served at run time (dynamic and guided)."""
        return self.kind in (ScheduleKind.DYNAMIC, ScheduleKind.GUIDED)

    def static_chunks(self, n_iters: int, n_threads: int) -> list[list[range]]:
        """Each thread's dispatch chunks under a static schedule, in order.

        Mirrors libgomp: plain ``static`` deals one contiguous block per
        thread (the first ``n_iters mod n_threads`` threads get one extra;
        an empty block is no chunk); ``static,c`` deals chunks of ``c``
        round-robin.
        """
        if self.is_dynamic_family:
            raise ConfigurationError(
                f"{self.label} schedules have no static assignment"
            )
        if self.kind is ScheduleKind.STATIC:
            base, extra = divmod(n_iters, n_threads)
            chunks: list[list[range]] = []
            start = 0
            for tid in range(n_threads):
                count = base + (1 if tid < extra else 0)
                chunks.append([range(start, start + count)] if count else [])
                start += count
            return chunks
        c = self.chunk
        return [
            [range(lo, min(lo + c, n_iters))
             for lo in range(tid * c, n_iters, n_threads * c)]
            for tid in range(n_threads)
        ]

    def static_assignment(self, n_iters: int, n_threads: int) -> list[list[int]]:
        """Iteration indices owned by each thread under a static schedule:
        its :meth:`static_chunks`, concatenated."""
        return [
            list(itertools.chain.from_iterable(chunks))
            for chunks in self.static_chunks(n_iters, n_threads)
        ]

    def chunks(self, n_iters: int, n_threads: int = 1) -> list[list[int]]:
        """The iteration space cut into dispatch chunks.

        For ``guided`` the chunk sizes shrink with the remaining iteration
        count (libgomp semantics: ``max(chunk, remaining / n_threads)``),
        so ``n_threads`` matters; other kinds ignore it.
        """
        if self.kind is ScheduleKind.GUIDED:
            out: list[list[int]] = []
            start = 0
            while start < n_iters:
                remaining = n_iters - start
                size = max(self.chunk, -(-remaining // max(1, n_threads)))
                out.append(list(range(start, min(start + size, n_iters))))
                start += size
            return out
        c = self.chunk if self.kind is not ScheduleKind.STATIC else n_iters
        return [
            list(range(s, min(s + c, n_iters)))
            for s in range(0, n_iters, max(1, c))
        ]
