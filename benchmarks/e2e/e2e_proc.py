"""Child processes the benchmark starts, with bounded reads and a kill on
every exit path."""

from __future__ import annotations

import queue
import subprocess
import sys
import threading
from time import monotonic
from typing import Optional


class ChildTimeout(RuntimeError):
    """A child did not print the expected line in time."""


class Child:
    """A Python child whose stdout lines are read on a background thread.

    Use as a context manager: leaving the block, normally or by an
    exception, kills the child if it is still running and waits for it.
    """

    def __init__(self, argv: list[str]) -> None:
        self.proc = subprocess.Popen(
            [sys.executable, *argv],
            stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE,
            text=True,
        )
        self._lines: queue.Queue = queue.Queue()
        self._reader = threading.Thread(target=self._read, name="e2e-child-stdout", daemon=True)
        self._reader.start()

    def _read(self) -> None:
        for line in self.proc.stdout:
            self._lines.put(line.rstrip("\n"))
        self._lines.put(None)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def readline(self, timeout: float) -> str:
        """The next stdout line; raises on EOF or after ``timeout`` s."""
        try:
            line = self._lines.get(timeout=max(0.0, timeout))
        except queue.Empty:
            raise ChildTimeout(f"child {self.pid}: no output within {timeout:.0f}s") from None
        if line is None:
            raise ChildTimeout(f"child {self.pid} exited (code {self.proc.wait()})")
        return line

    def wait_for(self, predicate, timeout: float) -> str:
        """Skip lines until one satisfies ``predicate``; return it."""
        deadline = monotonic() + timeout
        while True:
            line = self.readline(deadline - monotonic())
            if predicate(line):
                return line

    def wait(self, timeout: float) -> Optional[int]:
        """Exit code, or None if still running after ``timeout`` s."""
        try:
            return self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            return None

    def kill(self) -> None:
        if self.proc.poll() is None:
            self.proc.kill()
        self.proc.wait()
        self._reader.join(timeout=5.0)

    def __enter__(self) -> "Child":
        return self

    def __exit__(self, *exc) -> None:
        self.kill()
