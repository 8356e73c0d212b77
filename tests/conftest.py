"""Shared fixtures for the test suite."""

from __future__ import annotations

import os

import pytest

from repro.simhw import MachineConfig


@pytest.fixture(autouse=True, scope="session")
def _tracer_mode():
    """Honour ``REPRO_TRACE=1``: run the whole suite with the global tracer
    enabled, so every instrumentation hook executes live during tier-1 tests
    (the answers must be identical either way — tracing is observe-only).
    The one exception: the executor skips the section memo while tracing,
    so the tests that count memo hits (``TestSectionMemo`` in
    ``test_kernel_hotpath.py``, ``test_lru.py``'s
    ``test_execute_section_matches_serial`` and ``test_validate.py``'s
    ``test_poisoned_memo_is_caught``) fail under it."""
    if os.environ.get("REPRO_TRACE", "") not in ("", "0"):
        from repro.obs import get_tracer

        get_tracer().enabled = True
    yield


@pytest.fixture
def machine2() -> MachineConfig:
    """A 2-core machine with a short timeslice (preemption visible fast)."""
    return MachineConfig(n_cores=2, timeslice_cycles=10_000.0)


@pytest.fixture
def machine4() -> MachineConfig:
    return MachineConfig(n_cores=4)


@pytest.fixture
def machine12() -> MachineConfig:
    return MachineConfig(n_cores=12)


@pytest.fixture
def tiny_llc_machine() -> MachineConfig:
    """A machine with a small LLC so working sets overflow it in tests."""
    return MachineConfig(n_cores=4, llc_bytes=1 << 20)
