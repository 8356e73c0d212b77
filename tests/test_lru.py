"""The locked LRU cache and the caches built on it, under thread contention.

Serve workers share the process-wide section memo and each cached
predictor's engine cache.  A lookup and its recency refresh must be one
step: with a tiny bound, evictions interleave with lookups constantly, and
no thread may see an exception or an answer that differs from a
single-threaded run.
"""

from __future__ import annotations

import sys
import threading
import time
from collections import OrderedDict

import pytest

import repro.core.batch as batch_mod
import repro.core.executor as executor_mod
from repro import ParallelProphet
from repro.core.batch import BatchPredictor, SweepTask
from repro.core.executor import ParallelExecutor, ReplayMode
from repro.core.lru import LRUCache
from repro.simhw import MachineConfig
from repro.simhw.memtrace import AccessPattern, MemSpec

M4 = MachineConfig(n_cores=4)
N_THREADS = 4


def locked_loop(tr):
    with tr.section("locked"):
        for i in range(6):
            with tr.task():
                tr.compute(3_000 + 500 * i)
                with tr.lock(1):
                    tr.compute(400)


def memory_loop(tr):
    with tr.section("mem"):
        for i in range(6):
            with tr.task():
                tr.compute(
                    10_000 * (1 + i % 2),
                    mem=MemSpec(AccessPattern.STREAMING, bytes_touched=400_000),
                )


def nested_loop(tr):
    with tr.section("outer"):
        for _ in range(3):
            with tr.task():
                tr.compute(1_000)
                with tr.section("inner"):
                    for _ in range(2):
                        with tr.task():
                            tr.compute(2_000)


class _YieldingDict(OrderedDict):
    """An LRU store whose lookups hand the interpreter to another thread:
    it widens the window between a lookup and its recency refresh, where
    an unlocked LRU lets a concurrent eviction in (``KeyError``)."""

    def get(self, key, default=None):
        value = super().get(key, default)
        time.sleep(0)
        return value


def _tiny(name, maxsize):
    cache = LRUCache(name, maxsize)
    cache._data = _YieldingDict()
    return cache


@pytest.fixture
def busy_switching():
    """Switch threads as often as the interpreter allows."""
    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    yield
    sys.setswitchinterval(old)


def _hammer(work, n=N_THREADS):
    """Run ``work(i)`` on ``n`` threads at once; returns results by
    thread, re-raising the first exception any thread hit."""
    barrier = threading.Barrier(n)
    results = [None] * n
    errors = []

    def run(i):
        barrier.wait(30.0)
        try:
            results[i] = work(i)
        except Exception as exc:  # re-raised below, after every join
            errors.append(exc)

    threads = [threading.Thread(target=run, args=(i,)) for i in range(n)]
    for t in threads:
        t.start()
    for t in threads:
        t.join(120.0)
    assert not any(t.is_alive() for t in threads)
    if errors:
        raise errors[0]
    return results


class TestLRUCache:
    def test_info_counts_itself(self):
        cache = LRUCache("t", maxsize=2)
        assert cache.get("a") is None
        cache.put("a", 1)
        cache.put("b", 2)
        cache.put("c", 3)
        assert cache.get("c") == 3
        assert cache.info() == {
            "hits": 1, "misses": 1, "evictions": 1, "size": 2, "maxsize": 2,
        }

    def test_clear_zeroes_counters(self):
        cache = LRUCache("t", maxsize=2)
        cache.put("a", 1)
        cache.get("a")
        assert cache.clear() == 1
        assert cache.info() == {
            "hits": 0, "misses": 0, "evictions": 0, "size": 0, "maxsize": 2,
        }

    def test_concurrent_lookups_on_a_tiny_cache(self, busy_switching):
        cache = _tiny("t", 2)

        def work(i):
            seen = []
            for n in range(2_000):
                key = (n * (i + 1)) % 3  # overlapping keys, mixed strides
                value = cache.get(key)
                if value is None:
                    cache.put(key, key * 10)
                else:
                    seen.append(value == key * 10)
            return seen

        results = _hammer(work)
        assert all(all(seen) for seen in results)
        info = cache.info()
        assert info["hits"] + info["misses"] == N_THREADS * 2_000
        assert info["size"] <= 2


class TestSharedReplayCaches:
    @pytest.fixture(autouse=True)
    def _tiny_section_memo(self, monkeypatch):
        memo = _tiny("section_memo", 2)
        monkeypatch.setattr(executor_mod, "_SECTION_MEMO", memo)

    def test_execute_section_matches_serial(self, busy_switching):
        prophet = ParallelProphet(machine=M4)
        sections = [
            sec
            for program in (locked_loop, memory_loop, nested_loop)
            for sec in prophet.profile(program).tree.top_level_sections()
        ]
        keys = [
            (sec, paradigm, t, mode)
            for sec in sections
            for paradigm in ("omp", "cilk")
            for t in (2, 3)
            for mode in (ReplayMode.REAL, ReplayMode.FAKE)
        ]

        def replay(key):
            sec, paradigm, t, mode = key
            executor = ParallelExecutor(M4, paradigm=paradigm)
            run = executor.execute_section(sec, t, mode, burden=1.25)
            return (run.gross_cycles, run.traversal_overhead, run.preemptions)

        serial = [replay(key) for key in keys]

        def work(i):
            order = keys[i:] + keys[:i]  # overlapping keys, rotated
            return {id(k): replay(k) for k in order for _ in range(2)}

        for answers in _hammer(work):
            assert [answers[id(k)] for k in keys] == serial
        assert executor_mod._SECTION_MEMO.info()["evictions"] > 0

    def test_shared_predictor_run_matches_serial(
        self, busy_switching, monkeypatch
    ):
        monkeypatch.setattr(batch_mod, "ENGINE_CACHE_SIZE", 1)
        prophet = ParallelProphet(machine=M4)
        profiles = {
            "locked": prophet.profile(locked_loop),
            "mem": prophet.profile(memory_loop),
            "nested": prophet.profile(nested_loop),
        }
        tasks = [
            SweepTask(
                workload=name,
                schedule=schedule,
                n_threads=t,
                methods=methods,
                paradigm=paradigm,
            )
            for name in profiles
            for schedule in ("static", "dynamic,1")
            for t in (2, 4)
            for paradigm, methods in (
                ("omp", ("ff", "syn", "real")),
                ("cilk", ("syn", "real")),
            )
        ]
        predictor = BatchPredictor(prophet, jobs=1)
        predictor._engines._data = _YieldingDict()
        # The serial reference also calibrates the prophet.  Every thread
        # below runs the same grid, so the burden tables each run attaches
        # to the shared profiles are identical.
        serial = predictor.run(tasks, profiles)

        def work(i):
            order = tasks[i:] + tasks[:i]
            return dict(predictor.run(order, profiles))

        for answers in _hammer(work):
            assert [(task, answers[task]) for task in tasks] == serial
        assert predictor.cache_info()["engines"]["size"] == 1
