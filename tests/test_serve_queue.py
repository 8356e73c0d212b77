"""Unit tests for the daemon's budgets, work queue, and cache layer.

Everything here runs in-process with no sockets: the HTTP shell is a
thin adapter tested in ``test_serve.py``; the admission-control and
cache-lifetime logic lives in these classes.
"""

import threading

import pytest

from repro.errors import ReproError, ServeError
from repro.obs import MetricsRegistry, set_metrics
from repro.serve import (
    BudgetExceeded,
    CacheLayer,
    Deadline,
    DeadlineExceeded,
    LRUCache,
    QueueFull,
    RequestBudgets,
    WorkQueue,
)


@pytest.fixture(autouse=True)
def fresh_metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    yield registry


class TestErrorTaxonomy:
    def test_statuses_and_codes(self):
        assert QueueFull.status == 429 and QueueFull.code == "queue_full"
        assert BudgetExceeded.status == 413
        assert BudgetExceeded.code == "grid_budget_exceeded"
        assert DeadlineExceeded.status == 504
        assert DeadlineExceeded.code == "deadline_exceeded"

    def test_all_are_repro_errors(self):
        for exc in (QueueFull, BudgetExceeded, DeadlineExceeded):
            assert issubclass(exc, ServeError)
            assert issubclass(exc, ReproError)


class TestRequestBudgets:
    def test_grid_within_budget_passes(self):
        RequestBudgets(max_grid_points=10).check_grid(10)

    def test_grid_over_budget_refused(self):
        with pytest.raises(BudgetExceeded):
            RequestBudgets(max_grid_points=10).check_grid(11)

    def test_thread_count_over_budget_refused(self):
        with pytest.raises(BudgetExceeded):
            RequestBudgets(max_threads=64).check_threads([2, 65])

    def test_non_integer_threads_refused(self):
        for bad in ([2, "four"], [0], [-1], [2.5]):
            with pytest.raises(ServeError):
                RequestBudgets().check_threads(bad)

    def test_clamp_timeout_defaults_to_ceiling(self):
        assert RequestBudgets(timeout_s=30.0).clamp_timeout(None) == 30.0

    def test_clamp_timeout_caps_the_ask(self):
        budgets = RequestBudgets(timeout_s=30.0)
        assert budgets.clamp_timeout(5) == 5.0
        assert budgets.clamp_timeout(300) == 30.0

    def test_clamp_timeout_rejects_garbage(self):
        for bad in ("soon", 0, -1):
            with pytest.raises(ServeError):
                RequestBudgets().clamp_timeout(bad)


class TestDeadline:
    def test_remaining_counts_down_and_floors_at_zero(self):
        deadline = Deadline(0.0)
        assert deadline.remaining() == 0.0
        assert deadline.expired()

    def test_fresh_deadline_not_expired(self):
        deadline = Deadline(60.0)
        assert not deadline.expired()
        assert 0.0 < deadline.remaining() <= 60.0


class TestLRUCache:
    def test_hit_miss_counters(self, fresh_metrics):
        # A plain LRUCache counts on itself only; the serve layer's cache
        # classes also publish serve.cache.<class>.* to the registry.
        cache = LRUCache("t", maxsize=4)
        assert cache.get("a") is None
        cache.put("a", 1)
        assert cache.get("a") == 1
        info = cache.info()
        assert info["hits"] == 1 and info["misses"] == 1
        assert not fresh_metrics.counters()
        responses = CacheLayer(response_size=1).responses
        assert responses.get("a") is None
        responses.put("a", 1)
        responses.put("b", 2)
        assert responses.get("b") == 2
        counters = fresh_metrics.counters()
        assert counters["serve.cache.response.hits"] == 1
        assert counters["serve.cache.response.misses"] == 1
        assert counters["serve.cache.response.evictions"] == 1

    def test_lru_eviction_order(self):
        cache = LRUCache("t", maxsize=2)
        cache.put("a", 1)
        cache.put("b", 2)
        cache.get("a")  # refresh "a": "b" is now least recent
        cache.put("c", 3)
        assert cache.get("b") is None
        assert cache.get("a") == 1 and cache.get("c") == 3
        assert cache.info()["evictions"] == 1

    def test_on_evict_runs_for_capacity_and_clear(self):
        seen = []
        cache = LRUCache("t", maxsize=1, on_evict=seen.append)
        cache.put("a", "old")
        cache.put("b", "new")
        assert seen == ["old"]
        assert cache.clear() == 1
        assert seen == ["old", "new"]
        assert len(cache) == 0

    def test_get_or_create_builds_once(self):
        calls = []
        cache = LRUCache("t", maxsize=4)

        def factory():
            calls.append(1)
            return "built"

        assert cache.get_or_create("k", factory) == "built"
        assert cache.get_or_create("k", factory) == "built"
        assert len(calls) == 1

    def test_get_or_create_race_first_put_wins(self, fresh_metrics):
        # Four racing creators on one key: all of them build (the factory
        # runs outside the lock), but every racer returns the single value
        # that won the insert, and the losing builds are released through
        # on_evict instead of leaking.
        released = []
        cache = LRUCache("t", maxsize=4, on_evict=released.append)
        barrier = threading.Barrier(4)
        builds = []
        results = [None] * 4

        def run(i):
            def factory():
                barrier.wait(10.0)
                builds.append(i)
                return f"built-{i}"

            results[i] = cache.get_or_create("k", factory)

        threads = [threading.Thread(target=run, args=(i,)) for i in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10.0)
        assert len(builds) == 4
        assert len(set(results)) == 1
        winner = results[0]
        assert cache.get("k") == winner
        assert sorted(released) == sorted(
            f"built-{i}" for i in range(4) if f"built-{i}" != winner
        )
        assert cache.info()["size"] == 1
        assert cache.races == 3

    def test_none_values_rejected(self):
        # None is the miss signal: caching it would make the entry
        # indistinguishable from a miss and rebuilt forever.
        cache = LRUCache("t", maxsize=4)
        with pytest.raises(ValueError, match="miss signal"):
            cache.put("k", None)
        with pytest.raises(ValueError, match="miss signal"):
            cache.get_or_create("k", lambda: None)

    def test_falsy_non_none_values_are_cached(self):
        cache = LRUCache("t", maxsize=4)
        cache.put("zero", 0)
        assert cache.get("zero") == 0
        assert cache.get_or_create("zero", lambda: 99) == 0

    def test_bad_maxsize_rejected(self):
        with pytest.raises(ValueError):
            LRUCache("t", maxsize=0)


class TestWorkQueue:
    def test_submit_runs_and_returns(self):
        q = WorkQueue(workers=1, depth=4)
        job = q.submit(lambda: 41 + 1, Deadline(10.0), label="t")
        assert job.wait(10.0) == 42
        assert q.stats()["completed"] == 1
        q.shutdown(timeout=5.0)

    def test_worker_error_reraised_to_waiter(self):
        q = WorkQueue(workers=1, depth=4)

        def boom():
            raise ValueError("from the worker")

        job = q.submit(boom, Deadline(10.0), label="t")
        with pytest.raises(ValueError, match="from the worker"):
            job.wait(10.0)
        q.shutdown(timeout=5.0)

    def test_single_worker_preserves_fifo_order(self):
        q = WorkQueue(workers=1, depth=16)
        order = []
        jobs = [
            q.submit(lambda i=i: order.append(i), Deadline(10.0), label="t")
            for i in range(8)
        ]
        for job in jobs:
            job.wait(10.0)
        assert order == list(range(8))
        q.shutdown(timeout=5.0)

    def test_full_queue_refuses_with_429(self, fresh_metrics):
        started, release = threading.Event(), threading.Event()
        q = WorkQueue(workers=1, depth=2)

        def block():
            started.set()
            release.wait()

        blocker = q.submit(block, Deadline(30.0), label="blocker")
        assert started.wait(10.0)  # the worker holds it: the queue is empty
        pending = [
            q.submit(lambda: None, Deadline(30.0), label="fill") for _ in range(2)
        ]
        with pytest.raises(QueueFull):
            q.submit(lambda: None, Deadline(30.0), label="overflow")
        assert q.stats()["rejected"] == 1
        assert fresh_metrics.counters()["serve.queue.rejected"] == 1
        release.set()
        for job in (blocker, *pending):
            job.wait(10.0)
        q.shutdown(timeout=5.0)

    def test_job_expired_while_queued_is_dropped(self):
        release = threading.Event()
        q = WorkQueue(workers=1, depth=4)
        blocker = q.submit(release.wait, Deadline(30.0), label="blocker")
        ran = []
        stale = q.submit(lambda: ran.append(1), Deadline(0.0), label="stale")
        release.set()
        blocker.wait(10.0)
        with pytest.raises(DeadlineExceeded):
            stale.wait(10.0)
        assert not ran
        assert q.stats()["expired"] == 1
        q.shutdown(timeout=5.0)

    def test_wait_timeout_raises_deadline_exceeded(self):
        release = threading.Event()
        q = WorkQueue(workers=1, depth=4)
        job = q.submit(release.wait, Deadline(0.05), label="slow")
        with pytest.raises(DeadlineExceeded):
            job.wait(0.05)
        release.set()
        q.shutdown(timeout=5.0)

    def test_shutdown_drains_accepted_work(self):
        q = WorkQueue(workers=1, depth=16)
        done = []
        jobs = [
            q.submit(lambda i=i: done.append(i), Deadline(30.0), label="t")
            for i in range(6)
        ]
        assert q.shutdown(timeout=10.0)
        assert sorted(done) == list(range(6))
        assert all(job.done for job in jobs)

    def test_submit_after_shutdown_refused(self):
        q = WorkQueue(workers=1, depth=4)
        q.shutdown(timeout=5.0)
        with pytest.raises(QueueFull, match="shutting down"):
            q.submit(lambda: None, Deadline(10.0), label="late")

    def test_shutdown_idempotent(self):
        q = WorkQueue(workers=1, depth=4)
        assert q.shutdown(timeout=5.0)
        assert q.shutdown(timeout=5.0)

    def test_shutdown_timeout_reports_stuck_worker(self):
        # A worker wedged in a job outlives the shutdown deadline: the
        # call must return False, stats() must report the zombie as alive,
        # and a *repeat* shutdown must re-check instead of claiming
        # success — until the job unblocks, after which shutdown succeeds
        # and the worker really exits.
        release = threading.Event()
        q = WorkQueue(workers=1, depth=4)
        q.submit(release.wait, Deadline(30.0), label="stuck")
        assert q.stats()["alive"] == 1
        assert q.shutdown(timeout=0.1) is False
        assert q.stats()["alive"] == 1
        assert q.shutdown(timeout=0.1) is False  # idempotent *and* honest
        release.set()
        assert q.shutdown(timeout=10.0) is True
        assert q.stats()["alive"] == 0

    def test_stats_reports_alive_workers(self):
        q = WorkQueue(workers=2, depth=4)
        stats = q.stats()
        assert stats["workers"] == 2 and stats["alive"] == 2
        assert q.shutdown(timeout=10.0)
        assert q.stats()["alive"] == 0

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError):
            WorkQueue(workers=0)
        with pytest.raises(ValueError):
            WorkQueue(depth=0)


class TestCacheLayer:
    def test_predictor_cached_per_machine_shape(self):
        layer = CacheLayer()
        first = layer.predictor_for(4)
        again = layer.predictor_for(4)
        other = layer.predictor_for(6)
        assert first is again
        assert first is not other
        assert layer.predictors.info()["hits"] == 1

    def test_profile_cached_per_workload_and_machine(self):
        layer = CacheLayer()
        prophet, _ = layer.predictor_for(4)
        first = layer.profile_for("npb_ep", 4, prophet)
        again = layer.profile_for("npb_ep", 4, prophet)
        assert first is again
        assert layer.profiles.info()["hits"] == 1

    def test_evicted_predictor_is_reset(self):
        layer = CacheLayer(predictor_size=1)
        _, predictor = layer.predictor_for(4)
        predictor._engines.put("sentinel", object())
        layer.predictor_for(6)  # evicts the 4-core pair
        assert len(predictor._engines) == 0

    def test_stats_shape(self):
        layer = CacheLayer()
        layer.predictor_for(4)
        stats = layer.stats()
        assert set(stats) == {"classes", "predictors"}
        for name in ("predictor", "profile", "response", "section_memo"):
            assert name in stats["classes"]
        assert "4" in stats["predictors"]
        assert "engines" in stats["predictors"]["4"]

    def test_clear_returns_counts_and_resets(self):
        layer = CacheLayer()
        prophet, predictor = layer.predictor_for(4)
        layer.profile_for("npb_ep", 4, prophet)
        layer.responses.put("k", {"v": 1})
        predictor._engines.put("sentinel", object())
        cleared = layer.clear()
        assert cleared["predictor"] == 1
        assert cleared["profile"] == 1
        assert cleared["response"] == 1
        assert len(predictor._engines) == 0
        assert len(layer.predictors) == 0
