"""Schedule-space exploration: handoff policies, envelopes, reproducibility.

Covers the lock-interleaving exploration stack bottom-up: the mutex's
pluggable waiter selection, the kernel's policy plumbing, per-run counter
hygiene, the Explorer's envelopes (FIFO always inside, byte-reproducible
across the worker pool), and the differential harness's envelope-based
classification of lock-bearing programs.
"""

from __future__ import annotations

import random

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.executor import ParallelExecutor, ReplayMode, clear_section_memo
from repro.core.profiler import IntervalProfiler
from repro.core.prophet import ParallelProphet
from repro.core.report import SpeedupEnvelope, SpeedupReport
from repro.errors import ConfigurationError
from repro.explore import Explorer, ScheduleVariant, default_variants, verify_envelope
from repro.obs import MetricsRegistry, Tracer, set_metrics, set_tracer
from repro.runtime import RuntimeOverheads, Schedule
from repro.simhw import MachineConfig
from repro.simos import (
    Acquire,
    Compute,
    HANDOFF_POLICIES,
    Join,
    Release,
    SimKernel,
    SimMutex,
    SimThread,
    Spawn,
    normalize_handoff,
)
from repro.validate import (
    ENVELOPE_SLACK,
    DifferentialHarness,
    GridPoint,
    TolerancePolicy,
    build_program,
    description_has_locks,
    generate_locky_program,
)

M4 = MachineConfig(n_cores=4)
ZERO_OH = RuntimeOverheads().scaled(0.0)


def _stub_thread(tid: int, work: float) -> SimThread:
    t = SimThread(tid, iter(()))
    t.work_done = work
    return t


class TestHandoffSelection:
    """SimMutex.pop_waiter picks per policy; normalize_handoff canonicalises."""

    def _mutex_with(self, works):
        mutex = SimMutex()
        for tid, w in enumerate(works):
            mutex.waiters.append(_stub_thread(tid, w))
        return mutex

    def test_fifo_pops_arrival_order(self):
        mutex = self._mutex_with([5.0, 1.0, 3.0])
        order = [mutex.pop_waiter("fifo").tid for _ in range(3)]
        assert order == [0, 1, 2]

    def test_lifo_pops_reverse_arrival_order(self):
        mutex = self._mutex_with([5.0, 1.0, 3.0])
        order = [mutex.pop_waiter("lifo").tid for _ in range(3)]
        assert order == [2, 1, 0]

    def test_adversarial_pops_least_progress_first(self):
        # work_done is the progress proxy: least done ≈ longest remaining.
        mutex = self._mutex_with([5.0, 1.0, 3.0])
        order = [mutex.pop_waiter("adversarial").tid for _ in range(3)]
        assert order == [1, 2, 0]

    def test_adversarial_ties_break_by_arrival(self):
        mutex = self._mutex_with([2.0, 2.0, 2.0])
        order = [mutex.pop_waiter("adversarial").tid for _ in range(3)]
        assert order == [0, 1, 2]

    def test_random_is_seed_deterministic(self):
        orders = []
        for _ in range(2):
            mutex = self._mutex_with([0.0] * 6)
            rng = random.Random(42)
            orders.append(
                [mutex.pop_waiter("random", rng).tid for _ in range(6)]
            )
        assert orders[0] == orders[1]
        assert sorted(orders[0]) == list(range(6))

    def test_normalize_accepts_alias_and_rejects_unknown(self):
        assert normalize_handoff("seeded-random") == "random"
        for p in HANDOFF_POLICIES:
            assert normalize_handoff(p) == p
        with pytest.raises(ConfigurationError):
            normalize_handoff("telepathic")


def _contended_end_time(machine, handoff, seed=0, pres=(300.0, 600.0, 900.0)):
    """End time + acquisition order of 3 waiters contending for one mutex."""
    mutex = SimMutex()
    order: list[str] = []

    def waiter(name, pre):
        yield Compute(cycles=pre)
        yield Acquire(mutex)
        order.append(name)
        yield Compute(cycles=2_000.0)
        yield Release(mutex)

    def main():
        yield Acquire(mutex)
        kids = []
        for name, pre in zip("abc", pres):
            kids.append((yield Spawn(waiter(name, pre))))
        # Hold long enough for every waiter to enqueue (arrival order a,b,c).
        yield Compute(cycles=5_000.0)
        yield Release(mutex)
        for kid in kids:
            yield Join(kid)

    kernel = SimKernel(machine, handoff=handoff, handoff_seed=seed)
    kernel.spawn(main())
    end = kernel.run()
    return end, order, kernel


class TestKernelHandoff:
    def test_fifo_is_default_and_hands_off_in_arrival_order(self, machine4):
        end_default, order_default, _ = _contended_end_time(machine4, "fifo")
        kernel = SimKernel(machine4)
        assert kernel.handoff == "fifo"
        assert order_default == ["a", "b", "c"]

    def test_lifo_reverses_waiter_order(self, machine4):
        _, order, _ = _contended_end_time(machine4, "lifo")
        assert order == ["c", "b", "a"]

    def test_random_same_seed_reproduces(self, machine4):
        end1, order1, _ = _contended_end_time(machine4, "random", seed=7)
        end2, order2, _ = _contended_end_time(machine4, "random", seed=7)
        assert (end1, order1) == (end2, order2)

    def test_adversarial_tracks_progress_and_prefers_it(self, machine4):
        # Arrival order a,b,c; work done at enqueue 300/600/900 → the
        # least-progress pick is again "a", with progress tracked.
        _, order, kernel = _contended_end_time(machine4, "adversarial")
        assert order == ["a", "b", "c"]

    def test_progress_tracking_only_under_adversarial(self, machine4):
        mutex = SimMutex()

        def main():
            yield Acquire(mutex)
            yield Compute(cycles=1_000.0)
            yield Release(mutex)

        for policy, expect_tracked in (("fifo", False), ("adversarial", True)):
            kernel = SimKernel(machine4, handoff=policy)
            root = kernel.spawn(main())
            kernel.run()
            assert (root.work_done > 0) == expect_tracked


class TestCounterHygiene:
    """Satellite: per-run lock counters must not leak between replays."""

    def test_two_seeded_replays_report_identical_contention(self):
        rng = random.Random(11)
        profile = IntervalProfiler(M4).profile(
            build_program(generate_locky_program(rng))
        )
        stats = []
        for _ in range(2):
            clear_section_memo()  # replay both times, not a memo hit
            ex = ParallelExecutor(
                M4,
                schedule=Schedule.static_chunk(1),
                overheads=ZERO_OH,
                handoff="random",
                handoff_seed=3,
            )
            result = ex.execute_profile(profile.tree, 4, ReplayMode.REAL)
            stats.append((result.lock_acquires, result.lock_contended))
        assert stats[0] == stats[1]
        assert stats[0][0] > 0  # the corpus program really takes locks

    def test_kernel_counter_matches_mutex_counters(self, machine4):
        _, _, kernel = _contended_end_time(machine4, "fifo")
        assert kernel.lock_acquires == 4  # master + 3 waiters
        assert kernel.lock_contended == 3

    def test_mutex_reset_counters(self):
        mutex = SimMutex()
        mutex.acquires = 5
        mutex.contended_acquires = 3
        mutex.reset_counters()
        assert mutex.acquires == 0
        assert mutex.contended_acquires == 0


class TestVariants:
    def test_default_variants_lead_with_fifo(self):
        variants = default_variants(samples=6, seed=9)
        assert variants[0] == ScheduleVariant("fifo")
        assert [v.handoff for v in variants[:3]] == ["fifo", "lifo", "adversarial"]
        assert [v.seed for v in variants[3:]] == [9, 10, 11]

    def test_variant_labels_round_trip(self):
        for v in default_variants(samples=8, seed=2):
            assert ScheduleVariant.parse(v.label) == v

    def test_explorer_prepends_missing_fifo(self):
        explorer = Explorer(variants=[ScheduleVariant("lifo")])
        assert explorer.variants[0].handoff == "fifo"

    def test_samples_must_be_positive(self):
        with pytest.raises(ConfigurationError):
            default_variants(samples=0)


@st.composite
def locky_programs(draw):
    """Seeded lock-bearing program descriptions (no memory, big leaves)."""
    seed = draw(st.integers(min_value=0, max_value=10_000))
    return generate_locky_program(random.Random(seed))


class TestExplorer:
    def _prophet(self):
        return ParallelProphet(machine=M4, overheads=ZERO_OH)

    def _locky_profile(self, seed=23):
        items = generate_locky_program(random.Random(seed))
        return IntervalProfiler(M4).profile(build_program(items))

    def test_report_carries_fifo_estimates_and_envelopes(self):
        prophet = self._prophet()
        profile = self._locky_profile()
        report = prophet.explore(profile, threads=[2, 4], memory_model=False)
        assert len(report.estimates) == 2  # one fifo point per thread count
        assert len(report.envelopes) == 2
        for t in (2, 4):
            env = report.envelope(n_threads=t)
            fifo = report.speedup(method="syn", n_threads=t)
            assert dict(env.samples)["fifo"] == fifo
            assert env.lo <= fifo <= env.hi
            assert env.n_samples == 6

    def test_fifo_estimate_byte_identical_to_plain_predict(self):
        prophet = self._prophet()
        profile = self._locky_profile()
        plain = prophet.predict(
            profile, threads=[4], methods=("syn",), memory_model=False,
        )
        explored = prophet.explore(profile, threads=[4], memory_model=False)
        assert explored.speedup(method="syn", n_threads=4) == plain.speedup(
            method="syn", n_threads=4
        )

    def test_pool_fanout_is_bit_reproducible(self):
        profile = self._locky_profile(seed=31)
        reports = []
        for jobs in (1, 2):
            prophet = self._prophet()
            report = Explorer(prophet, samples=5, seed=4, jobs=jobs).explore(
                {"w": profile}, threads=[4], memory_model=False
            )["w"]
            reports.append(report.envelope(n_threads=4))
        assert reports[0] == reports[1]

    def test_real_envelope_method(self):
        prophet = self._prophet()
        profile = self._locky_profile(seed=5)
        report = Explorer(prophet, samples=4).explore(
            {"w": profile}, threads=[4], method="real", memory_model=False
        )["w"]
        env = report.envelope(n_threads=4)
        assert env.method == "real"
        assert env.lo <= env.hi

    def test_ff_method_rejected(self):
        with pytest.raises(ConfigurationError):
            Explorer(self._prophet()).explore(
                {"w": self._locky_profile()}, threads=[2], method="ff"
            )

    def test_exploration_does_not_poison_fifo_memo(self):
        prophet = self._prophet()
        profile = self._locky_profile(seed=13)
        before = prophet.predict(
            profile, threads=[4], methods=("syn",), memory_model=False
        ).speedup(method="syn", n_threads=4)
        prophet.explore(profile, threads=[4], memory_model=False)
        after = prophet.predict(
            profile, threads=[4], methods=("syn",), memory_model=False
        ).speedup(method="syn", n_threads=4)
        assert before == after

    def test_lock_free_variants_replay_nothing(self):
        """Only lock handoffs tell variants apart, and the columnar engine
        answers lock-free sections without consulting the policy: every
        variant of every point comes from its point cache, and no section
        is replayed through the executor."""

        def lock_free(tr):
            tr.compute(20_000)
            for name in ("a", "b"):
                with tr.section(name):
                    for i in range(12):
                        with tr.task():
                            tr.compute(8_000 + 3_000 * (i % 3))

        prophet = self._prophet()
        profile = prophet.profile(lock_free)
        mine = MetricsRegistry()
        old = set_metrics(mine)
        try:
            report = Explorer(prophet, samples=4).explore(
                {"w": profile},
                threads=[2, 4],
                schedules=["static", "dynamic,1"],
                memory_model=False,
            )["w"]
        finally:
            set_metrics(old)
        assert len(report.envelopes) == 4
        assert all(env.lo == env.hi for env in report.envelopes)
        assert mine.counter_value("columnar.hits") == 16.0
        assert mine.counter_value("replay.sections") == 0

    def test_lock_free_delegated_sections_replay_once_per_variant_set(self):
        """A lock-free section the engine delegates (here Cilk FFT on an
        oversubscribed pool, t = 10 on 8 cores) replays once per
        (section, t): every other handoff variant is served from the
        engine's point cache, which keys a lock-free replay without the
        policy, and the envelopes are degenerate.  At t = 4 the pool walk
        serves every variant without a replay."""
        from repro.workloads import get_workload

        wl = get_workload("ompscr_fft")
        prophet = ParallelProphet(machine=MachineConfig(n_cores=8))
        profile = prophet.profile(wl.program)
        n_sections = len(profile.tree.top_level_sections())
        clear_section_memo()
        mine = MetricsRegistry()
        old = set_metrics(mine)
        try:
            report = Explorer(prophet, samples=6).explore(
                {"fft": profile}, threads=[4, 10], paradigm=wl.paradigm
            )["fft"]
        finally:
            set_metrics(old)
        assert wl.paradigm == "cilk"
        assert [env.n_samples for env in report.envelopes] == [6, 6]
        assert all(env.lo == env.hi for env in report.envelopes)
        assert mine.counter_value("replay.sections") == n_sections

    def test_verify_envelope_extremes_reproduce_uncached(self):
        prophet = self._prophet()
        profile = self._locky_profile(seed=3)
        checked, mismatches = verify_envelope(
            prophet, profile, n_threads=4, memory_model=False
        )
        assert checked == 2
        assert mismatches == 0

    @given(locky_programs())
    @settings(
        max_examples=10,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
    )
    def test_fifo_prediction_always_inside_envelope(self, items):
        profile = IntervalProfiler(M4).profile(build_program(items))
        prophet = ParallelProphet(machine=M4, overheads=ZERO_OH)
        report = prophet.explore(profile, threads=[3], memory_model=False)
        env = report.envelope(n_threads=3)
        fifo = report.speedup(method="syn", n_threads=3)
        assert env.lo <= fifo <= env.hi


class TestTracedAnswers:
    """Tracing only observes: a traced exploration returns the untraced
    samples under every handoff policy.  The adversarial policy ranks
    waiters by summed progress, so a kernel that advanced segments more
    often while traced would add that sum up in another order."""

    def test_npb_cg_oversubscribed_point_every_policy(self):
        from repro.workloads import get_workload

        prophet = ParallelProphet(machine=MachineConfig(n_cores=8))
        profile = prophet.profile(get_workload("npb_cg").program)
        variants = [
            ScheduleVariant("fifo"),
            ScheduleVariant("lifo"),
            ScheduleVariant("random", seed=1),
            ScheduleVariant("adversarial"),
        ]
        samples = []
        for enabled in (False, True):
            clear_section_memo()
            old = set_tracer(Tracer(enabled=enabled))
            try:
                report = Explorer(prophet, variants=variants).explore(
                    {"cg": profile}, threads=[12], method="real"
                )["cg"]
            finally:
                set_tracer(old)
            (env,) = report.envelopes
            samples.append(dict(env.samples))
        untraced, traced = samples
        assert traced == untraced
        assert untraced["adversarial"] == 5.254713312993765


class TestEnvelopeReport:
    def _env(self):
        return SpeedupEnvelope.from_samples(
            "syn", "omp", "static", 4,
            [("fifo", 2.0), ("lifo", 1.5), ("adversarial", 2.5)],
        )

    def test_from_samples_stats(self):
        env = self._env()
        assert (env.lo, env.median, env.hi) == (1.5, 2.0, 2.5)
        assert env.lo_variant == "lifo"
        assert env.hi_variant == "adversarial"
        assert env.width == pytest.approx(0.5)

    def test_contains_with_slack(self):
        env = self._env()
        assert env.contains(2.0)
        assert not env.contains(1.4)
        assert env.contains(1.45, slack=0.05)
        assert not env.contains(2.7, slack=0.05)

    def test_rendering_includes_envelope_rows(self):
        report = SpeedupReport()
        report.add_envelope(self._env())
        assert "envelope" in report.to_table()
        assert "[1.50, 2.50]" in report.to_markdown()


class TestDifferentialEnvelope:
    def test_real_outside_envelope_is_violation(self):
        harness = DifferentialHarness.__new__(DifferentialHarness)
        harness.policy = TolerancePolicy()
        env = SpeedupEnvelope.from_samples(
            "syn", "omp", "static", 4, [("fifo", 2.0), ("lifo", 1.8)]
        )
        point = GridPoint("w", "omp", "static", 4)
        bad = harness._classify(
            point,
            {"ff": None, "syn": 2.0, "real": 3.0},
            nested=False,
            locky=True,
            envelope=env,
        )
        assert (bad.status, bad.kind) == ("violation", "syn_envelope_miss")
        assert bad.envelope is env
        good = harness._classify(
            point,
            {"ff": None, "syn": 2.0, "real": 1.9},
            nested=False,
            locky=True,
            envelope=env,
        )
        assert good.status == "ok"
        assert good.envelope is env

    def test_envelope_slack_defaults_to_shared_policy(self):
        assert TolerancePolicy().envelope_slack == ENVELOPE_SLACK

    def test_generate_locky_program_always_has_locks(self):
        rng = random.Random(0)
        for _ in range(10):
            assert description_has_locks(generate_locky_program(rng))


class TestEnvelopeAcceptance:
    """The issue's acceptance bar: a ≥20-program lock-heavy corpus where
    every REAL speedup lies inside the reported [min, max] envelope."""

    def test_lock_heavy_corpus_real_always_inside_envelope(self):
        from repro.validate import run_fuzz

        report = run_fuzz(n_programs=20, seed=2026, locky_only=True)
        # Every grid point of a lock-bearing program is judged against an
        # explored envelope (the flat syn_vs_real band is replaced)...
        assert len(report.records) == 40
        assert all(r.envelope is not None for r in report.records)
        # ...and REAL never escapes it.
        misses = [r for r in report.violations if r.kind == "syn_envelope_miss"]
        assert misses == []
        assert report.violations == []
