"""Tests for the CPU scheduler bookkeeping and the scheduling rules that
the kernel shares with the columnar team walk."""

import random

import pytest

from repro.errors import ConfigurationError, SimulationError
from repro.simos import (
    CpuScheduler,
    SimThread,
    ThreadState,
    handoff_index,
    next_boundary,
)


def make_thread(tid=1, affinity=None):
    def gen():
        yield None

    return SimThread(tid, gen(), name=f"t{tid}", affinity=affinity)


class TestReadyQueue:
    def test_fifo_order(self):
        sched = CpuScheduler(2)
        a, b = make_thread(1), make_thread(2)
        sched.make_ready(a)
        sched.make_ready(b)
        assert sched.pick_next(0) is a
        assert sched.pick_next(0) is b

    def test_front_insertion(self):
        sched = CpuScheduler(2)
        a, b = make_thread(1), make_thread(2)
        sched.make_ready(a)
        sched.make_ready(b, front=True)
        assert sched.pick_next(0) is b

    def test_finished_thread_rejected(self):
        sched = CpuScheduler(1)
        t = make_thread()
        t.state = ThreadState.FINISHED
        with pytest.raises(SimulationError):
            sched.make_ready(t)

    def test_thread_on_core_rejected(self):
        sched = CpuScheduler(1)
        t = make_thread()
        sched.make_ready(t)
        got = sched.pick_next(0)
        sched.assign(got, 0)
        with pytest.raises(SimulationError):
            sched.make_ready(t)


class TestAffinity:
    def test_affinity_respected(self):
        sched = CpuScheduler(2)
        t = make_thread(affinity=frozenset({1}))
        sched.make_ready(t)
        assert sched.pick_next(0) is None
        assert sched.pick_next(1) is t

    def test_has_waiter_for(self):
        sched = CpuScheduler(2)
        t = make_thread(affinity=frozenset({1}))
        sched.make_ready(t)
        assert not sched.has_waiter_for(0)
        assert sched.has_waiter_for(1)

    def test_unpinned_runs_anywhere(self):
        sched = CpuScheduler(3)
        sched.make_ready(make_thread())
        assert sched.has_waiter_for(2)


class TestAssignment:
    def test_assign_unassign(self):
        sched = CpuScheduler(2)
        t = make_thread()
        sched.make_ready(t)
        got = sched.pick_next(1)
        sched.assign(got, 1)
        assert t.core == 1
        assert t.state is ThreadState.RUNNING
        assert sched.running_threads() == [t]
        core = sched.unassign(t)
        assert core == 1
        assert t.core is None

    def test_double_assign_rejected(self):
        sched = CpuScheduler(2)
        a, b = make_thread(1), make_thread(2)
        sched.make_ready(a)
        sched.make_ready(b)
        sched.assign(sched.pick_next(0), 0)
        with pytest.raises(SimulationError):
            sched.assign(sched.pick_next(0), 0)

    def test_unassign_not_running_rejected(self):
        sched = CpuScheduler(1)
        with pytest.raises(SimulationError):
            sched.unassign(make_thread())

    def test_idle_cores(self):
        sched = CpuScheduler(3)
        t = make_thread()
        sched.make_ready(t)
        sched.assign(sched.pick_next(1), 1)
        assert sched.idle_cores() == [0, 2]

    def test_invalid_core_count(self):
        with pytest.raises(ConfigurationError):
            CpuScheduler(0)


class TestSharedRules:
    """``handoff_index`` and ``next_boundary``: the one copy of the lock
    handoff pick and of the quantum boundary that both the kernel and the
    team walk call."""

    @pytest.mark.parametrize("n", [1, 2, 5])
    def test_fifo_takes_the_head_and_lifo_the_tail(self, n):
        assert handoff_index("fifo", n) == 0
        assert handoff_index("lifo", n) == n - 1

    @pytest.mark.parametrize("seed", [0, 7, 42])
    def test_random_is_one_draw_from_the_stream(self, seed):
        rng, ref = random.Random(seed), random.Random(seed)
        for n in (1, 2, 3, 9):
            assert handoff_index("random", n, rng) == ref.randrange(n)
        # The pick consumed exactly one draw: both streams stand level.
        assert rng.random() == ref.random()

    @pytest.mark.parametrize("policy", ["telepathic", "adversarial"])
    def test_non_positional_policy_rejected(self, policy):
        with pytest.raises(ConfigurationError):
            handoff_index(policy, 3, random.Random(0))

    def test_boundary_is_repeated_addition(self):
        # 0.1 added six times is 0.6, but 6 * 0.1 is 0.6000000000000001:
        # the accumulation order is part of the answer.
        assert next_boundary(0.0, 0.55, 0.1) == 0.6
        assert next_boundary(0.0, 0.55, 0.1) != 0.0 + 6 * 0.1

    @pytest.mark.parametrize(
        "anchor, now, ts",
        [(0.0, 0.0, 0.1), (1.0, 1.35, 0.1), (5000.0, 5002.05, 0.7),
         (3.0, 2.0, 1.0)],
    )
    def test_boundary_is_the_first_after_now(self, anchor, now, ts):
        want = anchor
        while want <= now:
            want += ts
        got = next_boundary(anchor, now, ts)
        assert got == want and got > now
