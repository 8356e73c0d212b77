"""Tests for the event-sparse kernel and the replay section memo.

Two layers are covered: the lazy-quantum / incremental-reconfigure kernel,
parity-tested against the eager reference kernel (``SimKernel(optimize=
False)``), and the process-wide section memo.  Every fast path must be
*exact*: the parity tests run both variants and require identical
schedule traces, preemption counts, and final times (≤1e-9 relative).
"""

from __future__ import annotations

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.core.executor import (
    ParallelExecutor,
    ReplayMode,
    clear_section_memo,
    section_memo_info,
)
from repro.core.tree import Node, NodeKind, ProgramTree
from repro.obs import Tracer
from repro.runtime.tasks import Schedule
from repro.simhw import MachineConfig
from repro.simos import Compute, Join, SimKernel, Spawn


@pytest.fixture(autouse=True)
def _fresh_memo():
    clear_section_memo()
    yield
    clear_section_memo()


# --------------------------------------------------------------- helpers


class _TracingExecutor(ParallelExecutor):
    """ParallelExecutor whose kernels record their schedule traces;
    ``optimize=False`` replays on the eager reference kernel."""

    def __init__(self, *args, optimize=True, **kwargs):
        super().__init__(*args, **kwargs)
        self.optimize = optimize
        self.kernels = []

    def _make_kernel(self) -> SimKernel:
        kernel = SimKernel(
            self.machine, record_trace=True, optimize=self.optimize
        )
        self.kernels.append(kernel)
        return kernel


def _replay(tree, machine, paradigm, schedule, mode, n_threads, optimize):
    # The memo key does not name the kernel mode, so a run must not read
    # the entries of the other mode's run: each starts from an empty memo.
    clear_section_memo()
    ex = _TracingExecutor(
        machine, paradigm=paradigm, schedule=schedule, optimize=optimize
    )
    result = ex.execute_profile(tree, n_threads, mode)
    trace = [ev for k in ex.kernels for ev in k.trace]
    preemptions = sum(s.preemptions for s in result.sections)
    return result.total_cycles, preemptions, trace, ex


# --------------------------------------------------------- tree strategies

_lengths = st.floats(min_value=100.0, max_value=5e5, allow_nan=False)


@st.composite
def replay_trees(draw):
    """ROOT -> SEC* -> TASK* -> U/L leaves, with repeats and optional
    misses — the shapes the replay hot path sees."""
    root = Node(NodeKind.ROOT)
    root.add(Node(NodeKind.U, length=draw(_lengths)))
    for s in range(draw(st.integers(1, 2))):
        sec = root.add(Node(NodeKind.SEC, name=f"s{s}"))
        for _ in range(draw(st.integers(1, 4))):
            task = sec.add(
                Node(NodeKind.TASK, repeat=draw(st.sampled_from([1, 3, 17])))
            )
            for _ in range(draw(st.integers(1, 3))):
                cpu = draw(_lengths)
                missy = draw(st.booleans())
                miss = cpu / 300.0 if missy else 0.0
                if draw(st.integers(0, 5)) == 0:
                    task.add(
                        Node(
                            NodeKind.L,
                            length=cpu,
                            cpu_cycles=cpu,
                            lock_id=draw(st.integers(1, 2)),
                        )
                    )
                else:
                    task.add(
                        Node(
                            NodeKind.U,
                            length=cpu + miss * 30.0,
                            cpu_cycles=cpu,
                            instructions=cpu * 2.0,
                            llc_misses=miss,
                            repeat=draw(st.sampled_from([1, 1, 4])),
                        )
                    )
    return ProgramTree(root)


# --------------------------------------------------- satellite: counters


class TestCounterAttribution:
    """Resume switch-cost must not inflate counter attribution: instruction
    and miss totals equal the requested amounts even when segments are
    preempted and resumed many times on cold cores."""

    def test_totals_exact_under_forced_preemption(self):
        machine = MachineConfig(
            n_cores=2,
            timeslice_cycles=1_000.0,
            context_switch_cycles=700.0,
        )

        def spin(cycles, instr, misses):
            yield Compute(cycles=cycles, instructions=instr, llc_misses=misses)

        def main():
            ts = []
            for i in range(6):
                ts.append(
                    (yield Spawn(spin(40_000.0 + i * 7_000.0, 10_000.0, 64.0)))
                )
            for t in ts:
                yield Join(t)

        kernel = SimKernel(machine)
        kernel.spawn(main())
        kernel.run()
        assert kernel.preemptions > 10, "test must actually force preemption"
        assert kernel.counters.instructions == pytest.approx(60_000.0, rel=1e-12)
        assert kernel.counters.llc_misses == pytest.approx(6 * 64.0, rel=1e-12)

    def test_totals_exact_both_kernel_modes(self):
        machine = MachineConfig(
            n_cores=1, timeslice_cycles=500.0, context_switch_cycles=300.0
        )

        def spin():
            yield Compute(cycles=10_000.0, instructions=5_000.0, llc_misses=16.0)

        def main():
            a = yield Spawn(spin())
            b = yield Spawn(spin())
            yield Join(a)
            yield Join(b)

        for optimize in (True, False):
            kernel = SimKernel(machine, optimize=optimize)
            kernel.spawn(main())
            kernel.run()
            assert kernel.counters.instructions == pytest.approx(10_000.0)
            assert kernel.counters.llc_misses == pytest.approx(32.0)


# ------------------------------------------------ satellite: parity test


SCHEDULES = [Schedule.static(), Schedule.static_chunk(3), Schedule.dynamic(2)]
PARADIGMS = ["omp", "cilk", "omp_task"]


class TestKernelParity:
    """optimize=True and optimize=False kernels are indistinguishable:
    identical schedule traces, preemption counts, and final times."""

    @settings(
        max_examples=20,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    @given(
        tree=replay_trees(),
        paradigm=st.sampled_from(PARADIGMS),
        schedule=st.sampled_from(SCHEDULES),
        mode=st.sampled_from([ReplayMode.REAL, ReplayMode.FAKE]),
        n_threads=st.sampled_from([1, 3, 4, 7]),
    )
    def test_optimized_matches_eager(self, tree, paradigm, schedule, mode, n_threads):
        machine = MachineConfig(n_cores=4, timeslice_cycles=20_000.0)
        t_opt, p_opt, tr_opt, _ = _replay(
            tree, machine, paradigm, schedule, mode, n_threads,
            optimize=True,
        )
        t_ref, p_ref, tr_ref, _ = _replay(
            tree, machine, paradigm, schedule, mode, n_threads,
            optimize=False,
        )
        assert p_opt == p_ref
        # Bitwise-identical schedules, timestamps included: anchored
        # segment progress (closed form over the rate anchor, never an
        # accumulated subtraction) makes the sparse and eager advance
        # histories agree bit for bit.
        assert tr_opt == tr_ref
        assert t_opt == pytest.approx(t_ref, rel=1e-9)


# ------------------------------------------------------- event sparsity


class TestEventSparsity:
    def test_uncontended_compute_is_o1_in_duration(self):
        """An uncontended single-thread compute must push O(1) heap events
        regardless of how many timeslices it spans."""
        counts = []
        for slices in (10, 1_000):
            machine = MachineConfig(n_cores=2, timeslice_cycles=1_000.0)

            def main():
                yield Compute(cycles=slices * 1_000.0)

            kernel = SimKernel(machine)
            kernel.spawn(main())
            kernel.run()
            assert kernel.quantum_arms == 0
            counts.append(kernel.events_pushed)
        assert counts[0] == counts[1], (
            f"event count grew with duration: {counts}"
        )
        assert counts[0] <= 4

    def test_eager_kernel_is_not_o1(self):
        """The reference kernel keeps the seed's eager re-arm chain (this is
        what the optimized mode is parity-tested against)."""
        machine = MachineConfig(n_cores=2, timeslice_cycles=1_000.0)

        def main():
            yield Compute(cycles=500_000.0)

        kernel = SimKernel(machine, optimize=False)
        kernel.spawn(main())
        kernel.run()
        assert kernel.quantum_arms >= 499

    def test_zero_demand_reconfigures_skip_solver(self):
        machine = MachineConfig(n_cores=4)

        def spin():
            yield Compute(cycles=50_000.0)

        def main():
            ts = []
            for _ in range(4):
                ts.append((yield Spawn(spin())))
            for t in ts:
                yield Join(t)

        kernel = SimKernel(machine)
        kernel.spawn(main())
        kernel.run()
        assert kernel.reconfig_skips > 0
        assert kernel.reconfig_solves == 0


# ------------------------------------------------------------ fixtures


def _leaf_section(with_lock=False, nested=False, misses=False):
    root = Node(NodeKind.ROOT)
    sec = root.add(Node(NodeKind.SEC, name="s"))
    for _ in range(3):
        task = sec.add(Node(NodeKind.TASK, repeat=8))
        task.add(
            Node(
                NodeKind.U,
                length=10_000.0,
                cpu_cycles=10_000.0,
                instructions=5_000.0,
                llc_misses=40.0 if misses else 0.0,
            )
        )
        if with_lock:
            task.add(
                Node(NodeKind.L, length=500.0, cpu_cycles=500.0, lock_id=1)
            )
        if nested:
            inner = task.add(Node(NodeKind.SEC, name="inner"))
            it = inner.add(Node(NodeKind.TASK, repeat=2))
            it.add(Node(NodeKind.U, length=1_000.0, cpu_cycles=1_000.0))
    return ProgramTree(root)


# ----------------------------------------------------------- section memo


class TestSectionMemo:
    MACHINE = MachineConfig(n_cores=4)

    def test_identical_sections_hit_across_executor_instances(self):
        """The memo is process-wide: a fresh executor replays into it."""
        tree = _leaf_section()
        before = section_memo_info()["hits"]
        r1 = ParallelExecutor(self.MACHINE).execute_profile(
            tree, 4, ReplayMode.REAL
        )
        r2 = ParallelExecutor(self.MACHINE).execute_profile(
            tree, 4, ReplayMode.REAL
        )
        info = section_memo_info()
        assert info["hits"] == before + 1
        assert r1.total_cycles == r2.total_cycles

    def test_key_distinguishes_threads_and_burden(self):
        tree = _leaf_section()
        ex = ParallelExecutor(self.MACHINE)
        ex.execute_profile(tree, 2, ReplayMode.FAKE, burdens={"s": 1.0})
        misses = section_memo_info()["misses"]
        ex.execute_profile(tree, 4, ReplayMode.FAKE, burdens={"s": 1.0})
        ex.execute_profile(tree, 4, ReplayMode.FAKE, burdens={"s": 1.5})
        assert section_memo_info()["misses"] == misses + 2

    def test_tracing_bypasses_memo(self):
        tree = _leaf_section()
        tracer = Tracer(enabled=True)
        ex = ParallelExecutor(self.MACHINE, tracer=tracer)
        ex.execute_profile(tree, 4, ReplayMode.REAL)
        info = section_memo_info()
        assert info["hits"] == 0 and info["misses"] == 0

    def test_memo_result_matches_fresh_run(self):
        tree = _leaf_section(misses=True)
        a = ParallelExecutor(self.MACHINE).execute_profile(
            tree, 4, ReplayMode.REAL
        )
        clear_section_memo()
        b = ParallelExecutor(self.MACHINE).execute_profile(
            tree, 4, ReplayMode.REAL
        )
        assert a.total_cycles == b.total_cycles
