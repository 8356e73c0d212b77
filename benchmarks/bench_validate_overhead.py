"""Validation cost — the disabled invariant checker must be (near) free.

The contract in ``docs/validation.md`` mirrors the tracer's
(``bench_tracer_overhead.py``): every invariant hook is a single attribute
test (``if checker.enabled:``) when checking is off, so leaving the hooks
compiled into the kernel/replay hot paths costs well under 2%.  Measured
three ways:

1. wall-clock A/B — the same REAL replay with the checker disabled vs
   enabled (the enabled run includes the checks themselves);
2. hook census — an enabled run counts how many checks actually evaluate
   (``checker.checks_run``), an upper bound on guarded sites fired since
   several hooks guard more work than one check;
3. guard micro-cost — the per-site price of the attribute-test early-out.

The reported estimate is ``hooks x guard_cost / disabled_runtime``.
Each replay starts from a cleared section memo: a warm memo would
short-circuit repeat replays straight past the kernel, and it is exactly
the kernel hot path whose hook cost is being bounded here.
"""

from __future__ import annotations

import time

from _common import BENCH_SCALES, MACHINE, banner, prophet
from repro.core.executor import ParallelExecutor, ReplayMode, clear_section_memo
from repro.validate import InvariantChecker, get_checker
from repro.workloads import get_workload

#: Replay thread count — matches the Fig. 11 panel's densest grid point.
N_THREADS = 8

#: Overhead budget for the disabled checker (ISSUE acceptance: < 2%).
BUDGET = 0.02


def _time_replay(profile, repeats=3):
    best = float("inf")
    for _ in range(repeats):
        clear_section_memo()
        ex = ParallelExecutor(MACHINE)
        t0 = time.perf_counter()
        ex.execute_profile(profile.tree, N_THREADS, ReplayMode.REAL)
        best = min(best, time.perf_counter() - t0)
    return best


def _guard_cost_ns(calls=200_000):
    checker = InvariantChecker(enabled=False)
    fired = 0
    t0 = time.perf_counter()
    for _ in range(calls):
        if checker.enabled:
            fired += 1
    elapsed = time.perf_counter() - t0
    assert fired == 0
    return elapsed / calls * 1e9


def run_validate_overhead():
    p = prophet()
    wl = get_workload("npb_ep", **BENCH_SCALES["npb_ep"])
    profile = p.profile(wl.program)

    checker = get_checker()
    prev = (checker.enabled, checker.mode)
    try:
        checker.enabled = False
        disabled_s = _time_replay(profile)

        checker.enabled, checker.mode = True, "raise"
        checker.reset()
        enabled_s = _time_replay(profile, repeats=1)
        hooks = checker.checks_run
    finally:
        checker.enabled, checker.mode = prev
        checker.reset()

    guard_ns = _guard_cost_ns()
    est_overhead = hooks * guard_ns * 1e-9 / disabled_s

    return {
        "disabled_s": disabled_s,
        "enabled_s": enabled_s,
        "hooks": hooks,
        "guard_ns": guard_ns,
        "est_overhead": est_overhead,
    }


def test_validate_overhead(benchmark):
    r = benchmark.pedantic(run_validate_overhead, rounds=1, iterations=1)

    print(banner("Validation — disabled-checker overhead"))
    print(f"replay (checks off)   {r['disabled_s'] * 1e3:>8.1f} ms")
    print(f"replay (checks on)    {r['enabled_s'] * 1e3:>8.1f} ms")
    print(f"checks evaluated      {r['hooks']:>8d}")
    print(f"guard cost            {r['guard_ns']:>8.0f} ns/site")
    print(f"est. disabled cost    {r['est_overhead']:>8.2%}  (budget {BUDGET:.0%})")

    assert r["hooks"] > 0, "enabled run evaluated no checks"
    assert r["est_overhead"] < BUDGET
    # Direct A/B sanity: even with every check evaluating, the replay must
    # not collapse — checks are O(1) arithmetic, no allocation on the hot
    # path.  3x is a loose tripwire for accidentally-quadratic checks.
    assert r["enabled_s"] < 3.0 * r["disabled_s"] + 0.05
