"""Columnar sweep engine vs the eager per-point path.

Not a paper artifact: this bench tracks the vectorized analytic backend
(``repro.core.columnar``) behind ``repro sweep``.  It evaluates the same
FF/SYN sweep columns — an RLE-rich static loop across thread counts ×
schedules — through the reference emulators (the batch worker with no
engine, ``_predict_point(..., engine=None)`` per grid point) and through
``ParallelProphet.predict``, where the columnar engine answers,
asserts report-precision parity (the engine's ≤1e-9 contract), and times
both.  The wall-clock ratio feeds docs/performance.md §5 and is recorded
machine-readably in ``BENCH_sweep.json`` by ``run_all.py``.

The eager baseline clears the cross-grid section memo before every sample
so it really re-evaluates each grid point, matching what a cold sweep
pays; the columnar engine gets no warm state either (each ``predict`` call
constructs a fresh engine).
"""

from __future__ import annotations

import time

from _common import MACHINE, THREADS

from repro import ParallelProphet
from repro.core.batch import SweepTask, _predict_point
from repro.core.executor import clear_section_memo
from repro.core.ffemu import FastForwardEmulator
from repro.core.report import SpeedupReport

#: Sweep columns: the Fig. 12 thread axis × two static-family schedules.
SCHEDULES = ["static", "static,4"]

#: Regression floor asserted by the pytest wrapper and checked (softly) by
#: run_all.py.  Measured ~40-80x on the dev container; 10x is the ISSUE 6
#: acceptance target with headroom for slower machines.
SPEEDUP_FLOOR = 10.0


def _rle_rich(tr):
    """A static loop whose tasks defeat run-length compression: ~1000
    distinct RLE runs, the regime where per-point scalar evaluation is
    O(runs × threads) per grid point."""
    with tr.section("grid"):
        for i in range(1_000):
            with tr.task():
                tr.compute(4_000.0 + 900.0 * (i % 41) + 13.0 * (i % 7))


def _time(fn, repeats: int = 3) -> float:
    """Best-of-N wall time of ``fn()`` in seconds, after one untimed
    warmup run (numpy ufunc dispatch and bytecode caches would otherwise
    dominate a single quick-mode sample)."""
    fn()
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def run_columnar_sweep(quick: bool = False) -> dict:
    """Time the FF/SYN sweep columns on both evaluators; verify parity."""
    repeats = 1 if quick else 3
    prophet = ParallelProphet(machine=MACHINE)
    profile = prophet.profile(_rle_rich)
    n_runs = len(profile.tree.top_level_sections()[0].children)

    tasks = [
        SweepTask("workload", s, t, ("ff", "syn"), memory_model=False)
        for s in SCHEDULES
        for t in THREADS
    ]

    def run_eager():
        clear_section_memo()
        ff = FastForwardEmulator(prophet.overheads)
        report = SpeedupReport()
        for task in tasks:
            report.extend(_predict_point(profile, prophet.overheads, task, ff))
        return report

    def run_columnar():
        clear_section_memo()
        return prophet.predict(
            profile,
            threads=THREADS,
            schedules=SCHEDULES,
            methods=("ff", "syn"),
            memory_model=False,
        )

    reports = {}
    results = {}
    for label, run in (("eager", run_eager), ("columnar", run_columnar)):
        secs = _time(run, repeats)
        reports[label] = run()
        results[label] = dict(secs=secs)

    eager = reports["eager"].estimates
    columnar = reports["columnar"].estimates
    assert len(eager) == len(columnar) == 2 * len(SCHEDULES) * len(THREADS)
    max_rel = 0.0
    for e, c in zip(eager, columnar):
        assert (e.method, e.schedule, e.n_threads) == (
            c.method,
            c.schedule,
            c.n_threads,
        )
        rel = abs(c.speedup - e.speedup) / max(abs(e.speedup), 1e-30)
        max_rel = max(max_rel, rel)
        assert rel <= 1e-9, f"{e.method}/{e.schedule}/t={e.n_threads}: {rel}"

    speedup = results["eager"]["secs"] / results["columnar"]["secs"]
    return {
        "workload": {"section_runs": n_runs, "n_iters": 1_000},
        "grid": {
            "threads": list(THREADS),
            "schedules": list(SCHEDULES),
            "methods": ["ff", "syn"],
            "points": 2 * len(SCHEDULES) * len(THREADS),
        },
        "eager_s": results["eager"]["secs"],
        "columnar_s": results["columnar"]["secs"],
        "speedup": speedup,
        "parity_max_rel": max_rel,
        "threshold": SPEEDUP_FLOOR,
    }


# ------------------------------------------------------- pytest-benchmark


def test_columnar_sweep_speedup(benchmark):
    """Columnar vs eager on the same sweep columns: parity + the 10x floor."""
    r = benchmark.pedantic(run_columnar_sweep, kwargs=dict(quick=True), rounds=1)
    assert r["parity_max_rel"] <= 1e-9
    assert r["speedup"] >= SPEEDUP_FLOOR, (
        f"columnar sweep regressed: {r['speedup']:.1f}x < {SPEEDUP_FLOOR}x "
        f"(eager {r['eager_s'] * 1e3:.1f} ms, "
        f"columnar {r['columnar_s'] * 1e3:.1f} ms)"
    )


if __name__ == "__main__":
    r = run_columnar_sweep()
    print(
        f"columnar sweep: eager {r['eager_s'] * 1e3:.1f} ms, "
        f"columnar {r['columnar_s'] * 1e3:.1f} ms -> {r['speedup']:.1f}x "
        f"(parity max rel {r['parity_max_rel']:.2e})"
    )
