"""Batch workloads of the end-to-end benchmark, one per child process.

``bench_e2e.py`` starts this file in a fresh interpreter for every set-up
sample, so the process-wide section memo and the other in-process caches
never carry over between runs.  The child prints ``READY`` once its
workload is set up, then (unless ``--probe``) runs the timed loop, and
last prints one JSON line with the samples.  Untraced children run the
host gauge (``e2e_gauge``) from their start, so set-up and every op come
with their net and scaled times.

Run it directly to debug one workload::

    python benchmarks/e2e/e2e_batch.py --workload fig12_cold --seed 1 --seconds 5
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import sys
import threading
import time
from pathlib import Path
from time import perf_counter

from e2e_gauge import Sampler
from e2e_inputs import (
    FIG11_CYCLE,
    FIG12_SCALES,
    FIG12_WORKLOADS,
    SMOKE_THREADS,
    SMOKE_WORKLOADS,
    THREADS,
    fig11_programs,
    fig12_grid,
    fig12_order,
)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: The 12-core machine of the paper's evaluation (Section VII-A).
FIG12_CORES = 12
#: The fixed Fig. 11 accuracy probe run after the timed loop: the
#: programs of one seed, the same on every run, so ``fig11_random``'s
#: ``err_mean`` does not move with ``--seed`` and any change to it is the
#: program's.
FIG11_PROBE_SEED = 1111
FIG11_PROBE_CYCLES = 5


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/``, never elsewhere."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))


def exit_with_parent() -> None:
    """Stop this process if the benchmark that started it goes away."""
    parent = os.getppid()

    def watch():
        while True:
            time.sleep(0.5)
            if os.getppid() != parent:
                os._exit(3)

    threading.Thread(target=watch, name="e2e-parent-watch", daemon=True).start()


def rel_error(predicted: float, real: float) -> float:
    return abs(predicted - real) / abs(real)


class Fig12Sweep:
    """``fig12_cold`` and ``sweep_warm``: the Fig. 12 grid, one op per
    workload, one cycle per pass over the seeded workload order."""

    #: Nominal pass time that turns ``--seconds`` into a pass count.
    seconds_per_cycle = 5.0

    def __init__(self, seed: int, smoke: bool, warm: bool) -> None:
        from repro.core.batch import SweepTask
        from repro.workloads import get_workload

        self.warm = warm
        self.order = fig12_order(seed, SMOKE_WORKLOADS if smoke else FIG12_WORKLOADS)
        threads = SMOKE_THREADS if smoke else THREADS
        self.specs = {n: get_workload(n, **FIG12_SCALES[n]) for n in self.order}
        self.tasks = {
            n: [
                SweepTask(n, g.schedule, g.n_threads, g.methods, spec.paradigm, g.memory_model)
                for g in fig12_grid(spec.schedule, threads)
            ]
            for n, spec in self.specs.items()
        }
        self.reference: dict[str, list] = {}
        self.errors: list[float] = []
        if warm:
            # One long-lived predictor over profiles built once; the
            # warm-up pass runs from a cold memo and is the reference the
            # timed passes must reproduce bit for bit.
            self._reset()
            self.profiles = {
                n: self.prophet.profile(spec.program) for n, spec in self.specs.items()
            }
            for name in self.order:
                self.check(name, self.run_op(name))

    def _reset(self) -> None:
        from repro import ParallelProphet
        from repro.core.batch import BatchPredictor
        from repro.core.executor import clear_section_memo
        from repro.simhw import MachineConfig

        clear_section_memo()
        self.prophet = ParallelProphet(machine=MachineConfig(n_cores=FIG12_CORES))
        self.predictor = BatchPredictor(self.prophet, jobs=1)

    def start_cycle(self, cycle: int) -> None:
        if not self.warm:
            self._reset()

    def cycle_items(self, cycle: int) -> list[str]:
        return self.order

    def key(self, name: str) -> str:
        return name

    def units(self, name: str) -> int:
        return sum(len(t.methods) for t in self.tasks[name])

    def run_op(self, name: str) -> list:
        if self.warm:
            profile = self.profiles[name]
        else:
            profile = self.prophet.profile(self.specs[name].program)
        return self.predictor.run(self.tasks[name], {name: profile}, on_error="collect")

    def check(self, name: str, result: list) -> list[str]:
        """Bit-identical to the first (cold) answer for this workload."""
        from repro.core.batch import SweepTaskFailure

        outcomes = [outcome for _task, outcome in result]
        failed = [str(o) for o in outcomes if isinstance(o, SweepTaskFailure)]
        if failed:
            return failed
        first = self.reference.get(name)
        if first is None:
            self.reference[name] = outcomes
            self.errors += self._predm_errors(name, outcomes)
            return []
        if outcomes != first:
            return [f"{name}: answers differ from the first pass"]
        return []

    def _predm_errors(self, name: str, outcomes: list) -> list[float]:
        """PredM (SYN + memory model) vs REAL at the native schedule."""
        native = self.specs[name].schedule
        predm, real = {}, {}
        for estimates in outcomes:
            for e in estimates:
                if e.method == "real":
                    real[e.n_threads] = e.speedup
                elif e.method == "syn" and e.with_memory_model and e.schedule == native:
                    predm[e.n_threads] = e.speedup
        return [rel_error(predm[t], real[t]) for t in sorted(real)]


class Fig11Random:
    """``fig11_random``: one op per seeded random Test1/Test2 program,
    profiled and then predicted with FF+SYN+REAL at t = cores, memory model
    off."""

    #: Nominal time of one cycle (24 programs).
    seconds_per_cycle = 0.5

    def __init__(self, seed: int) -> None:
        from repro import ParallelProphet
        from repro.core.batch import BatchPredictor
        from repro.simhw import MachineConfig
        from repro.validate.invariants import InvariantChecker

        self.programs = fig11_programs(seed)
        self.prophets = {}
        for cores in (8, 12):
            prophet = ParallelProphet(machine=MachineConfig(n_cores=cores))
            self.prophets[cores] = (prophet, BatchPredictor(prophet, jobs=1))
        self.checker = InvariantChecker(enabled=True, mode="record")
        self.errors: list[float] = []

    def start_cycle(self, cycle: int) -> None:
        pass

    def cycle_items(self, cycle: int) -> list:
        return [next(self.programs) for _ in range(FIG11_CYCLE)]

    def key(self, program) -> str:
        return program.key

    def units(self, program) -> int:
        return 1

    def run_op(self, program):
        from repro.core.batch import SweepTask
        from repro.workloads import test1_program as build_test1
        from repro.workloads import test2_program as build_test2

        build = build_test1 if program.pattern == "test1" else build_test2
        prophet, predictor = self.prophets[program.cores]
        profile = prophet.profile(build(program.params))
        task = SweepTask(
            "sample",
            program.schedule,
            program.cores,
            ("ff", "syn", "real"),
            "omp",
            False,
        )
        [(_task, outcome)] = predictor.run([task], {"sample": profile}, on_error="collect")
        return profile, outcome

    def check(self, program, result) -> list[str]:
        """Finite answers inside the ``repro.validate`` speedup bound."""
        from repro.core.batch import SweepTaskFailure
        from repro.validate.invariants import has_nested_sections

        profile, outcome = result
        where = f"program {program.index} ({program.key})"
        if isinstance(outcome, SweepTaskFailure):
            return [f"{where}: {outcome}"]
        nested = has_nested_sections(profile.tree)
        self.checker.violations.clear()
        problems = []
        speedups = {}
        for e in outcome:
            if not math.isfinite(e.speedup):
                problems.append(f"{where}: {e.method} speedup {e.speedup!r}")
                continue
            self.checker.check_speedup(
                e.method, e.speedup, e.n_threads, program.cores, nested, where
            )
            speedups[e.method] = e.speedup
        problems += [str(v) for v in self.checker.violations]
        if not problems:
            self.errors += [
                rel_error(speedups[m], speedups["real"]) for m in ("ff", "syn")
            ]
        return problems


def fig11_probe(smoke: bool) -> tuple[list[float], list[dict], list[str]]:
    """The accuracy probe: FF and SYN errors over the fixed programs on
    fresh prophets, with the probe's op records and failures."""
    probe = Fig11Random(FIG11_PROBE_SEED)
    records, failures = run_ops(probe, 1 if smoke else FIG11_PROBE_CYCLES)
    return probe.errors, records, failures


def make_workload(name: str, seed: int, smoke: bool):
    if name == "fig12_cold":
        return Fig12Sweep(seed, smoke, warm=False)
    if name == "sweep_warm":
        return Fig12Sweep(seed, smoke, warm=True)
    if name == "fig11_random":
        return Fig11Random(seed)
    raise SystemExit(f"unknown batch workload {name!r}")


def cycles_for(work, seconds: float) -> int:
    """The fixed cycle count ``--seconds`` stands for.  The count, not the
    clock, ends a run, so every commit does the same work on the same
    inputs; at this commit a run takes about ``seconds``."""
    return max(1, round(seconds / work.seconds_per_cycle))


def run_ops(work, cycles: int, tracer=None) -> tuple[list[dict], list[str]]:
    """Run ``cycles`` cycles of ops.  With a tracer, whole cycles alternate
    traced and untraced, so every workload of a pass, and every position
    of the program rotation, is seen both ways equally often.  A record's
    ``span`` is its op's (start, end) on the ``perf_counter`` clock."""
    records: list[dict] = []
    failures: list[str] = []
    for cycle in range(cycles):
        work.start_cycle(cycle)
        traced = tracer is not None and cycle % 2 == 0
        for item in work.cycle_items(cycle):
            key = work.key(item)
            t0 = perf_counter()
            if traced:
                with tracer.op(key):
                    result = work.run_op(item)
            else:
                result = work.run_op(item)
            t1 = perf_counter()
            problems = work.check(item, result)
            failures += problems
            records.append(
                {
                    "key": key,
                    "dur_s": t1 - t0,
                    "span": (t0, t1),
                    "units": work.units(item),
                    "traced": traced,
                    "ok": not problems,
                }
            )
    return records, failures


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace-out", default=None, help="trace JSON to write (traced run)")
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--probe", action="store_true", help="exit after set-up")
    args = ap.parse_args(argv)

    exit_with_parent()
    use_checkout_sources()
    tracer = sampler = None
    if args.trace_out:
        from e2e_trace import Tracer

        tracer = Tracer()
        tracer.install()
    else:
        # Traced runs report no end-to-end metrics, so they skip the gauge:
        # its samples would land in the layers' spans.
        sampler = Sampler().start()
    work = make_workload(args.workload, args.seed, args.smoke)
    ready = perf_counter()
    print("READY", flush=True)
    setup = None
    if sampler is not None:
        inside, factor = sampler.around(0.0, ready)
        setup = {"gauge_s": inside, "factor": factor}
    records, failures = [], []
    if not args.probe:
        records, failures = run_ops(work, cycles_for(work, args.seconds), tracer)
    if sampler is not None:
        sampler.stop()
    if args.probe:
        print(json.dumps({"setup": setup}), flush=True)
        return 0
    for r in records:
        t0, t1 = r.pop("span")
        if sampler is not None:
            r["net_s"], r["scaled_s"] = sampler.measure(t0, t1)
    errors, probe = work.errors, []
    # Traced runs report no err_mean, and the probe would land in their
    # counter window.
    if args.workload == "fig11_random" and tracer is None:
        errors, probe, probe_failures = fig11_probe(args.smoke)
        failures += probe_failures
    result = {
        "setup": setup,
        "ops": records,
        "probe": {"attempted": len(probe), "failed": sum(1 for r in probe if not r["ok"])},
        "failures": failures[:20],
        "errors": errors,
        "rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "trace": tracer.summary() if tracer is not None else None,
    }
    if tracer is not None:
        wall = sum(r["dur_s"] for r in records if r["traced"])
        tracer.dump(args.trace_out, {"traced_wall_s": wall})
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
