"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``list``
    Show the registered workloads with their paper inputs.
``profile <workload> [-o profile.json]``
    Interval-profile a workload; optionally save the profile.
``predict <workload|profile.json>``
    Predict speedups (FF + synthesizer, optional memory model) and compare
    against the simulated ground truth.
``calibrate``
    Run the memory-model calibration microbenchmark and print the fitted
    Ψ/Φ formulas (Eqs. 6-7).
``sweep``
    Batch-predict a full (workload × schedule × threads) grid, optionally
    fanned out over worker processes (``--jobs``); deterministic regardless
    of the worker count.  ``--explore N`` additionally samples N lock-handoff
    interleavings per grid point of each lock-bearing workload and prints
    [min, max] speedup envelopes (docs/exploration.md).
``trace``
    Replay a workload with the structured tracer enabled and export the
    simulated timeline as Chrome-trace/Perfetto JSON (one track per
    simulated core plus per-thread state tracks); open the file at
    https://ui.perfetto.dev.
``check``
    Validate the pipeline itself: run predictions with runtime invariant
    checks enabled, differential-compare FF/SYN against the simulated
    ground truth under the tolerance policy, and fuzz randomly generated
    programs.  Non-zero exit on any violation (see docs/validation.md).
``serve``
    Run the prediction daemon: predict/sweep/explore/check over HTTP+JSON
    with a bounded work queue, per-request budgets, and process-lifetime
    caches, so repeat traffic hits warm calibrations/profiles/replay memos
    instead of paying a cold start per invocation (see docs/serving.md).

``predict`` and ``sweep`` accept ``--metrics`` to print the process-wide
metrics registry (FF emulations, DRAM solves, preemptions, ...)
after the run, and ``--selfcheck`` to enable the runtime invariant
checker for the run (non-zero exit if anything trips).

Examples::

    python -m repro list
    python -m repro predict npb_ft --threads 2,4,6,8,10,12
    python -m repro profile ompscr_lu -o lu.json
    python -m repro predict lu.json --schedules static,1 --no-real
    python -m repro sweep npb_ft,npb_cg --jobs 4 --methods ff,syn,real
    python -m repro sweep npb_ep --explore 6 --threads 2,4
    python -m repro trace npb_ft --threads 4 --out ft-trace.json
    python -m repro check --quick
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro import ParallelProphet
from repro.core.batch import TIERS
from repro.core.profiler import ProgramProfile
from repro.core.report import error_ratio
from repro.core.serialize import load_profile, save_profile
from repro.errors import ConfigurationError
from repro.obs import get_metrics
from repro.simhw.machine import MachineConfig
from repro.workloads import get_workload, workload_names


_TIER_HELP = (
    "prediction tier: exact = emulators; surrogate = learned model wherever "
    "it has standing; auto = surrogate only where confident, exact fallback "
    "elsewhere (see docs/surrogate.md)"
)


def _parse_threads(text: str) -> list[int]:
    return [int(t) for t in text.split(",") if t.strip()]


def _selfcheck_begin():
    """Enable the process-global invariant checker in record mode.

    Returns the checker and its previous state so in-process callers
    (tests, ``benchmarks/run_all.py``) get it restored afterwards.  The
    ``REPRO_VALIDATE`` environment variable is set too, so sweep worker
    processes come up with their checker enabled (in the default raise
    mode — a violation there surfaces as a structured task failure).
    """
    import os

    from repro.validate import get_checker

    checker = get_checker()
    prev = (checker.enabled, checker.mode, os.environ.get("REPRO_VALIDATE"))
    checker.enabled = True
    checker.mode = "record"
    checker.reset()
    os.environ["REPRO_VALIDATE"] = "1"
    return checker, prev


def _selfcheck_end(checker, prev) -> int:
    """Report recorded violations, restore checker state; 1 if any."""
    import os

    enabled, mode, env = prev
    violations = list(checker.violations)
    checks = checker.checks_run
    checker.enabled, checker.mode = enabled, mode
    checker.reset()
    if env is None:
        os.environ.pop("REPRO_VALIDATE", None)
    else:
        os.environ["REPRO_VALIDATE"] = env
    if violations:
        print(
            f"selfcheck: {len(violations)} invariant violation(s) "
            f"in {checks} check(s):",
            file=sys.stderr,
        )
        for v in violations:
            print(f"  {v}", file=sys.stderr)
        return 1
    print(f"selfcheck: {checks} invariant check(s), 0 violations")
    return 0


def _maybe_print_metrics(args: argparse.Namespace) -> None:
    if getattr(args, "metrics", False):
        print("\nmetrics:")
        print(get_metrics().render())


def _prophet_for(
    args: argparse.Namespace, targets: Sequence[str] = ()
) -> tuple[ParallelProphet, dict[str, Optional[ProgramProfile]]]:
    """The prophet, and ``{target: saved profile, or None for a name}``.

    A loaded profile's machine is the machine: predictions run on
    ``profile.machine``, so calibration, replay and profiling the other
    targets must too.  Otherwise ``--cores`` (default 12) sizes it.  A
    ``--cores`` that disagrees, or profiles from several machines, raise
    ConfigurationError.
    """
    saved = {
        t: load_profile(t) if Path(t).suffix == ".json" and Path(t).exists()
        else None
        for t in targets
    }
    machines = {p.machine for p in saved.values() if p is not None}
    if len(machines) > 1:
        raise ConfigurationError(
            "saved profiles were taken on different machines: "
            + ", ".join(sorted(f"{m.n_cores} cores" for m in machines))
        )
    if not machines:
        machine = MachineConfig(n_cores=12 if args.cores is None else args.cores)
    else:
        (machine,) = machines
        if args.cores is not None and args.cores != machine.n_cores:
            raise ConfigurationError(
                f"--cores {args.cores} disagrees with the saved profile's "
                f"{machine.n_cores}-core machine"
            )
    return ParallelProphet(machine=machine), saved


def _profiles_for(
    prophet: ParallelProphet, saved: dict[str, Optional[ProgramProfile]]
) -> dict[str, ProgramProfile]:
    """Name → profile of every target: saved profiles under their file
    stem, workload names profiled on the prophet's machine."""
    profiles = {}
    for target, profile in saved.items():
        if profile is not None:
            profiles[Path(target).stem] = profile
        else:
            wl = get_workload(target)
            profiles[wl.name] = prophet.profile(wl.program)
    return profiles


def _add_machine_args(parser: argparse.ArgumentParser) -> None:
    parser.add_argument(
        "--cores", type=int, default=None,
        help="simulated core count (default: a saved profile's machine, "
        "else 12)",
    )


def cmd_list(_args: argparse.Namespace) -> int:
    """``list``: print the registered workloads."""
    print(f"{'name':<16} {'paradigm':<9} {'input':<12} description")
    for name in workload_names():
        wl = get_workload(name)
        print(f"{name:<16} {wl.paradigm:<9} {wl.input_label:<12} {wl.description}")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    """``profile``: interval-profile a workload; optionally save JSON."""
    prophet, _ = _prophet_for(args)
    machine = prophet.machine
    wl = get_workload(args.workload)
    profile = prophet.profile(wl.program)
    print(f"profiled {wl.name}: {profile.serial_cycles() / 1e6:.2f} Mcycles serial, "
          f"{profile.tree.logical_nodes()} logical nodes "
          f"({profile.tree.unique_nodes()} stored), "
          f"slowdown {profile.stats.slowdown:.2f}x")
    for name, sc in profile.sections.items():
        print(f"  section {name:<14} MPI={sc.mpi:.5f} "
              f"traffic={sc.traffic_mbs(machine):7.0f} MB/s "
              f"x{sc.invocations}")
    if args.output:
        save_profile(profile, args.output)
        print(f"saved profile to {args.output}")
    return 0


def cmd_predict(args: argparse.Namespace) -> int:
    """``predict``: run the emulators and (optionally) the ground truth."""
    if args.metrics:
        get_metrics().reset()
    checker = prev = None
    if args.selfcheck:
        checker, prev = _selfcheck_begin()
    target = args.target
    prophet, saved = _prophet_for(args, [target])
    machine = prophet.machine
    threads = _parse_threads(args.threads)
    schedules = args.schedules.split(";")

    if saved[target] is not None:
        profile = saved[target]
        paradigm = args.paradigm or "omp"
        label = target
    else:
        wl = get_workload(target)
        profile = prophet.profile(wl.program)
        paradigm = args.paradigm or wl.paradigm
        if args.schedules == "static" and wl.schedule != "static":
            schedules = [wl.schedule]
        label = f"{wl.name} ({wl.input_label})"

    print(f"predicting {label} on {machine.n_cores} cores, "
          f"paradigm={paradigm}, schedules={schedules}")
    report = prophet.predict(
        profile,
        threads=threads,
        paradigm=paradigm,
        schedules=schedules,
        methods=tuple(args.methods.split(",")),
        memory_model=not args.no_memory_model,
        tier=args.tier,
    )
    print(report.to_table())

    if not args.no_real:
        real = prophet.measure_real(
            profile, threads, paradigm=paradigm, schedule=schedules[0]
        )
        print("\nsimulated ground truth vs synthesizer:")
        for t in threads:
            r = real.speedup(n_threads=t)
            candidates = report.get(method="syn", n_threads=t, schedule=schedules[0])
            if candidates:
                p = candidates[0].speedup
                print(f"  {t:2d} threads: real {r:5.2f}x, predicted {p:5.2f}x "
                      f"(error {error_ratio(p, r):.1%})")
    _maybe_print_metrics(args)
    if checker is not None:
        return _selfcheck_end(checker, prev)
    return 0


def cmd_diagnose(args: argparse.Namespace) -> int:
    """``diagnose``: per-section bottleneck attribution."""
    from repro.core.diagnose import BottleneckDiagnoser
    from repro.runtime.tasks import Schedule

    target = args.target
    prophet, saved = _prophet_for(args, [target])
    if saved[target] is not None:
        profile = saved[target]
        schedule = Schedule.parse(args.schedule)
        label = target
    else:
        wl = get_workload(target)
        profile = prophet.profile(wl.program)
        schedule = Schedule.parse(
            args.schedule if args.schedule != "static" else wl.schedule
        )
        label = f"{wl.name} ({wl.input_label})"

    t = args.threads_one
    prophet.attach_burdens(profile, [t])
    print(f"diagnosing {label} at {t} threads (schedule {schedule.label}):\n")
    diagnoser = BottleneckDiagnoser(schedule=schedule)
    for diag in diagnoser.diagnose(profile, t):
        print(diag.summary())
    return 0


def cmd_sweep(args: argparse.Namespace) -> int:
    """``sweep``: batch-predict a grid of workloads, schedules, threads."""
    from repro.core.batch import BatchPredictor

    if args.metrics:
        get_metrics().reset()
    checker = prev = None
    if args.selfcheck:
        checker, prev = _selfcheck_begin()
    targets = [t.strip() for t in args.workloads.split(",") if t.strip()]
    prophet, saved = _prophet_for(args, targets)
    threads = _parse_threads(args.threads)
    schedules = args.schedules.split(";")
    methods = tuple(args.methods.split(","))
    profiles = _profiles_for(prophet, saved)

    predictor = BatchPredictor(prophet, jobs=args.jobs)
    print(
        f"sweeping {len(profiles)} workload(s) × {len(schedules)} schedule(s) "
        f"× {len(threads)} thread count(s), methods={list(methods)}, "
        f"jobs={predictor.jobs}"
    )
    reports = predictor.sweep(
        profiles,
        threads=threads,
        schedules=schedules,
        methods=methods,
        memory_model=not args.no_memory_model,
        on_error="collect",
        tier=args.tier,
    )
    if args.explore > 0:
        from repro.explore import Explorer
        from repro.validate.differential import _has_locks

        locky = {n: p for n, p in profiles.items() if _has_locks(p.tree)}
        skipped = sorted(set(profiles) - set(locky))
        if skipped:
            print(
                f"explore: skipping lock-free workload(s) {', '.join(skipped)} "
                "(single interleaving, envelope is a point)"
            )
        if locky:
            explored = Explorer(
                prophet,
                samples=args.explore,
                jobs=args.jobs,
            ).explore(
                locky,
                threads=threads,
                schedules=schedules,
                memory_model=not args.no_memory_model,
                on_error="collect",
            )
            for name, exp in explored.items():
                reports[name].envelopes.extend(exp.envelopes)
                reports[name].failures.extend(exp.failures)
    sections = []
    for name, report in reports.items():
        print(f"\n== {name} ==")
        print(report.to_table())
        sections.append(f"## {name}\n\n{report.to_markdown()}\n")
    if args.output:
        Path(args.output).write_text("# Sweep report\n\n" + "\n".join(sections))
        print(f"\nwrote {args.output}")
    _maybe_print_metrics(args)
    rc = 0
    n_failed = sum(len(r.failures) for r in reports.values())
    if n_failed:
        # A partially-failed sweep must not exit 0: scripts piping this into
        # reports would treat the (incomplete) grid as authoritative.
        print(
            f"warning: {n_failed} grid point(s) failed; "
            "tables above are incomplete (see per-report failure footnotes)",
            file=sys.stderr,
        )
        rc = 1
    if checker is not None:
        rc = max(rc, _selfcheck_end(checker, prev))
    return rc


def cmd_check(args: argparse.Namespace) -> int:
    """``check``: differential FF/SYN/REAL validation + invariant checks.

    Runs the full validation stack: the prediction pipeline with runtime
    invariant checks enabled (record mode), a differential comparison of
    every prediction method against the simulated ground truth under the
    tolerance policy, and a deterministic fuzz pass over randomly generated
    annotated programs.  Exits non-zero on any invariant violation or
    unexplained FF/SYN-vs-REAL divergence.
    """
    from repro.validate import DifferentialHarness, run_fuzz

    if args.quick:
        # EP's locked accumulation exercises the fallback paths; FT's
        # lock-free memory loops give the columnar re-verification below
        # real grid points to check.
        workload_list = ["npb_ep", "npb_ft"]
        threads = [2, 4]
        schedules = ["static"]
        n_fuzz = 4
        memory_model = False
    else:
        workload_list = [w.strip() for w in args.workloads.split(",") if w.strip()]
        threads = _parse_threads(args.threads)
        schedules = args.schedules.split(";")
        n_fuzz = args.fuzz
        memory_model = not args.no_memory_model

    checker, prev = _selfcheck_begin()
    try:
        prophet, saved = _prophet_for(args, workload_list)
        profiles = _profiles_for(prophet, saved)
        harness = DifferentialHarness(prophet)
        print(
            f"differential-validating {len(profiles)} workload(s) × "
            f"{len(schedules)} schedule(s) × {len(threads)} thread count(s) ..."
        )
        report = harness.run(
            profiles,
            threads=threads,
            schedules=schedules,
            memory_model=memory_model,
        )
        if n_fuzz > 0:
            print(f"fuzzing {n_fuzz} random program(s) (seed {args.seed}) ...")
            report.merge(run_fuzz(n_programs=n_fuzz, seed=args.seed))
        print(report.summary())
        rc = 1 if report.violations else 0
        # Columnar engine: sampled re-verification against the *uncached*
        # eager path (same pattern as the section-memo invariant) — every
        # point the engine serves must be == its eager oracle, FF/SYN
        # predictions and REAL ground truth alike.  --quick covers the
        # paper's three schedules whatever the harness ran, so the walks'
        # static, static,1 and dynamic chunk cursors are re-verified, and
        # adds the task-pool walks: Cilk FFT and QSORT (at the three
        # schedules, so the walk the engine shares across a schedule
        # column is checked at each) and FFT under OpenMP tasks (SYN and
        # REAL), plus one oversubscribed FT team, which the executor
        # replays.  EP's lock walk is also re-verified under the LIFO and
        # a seeded-random handoff (SYN and REAL; FF reads no handoff), and
        # the nested-team walk on one seeded Fig. 11 Test2 program on 8
        # cores under FIFO and LIFO (SYN and REAL).
        from repro.core.columnar import verify_points

        # Saved profiles carry no paradigm; they re-verify as OpenMP.
        paradigms = {
            wl.name: wl.paradigm
            for wl in (get_workload(t) for t, p in saved.items() if p is None)
        }
        col_schedules = (
            ("static", "static,1", "dynamic,1") if args.quick else schedules
        )
        col_methods = ("ff", "syn", "real")
        col_grids = [
            (name, profile, paradigms.get(name, "omp"), threads, col_schedules,
             ("fifo", 0), col_methods)
            for name, profile in profiles.items()
        ]
        if args.quick:
            import numpy as np

            from repro.workloads import random_test2, test2_program

            fft = get_workload("ompscr_fft")
            fft_profile = prophet.profile(fft.program)
            qsort = get_workload("ompscr_qsort")
            test2 = ParallelProphet(
                machine=MachineConfig(n_cores=8), overheads=prophet.overheads
            ).profile(test2_program(
                random_test2(np.random.default_rng(args.seed), scale=0.4)
            ))
            col_grids += [
                (fft.name, fft_profile, fft.paradigm,
                 [2, 4], col_schedules, ("fifo", 0), col_methods),
                (qsort.name, prophet.profile(qsort.program), qsort.paradigm,
                 [2, 4], col_schedules, ("fifo", 0), col_methods),
                (fft.name, fft_profile, "omp_task", [2, 4], ("static",),
                 ("fifo", 0), ("syn", "real")),
                ("npb_ft", profiles["npb_ft"], "omp",
                 [prophet.machine.n_cores + 2], ("static",), ("fifo", 0),
                 col_methods),
            ] + [
                ("npb_ep", profiles["npb_ep"], "omp", [2, 4], col_schedules,
                 handoff, ("syn", "real"))
                for handoff in (("lifo", 0), ("random", 7))
            ] + [
                ("test2", test2, "omp", [8], col_schedules, handoff,
                 ("syn", "real"))
                for handoff in (("fifo", 0), ("lifo", 0))
            ]
        col = {m: 0 for m in col_methods}
        for (name, profile, paradigm, col_threads, sched_labels,
             (handoff, seed), methods) in col_grids:
            if memory_model and profile.sections:
                prophet.attach_burdens(profile, col_threads)
            for method in methods:
                checked, mismatches = verify_points(
                    prophet, profile, col_threads, sched_labels,
                    methods=(method,), paradigm=paradigm,
                    handoff=handoff, handoff_seed=seed,
                )
                col[method] += checked
                for msg in mismatches:
                    print(f"columnar: {name}: {msg}", file=sys.stderr)
                    rc = 1
        print(
            "columnar engine: "
            + ", ".join(f"{m} {n}" for m, n in col.items())
            + " grid point(s) re-verified against uncached eager replay"
        )
        # Surrogate tier: every confident answer of the default model on
        # this grid — exactly the answers tier="auto" would serve without
        # fallback — is compared against an uncached exact replay under
        # the surrogate tolerance class (docs/surrogate.md).
        from repro.validate import verify_surrogate

        sur_checked = sur_abstained = 0
        for name, profile in profiles.items():
            checked, abstained, sur_mismatches = verify_surrogate(
                prophet,
                profile,
                threads,
                schedules,
                memory_model=memory_model,
            )
            sur_checked += checked
            sur_abstained += abstained
            for msg in sur_mismatches:
                print(f"surrogate: {name}: {msg}", file=sys.stderr)
                rc = 1
        print(
            f"surrogate tier: {sur_checked} confident answer(s) verified "
            f"against uncached exact replay, {sur_abstained} abstention(s)"
        )
        if args.quick:
            # Sample one explored point and re-verify its envelope extremes
            # from cold caches (fresh columnar engine, cleared section
            # memo): EP is lock-bearing, so its envelope is live.
            from repro.explore import verify_envelope

            env_checked, env_mismatches = verify_envelope(
                prophet,
                profiles["npb_ep"],
                n_threads=2,
                memory_model=memory_model,
            )
            print(
                f"explore: {env_checked} envelope extreme(s) of npb_ep/t=2 "
                f"re-verified from cold caches, "
                f"{env_mismatches} mismatch(es)"
            )
            if env_mismatches:
                rc = 1
    finally:
        check_rc = _selfcheck_end(checker, prev)
    return max(rc, check_rc)


def cmd_serve(args: argparse.Namespace) -> int:
    """``serve``: run the prediction daemon until interrupted.

    A long-lived process serving predict/sweep/explore/check over
    HTTP+JSON with process-lifetime caches (calibrations, profiles,
    section memo, columnar lowerings, whole responses) — repeat traffic
    hits warm state instead of recalibrating per invocation.  See
    docs/serving.md for the endpoint reference.
    """
    from repro.serve import RequestBudgets, ServeConfig, create_server

    config = ServeConfig(
        host=args.host,
        port=args.port,
        workers=args.workers,
        queue_depth=args.queue_depth,
        budgets=RequestBudgets(
            max_grid_points=args.max_grid_points,
            timeout_s=args.timeout,
        ),
        jobs=args.jobs,
        tier=args.tier,
        log_requests=args.log_requests,
    )
    server = create_server(config)
    # flush=True: supervisors and scripts watching a piped stdout need the
    # bound (possibly ephemeral) port before the blocking serve loop.
    print(
        f"repro serve listening on {server.address} "
        f"(workers={config.workers}, queue depth={config.queue_depth}, "
        f"jobs={config.jobs})",
        flush=True,
    )
    print(
        "endpoints: GET /health /workloads /stats | "
        "POST /predict /sweep /explore /check /cache/clear /shutdown",
        flush=True,
    )
    server.serve_forever()
    print("repro serve: drained and stopped")
    return 0


def cmd_trace(args: argparse.Namespace) -> int:
    """``trace``: replay a workload with tracing on; export Perfetto JSON."""
    from repro.core.executor import ParallelExecutor, ReplayMode
    from repro.obs import Tracer, write_chrome_trace
    from repro.runtime.tasks import Schedule

    target = args.target
    prophet, saved = _prophet_for(args, [target])
    machine = prophet.machine
    if saved[target] is not None:
        profile = saved[target]
        paradigm = args.paradigm or "omp"
        schedule = Schedule.parse(args.schedule)
        label = target
    else:
        wl = get_workload(target)
        profile = prophet.profile(wl.program)
        paradigm = args.paradigm or wl.paradigm
        schedule = Schedule.parse(
            args.schedule if args.schedule != "static" else wl.schedule
        )
        label = f"{wl.name} ({wl.input_label})"

    tracer = Tracer(capacity=args.buffer, enabled=True)
    mode = ReplayMode.REAL if args.mode == "real" else ReplayMode.FAKE
    burdens = {}
    if mode is ReplayMode.FAKE:
        prophet.attach_burdens(profile, [args.threads])
        burdens = {
            name: profile.burden_for(name, args.threads)
            for name in profile.sections
        }
    executor = ParallelExecutor(
        machine=machine,
        paradigm=paradigm,
        schedule=schedule,
        overheads=prophet.overheads,
        tracer=tracer,
    )
    result = executor.execute_profile(
        profile.tree, args.threads, mode=mode, burdens=burdens
    )
    write_chrome_trace(tracer.events(), args.out, freq_ghz=machine.freq_ghz)
    print(
        f"traced {label}: {args.threads} threads, mode={args.mode}, "
        f"{result.total_cycles / 1e6:.2f} Mcycles simulated"
    )
    print(f"wrote {len(tracer)} events to {args.out} (open in ui.perfetto.dev)")
    if tracer.dropped:
        print(
            f"warning: ring buffer overflowed, {tracer.dropped} oldest "
            f"event(s) dropped — rerun with --buffer {2 * args.buffer}"
        )
    return 0


def cmd_calibrate(args: argparse.Namespace) -> int:
    """``calibrate``: print the machine's fitted Eqs. 6-7."""
    prophet, _ = _prophet_for(args)
    threads = _parse_threads(args.threads)
    cal = prophet.calibration(threads)
    print(cal.summary())
    return 0


def build_parser() -> argparse.ArgumentParser:
    """Construct the argument parser for all subcommands."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Parallel Prophet: speedup prediction for annotated "
        "serial programs (IPDPS 2012 reproduction).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_list = sub.add_parser("list", help="list registered workloads")
    p_list.set_defaults(func=cmd_list)

    p_profile = sub.add_parser("profile", help="profile a workload")
    p_profile.add_argument("workload", help="workload name (see `list`)")
    p_profile.add_argument("-o", "--output", help="save profile JSON here")
    _add_machine_args(p_profile)
    p_profile.set_defaults(func=cmd_profile)

    p_predict = sub.add_parser("predict", help="predict speedups")
    p_predict.add_argument(
        "target", help="workload name or saved profile .json path"
    )
    p_predict.add_argument(
        "--threads", default="2,4,6,8,10,12", help="comma-separated counts"
    )
    p_predict.add_argument(
        "--schedules",
        default="static",
        help="semicolon-separated OpenMP schedules (e.g. 'static,1;dynamic,1')",
    )
    p_predict.add_argument(
        "--methods", default="ff,syn", help="comma-separated: ff,syn"
    )
    p_predict.add_argument("--paradigm", choices=("omp", "cilk", "omp_task"))
    p_predict.add_argument(
        "--no-memory-model", action="store_true", help="disable burden factors"
    )
    p_predict.add_argument(
        "--no-real", action="store_true", help="skip the ground-truth replay"
    )
    p_predict.add_argument(
        "--tier", choices=TIERS, default="exact", help=_TIER_HELP
    )
    p_predict.add_argument(
        "--metrics", action="store_true",
        help="print the process-wide metrics registry after predicting",
    )
    p_predict.add_argument(
        "--selfcheck", action="store_true",
        help="run with runtime invariant checks on; non-zero exit on violation",
    )
    _add_machine_args(p_predict)
    p_predict.set_defaults(func=cmd_predict)

    p_diag = sub.add_parser(
        "diagnose", help="attribute per-section speedup loss to causes"
    )
    p_diag.add_argument("target", help="workload name or saved profile .json")
    p_diag.add_argument(
        "--threads", dest="threads_one", type=int, default=8,
        help="thread count to diagnose at (default 8)",
    )
    p_diag.add_argument("--schedule", default="static")
    _add_machine_args(p_diag)
    p_diag.set_defaults(func=cmd_diagnose)

    p_sweep = sub.add_parser(
        "sweep", help="batch-predict a workload × schedule × threads grid"
    )
    p_sweep.add_argument(
        "workloads",
        help="comma-separated workload names and/or saved profile .json paths",
    )
    p_sweep.add_argument(
        "--threads", default="2,4,6,8,10,12", help="comma-separated counts"
    )
    p_sweep.add_argument(
        "--schedules",
        default="static",
        help="semicolon-separated OpenMP schedules (e.g. 'static,1;dynamic,1')",
    )
    p_sweep.add_argument(
        "--methods", default="syn", help="comma-separated: ff,syn,real"
    )
    p_sweep.add_argument(
        "--jobs", type=int, default=1,
        help="worker processes (1 = in-process; results identical either way)",
    )
    p_sweep.add_argument(
        "--no-memory-model", action="store_true", help="disable burden factors"
    )
    p_sweep.add_argument(
        "--explore", type=int, default=0, metavar="N",
        help="explore N lock-handoff interleavings per grid point of each "
        "lock-bearing workload and print [min, max] speedup envelopes "
        "(0 disables; see docs/exploration.md)",
    )
    p_sweep.add_argument("-o", "--output", help="write a markdown report here")
    p_sweep.add_argument(
        "--tier", choices=TIERS, default="exact", help=_TIER_HELP
    )
    p_sweep.add_argument(
        "--metrics", action="store_true",
        help="print the merged (parent + workers) metrics after the sweep",
    )
    p_sweep.add_argument(
        "--selfcheck", action="store_true",
        help="run with runtime invariant checks on (workers inherit via "
        "REPRO_VALIDATE); non-zero exit on violation",
    )
    _add_machine_args(p_sweep)
    p_sweep.set_defaults(func=cmd_sweep)

    p_check = sub.add_parser(
        "check",
        help="validate the pipeline: invariants + FF/SYN/REAL differential "
        "+ deterministic fuzz",
    )
    p_check.add_argument(
        "--workloads", default="npb_ep,ompscr_lu",
        help="comma-separated workload names and/or saved profile .json paths",
    )
    p_check.add_argument(
        "--threads", default="2,4,8", help="comma-separated counts"
    )
    p_check.add_argument(
        "--schedules", default="static",
        help="semicolon-separated OpenMP schedules",
    )
    p_check.add_argument(
        "--fuzz", type=int, default=8,
        help="number of random fuzz programs (0 disables; default 8)",
    )
    p_check.add_argument(
        "--seed", type=int, default=0, help="fuzz RNG seed (default 0)"
    )
    p_check.add_argument(
        "--no-memory-model", action="store_true", help="disable burden factors"
    )
    p_check.add_argument(
        "--quick", action="store_true",
        help="small fixed configuration (one workload, t=2,4, 4 fuzz "
        "programs, no memory model) for CI and benchmarks/run_all.py",
    )
    _add_machine_args(p_check)
    p_check.set_defaults(func=cmd_check)

    p_serve = sub.add_parser(
        "serve",
        help="run the prediction daemon (HTTP+JSON, process-lifetime caches)",
    )
    p_serve.add_argument("--host", default="127.0.0.1")
    p_serve.add_argument(
        "--port", type=int, default=8765,
        help="listen port (0 picks an ephemeral port; default 8765)",
    )
    p_serve.add_argument(
        "--workers", type=int, default=1,
        help="compute worker threads draining the request queue (default 1)",
    )
    p_serve.add_argument(
        "--queue-depth", type=int, default=16,
        help="pending-request bound; beyond it requests get 429 (default 16)",
    )
    p_serve.add_argument(
        "--max-grid-points", type=int, default=4096,
        help="per-request grid-size budget; beyond it 413 (default 4096)",
    )
    p_serve.add_argument(
        "--timeout", type=float, default=60.0,
        help="per-request wall-clock ceiling in seconds (default 60)",
    )
    p_serve.add_argument(
        "--jobs", type=int, default=1,
        help="sweep worker processes per cached predictor (default 1 — "
        "in-process, which is what keeps the replay caches warm)",
    )
    p_serve.add_argument(
        "--tier", choices=TIERS, default="exact",
        help="default prediction tier for requests that don't set \"tier\" "
        "themselves (see docs/surrogate.md)",
    )
    p_serve.add_argument(
        "--log-requests", action="store_true",
        help="log one line per HTTP request to stderr",
    )
    p_serve.set_defaults(func=cmd_serve)

    p_trace = sub.add_parser(
        "trace",
        help="export a replay timeline as Chrome-trace/Perfetto JSON",
    )
    p_trace.add_argument(
        "target", help="workload name or saved profile .json path"
    )
    p_trace.add_argument(
        "--threads", type=int, default=4, help="thread count to replay at"
    )
    p_trace.add_argument("--schedule", default="static")
    p_trace.add_argument(
        "--mode", choices=("real", "syn"), default="real",
        help="real = ground-truth replay; syn = synthesizer fake-delay replay",
    )
    p_trace.add_argument("--paradigm", choices=("omp", "cilk", "omp_task"))
    p_trace.add_argument(
        "--out", default="trace.json", help="output path (default trace.json)"
    )
    p_trace.add_argument(
        "--buffer", type=int, default=1 << 18,
        help="tracer ring-buffer capacity in events (default 262144)",
    )
    _add_machine_args(p_trace)
    p_trace.set_defaults(func=cmd_trace)

    p_cal = sub.add_parser("calibrate", help="print fitted Psi/Phi formulas")
    p_cal.add_argument("--threads", default="2,4,8,12")
    _add_machine_args(p_cal)
    p_cal.set_defaults(func=cmd_calibrate)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover - exercised via __main__
    sys.exit(main())
