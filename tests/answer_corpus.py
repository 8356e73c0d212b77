"""Golden answer corpus for the prediction pipeline (Fig. 11 and Fig. 12
slices).

The kernel corpus (``tests/kernel_corpus.py``) pins ``SimKernel``'s
schedules; this corpus pins the *answers* the grid-point evaluator serves,
end to end.  The Fig. 11 slice covers the 48 first seeded Fig. 11
validation programs:
Test1 and Test2 samples at scale 0.4, drawn 1:3 from one
``numpy.random.default_rng(seed)`` stream with
:func:`repro.workloads.random_test1` / :func:`repro.workloads.random_test2`,
on 8 and 12 cores in turn (every four programs) at the schedules
``static``, ``static,1`` and ``dynamic,1`` in turn.  Each program is
profiled and predicted with FF, SYN and REAL at ``t = n_cores`` (OpenMP,
no memory model) through ``BatchPredictor.run``, the serving path.

A record holds the program's settings, a sha256 of its serialized profile
(so a profiler change is told apart from an evaluator change) and the
three speedups as ``float.hex``.

The Fig. 12 slice covers the Fig. 12 grid of all eight benchmarks at the
end-to-end benchmark's scales (:data:`FIG12_SCALES`, copied), on 12
cores, each profiled and predicted by a fresh ``ParallelProphet`` through
one ``BatchPredictor.run``: FF and SYN with the memory model over
``static``, ``static,1`` and ``dynamic,1`` at t = 2..12, then SYN without
the memory model and REAL at the workload's native schedule, under its
native paradigm (48 points).  The two Cilk benchmarks add SYN (with the
memory model) and REAL under ``omp_task`` at t = 2, 4 and 12.  A record
holds the workload, its profile's sha256 and every point's speedup as
``float.hex``, keyed ``method[+mm]/paradigm/schedule/t``.

``tests/test_answer_corpus.py`` requires every record to be reproduced
exactly.  Re-recording moves answers and is
a deliberate act::

    PYTHONPATH=src python tests/answer_corpus.py --write
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

CORPUS_PATH = Path(__file__).with_name("data") / "answer_corpus.json"

#: Seed of the program stream.
CORPUS_SEED = 1
#: Programs recorded: two full rotations of pattern, cores and schedule.
N_PROGRAMS = 48
#: Scale of the drawn samples.
SCALE = 0.4
#: Schedules, dealt in turn.
SCHEDULES = ("static", "static,1", "dynamic,1")
#: Machines, dealt in turn every four programs.
CORES = (8, 12)
METHODS = ("ff", "syn", "real")

#: Fig. 12 slice: the benchmarks in panel order, at the end-to-end
#: benchmark's scales (copied, so editing that benchmark cannot move the
#: corpus), on the 12-core machine of the paper's evaluation.
FIG12_SCALES: dict[str, dict] = {
    "ompscr_md": dict(particles=512, steps=2),
    "ompscr_lu": dict(size=96),
    "ompscr_fft": dict(n_points=4096),
    "ompscr_qsort": dict(elements=200_000),
    "npb_ep": dict(batches=192),
    "npb_ft": dict(planes=48, timesteps=2),
    "npb_cg": dict(outer_steps=2, inner_iterations=5, row_blocks=64),
    "npb_mg": dict(fine_planes=48, cycles_count=2),
}
FIG12_CORES = 12
FIG12_THREADS = (2, 4, 6, 8, 10, 12)
#: The Cilk benchmarks also answer under OpenMP tasks at these counts.
POOL_WORKLOADS = ("ompscr_fft", "ompscr_qsort")
POOL_THREADS = (2, 4, 12)


def draw_programs(seed: int = CORPUS_SEED, n: int = N_PROGRAMS) -> list[dict]:
    """The first ``n`` programs of the seeded stream: ``{index, pattern,
    params, cores, schedule}`` each; every fourth one (from the first) is
    a Test1 sample, the others Test2 samples."""
    import numpy as np

    from repro.workloads import random_test1, random_test2

    rng = np.random.default_rng(seed)
    programs = []
    for index in range(n):
        if index % 4 == 0:
            pattern, params = "test1", random_test1(rng, scale=SCALE)
        else:
            pattern, params = "test2", random_test2(rng, scale=SCALE)
        programs.append(
            dict(
                index=index,
                pattern=pattern,
                params=params,
                cores=CORES[(index // 4) % len(CORES)],
                schedule=SCHEDULES[index % len(SCHEDULES)],
            )
        )
    return programs


def profile_sha256(profile) -> str:
    """sha256 of the profile's canonical JSON serialization."""
    from repro.core.serialize import profile_to_dict

    text = json.dumps(profile_to_dict(profile), sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


class Answerer:
    """One prophet and predictor per machine, shared across programs, as
    a long-lived predictor serves them."""

    def __init__(self) -> None:
        from repro import ParallelProphet
        from repro.core.batch import BatchPredictor
        from repro.simhw import MachineConfig

        self.predictors = {}
        for cores in CORES:
            prophet = ParallelProphet(machine=MachineConfig(n_cores=cores))
            self.predictors[cores] = (prophet, BatchPredictor(prophet, jobs=1))

    def profile(self, program: dict):
        from repro.workloads import test1_program, test2_program

        build = test1_program if program["pattern"] == "test1" else test2_program
        prophet, _ = self.predictors[program["cores"]]
        return prophet.profile(build(program["params"]))

    def answer(self, program: dict, profile) -> dict:
        """The program's record: settings, profile digest and speedups."""
        from repro.core.batch import SweepTask

        _, predictor = self.predictors[program["cores"]]
        task = SweepTask(
            "sample", program["schedule"], program["cores"], METHODS,
            paradigm="omp", memory_model=False,
        )
        [(_task, estimates)] = predictor.run([task], {"sample": profile})
        return dict(
            index=program["index"],
            pattern=program["pattern"],
            cores=program["cores"],
            schedule=program["schedule"],
            profile_sha256=profile_sha256(profile),
            **{e.method: e.speedup.hex() for e in estimates},
        )


def fig12_tasks(name: str, spec) -> list:
    """``name``'s Fig. 12 grid (plus the ``omp_task`` points of a Cilk
    benchmark) as sweep tasks, in the order they are answered."""
    from repro.core.batch import SweepTask

    native, paradigm = spec.schedule, spec.paradigm
    tasks = [
        SweepTask(name, s, t, ("ff", "syn"), paradigm, True)
        for s in SCHEDULES
        for t in FIG12_THREADS
    ]
    tasks += [SweepTask(name, native, t, ("syn",), paradigm, False)
              for t in FIG12_THREADS]
    tasks += [SweepTask(name, native, t, ("real",), paradigm, False)
              for t in FIG12_THREADS]
    if name in POOL_WORKLOADS:
        tasks += [SweepTask(name, native, t, ("syn", "real"), "omp_task", True)
                  for t in POOL_THREADS]
    return tasks


def point_key(task, estimate) -> str:
    """``method[+mm]/paradigm/schedule/t`` of one answered point."""
    mm = "+mm" if estimate.with_memory_model else ""
    return (f"{estimate.method}{mm}/{task.paradigm}/{task.schedule}"
            f"/{task.n_threads}")


def answer_fig12(name: str) -> tuple[dict, list, object]:
    """``name``'s Fig. 12 record, its ``(task, estimate)`` pairs and its
    profile, from a fresh prophet on the 12-core machine."""
    from repro import ParallelProphet
    from repro.core.batch import BatchPredictor
    from repro.simhw import MachineConfig
    from repro.workloads import get_workload

    spec = get_workload(name, **FIG12_SCALES[name])
    prophet = ParallelProphet(machine=MachineConfig(n_cores=FIG12_CORES))
    profile = prophet.profile(spec.program)
    result = BatchPredictor(prophet, jobs=1).run(
        fig12_tasks(name, spec), {name: profile}
    )
    pairs = [(task, e) for task, estimates in result for e in estimates]
    record = dict(
        workload=name,
        profile_sha256=profile_sha256(profile),
        points={point_key(task, e): e.speedup.hex() for task, e in pairs},
    )
    return record, pairs, profile


def record_all() -> list[dict]:
    answerer = Answerer()
    return [
        answerer.answer(program, answerer.profile(program))
        for program in draw_programs()
    ]


def record_fig12() -> list[dict]:
    return [answer_fig12(name)[0] for name in FIG12_SCALES]


def load_corpus() -> list[dict]:
    return json.loads(CORPUS_PATH.read_text())["programs"]


def load_fig12() -> list[dict]:
    return json.loads(CORPUS_PATH.read_text())["fig12"]


def write_corpus(records: list[dict], fig12: list[dict]) -> None:
    """One program or workload per line, so moved answers show up as a
    readable diff."""
    lines = ",\n".join(json.dumps(r) for r in records)
    fig12_lines = ",\n".join(json.dumps(r) for r in fig12)
    text = (
        f'{{"seed": {CORPUS_SEED}, "programs": [\n{lines}\n],\n'
        f'"fig12": [\n{fig12_lines}\n]}}\n'
    )
    CORPUS_PATH.write_text(text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/answer_corpus.py --write")
    write_corpus(record_all(), record_fig12())
    print(f"wrote {CORPUS_PATH}")
