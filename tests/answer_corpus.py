"""Golden answer corpus for the prediction pipeline (Fig. 11 slice).

The kernel corpus (``tests/kernel_corpus.py``) pins ``SimKernel``'s
schedules; this corpus pins the *answers* the grid-point evaluator serves,
end to end.  It covers the 48 first seeded Fig. 11 validation programs:
Test1 and Test2 samples at scale 0.4, drawn 1:3 from one
``numpy.random.default_rng(seed)`` stream with
:func:`repro.workloads.random_test1` / :func:`repro.workloads.random_test2`,
on 8 and 12 cores in turn (every four programs) at the schedules
``static``, ``static,1`` and ``dynamic,1`` in turn.  Each program is
profiled and predicted with FF, SYN and REAL at ``t = n_cores`` (OpenMP,
no memory model) through ``BatchPredictor.run``, the serving path.

A record holds the program's settings, a sha256 of its serialized profile
(so a profiler change is told apart from an evaluator change) and the
three speedups as ``float.hex``.  ``tests/test_answer_corpus.py`` requires
every record to be reproduced exactly.  Re-recording moves answers and is
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


def record_all() -> list[dict]:
    answerer = Answerer()
    return [
        answerer.answer(program, answerer.profile(program))
        for program in draw_programs()
    ]


def load_corpus() -> list[dict]:
    return json.loads(CORPUS_PATH.read_text())["programs"]


def write_corpus(records: list[dict]) -> None:
    """One program per line, so moved answers show up as a readable diff."""
    lines = ",\n".join(json.dumps(r) for r in records)
    text = f'{{"seed": {CORPUS_SEED}, "programs": [\n{lines}\n]}}\n'
    CORPUS_PATH.write_text(text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/answer_corpus.py --write")
    write_corpus(record_all())
    print(f"wrote {CORPUS_PATH}")
