"""Golden schedule corpus for the DES kernel.

A seeded ``random.Random`` draws small program trees (ROOT -> SEC* ->
TASK* -> U/L leaves) and replay settings.  A second seeded generator
appends a *nested* block, whose tasks each hold a nested SEC beside their
leaves: nested OpenMP teams, nested ``cilk_for`` ranges and nested task
groups.  Each case replays through
:class:`~repro.core.executor.ParallelExecutor` on kernels that record their
schedule traces.  The recorded answer per case is the final time (``repr``),
the preemption count, the number of heap events pushed and a sha256 of the
concatenated schedule trace.  ``tests/test_kernel_hotpath.py`` requires
the kernel to reproduce every record, untraced and traced.

The generator uses only ``random.Random`` draws whose algorithms are stable
across Python versions, so the corpus is the same on every supported
interpreter.  Regenerate the data file (after an intended schedule change)
with::

    PYTHONPATH=src python tests/kernel_corpus.py --write
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from pathlib import Path

from repro.core.executor import ParallelExecutor, ReplayMode, clear_section_memo
from repro.core.tree import Node, NodeKind, ProgramTree
from repro.runtime.tasks import Schedule
from repro.simhw import MachineConfig
from repro.simos import SimKernel

CORPUS_PATH = Path(__file__).with_name("data") / "kernel_corpus.json"

#: Seed of the case generator; every case derives its own seed from it.
CORPUS_SEED = 20_261_017
#: Cases per (paradigm, mode, handoff) cell.
CASES_PER_CELL = 10
#: Seed of the nested block's own generator, so adding the block moved no
#: draw, and no record, of the flat cases.
NESTED_SEED = 20_261_018
#: Nested cases per (paradigm, mode, handoff, thread count) cell.
NESTED_CASES_PER_CELL = 3

PARADIGMS = ("omp", "cilk", "omp_task")
MODES = ("real", "fake")
HANDOFFS = ("fifo", "lifo", "random", "adversarial")
SCHEDULES = ("static", "static,3", "dynamic,2", "guided,1")

MACHINES = {
    "m4": MachineConfig(n_cores=4, timeslice_cycles=20_000.0),
    # Every core change costs a context switch (debt paid on resume).
    "m4_switch": MachineConfig(
        n_cores=4, timeslice_cycles=20_000.0, context_switch_cycles=1_500.0
    ),
    # Two sockets with a low bandwidth cap: memory-heavy leaves saturate
    # each socket's DRAM pool independently.
    "m8_2s": MachineConfig(
        n_cores=8, n_sockets=2, timeslice_cycles=20_000.0, dram_peak_gbs=6.0
    ),
}


def _length(rng: random.Random) -> float:
    return 100.0 + rng.random() * 5e5


def build_tree(rng: random.Random, locks: bool, missy: float) -> ProgramTree:
    """ROOT -> U, SEC* -> TASK* -> U/L leaves, with repeats, optional
    misses (``missy`` = misses per cpu cycle of a missing leaf) and, when
    ``locks``, at least one lock-bearing leaf per section."""
    root = Node(NodeKind.ROOT)
    root.add(Node(NodeKind.U, length=_length(rng)))
    n_secs = rng.randint(1, 2)
    for s in range(n_secs):
        sec = root.add(
            Node(
                NodeKind.SEC,
                name=f"s{s}",
                nowait=s + 1 < n_secs and rng.random() < 0.3,
            )
        )
        n_tasks = rng.randint(1, 4)
        for i in range(n_tasks):
            task = sec.add(Node(NodeKind.TASK, repeat=rng.choice((1, 3, 17))))
            _add_leaves(rng, task, locks and i == n_tasks - 1, missy)
    return ProgramTree(root)


def build_nested_tree(rng: random.Random, locks: bool, missy: float) -> ProgramTree:
    """ROOT -> U, SEC* -> TASK* -> (U/L leaves, nested SEC -> TASK* -> U/L
    leaves); when ``locks``, the last task of each section and the first
    task of each nested section hold a lock-bearing leaf."""
    root = Node(NodeKind.ROOT)
    root.add(Node(NodeKind.U, length=_length(rng)))
    n_secs = rng.randint(1, 2)
    for s in range(n_secs):
        sec = root.add(
            Node(
                NodeKind.SEC,
                name=f"s{s}",
                nowait=s + 1 < n_secs and rng.random() < 0.3,
            )
        )
        n_tasks = rng.randint(1, 3)
        for i in range(n_tasks):
            task = sec.add(Node(NodeKind.TASK, repeat=rng.choice((1, 2))))
            _add_leaves(rng, task, locks and i == n_tasks - 1, missy)
            inner = task.add(
                Node(NodeKind.SEC, name=f"s{s}.{i}", repeat=rng.choice((1, 2)))
            )
            for k in range(rng.randint(1, 3)):
                inner_task = inner.add(
                    Node(NodeKind.TASK, repeat=rng.choice((1, 3)))
                )
                _add_leaves(rng, inner_task, locks and k == 0, missy)
    return ProgramTree(root)


def _add_leaves(
    rng: random.Random, task: Node, force_lock: bool, missy: float
) -> None:
    """One to three U/L leaves under ``task``; the first is an L leaf when
    ``force_lock``, any other is one with probability 1/6."""
    for j in range(rng.randint(1, 3)):
        cpu = _length(rng)
        locked = rng.randint(0, 5) == 0 or (force_lock and j == 0)
        if locked:
            task.add(
                Node(
                    NodeKind.L,
                    length=cpu,
                    cpu_cycles=cpu,
                    lock_id=rng.randint(1, 2),
                )
            )
        else:
            miss = cpu * missy if rng.random() < 0.5 else 0.0
            task.add(
                Node(
                    NodeKind.U,
                    length=cpu + miss * 30.0,
                    cpu_cycles=cpu,
                    instructions=cpu * 2.0,
                    llc_misses=miss,
                    repeat=rng.choice((1, 1, 4)),
                )
            )


def generate_cases() -> list[dict]:
    """Every case's settings, in corpus order.

    The (paradigm, mode, handoff) grid is covered exactly; schedule,
    thread count (both sides of ``n_cores``) and machine are drawn."""
    rng = random.Random(CORPUS_SEED)
    cases = []
    for paradigm in PARADIGMS:
        for mode in MODES:
            for handoff in HANDOFFS:
                for _ in range(CASES_PER_CELL):
                    machine = rng.choice(sorted(MACHINES))
                    n_cores = MACHINES[machine].n_cores
                    cases.append(
                        dict(
                            id=len(cases),
                            paradigm=paradigm,
                            mode=mode,
                            handoff=handoff,
                            handoff_seed=rng.randint(0, 999),
                            # Lock-bearing under every policy; fifo cases
                            # also cover lock-free trees.
                            locks=handoff != "fifo" or rng.random() < 0.5,
                            schedule=rng.choice(SCHEDULES),
                            machine=machine,
                            n_threads=rng.choice(
                                (1, n_cores - 1, n_cores, n_cores + 3)
                            ),
                            tree_seed=rng.getrandbits(32),
                        )
                    )
    return cases + _nested_cases(len(cases))


def _nested_cases(first_id: int) -> list[dict]:
    """The nested block: every paradigm and mode, fifo (lock-bearing or
    not) and lock-bearing lifo, at t = 1, 2 and ``n_cores``."""
    rng = random.Random(NESTED_SEED)
    cases = []
    for paradigm in PARADIGMS:
        for mode in MODES:
            for handoff in ("fifo", "lifo"):
                for width in (1, 2, None):
                    for _ in range(NESTED_CASES_PER_CELL):
                        machine = rng.choice(sorted(MACHINES))
                        cases.append(
                            dict(
                                id=first_id + len(cases),
                                paradigm=paradigm,
                                mode=mode,
                                handoff=handoff,
                                handoff_seed=0,
                                locks=handoff == "lifo" or rng.random() < 0.5,
                                schedule=rng.choice(SCHEDULES),
                                machine=machine,
                                # None: one thread per core.
                                n_threads=width or MACHINES[machine].n_cores,
                                tree_seed=rng.getrandbits(32),
                                nested=True,
                            )
                        )
    return cases


def case_tree(case: dict) -> ProgramTree:
    """The program tree of ``case``, memory-heavy on the 2-socket machine."""
    build = build_nested_tree if case.get("nested") else build_tree
    return build(
        random.Random(case["tree_seed"]),
        locks=case["locks"],
        missy=1 / 20 if case["machine"] == "m8_2s" else 1 / 300,
    )


class RecordingExecutor(ParallelExecutor):
    """A ParallelExecutor whose kernels record their schedule traces."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.kernels: list[SimKernel] = []

    def _make_kernel(self) -> SimKernel:
        kernel = SimKernel(
            self.machine,
            record_trace=True,
            tracer=self.obs,
            handoff=self.handoff,
            handoff_seed=self.handoff_seed,
        )
        self.kernels.append(kernel)
        return kernel


def replay(case: dict, tracer=None) -> dict:
    """Replay one case; returns its record (settings plus answer)."""
    tree = case_tree(case)
    ex = RecordingExecutor(
        MACHINES[case["machine"]],
        paradigm=case["paradigm"],
        schedule=Schedule.parse(case["schedule"]),
        tracer=tracer,
        handoff=case["handoff"],
        handoff_seed=case["handoff_seed"],
    )
    # An empty memo: every section of the case runs on its own kernel.
    clear_section_memo()
    result = ex.execute_profile(tree, case["n_threads"], ReplayMode(case["mode"]))
    items = [
        item
        for item in ex._group_chains(tree.root.children)
        if not (isinstance(item, Node) and item.kind is NodeKind.U)
    ]
    assert len(ex.kernels) == len(items), "a section was served from the memo"
    trace = [ev for k in ex.kernels for ev in k.trace]
    return dict(
        case,
        final=repr(result.total_cycles),
        preemptions=sum(k.preemptions for k in ex.kernels),
        events=sum(k.events_pushed for k in ex.kernels),
        trace_sha256=hashlib.sha256(repr(trace).encode()).hexdigest(),
    )


def load_corpus() -> list[dict]:
    return json.loads(CORPUS_PATH.read_text())["cases"]


def write_corpus(records: list[dict]) -> None:
    """Write ``records`` one case per line, so a schedule change shows up
    as a readable diff of the cases it moved."""
    lines = ",\n".join(json.dumps(r) for r in records)
    text = f'{{"seed": {CORPUS_SEED}, "cases": [\n{lines}\n]}}\n'
    CORPUS_PATH.write_text(text)


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit("usage: python tests/kernel_corpus.py --write")
    write_corpus([replay(case) for case in generate_cases()])
    print(f"wrote {CORPUS_PATH}")
