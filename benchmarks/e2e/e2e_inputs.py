"""Seeded inputs of the end-to-end benchmark workloads.

Everything a workload feeds the program is made here from ``--seed`` and
the constants below, so the same seed gives the same inputs on every
commit.  The constants are copied, not imported from the repo's other
benches, so that editing those benches cannot change this benchmark.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from typing import Iterator, Optional, Union

#: The Fig. 12 benchmarks, in panel order (a)-(h).
FIG12_WORKLOADS = (
    "ompscr_md",
    "ompscr_lu",
    "ompscr_fft",
    "ompscr_qsort",
    "npb_ep",
    "npb_ft",
    "npb_cg",
    "npb_mg",
)

#: Workload scales of the Fig. 12 sweeps.
FIG12_SCALES: dict[str, dict] = {
    "ompscr_md": dict(particles=512, steps=2),
    "ompscr_lu": dict(size=96),
    "ompscr_fft": dict(n_points=4096),
    "ompscr_qsort": dict(elements=200_000),
    "npb_ep": dict(batches=192),
    "npb_ft": dict(planes=48, timesteps=2),
    "npb_mg": dict(fine_planes=48, cycles_count=2),
    "npb_cg": dict(outer_steps=2, inner_iterations=5, row_blocks=64),
}

#: Thread counts of Fig. 12 and the schedules of Figs. 5, 11 and 12.
THREADS = (2, 4, 6, 8, 10, 12)
SCHEDULES = ("static", "static,1", "dynamic,1")

#: ``--smoke`` sizes: three cheap workloads (two of them memory-bound, so
#: the DRAM model still works) on three thread counts.
SMOKE_WORKLOADS = ("npb_ep", "npb_ft", "npb_mg")
SMOKE_THREADS = (2, 4, 8)


@dataclass(frozen=True)
class GridTask:
    """One Fig. 12 grid point group: methods at (schedule, threads)."""

    schedule: str
    n_threads: int
    methods: tuple[str, ...]
    memory_model: bool

    @property
    def points(self) -> int:
        return len(self.methods)


def fig12_order(seed: int, workloads=FIG12_WORKLOADS) -> list[str]:
    """The order a Fig. 12 pass visits the workloads in."""
    return random.Random(seed).sample(list(workloads), len(workloads))


def fig12_grid(native_schedule: str, threads=THREADS) -> list[GridTask]:
    """One workload's Fig. 12 grid: PredM (FF+SYN with the memory model)
    over every schedule, then Pred (SYN, no memory model) and REAL at the
    workload's native schedule.  48 points at the full thread list."""
    grid = [
        GridTask(s, t, ("ff", "syn"), True) for s in SCHEDULES for t in threads
    ]
    grid += [GridTask(native_schedule, t, ("syn",), False) for t in threads]
    grid += [GridTask(native_schedule, t, ("real",), False) for t in threads]
    return grid


# ------------------------------------------------------------ Fig. 11


@dataclass(frozen=True)
class RandomProgram:
    """One Fig. 11 validation sample and the machine it is predicted on."""

    index: int
    pattern: str  # "test1" | "test2"
    params: object  # Test1Params | Test2Params
    cores: int
    schedule: str

    @property
    def key(self) -> str:
        return f"{self.pattern}/{self.cores}c/{self.schedule}"


#: Programs per full rotation of pattern (1:3), cores (8, 12) and schedule.
FIG11_CYCLE = 24


def fig11_programs(seed: int) -> Iterator[RandomProgram]:
    """Endless seeded stream of Fig. 11 samples at scale 0.4.

    Test1 and Test2 interleave 1:3, so the median program is a Test2
    sample.  Cores alternate every four programs, so both patterns meet
    both machines, and schedules rotate with period 3.
    """
    import numpy as np

    from repro.workloads import random_test1, random_test2

    rng = np.random.default_rng(seed)
    index = 0
    while True:
        if index % 4 == 0:
            pattern, params = "test1", random_test1(rng, scale=0.4)
        else:
            pattern, params = "test2", random_test2(rng, scale=0.4)
        yield RandomProgram(
            index,
            pattern,
            params,
            (8, 12)[(index // 4) % 2],
            SCHEDULES[index % len(SCHEDULES)],
        )
        index += 1


# ------------------------------------------------------------ serve mix
#
# No measured traffic exists for the daemon, so the mix below is assumed:
# the kind shares, the resend rate, the Zipf ranking and the /predict
# shapes are choices, not observations.  Cache hit ratios on serve_mix
# follow from them (the response-cache hit ratio mostly from the 40%
# resend rate) and are no evidence of how real traffic would use a cache.

#: Zipf ranks of the workloads (rank 1 most requested): the Fig. 12 panel
#: order, a neutral order rather than a claim about popularity.  Fixed
#: ranks keep the share of each workload fixed, so seeds differ in content
#: rather than in cost class.
ZIPF_RANKS = FIG12_WORKLOADS

#: Requests of one block by kind: 75% /predict, 10% /sweep, 5% tier=auto,
#: 5% /explore, 5% invalid.
BLOCK_KINDS = {"predict": 30, "sweep": 4, "auto": 2, "explore": 2, "invalid": 2}

#: Verbatim resends of an earlier request of the same kind, per block: 16
#: of 40 requests (40%).
BLOCK_RESENDS = {"predict": 12, "sweep": 2, "auto": 1, "explore": 1, "invalid": 0}

#: (methods, number of thread counts, schedules) of the fresh /predict
#: requests of a block, dealt in turn over its workloads in rank order,
#: so a workload's request shapes are the same in every block and
#: the seed only picks the thread counts.  Which schedules a grid has
#: decides whether the columnar engine or the eager replay answers it, the
#: largest cost difference between requests; fixing it per shape keeps
#: blocks of one seed as costly as blocks of another.  Methods None is the
#: daemon's default (FF+SYN).  No request asks for REAL: ground-truth
#: replays are validation work, done once by the accuracy probe
#: (:data:`PROBE`).
PREDICT_SHAPES = (
    (None, 2, ("static",)),
    (("syn",), 1, ("static", "dynamic,1")),
    (("ff",), 3, ("static,1",)),
    (("ff", "syn"), 2, ("static", "static,1")),
    (("syn",), 3, ("dynamic,1",)),
    (("ff",), 1, ("static", "dynamic,1")),
)

#: Workloads of fresh ``tier=auto`` and ``/explore`` requests are dealt
#: from a seeded shuffle of this many Zipf-shared cards, reshuffled when
#: used up: twelve is one per block of a standard 12-block run.  These
#: requests cost 50 ms to 1 s by workload, and one client's slow request
#: holds up the other's in the single-worker queue, so independent draws
#: (one to four ompscr_lu explores a run) made the p90 latency follow the
#: seed.
DECK_CARDS = 12

#: The accuracy probe sent after the timed loop: SYN with the memory model
#: (PredM) against REAL for every workload, at three thread counts.
PROBE = {"threads": [4, 8, 12], "schedules": ["static"], "methods": ["syn", "real"]}


@dataclass(frozen=True)
class Request:
    """One serve-mix request and the status the daemon must answer."""

    index: int
    kind: str
    path: str
    body: Union[dict, bytes]
    expect: int
    resend_of: Optional[int] = None

    def payload(self) -> bytes:
        if isinstance(self.body, bytes):
            return self.body
        return json.dumps(self.body, sort_keys=True).encode()


def zipf_quota(n: int, ranked) -> list[str]:
    """``n`` draws split over ``ranked`` by Zipf weights 1/rank, rounded
    by largest remainder so every block carries the same shares."""
    weights = [1.0 / (r + 1) for r in range(len(ranked))]
    total = sum(weights)
    exact = [n * w / total for w in weights]
    counts = [int(x) for x in exact]
    order = sorted(range(len(ranked)), key=lambda i: counts[i] - exact[i])
    for i in order[: n - sum(counts)]:
        counts[i] += 1
    return [name for name, c in zip(ranked, counts) for _ in range(c)]


def _zipf_pick(rng: random.Random, ranked, k: int) -> list[str]:
    """``k`` distinct workloads, drawn by Zipf weight without replacement."""
    pool = list(ranked)
    weights = [1.0 / (r + 1) for r in range(len(pool))]
    picked = []
    for _ in range(k):
        i = rng.choices(range(len(pool)), weights=weights)[0]
        picked.append(pool.pop(i))
        weights.pop(i)
    return picked


def _threads(rng: random.Random, threads, n: int) -> list[int]:
    return sorted(rng.sample(list(threads), n))


def _fresh(kind: str, target: tuple, rng: random.Random, ranked, threads) -> tuple:
    """(path, body, expected status) of a newly drawn request for
    ``target`` = (workload, /predict shape)."""
    workload, (methods, n_threads, schedules) = target
    if kind == "predict":
        body = {
            "workload": workload,
            "threads": _threads(rng, threads, n_threads),
            "schedules": list(schedules),
        }
        if methods is not None:
            body["methods"] = list(methods)
        return "/predict", body, 200
    if kind == "auto":
        body = {
            "workload": workload,
            "threads": _threads(rng, threads, 2),
            "schedules": ["static", "dynamic,1"],
            "tier": "auto",
        }
        return "/predict", body, 200
    if kind == "sweep":
        body = {
            "workloads": _zipf_pick(rng, ranked, 3),
            "threads": _threads(rng, threads, 2),
            "methods": ["ff", "syn"],
        }
        return "/sweep", body, 200
    if kind == "explore":
        body = {
            "workload": workload,
            "threads": _threads(rng, threads, 2),
            "samples": 4,
        }
        return "/explore", body, 200
    # Invalid: each must be refused with a structured error.
    variant = rng.randrange(5)
    if variant == 0:
        return "/predict", {"workload": "no_such_workload"}, 400
    if variant == 1:
        return "/predict", {"workload": workload, "methods": ["oracle"]}, 400
    if variant == 2:
        return "/predict", {"workload": workload, "threads": [0]}, 400
    if variant == 3:
        oversized = {
            "workload": workload,
            "threads": list(range(1, 257)),
            "schedules": ["static"] * 6,
            "methods": ["ff", "syn", "real"],
        }
        return "/predict", oversized, 413
    return "/sweep", b"{not json", 400


def serve_blocks(seed: int, smoke: bool = False) -> Iterator[list[Request]]:
    """Endless seeded stream of 40-request blocks of the serve mix.

    Every block has the same kind shares, the same fresh /predict shares
    and shapes per workload (Zipf over :data:`ZIPF_RANKS`, shapes from
    :data:`PREDICT_SHAPES`), the same grid sizes for the other kinds and
    the same resend count; ``tier=auto`` and /explore workloads keep
    their Zipf shares over each :data:`DECK_CARDS` fresh requests.  The
    seed draws the thread counts, the /sweep workloads, the deal order,
    which earlier request each resend repeats, and the order in the block.
    """
    rng = random.Random(seed)
    ranked = SMOKE_WORKLOADS if smoke else ZIPF_RANKS
    threads = SMOKE_THREADS if smoke else THREADS
    sent: dict[str, list[Request]] = {kind: [] for kind in BLOCK_KINDS}
    decks: dict[str, list[str]] = {"auto": [], "explore": []}

    def deal(kind: str) -> str:
        deck = decks[kind]
        if not deck:
            deck += zipf_quota(DECK_CARDS, ranked)
            rng.shuffle(deck)
        return deck.pop()

    index = 0
    while True:
        slots = []
        for kind, n in BLOCK_KINDS.items():
            resends = [True] * BLOCK_RESENDS[kind] + [False] * (n - BLOCK_RESENDS[kind])
            rng.shuffle(resends)
            slots += [(kind, r) for r in resends]
        rng.shuffle(slots)
        quota = zipf_quota(BLOCK_KINDS["predict"] - BLOCK_RESENDS["predict"], ranked)
        predict_targets = [
            (w, PREDICT_SHAPES[i % len(PREDICT_SHAPES)]) for i, w in enumerate(quota)
        ]
        rng.shuffle(predict_targets)
        block = []
        for kind, resend in slots:
            if resend and sent[kind]:
                prior = rng.choice(sent[kind])
                req = Request(index, kind, prior.path, prior.body, prior.expect, prior.index)
            else:
                # A resend with nothing to repeat yet (first block only)
                # falls back to a plain Zipf draw.
                if kind == "predict" and predict_targets:
                    target = predict_targets.pop()
                elif kind in decks:
                    target = (deal(kind), PREDICT_SHAPES[0])
                else:
                    target = (_zipf_pick(rng, ranked, 1)[0], PREDICT_SHAPES[0])
                path, body, expect = _fresh(kind, target, rng, ranked, threads)
                req = Request(index, kind, path, body, expect)
                sent[kind].append(req)
            block.append(req)
            index += 1
        yield block
