"""Cache census — lookups and hits of every replay cache per e2e workload.

Drives the end-to-end benchmark's own workload classes (``benchmarks/e2e``)
in-process for one pass each and prints, per workload, ``[lookups, hits]``
of each cache:

- ``section_memo`` — the process-wide section-replay memo;
- ``dram_kernel`` — the DES kernels' per-pool DRAM-solve memos;
- ``walk_memo`` — the columnar team walks' DRAM-solve memos;
- ``pool_memo`` — the columnar task-pool walks' DRAM-solve memos;
- ``engine_solves`` — each columnar engine's exact DRAM-solve cache,
  which the walks' memo misses consult before solving;
- ``engines`` — the ``BatchPredictor`` columnar-engine caches;
- ``predictor`` / ``profile`` / ``response`` — the serve cache classes.

Each row also counts the sections the columnar engines replayed:
``summed`` teams whose members never interact (added up per member, no
walk), and ``team_walks`` and ``pool_walks`` made.

Passes: ``fig12_cold`` one cold Fig. 12 pass; ``sweep_warm`` one pass after
the warm-up pass; ``fig11_random`` 96 programs; ``serve_mix`` 12 request
blocks against an in-process ``repro serve`` with default flags.

Usage::

    python benchmarks/cache_census.py [--seed N] [workload ...]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "benchmarks" / "e2e"))

import repro.core.columnar as columnar  # noqa: E402
from repro.obs import MetricsRegistry, get_metrics, set_metrics  # noqa: E402

#: DRAM-solve memo counts of the team walks and of the pool walks (the
#: registry's ``dram.solve.*`` also includes the kernels' pools).  Both
#: walks run in ``team_walk``; a pool walk is one made from
#: ``ColumnarEngine._pool_walk``.
_WALK = {"hits": 0.0, "misses": 0.0, "calls": 0}
_POOL = {"hits": 0.0, "misses": 0.0, "calls": 0}
_team_walk = columnar.team_walk
_pool_walk = columnar.ColumnarEngine._pool_walk
_in_pool = [False]


def _counted_team_walk(*args, **kwargs):
    m = get_metrics()
    counts = _POOL if _in_pool[0] else _WALK
    before = {k: m.counter_value(f"dram.solve.{k}") for k in ("hits", "misses")}
    out = _team_walk(*args, **kwargs)
    for k, v in before.items():
        counts[k] += m.counter_value(f"dram.solve.{k}") - v
    counts["calls"] += 1
    return out


def _counted_pool_walk(self, *args, **kwargs):
    _in_pool[0] = True
    try:
        return _pool_walk(self, *args, **kwargs)
    finally:
        _in_pool[0] = False


columnar.team_walk = _counted_team_walk
columnar.ColumnarEngine._pool_walk = _counted_pool_walk


def _fresh() -> None:
    set_metrics(MetricsRegistry())
    for counts in (_WALK, _POOL):
        counts["hits"] = counts["misses"] = 0.0
        counts["calls"] = 0


def _engine_counts(predictors: list) -> tuple[int, int]:
    infos = [p.cache_info()["engines"] for p in predictors]
    return sum(i["hits"] for i in infos), sum(i["misses"] for i in infos)


def _census(predictors: list, since: tuple[int, int] = (0, 0)) -> dict:
    """``{cache: [lookups, hits]}`` from the registry and the predictors'
    engine caches (counted from ``since``)."""
    c = get_metrics().counters()
    row = {}

    def pair(name, hits, misses):
        if hits or misses:
            row[name] = [int(hits + misses), int(hits)]

    pair(
        "section_memo",
        c.get("replay.section_memo.hits", 0.0),
        c.get("replay.section_memo.misses", 0.0),
    )
    pair(
        "dram_kernel",
        c.get("dram.solve.hits", 0.0) - _WALK["hits"] - _POOL["hits"],
        c.get("dram.solve.misses", 0.0) - _WALK["misses"] - _POOL["misses"],
    )
    pair("walk_memo", _WALK["hits"], _WALK["misses"])
    pair("pool_memo", _POOL["hits"], _POOL["misses"])
    pair(
        "engine_solves",
        c.get("columnar.solves.hits", 0.0),
        c.get("columnar.solves.misses", 0.0),
    )
    hits, misses = _engine_counts(predictors)
    pair("engines", hits - since[0], misses - since[1])
    for cls in ("predictor", "profile", "response"):
        pair(
            cls,
            c.get(f"serve.cache.{cls}.hits", 0.0),
            c.get(f"serve.cache.{cls}.misses", 0.0),
        )
    row["summed"] = int(c.get("columnar.summed", 0.0))
    row["team_walks"] = _WALK["calls"]
    row["pool_walks"] = _POOL["calls"]
    return row


def fig12(seed: int, warm: bool) -> dict:
    from e2e_batch import Fig12Sweep

    w = Fig12Sweep(seed=seed, smoke=False, warm=warm)
    w.start_cycle(0)
    since = _engine_counts([w.predictor])
    _fresh()
    for name in w.order:
        w.run_op(name)
    return _census([w.predictor], since)


def fig11(seed: int) -> dict:
    from e2e_batch import Fig11Random

    w = Fig11Random(seed=seed)
    _fresh()
    for cycle in range(4):
        for program in w.cycle_items(cycle):
            w.run_op(program)
    return _census([predictor for _p, predictor in w.prophets.values()])


def serve_mix(seed: int) -> dict:
    import e2e_serve

    from repro.core.executor import clear_section_memo
    from repro.serve import ServeConfig, create_server

    clear_section_memo()
    _fresh()
    server = create_server(ServeConfig(port=0))
    server.start()
    try:
        e2e_serve.run_mix(server.port, seed, 12, False, False)
        pairs = server.state.cache.predictors.items()
        return _census([predictor for _cores, (_prophet, predictor) in pairs])
    finally:
        server.stop()


WORKLOADS = {
    "fig12_cold": lambda seed: fig12(seed, warm=False),
    "sweep_warm": lambda seed: fig12(seed, warm=True),
    "fig11_random": fig11,
    "serve_mix": serve_mix,
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("workloads", nargs="*", metavar="workload")
    args = ap.parse_args(argv)
    unknown = set(args.workloads) - set(WORKLOADS)
    if unknown:
        ap.error(f"unknown workload(s) {sorted(unknown)}; choose from {list(WORKLOADS)}")
    for name in args.workloads or WORKLOADS:
        print(json.dumps({name: WORKLOADS[name](args.seed)}), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
