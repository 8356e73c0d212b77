"""Compare end-to-end results of a parent and a change, metric by metric.

Each side is a directory of result files, one per run, named
``<workload>-<seed>.json`` and holding the last line ``bench_e2e.py``
printed (an all-workloads result, with ``<workload>/<metric>`` keys, may
use any name).  Runs of the two sides pair up by workload and seed::

    python benchmarks/e2e/compare.py parent_runs/ change_runs/

One row per workload and metric: each side's median and quartiles, the
share of pairs the change won, and a verdict against the bounds in
``BENCHMARK.json``:

- ``improved``: the change won at least 9/10 of the pairs (ties count for
  neither) and the medians differ by more than the parent's own IQR;
- ``worse``: the change's median is worse than the parent's by more than
  the metric's bound;
- ``unresolved``: the parent's own IQR is wider than the bound, unless
  every change run reads better than every parent run;
- ``no worse``: otherwise.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_side(directory: Path) -> dict[tuple[str, str], dict[str, float]]:
    """``(workload, metric) -> {seed: value}`` for one side's runs."""
    values: dict[tuple[str, str], dict[str, float]] = {}
    for path in sorted(directory.glob("*.json")):
        result = json.loads(path.read_text().strip().splitlines()[-1])
        stem_workload, _, seed = path.stem.rpartition("-")
        for key, metric in result["metrics"].items():
            workload, _, name = key.rpartition("/")
            values.setdefault((workload or stem_workload, name), {})[seed] = metric["value"]
    return values


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def verdict(parent: dict, change: dict, better: str, bound: float) -> tuple[str, str, str]:
    """(verdict, won, change−parent as a share of the parent median)."""
    sign = 1.0 if better == "higher" else -1.0
    p = list(parent.values())
    c = list(change.values())
    p1, pm, p3 = quartiles(p)
    cm = statistics.median(c)
    seeds = sorted(parent.keys() & change.keys())
    wins = sum(1 for s in seeds if sign * (change[s] - parent[s]) > 0)
    won = f"{wins}/{len(seeds)}"
    delta = f"{(cm - pm) / pm:+.1%}" if pm else "n/a"
    if seeds and wins >= 0.9 * len(seeds) and abs(cm - pm) > p3 - p1 and sign * (cm - pm) > 0:
        return "improved", won, delta
    if sign * (cm - pm) < -bound * abs(pm):
        return "worse", won, delta
    all_better = min(sign * x for x in c) > max(sign * x for x in p)
    if pm and (p3 - p1) / abs(pm) > bound and not all_better:
        return "unresolved", won, delta
    return "no worse", won, delta


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in bench["end_to_end"]}
    parent = load_side(args.parent)
    change = load_side(args.change)
    header = (
        f"{'workload':<14} {'metric':<16} {'parent median [q1, q3]':<32} "
        f"{'change median [q1, q3]':<32} {'delta':>7} {'won':>6}  verdict"
    )
    print(header)
    print("-" * len(header))
    worse = 0
    for key in sorted(parent.keys() & change.keys()):
        workload, name = key
        spec = bounds.get(name)
        if spec is None:
            continue
        v, won, delta = verdict(parent[key], change[key], spec["better"], spec["bound"])
        worse += v == "worse"
        cells = []
        for side in (parent[key], change[key]):
            q1, m, q3 = quartiles(list(side.values()))
            cells.append(f"{m:.4g} [{q1:.4g}, {q3:.4g}]")
        print(f"{workload:<14} {name:<16} {cells[0]:<32} {cells[1]:<32} {delta:>7} {won:>6}  {v}")
    return 1 if worse else 0


if __name__ == "__main__":
    sys.exit(main())
