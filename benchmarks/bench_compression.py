"""Section VI-B — program-tree compression.

The paper: "the program tree of CG in NPB (with 'B' input) can be
compressed into 950 MB from 13.5 GB (a 93 % reduction)"; with lossless
compression "3 GB of memory is sufficient for all evaluated benchmarks".
This bench measures compression on every workload's tree and asserts the
CG-style repetitive trees hit the >90 % band.  The table comes from the
batch pass over each raw tree; the bench also asserts that the profiler,
which compresses while tracing, stores the same tree.
"""

from __future__ import annotations

import json

from _common import BENCH_SCALES, MACHINE, banner
from repro.core.compress import compress_tree, compress_tree_lossy
from repro.core.profiler import IntervalProfiler
from repro.core.serialize import tree_to_dict
from repro.workloads import PAPER_ORDER, get_workload


def _measure(name, lossy=False, **build_kwargs):
    wl = get_workload(name, **build_kwargs)
    profile = IntervalProfiler(MACHINE, compress=False).profile(wl.program)
    tree = profile.tree
    serial_before = tree.serial_cycles()
    if lossy:
        stats = compress_tree_lossy(tree, lossy_tolerance=0.20)
    else:
        stats = compress_tree(tree, tolerance=0.05)
    serial_after = tree.serial_cycles()
    folded = IntervalProfiler(MACHINE, tolerance=0.05).profile(wl.program)
    return {
        "logical": stats.logical_nodes,
        "before": stats.nodes_before,
        "after": stats.nodes_after,
        "reduction": stats.reduction,
        "mb_before": stats.bytes_before / 1e6,
        "mb_after": stats.bytes_after / 1e6,
        "length_drift": abs(serial_after - serial_before)
        / max(serial_before, 1.0),
        # Whether the tree compressed while tracing serializes equal to
        # this row's batch result (lossy rows compare with the lossless
        # fold, so they are expected to differ).
        "folded_equal": _serialized(folded.tree) == _serialized(tree)
        and folded.compression == stats,
    }


def _serialized(tree) -> str:
    return json.dumps(tree_to_dict(tree), sort_keys=True)


def run_compression():
    rows = {}
    for name in PAPER_ORDER:
        rows[name] = _measure(name, **BENCH_SCALES[name])
    # The Section VI-B pathology: IS resists lossless RLE; lossy compression
    # is the paper's "last resort".
    rows["npb_is"] = _measure("npb_is")
    rows["npb_is lossy"] = _measure("npb_is", lossy=True)
    return rows


def test_compression(benchmark):
    rows = benchmark.pedantic(run_compression, rounds=1, iterations=1)

    print(banner("Section VI-B — tree compression (RLE + dictionary, 5% tol)"))
    print(f"{'benchmark':<14} {'nodes':>8} {'stored':>8} {'reduction':>10} "
          f"{'MB':>7} -> {'MB':>6}")
    for name, r in rows.items():
        print(
            f"{name:<14} {r['before']:>8} {r['after']:>8} "
            f"{r['reduction']:>10.1%} {r['mb_before']:>7.3f} -> "
            f"{r['mb_after']:>6.3f}"
        )

    # Lossless compression never drifts total recorded time, and the
    # profiler's fold while tracing stores the batch pass's tree.
    for name in PAPER_ORDER + ["npb_is"]:
        assert rows[name]["length_drift"] < 1e-9, name
        assert rows[name]["folded_equal"], name
    # CG's repetitive iteration structure compresses >90% (paper: 93%).
    assert rows["npb_cg"]["reduction"] > 0.90
    # The uniform loops (MD, EP, FT) compress massively too.
    for name in ("ompscr_md", "npb_ep", "npb_ft"):
        assert rows[name]["reduction"] > 0.90, name
    # IS resists lossless compression (the paper's 10 GB case)...
    assert rows["npb_is"]["reduction"] < 0.30
    # ...but lossy quantisation rescues it within a bounded length drift.
    assert rows["npb_is lossy"]["reduction"] > 0.60
    assert rows["npb_is lossy"]["length_drift"] < 0.20
