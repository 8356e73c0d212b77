"""End-to-end and per-layer benchmark of the prediction pipeline.

Usage (from the repository root)::

    python benchmarks/e2e/bench_e2e.py [--workload W] [--seed S]
        [--seconds T] [--trace [0|1]] [--smoke]

Each workload runs in fresh interpreters (see ``README.md`` in this
directory for the workloads, metrics and layer map).  ``--seconds``
defaults to ``run_seconds`` of the root ``BENCHMARK.json``, the one value
the benchmark is measured at.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``: the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics.  The exit
code is 0 only when every check passed.  Times are scaled to a reference
host speed by a gauge the benchmark runs beside the ops (``e2e_gauge``).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import sys
from pathlib import Path
from time import perf_counter

import e2e_gauge
import e2e_serve
from e2e_gauge import Gauge
from e2e_proc import Child
from e2e_trace import SPAN_LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"

WORKLOADS = ("fig12_cold", "sweep_warm", "fig11_random", "serve_mix")

#: (name, unit) printed by an untraced run.
END_TO_END = (
    ("setup_s", "s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("peak_rss_mb", "MiB"),
    ("err_mean", "ratio"),
)

#: Set-up samples per run: fresh interpreters (or daemons), median
#: reported.  Where a set-up is mostly interpreter start (about 0.3 s),
#: more samples are cheap and steady the median.  sweep_warm's take about
#: 6 s each, so it takes two to keep all runs inside their total time.
SETUP_SAMPLES = {"fig12_cold": 7, "sweep_warm": 2, "fig11_random": 7, "serve_mix": 3}
#: Time limits of one child: set-up, then the timed loop plus its checks.
SETUP_TIMEOUT_S = 90.0
RUN_GRACE_S = 60.0


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) printed by a traced run."""
    names = []
    for layer in SPAN_LAYERS:
        names += [(f"{layer}.calls", "count"), (f"{layer}.self_s", "s")]
    return names + [
        ("other.self_s", "s"),
        ("columnar.answer_ratio", "ratio"),
        ("executor.memo_hit_ratio", "ratio"),
        ("kernel.events", "count"),
        ("kernel.events_per_s", "1/s"),
        ("dram.memo_hit_ratio", "ratio"),
        ("batch.failed", "count"),
        ("surrogate.hit_ratio", "ratio"),
        ("serve.queue.wait_p90_ms", "ms"),
        ("serve.queue.rejected", "count"),
        ("serve.cache.response.hit_ratio", "ratio"),
        ("serve.cache.profile.hit_ratio", "ratio"),
        ("serve.cache.predictor.hit_ratio", "ratio"),
        ("trace.overhead", "ratio"),
    ]


# ----------------------------------------------------------------- stats


def percentile(values, q: float) -> float:
    """Linear-interpolated ``q``-th percentile (0-100)."""
    xs = sorted(values)
    if not xs:
        return 0.0
    pos = (len(xs) - 1) * q / 100.0
    lo = math.floor(pos)
    hi = min(lo + 1, len(xs) - 1)
    return xs[lo] + (xs[hi] - xs[lo]) * (pos - lo)


def tail_percentile(n: int) -> int:
    """The highest of p50/p90/p99/p99.9 with at least ten samples beyond it."""
    best = 50
    for q in (90, 99, 99.9):
        if n * (1 - q / 100.0) >= 10:
            best = q
    return best


def ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def trace_overhead(records: list[dict]) -> float:
    """Traced ÷ untraced op time − 1, over keys seen both ways."""
    traced: dict[str, list] = {}
    plain: dict[str, list] = {}
    for r in records:
        (traced if r["traced"] else plain).setdefault(r["key"], []).append(r["dur_s"])
    keys = traced.keys() & plain.keys()
    t = sum(statistics.mean(traced[k]) for k in keys)
    p = sum(statistics.mean(plain[k]) for k in keys)
    return t / p - 1.0 if p else 0.0


def layer_metrics(summary: dict, records: list[dict], extra_layers=None) -> dict:
    """Per-layer metrics from a tracer summary and the op records."""
    layers = {k: list(v) for k, v in summary["layers"].items()}
    for name, (n, s) in (extra_layers or {}).items():
        entry = layers.setdefault(name, [0, 0.0])
        entry[0] += n
        entry[1] += s
    c = summary["counters"]

    def calls(name):
        return layers.get(name, [0, 0.0])[0]

    def self_s(name):
        return layers.get(name, [0, 0.0])[1]

    out = {}
    for name, _unit in per_layer_names():
        layer, _, stat = name.rpartition(".")
        if stat == "calls":
            out[name] = calls(layer)
        elif stat == "self_s":
            out[name] = self_s(layer)
    waits = summary["queue_waits"]
    out.update(
        {
            "columnar.answer_ratio": ratio(calls("columnar.answered"), calls("columnar")),
            "executor.memo_hit_ratio": ratio(
                c.get("replay.section_memo.hits", 0.0),
                c.get("replay.section_memo.hits", 0.0) + c.get("replay.section_memo.misses", 0.0),
            ),
            "kernel.events": calls("kernel.events"),
            "kernel.events_per_s": ratio(calls("kernel.events"), self_s("kernel")),
            "dram.memo_hit_ratio": ratio(
                c.get("dram.solve.hits", 0.0),
                c.get("dram.solve.hits", 0.0) + c.get("dram.solve.misses", 0.0),
            ),
            "batch.failed": c.get("batch.task.errors", 0.0),
            "surrogate.hit_ratio": ratio(
                c.get("surrogate.hits", 0.0),
                sum(c.get(f"surrogate.{k}", 0.0) for k in ("hits", "abstains", "fallbacks")),
            ),
            "serve.queue.wait_p90_ms": percentile(waits, 90) * 1e3,
            "serve.queue.rejected": c.get("serve.queue.rejected", 0.0),
            "trace.overhead": trace_overhead(records),
        }
    )
    for cls in ("response", "profile", "predictor"):
        hits = c.get(f"serve.cache.{cls}.hits", 0.0)
        out[f"serve.cache.{cls}.hit_ratio"] = ratio(
            hits, hits + c.get(f"serve.cache.{cls}.misses", 0.0)
        )
    return out


# --------------------------------------------------------------- batch


def run_batch(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set-up samples in fresh interpreters; the last one runs the loop."""
    trace_out = OUT / f"{workload}-seed{seed}.trace.json"
    setups, raw_setups = [], []
    samples = 1 if smoke else SETUP_SAMPLES[workload]
    for i in range(samples):
        last = i == samples - 1
        argv = [
            str(HERE / "e2e_batch.py"),
            "--workload", workload,
            "--seed", str(seed),
            "--seconds", str(seconds),
        ]
        if smoke:
            argv.append("--smoke")
        if not last:
            argv.append("--probe")
        elif trace:
            argv += ["--trace-out", str(trace_out)]
        launched = perf_counter()
        with Child(argv) as child:
            child.wait_for(lambda s: s == "READY", SETUP_TIMEOUT_S)
            raw_setups.append(perf_counter() - launched)
            limit = 4 * seconds + RUN_GRACE_S if last else RUN_GRACE_S
            result = json.loads(child.wait_for(lambda s: s.startswith("{"), limit))
            if child.wait(RUN_GRACE_S) != 0:
                raise RuntimeError(f"{workload} child exited with code {child.proc.returncode}")
        setup = result["setup"]
        if setup is None:  # traced: no gauge
            setups.append(raw_setups[-1])
        else:
            setups.append((raw_setups[-1] - setup["gauge_s"]) * setup["factor"])
    records = result["ops"]
    # Traced runs have no gauge and report no end-to-end metrics.
    op_s = [r.get("scaled_s", r["dur_s"]) for r in records]
    if workload == "fig11_random":
        samples_s = op_s
        ops_per_s = sum(r["units"] for r in records) / sum(samples_s)
    else:
        # One latency sample per workload: the median time of its Fig. 12
        # grid (what `repro predict` on it waits for), so one slow pass of
        # one workload moves neither latency nor throughput.  Op costs
        # differ by about 50x between workloads, and percentiles over the
        # raw ops would interpolate across those gaps.
        by_key: dict[str, list] = {}
        units: dict[str, int] = {}
        for r, s in zip(records, op_s):
            by_key.setdefault(r["key"], []).append(s)
            units[r["key"]] = r["units"]
        samples_s = [statistics.median(v) for v in by_key.values()]
        ops_per_s = sum(units.values()) / sum(samples_s)
    # Accuracy-probe programs are checked like the timed ones.
    probe = result["probe"]
    out = {
        "workload": workload,
        "attempted": len(records) + probe["attempted"],
        "failed": sum(1 for r in records if not r["ok"]) + probe["failed"],
        "failures": result["failures"],
        "setups_s": setups,
        "raw_setups_s": raw_setups,
        "raw_op_s": sum(r["dur_s"] for r in records),
        "scaled_op_s": sum(op_s),
        "latency_samples_s": samples_s,
        "ops_per_s": ops_per_s,
        "peak_rss_mb": result["rss_mb"],
        "errors": result["errors"],
    }
    if trace:
        summary = result["trace"]
        traced = [r for r in records if r["traced"]]
        out["layers"] = layer_metrics(summary, records)
        out["traced_wall_s"] = sum(r["dur_s"] for r in traced)
        out["trace_file"] = str(trace_out)
    return out


# --------------------------------------------------------------- serve


def run_serve(seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    """Set-up samples as fresh daemons; the last one serves the mix."""
    trace_out = OUT / f"serve_mix-seed{seed}.trace.json"
    daemon_trace = OUT / f"serve_mix-seed{seed}.daemon.json"
    gauge = Gauge()
    setups, raw_setups = [], []
    samples = 1 if smoke else SETUP_SAMPLES["serve_mix"]
    for i in range(samples):
        last = i == samples - 1
        # The gauge runs while no daemon works: before launch, and once the
        # daemon has answered its warm-up.
        gauge_s = [gauge.sample() for _ in range(e2e_serve.GAUGE_SAMPLES)]
        with e2e_serve.Daemon(str(daemon_trace) if trace and last else None) as daemon:
            raw_setups.append(daemon.start(smoke))
            gauge_s += [gauge.sample() for _ in range(e2e_serve.GAUGE_SAMPLES)]
            setups.append(e2e_gauge.scale(raw_setups[-1], gauge_s))
            if not last:
                daemon.shutdown()
                continue
            blocks = e2e_serve.blocks_for(seconds)
            records = e2e_serve.run_mix(daemon.port, seed, blocks, smoke, trace)
            rss = daemon.peak_rss_mb()
            # The probe would land in a traced daemon's counter window.
            errors = [] if trace else e2e_serve.probe_errors(daemon.port, smoke)
            daemon.shutdown()
    e2e_serve.check_records(records)
    e2e_serve.verify_recomputed(records, seed, smoke)
    # A failed request counts as missing every latency limit.
    samples_s = [
        r["scaled_s"] if r["ok"] else e2e_serve.REQUEST_TIMEOUT_S
        for r in records
        if r["req"].expect == 200
    ]
    out = {
        "workload": "serve_mix",
        "attempted": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "failures": [
            f"request {r['req'].index} {r['req'].path}: status {r['status']}"
            f" (expected {r['req'].expect}) {r.get('why', '')}".rstrip()
            for r in records
            if not r["ok"]
        ][:20],
        "setups_s": setups,
        "raw_setups_s": raw_setups,
        "latency_samples_s": samples_s,
        # Closed loop: each client always waits on one request, so the
        # request rate is the client count over the mean latency.
        "ops_per_s": e2e_serve.CLIENTS * len(records) / sum(r["scaled_s"] for r in records),
        "raw_op_s": sum(r["latency_s"] for r in records),
        "scaled_op_s": sum(r["scaled_s"] for r in records),
        "peak_rss_mb": rss,
        "errors": errors,
    }
    if trace:
        out.update(merge_serve_trace(records, daemon_trace, trace_out))
    return out


def merge_serve_trace(records: list[dict], daemon_trace: Path, trace_out: Path) -> dict:
    """Add the client's ``http`` spans to the daemon's trace.

    ``http`` self time of a request is its client latency minus the
    daemon's ``ServeState.handle`` time for the same op id."""
    doc = json.loads(daemon_trace.read_text())
    summary = doc["otherData"]
    server = {o["op"]: o for o in summary["ops"]}
    http_n, http_s = 0, 0.0
    per_op = []
    op_records = []
    for r in records:
        # Requests the daemon never saw (transport failures) have no
        # server side to subtract, so they stay out of the layer sums.
        if r["op"] is None or r["op"] not in server:
            op_records.append({"key": r["req"].kind, "dur_s": r["latency_s"], "traced": False})
            continue
        handle = server[r["op"]]["dur_s"]
        http_n += 1
        http_s += r["latency_s"] - handle
        per_op.append({"op": r["op"], "client_s": r["latency_s"], "server_s": handle})
        op_records.append({"key": r["req"].kind, "dur_s": r["latency_s"], "traced": True})
        # perf_counter is system-wide monotonic, so client and daemon
        # timestamps share one timeline.
        doc["traceEvents"].append(
            {
                "name": "http",
                "ph": "X",
                "ts": (r["sent_at"] - summary["t0"]) * 1e6,
                "dur": r["latency_s"] * 1e6,
                "pid": os.getpid(),
                "tid": 0,
                "args": {"op": r["op"], "self_s": r["latency_s"] - handle},
            }
        )
    summary["requests"] = per_op
    summary["traced_wall_s"] = sum(p["client_s"] for p in per_op)
    trace_out.write_text(json.dumps(doc))
    daemon_trace.unlink()
    return {
        "layers": layer_metrics(summary, op_records, {"http": (http_n, http_s)}),
        "traced_wall_s": summary["traced_wall_s"],
        "trace_file": str(trace_out),
    }


# ---------------------------------------------------------------- report


def end_to_end(run: dict) -> dict:
    samples = run["latency_samples_s"]
    errors = run["errors"]
    return {
        "setup_s": statistics.median(run["setups_s"]),
        "ops_per_s": run["ops_per_s"],
        "latency_p50_ms": percentile(samples, 50) * 1e3,
        "latency_p90_ms": percentile(samples, 90) * 1e3,
        "peak_rss_mb": run["peak_rss_mb"],
        "err_mean": statistics.mean(errors) if errors else 0.0,
    }


def report(run: dict, trace: bool) -> dict:
    """Print the human-readable lines; return the result object."""
    name = run["workload"]
    if trace:
        units = dict(per_layer_names())
        values = run["layers"]
        layer_sum = sum(v for k, v in values.items() if k.endswith(".self_s"))
        wall = run["traced_wall_s"]
        print(f"[{name}] per-layer metrics (traced ops only)")
        for key, unit in units.items():
            print(f"  {key:<34} {values[key]:>14.6g} {unit}")
        print(
            f"  layer self times sum to {layer_sum:.4f} s of {wall:.4f} s traced"
            f" wall ({ratio(layer_sum, wall) - 1:+.3%}); trace: {run['trace_file']}"
        )
    else:
        units = dict(END_TO_END)
        values = end_to_end(run)
        samples = run["latency_samples_s"]
        q = tail_percentile(len(samples))
        print(f"[{name}] end-to-end metrics")
        for key, unit in units.items():
            print(f"  {key:<16} {values[key]:>14.6g} {unit}")
        print(
            f"  latency: {len(samples)} samples; highest percentile with >=10 samples"
            f" beyond it: p{q:g} = {percentile(samples, q) * 1e3:.4g} ms"
        )
        print(
            "  set-up samples, scaled (raw): "
            + ", ".join(f"{s:.3f} ({r:.3f})" for s, r in zip(run["setups_s"], run["raw_setups_s"]))
            + " s"
        )
        if "raw_op_s" in run:
            print(
                f"  op times sum to {run['raw_op_s']:.3f} s as measured,"
                f" {run['scaled_op_s']:.3f} s scaled to the reference host"
            )
    for msg in run["failures"]:
        print(f"  FAILED: {msg}")
    return {
        "correct": run["failed"] == 0,
        "attempted": run["attempted"],
        "failed": run["failed"],
        "metrics": {k: {"value": values[k], "unit": u} for k, u in units.items()},
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    if smoke:
        seconds = min(seconds, 1.0)
    if workload == "serve_mix":
        run = run_serve(seed, seconds, trace, smoke)
    else:
        run = run_batch(workload, seed, seconds, trace, smoke)
    return report(run, trace)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS, default=None, help="default: all four")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument(
        "--seconds", type=float, default=None,
        help="run size: the fixed work this commit measures in about this long"
        " (default: run_seconds of BENCHMARK.json)",
    )
    ap.add_argument(
        "--trace", type=int, nargs="?", const=1, default=0, choices=(0, 1),
        help="1: traced run printing the per-layer metrics",
    )
    ap.add_argument("--smoke", action="store_true", help="few-second sizes (tests)")
    args = ap.parse_args(argv)
    if args.seconds is None:
        args.seconds = float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"bench_e2e: no repro sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # The program gets only the generated inputs: no REPRO_* switches
    # (validation mode, a pretrained surrogate) leak in from the caller.
    for key in [k for k in os.environ if k.startswith("REPRO_")]:
        del os.environ[key]
    # A terminated benchmark still unwinds, so its children are killed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    OUT.mkdir(exist_ok=True)

    names = [args.workload] if args.workload else list(WORKLOADS)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds, bool(args.trace), args.smoke)
        if len(names) > 1:
            print(json.dumps({"workload": name, **results[name]}))
    if len(names) == 1:
        final = results[names[0]]
    else:
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {
                f"{name}/{k}": v for name, r in results.items() for k, v in r["metrics"].items()
            },
        }
    print(json.dumps(final), flush=True)
    return 0 if final["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
