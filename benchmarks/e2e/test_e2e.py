"""Tests of the end-to-end benchmark, at ``--smoke`` sizes.

Run with ``pytest benchmarks/e2e`` from the repository root.
"""

from __future__ import annotations

import itertools
import json
import shutil
import socket
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(ROOT / "src"))

import bench_e2e  # noqa: E402
import e2e_batch  # noqa: E402
import e2e_gauge  # noqa: E402
import e2e_inputs  # noqa: E402
import e2e_serve  # noqa: E402


def _bench(*args: str) -> tuple[subprocess.CompletedProcess, list[dict]]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "bench_e2e.py"), *args],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=170,
    )
    lines = [json.loads(s) for s in proc.stdout.splitlines() if s.startswith("{")]
    return proc, lines


@pytest.fixture(scope="module")
def smoke_runs():
    """All four workloads at smoke sizes, untraced and traced."""
    runs = {}
    for trace in ("0", "1"):
        proc, lines = _bench("--smoke", "--seed", "1", "--trace", trace)
        assert proc.returncode == 0, proc.stdout + proc.stderr
        runs[trace] = lines
    return runs


def test_workloads_match_spec():
    assert [w["name"] for w in SPEC["workloads"]] == list(bench_e2e.WORKLOADS)
    assert SPEC["paths"] == ["benchmarks/e2e"]


def test_every_metric_printed_with_unit(smoke_runs):
    for trace, section in (("0", "end_to_end"), ("1", "per_layer")):
        *per_workload, final = smoke_runs[trace]
        assert set(final) == {"correct", "attempted", "failed", "metrics"}
        assert final["correct"] and final["failed"] == 0
        assert [r["workload"] for r in per_workload] == list(bench_e2e.WORKLOADS)
        for run in per_workload:
            assert set(run["metrics"]) == {m["name"] for m in SPEC[section]}
            for m in SPEC[section]:
                assert run["metrics"][m["name"]]["unit"] == m["unit"]
    for run in smoke_runs["0"][:-1]:
        for m in SPEC["end_to_end"]:
            assert run["metrics"][m["name"]]["value"] > 0, (run["workload"], m["name"])


def test_single_workload_prints_only_the_result_keys(smoke_runs):
    proc, lines = _bench("--smoke", "--workload", "fig11_random", "--seed", "3", "--trace", "0")
    assert proc.returncode == 0
    assert set(lines[-1]) == {"correct", "attempted", "failed", "metrics"}
    assert proc.stdout.splitlines()[-1].startswith("{")
    # err_mean comes from the fixed accuracy probe, not from the seed.
    [seed1] = [r for r in smoke_runs["0"] if r.get("workload") == "fig11_random"]
    assert lines[-1]["metrics"]["err_mean"] == seed1["metrics"]["err_mean"]


def test_missing_sources_exit_nonzero(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "benchmarks/e2e/bench_e2e.py", "--workload", "fig12_cold"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert not proc.stdout.strip()


def test_same_seed_same_inputs():
    assert e2e_inputs.fig12_order(5) == e2e_inputs.fig12_order(5)
    assert e2e_inputs.fig12_order(5) != e2e_inputs.fig12_order(6)

    def programs(seed, n=30):
        stream = e2e_inputs.fig11_programs(seed)
        return [next(stream) for _ in range(n)]

    assert programs(5) == programs(5)
    assert programs(5) != programs(6)

    def blocks(seed, n=3):
        stream = e2e_inputs.serve_blocks(seed)
        return [next(stream) for _ in range(n)]

    assert blocks(5) == blocks(5)
    assert blocks(5) != blocks(6)


def test_gauge_scales_by_the_samples_around_an_op():
    """An op's net time excludes the gauge samples inside it and is scaled
    by at least MIN_SAMPLES samples around it, so the same wall time on a
    host twice as slow reads as half the time."""

    def sampler(slowdown):
        s = e2e_gauge.Sampler.__new__(e2e_gauge.Sampler)
        gauge = [1.0e-3, 1.1e-3, 0.9e-3, 1.2e-3, 1.0e-3, 1.3e-3, 0.8e-3]
        s.samples = [(t, t + 0.01, slowdown * g) for t, g in enumerate(gauge)]
        return s

    # Samples 2, 3 and 4 ran inside the op; samples 1-5 scale it.
    net, scaled = sampler(1.0).measure(1.5, 4.5)
    assert net == pytest.approx(3.0 - 3 * 0.01)
    assert scaled == pytest.approx(net * e2e_gauge.REFERENCE_S / 1.1e-3)
    assert sampler(2.0).measure(1.5, 4.5)[1] == pytest.approx(scaled / 2)
    assert e2e_gauge.scale(0.3, [2e-3] * 5) == pytest.approx(0.3 * e2e_gauge.REFERENCE_S / 2e-3)
    assert 0 < e2e_gauge.Gauge().sample() < 1.0


def test_serve_blocks_hold_their_shares():
    stream = e2e_inputs.serve_blocks(9)
    next(stream)  # the first block may lack earlier requests to resend
    quota = sorted(
        e2e_inputs.zipf_quota(
            e2e_inputs.BLOCK_KINDS["predict"] - e2e_inputs.BLOCK_RESENDS["predict"],
            e2e_inputs.ZIPF_RANKS,
        )
    )
    for _ in range(3):
        block = next(stream)
        kinds = [r.kind for r in block]
        for kind, n in e2e_inputs.BLOCK_KINDS.items():
            assert kinds.count(kind) == n
        assert sum(r.resend_of is not None for r in block) == sum(
            e2e_inputs.BLOCK_RESENDS.values()
        )
        fresh = sorted(
            r.body["workload"] for r in block if r.kind == "predict" and r.resend_of is None
        )
        assert fresh == quota
    # tier=auto and /explore workloads are dealt: every DECK_CARDS fresh
    # requests of a kind hold the Zipf shares exactly.
    dealt = {"auto": [], "explore": []}
    for block in itertools.islice(e2e_inputs.serve_blocks(9), 2 * e2e_inputs.DECK_CARDS):
        for r in block:
            if r.kind in dealt and r.resend_of is None:
                dealt[r.kind].append(r.body["workload"])
    deck = sorted(e2e_inputs.zipf_quota(e2e_inputs.DECK_CARDS, e2e_inputs.ZIPF_RANKS))
    for workloads in dealt.values():
        assert sorted(workloads[: e2e_inputs.DECK_CARDS]) == deck
        assert sorted(workloads[e2e_inputs.DECK_CARDS : 2 * e2e_inputs.DECK_CARDS]) == deck


def test_layer_self_times_sum_to_traced_wall(smoke_runs):
    for workload in ("fig12_cold", "sweep_warm", "fig11_random"):
        doc = json.loads((bench_e2e.OUT / f"{workload}-seed1.trace.json").read_text())
        data = doc["otherData"]
        total = sum(self_s for _n, self_s in data["layers"].values())
        assert total == pytest.approx(data["traced_wall_s"], rel=0.01), workload
        assert doc["traceEvents"], workload


def test_serve_request_latency_decomposes(smoke_runs):
    doc = json.loads((bench_e2e.OUT / "serve_mix-seed1.trace.json").read_text())
    data = doc["otherData"]
    by_op: dict[int, float] = {}
    for event in doc["traceEvents"]:
        op = event["args"]["op"]
        by_op[op] = by_op.get(op, 0.0) + event["args"]["self_s"]
    leaves = {o["op"]: o["leaf_self_s"] for o in data["ops"]}
    assert data["requests"]
    for req in data["requests"]:
        parts = by_op[req["op"]] + leaves[req["op"]]
        assert parts == pytest.approx(req["client_s"], rel=1e-6, abs=1e-9)


def _wrong_speedups(monkeypatch, factor):
    from dataclasses import replace

    from repro.core import batch

    real_run = batch.BatchPredictor.run

    def run(self, tasks, profiles, **kw):
        out = real_run(self, tasks, profiles, **kw)
        return [
            (task, [replace(e, speedup=e.speedup * factor) for e in outcome])
            for task, outcome in out
        ]

    monkeypatch.setattr(batch.BatchPredictor, "run", run)


def test_wrong_estimate_fails_fig11(monkeypatch):
    work = e2e_batch.Fig11Random(seed=1)
    _wrong_speedups(monkeypatch, 100.0)
    records, failures = e2e_batch.run_ops(work, 1)
    assert failures
    assert sum(not r["ok"] for r in records) == len(records)


def test_changed_answer_fails_fig12(monkeypatch):
    work = e2e_batch.Fig12Sweep(seed=1, smoke=True, warm=True)
    _wrong_speedups(monkeypatch, 1.0 + 1e-12)
    records, failures = e2e_batch.run_ops(work, 1)
    assert failures and not any(r["ok"] for r in records)


def test_wrong_status_and_changed_repeat_fail():
    req = e2e_inputs.Request(0, "predict", "/predict", {"workload": "npb_ep"}, 200)
    again = e2e_inputs.Request(1, "predict", "/predict", {"workload": "npb_ep"}, 200, 0)
    bad = e2e_inputs.Request(2, "invalid", "/predict", {"workload": "x"}, 400)
    records = [
        {"req": req, "status": 200, "body": {"reports": {"a": 1}, "cached": False}},
        {"req": again, "status": 200, "body": {"reports": {"a": 2}, "cached": True}},
        {"req": bad, "status": 200, "body": {}},
    ]
    e2e_serve.check_records(records)
    assert [r["ok"] for r in records] == [True, False, False]


def test_request_timeout_counts_as_failed(monkeypatch):
    monkeypatch.setattr(e2e_serve, "REQUEST_TIMEOUT_S", 0.2)
    with socket.socket() as silent:
        silent.bind(("127.0.0.1", 0))
        silent.listen(1)
        client = e2e_serve.Client(silent.getsockname()[1])
        status, body, elapsed = client.send("/predict", {"workload": "npb_ep"})
        client.close()
    assert status is None and body is None
    assert elapsed < 5.0
    record = {"req": e2e_inputs.Request(0, "predict", "/predict", {}, 200), "status": status, "body": body}
    e2e_serve.check_records([record])
    assert not record["ok"]


def test_no_daemon_outlives_a_failed_run(monkeypatch):
    daemons = []
    real_init = e2e_serve.Daemon.__init__

    def init(self, *args, **kw):
        real_init(self, *args, **kw)
        daemons.append(self)

    def broken_mix(*_args, **_kw):
        raise RuntimeError("client failure")

    monkeypatch.setattr(e2e_serve.Daemon, "__init__", init)
    monkeypatch.setattr(e2e_serve, "run_mix", broken_mix)
    with pytest.raises(RuntimeError, match="client failure"):
        bench_e2e.run_serve(1, 1.0, False, True)
    assert daemons
    assert all(d.proc.poll() is not None for d in daemons)
