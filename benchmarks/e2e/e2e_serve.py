"""The ``serve_mix`` workload: a closed loop against a ``repro serve`` child.

Two client threads, each on its own persistent HTTP/1.1 connection, send
the seeded request blocks of :func:`e2e_inputs.serve_blocks`; a client
sends its next request only after the previous reply.  The daemon runs
with default flags in a child process (:mod:`serve_child`), is stopped
through ``POST /shutdown`` and is killed if it has not exited, on every
exit path.
"""

from __future__ import annotations

import http.client
import itertools
import json
import random
import threading
from pathlib import Path
from time import perf_counter, sleep
from typing import Optional

import e2e_gauge
from e2e_gauge import Gauge
from e2e_inputs import (
    PROBE,
    SMOKE_THREADS,
    SMOKE_WORKLOADS,
    THREADS,
    ZIPF_RANKS,
    serve_blocks,
)
from e2e_proc import Child

HERE = Path(__file__).resolve().parent

#: Client-side limit per request; a request over it counts as failed.
REQUEST_TIMEOUT_S = 30.0
#: Daemon start-up limit (interpreter start to warmed caches).
STARTUP_TIMEOUT_S = 60.0
#: Closed-loop clients, one connection each.
CLIENTS = 2
#: Daemon answers recomputed in-process after the run.
RECOMPUTED = 20
#: Nominal time of one 40-request block.
SECONDS_PER_BLOCK = 1.25
#: Host gauge samples taken between blocks and around a daemon's set-up.
GAUGE_SAMPLES = 10


class Client:
    """One persistent connection; a broken one is reopened on next use."""

    def __init__(self, port: int) -> None:
        self.conn = http.client.HTTPConnection("127.0.0.1", port, timeout=REQUEST_TIMEOUT_S)
        self.last_sent = 0.0

    def send(self, path: str, body=None, op: Optional[int] = None):
        """``(status, parsed body, seconds)``; status None on a transport
        error or timeout.  ``last_sent`` holds the send time."""
        headers = {"Content-Type": "application/json"}
        if op is not None:
            headers["X-E2E-Op"] = str(op)
        if isinstance(body, dict):
            body = json.dumps(body, sort_keys=True).encode()
        t0 = self.last_sent = perf_counter()
        try:
            self.conn.request("GET" if body is None else "POST", path, body=body, headers=headers)
            resp = self.conn.getresponse()
            data = resp.read()
            elapsed = perf_counter() - t0
            return resp.status, json.loads(data), elapsed
        except (OSError, http.client.HTTPException, ValueError):
            self.conn.close()
            return None, None, perf_counter() - t0

    def close(self) -> None:
        self.conn.close()


class Daemon(Child):
    """``serve_child.py`` running ``repro serve --port 0``."""

    def __init__(self, trace_out: Optional[str] = None) -> None:
        argv = [str(HERE / "serve_child.py")]
        if trace_out:
            argv += ["--trace-out", trace_out]
        super().__init__(argv)
        self.port: Optional[int] = None

    def start(self, smoke: bool) -> float:
        """Wait for the port, ``/health`` 200 and warmed caches; returns
        seconds since launch.  Every profile, the Ψ/Φ calibration for every
        thread count, and the surrogate are built here: lazy set-up users
        pay once per daemon, not per request."""
        launched = perf_counter()
        line = self.wait_for(lambda s: "listening on http://" in s, STARTUP_TIMEOUT_S)
        self.port = int(line.split("listening on http://", 1)[1].split()[0].rsplit(":", 1)[1])
        client = Client(self.port)
        try:
            while client.send("/health")[0] != 200:
                if perf_counter() - launched > STARTUP_TIMEOUT_S:
                    raise RuntimeError("daemon never became healthy")
                sleep(0.01)
            workloads = SMOKE_WORKLOADS if smoke else ZIPF_RANKS
            threads = list(SMOKE_THREADS if smoke else THREADS)
            warm = [{"workload": w, "threads": threads, "methods": ["ff"]} for w in workloads]
            warm.append({"workload": workloads[0], "threads": [2], "tier": "auto"})
            for body in warm:
                status, reply, _ = client.send("/predict", body)
                if status != 200:
                    raise RuntimeError(f"warm-up {body} answered {status}: {reply}")
        finally:
            client.close()
        return perf_counter() - launched

    def peak_rss_mb(self) -> float:
        """The daemon's VmHWM (peak resident set) in MiB."""
        with open(f"/proc/{self.pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("no VmHWM in /proc status")

    def shutdown(self, timeout: float = 30.0) -> None:
        """Ask the daemon to drain and exit; kill it if it does not."""
        if self.port is not None and self.proc.poll() is None:
            client = Client(self.port)
            client.send("/shutdown", {})
            client.close()
            self.wait(timeout)
        self.kill()


def blocks_for(seconds: float) -> int:
    """The fixed block count ``--seconds`` stands for (see
    ``e2e_batch.cycles_for``)."""
    return max(1, round(seconds / SECONDS_PER_BLOCK))


def run_mix(port: int, seed: int, blocks: int, smoke: bool, traced: bool) -> list[dict]:
    """Send ``blocks`` blocks of the mix; returns the per-request records,
    each with its latency scaled by :func:`scale_latency`.  Traced runs tag
    every other request with an op id."""
    records: list[dict] = []
    clients = [Client(port) for _ in range(CLIENTS)]
    gauge = Gauge()
    # Gauge samples between blocks, while the daemon is idle:
    # boundaries[b] is taken before block b and boundaries[b + 1] after it.
    boundaries = []
    try:
        for number, block in enumerate(itertools.islice(serve_blocks(seed, smoke), blocks)):
            boundaries.append([gauge.sample() for _ in range(GAUGE_SAMPLES)])
            pending = iter(block)
            lock = threading.Lock()

            def drain(client: Client) -> None:
                while True:
                    with lock:
                        req = next(pending, None)
                    if req is None:
                        return
                    op = req.index + 1 if traced and req.index % 2 == 0 else None
                    status, body, elapsed = client.send(req.path, req.payload(), op)
                    records.append(
                        {
                            "req": req,
                            "status": status,
                            "body": body,
                            "latency_s": elapsed,
                            "sent_at": client.last_sent,
                            "op": op,
                            "block": number,
                        }
                    )

            threads = [threading.Thread(target=drain, args=(c,)) for c in clients]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
        boundaries.append([gauge.sample() for _ in range(GAUGE_SAMPLES)])
    finally:
        for c in clients:
            c.close()
    records.sort(key=lambda r: r["req"].index)
    for r in records:
        r["scaled_s"] = scale_latency(r, boundaries[r["block"]] + boundaries[r["block"] + 1])
    return records


def scale_latency(record: dict, gauge_s: list[float]) -> float:
    """A request's latency with the daemon's work on it scaled to the
    reference host (see ``e2e_gauge``).

    The work is the response's ``elapsed_s``, the daemon's queue wait and
    compute time for a request it had to answer afresh.  The rest of the
    latency (transport, parsing, a response-cache lookup and the
    delayed-ACK wait described in README.md) stays as measured: most of it
    is a timer that does not follow the host's speed."""
    body = record["body"]
    work = 0.0
    if record["status"] == 200 and not body.get("cached", True):
        work = body.get("elapsed_s", 0.0)
    return record["latency_s"] - work + e2e_gauge.scale(work, gauge_s)


def _answer(body: dict) -> dict:
    """A response without its per-delivery fields."""
    return {k: v for k, v in body.items() if k not in ("cached", "elapsed_s")}


def check_records(records: list[dict]) -> None:
    """Set ``ok`` on every record: the expected status, and a repeat of an
    earlier request must carry the same answer as its first delivery."""
    first: dict[tuple, dict] = {}
    for rec in records:
        req = rec["req"]
        rec["ok"] = rec["status"] == req.expect
        if not rec["ok"] or rec["status"] != 200:
            continue
        key = (req.path, req.payload())
        answer = _answer(rec["body"])
        if key not in first:
            first[key] = answer
        elif answer != first[key]:
            rec["ok"] = False
            rec["why"] = "differs from the first answer to the same request"


def probe_errors(port: int, smoke: bool) -> list[float]:
    """Send the fixed accuracy probe; |PredM − REAL| / REAL per point.

    The probe is the same on every seed, and the daemon's answers do not
    depend on the traffic before it, so this accuracy is seed-independent.
    """
    errors = []
    client = Client(port)
    try:
        for workload in SMOKE_WORKLOADS if smoke else ZIPF_RANKS:
            body = {**PROBE, "workload": workload}
            if smoke:
                body["threads"] = list(SMOKE_THREADS)
            status, reply, _ = client.send("/predict", body)
            if status != 200:
                raise RuntimeError(f"accuracy probe {body} answered {status}: {reply}")
            [report] = reply["reports"].values()
            est = report["estimates"]
            real = {e["n_threads"]: e["speedup"] for e in est if e["method"] == "real"}
            errors += [
                abs(e["speedup"] - real[e["n_threads"]]) / real[e["n_threads"]]
                for e in est
                if e["method"] == "syn"
            ]
    finally:
        client.close()
    return errors


def verify_recomputed(records: list[dict], seed: int, smoke: bool) -> None:
    """Recompute a seeded sample of fresh exact /predict answers through
    ``BatchPredictor.sweep`` in this process; a mismatch fails the record."""
    from repro import ParallelProphet
    from repro.core.batch import BatchPredictor
    from repro.serve.handlers import report_to_dict
    from repro.simhw import MachineConfig
    from repro.workloads import get_workload

    candidates = [
        r
        for r in records
        if r["req"].kind == "predict" and r["req"].resend_of is None and r["ok"]
    ]
    picked = random.Random(seed).sample(candidates, min(5 if smoke else RECOMPUTED, len(candidates)))
    predictors: dict[int, tuple] = {}
    profiles: dict[tuple, object] = {}
    for rec in picked:
        request = rec["body"]["request"]
        cores = request["cores"]
        if cores not in predictors:
            prophet = ParallelProphet(machine=MachineConfig(n_cores=cores))
            # Burden factors depend on the thread counts the Ψ/Φ fit was
            # calibrated over, so calibrate over the set the daemon's
            # warm-up did (it covers every thread count of the mix).
            prophet.calibration(SMOKE_THREADS if smoke else THREADS)
            predictors[cores] = (prophet, BatchPredictor(prophet, jobs=1))
        prophet, predictor = predictors[cores]
        [name] = request["workloads"]
        if (name, cores) not in profiles:
            profiles[(name, cores)] = prophet.profile(get_workload(name).program)
        reports = predictor.sweep(
            {name: profiles[(name, cores)]},
            threads=request["threads"],
            schedules=request["schedules"],
            methods=tuple(request["methods"]),
            paradigm=rec["body"]["paradigm"],
            memory_model=request["memory_model"],
            on_error="collect",
            tier=request["tier"],
        )
        # Through JSON, as the daemon's floats were.
        mine = json.loads(json.dumps(report_to_dict(reports[name])))
        if mine != rec["body"]["reports"][name]:
            rec["ok"] = False
            rec["why"] = "differs from the in-process recomputation"
