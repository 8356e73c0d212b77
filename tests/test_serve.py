"""End-to-end tests for the ``repro serve`` daemon over real HTTP.

A module-scoped server (ephemeral port, small budgets) backs the
read-path tests; lifecycle tests (saturation, shutdown) build their own
short-lived servers so they can abuse the queue without polluting the
shared one.
"""

import json
import threading
import urllib.error
import urllib.request

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.obs import MetricsRegistry, get_metrics, set_metrics
from repro.serve import Deadline, ReproServer, ServeConfig, ServeState, create_server
from repro.serve.budgets import RequestBudgets

#: Small but real grids: npb_ep at 2 threads answers in ~100 ms.
FAST = {"workload": "npb_ep", "threads": [2], "memory_model": False}

#: Request fields the compute endpoints read, plus arbitrary names.
_field_names = st.one_of(
    st.sampled_from(
        ["workload", "workloads", "threads", "schedules", "methods", "tier",
         "paradigm", "memory_model", "cores", "samples", "seed", "timeout_s"]
    ),
    st.text(max_size=8),
)

#: Arbitrary JSON values, biased towards plausible field contents.
_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        st.integers(),
        st.floats(),
        st.text(max_size=12),
        st.sampled_from(
            ["npb_ep", "static", "dynamic,2", "syn", "ff", "real", "omp",
             "auto", "static,0", "npb_ep,npb_cg"]
        ),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.dictionaries(st.text(max_size=6), inner, max_size=3),
    ),
    max_leaves=12,
)


def request(server, method, path, payload=None, timeout=120):
    data = json.dumps(payload).encode() if payload is not None else None
    req = urllib.request.Request(
        f"http://127.0.0.1:{server.port}{path}",
        data=data,
        method=method,
        headers={"Content-Type": "application/json"},
    )
    try:
        with urllib.request.urlopen(req, timeout=timeout) as resp:
            return resp.status, json.loads(resp.read())
    except urllib.error.HTTPError as exc:
        return exc.code, json.loads(exc.read())


@pytest.fixture(autouse=True)
def fresh_metrics():
    registry = MetricsRegistry()
    set_metrics(registry)
    yield registry


@pytest.fixture(scope="module")
def server():
    config = ServeConfig(
        port=0,
        queue_depth=4,
        budgets=RequestBudgets(max_grid_points=64, max_threads=32, timeout_s=60.0),
    )
    srv = create_server(config).start()
    yield srv
    srv.stop()


class TestReadEndpoints:
    def test_health(self, server):
        status, body = request(server, "GET", "/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_s"] >= 0

    def test_workloads_lists_the_registry(self, server):
        status, body = request(server, "GET", "/workloads")
        assert status == 200
        names = {row["name"] for row in body["workloads"]}
        assert {"npb_ep", "npb_cg", "ompscr_md", "ompscr_fft"} <= names
        for row in body["workloads"]:
            assert set(row) == {
                "name",
                "paradigm",
                "input",
                "description",
                "schedule",
            }

    def test_unknown_route_404(self, server):
        status, body = request(server, "POST", "/frobnicate", {})
        assert status == 404
        assert body["error"] == "not_found"

    def test_malformed_json_400(self, server):
        req = urllib.request.Request(
            f"http://127.0.0.1:{server.port}/predict",
            data=b"{not json",
            method="POST",
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as err:
            urllib.request.urlopen(req, timeout=30)
        assert err.value.code == 400
        assert json.loads(err.value.read())["error"] == "bad_json"


class TestPredict:
    def test_predict_returns_estimates(self, server):
        status, body = request(server, "POST", "/predict", FAST)
        assert status == 200
        report = body["reports"]["npb_ep"]
        methods = {e["method"] for e in report["estimates"]}
        assert methods == {"ff", "syn"}  # the /predict default pair
        for est in report["estimates"]:
            assert est["speedup"] > 0
        assert body["elapsed_s"] >= 0

    def test_repeat_request_served_from_cache(self, server):
        payload = {**FAST, "threads": [2, 4]}
        _, cold = request(server, "POST", "/predict", payload)
        status, warm = request(server, "POST", "/predict", payload)
        assert status == 200
        assert warm["cached"] is True
        assert warm["reports"] == cold["reports"]

    def test_equivalent_requests_share_one_cache_entry(self, server):
        # Normalisation canonicalises workload order: a permuted /sweep
        # repeat is a response-cache hit, not a recompute.
        base = {"threads": [2], "memory_model": False}
        request(
            server,
            "POST",
            "/sweep",
            {**base, "workloads": ["npb_is", "npb_ep"]},
        )
        status, body = request(
            server,
            "POST",
            "/sweep",
            {**base, "workloads": ["npb_ep", "npb_is"]},
        )
        assert status == 200
        assert body["cached"] is True

    def test_unknown_workload_400(self, server):
        status, body = request(
            server,
            "POST",
            "/predict",
            {**FAST, "workload": "nosuch"},
        )
        assert status == 400
        assert "nosuch" in body["message"]

    def test_missing_workload_field_400(self, server):
        status, body = request(server, "POST", "/predict", {"threads": [2]})
        assert status == 400
        assert "workload" in body["message"]

    def test_unknown_method_400(self, server):
        status, body = request(
            server,
            "POST",
            "/predict",
            {**FAST, "methods": ["magic"]},
        )
        assert status == 400
        assert "magic" in body["message"]


class TestBudgets:
    def test_oversized_grid_413(self, server):
        status, body = request(
            server,
            "POST",
            "/sweep",
            {"workloads": ["npb_ep"], "threads": list(range(1, 100))},
        )
        assert status == 413
        assert body["error"] == "grid_budget_exceeded"

    def test_absurd_thread_count_413(self, server):
        status, body = request(
            server,
            "POST",
            "/predict",
            {**FAST, "threads": [4096]},
        )
        assert status == 413
        assert body["error"] == "grid_budget_exceeded"

    def test_explore_samples_count_against_the_budget(self, server):
        status, body = request(
            server,
            "POST",
            "/explore",
            {**FAST, "samples": 1000},
        )
        assert status == 413

    def test_oversized_body_413(self, server):
        # Raw socket: declare a 2 MiB body but never send it — the server
        # must refuse on the declared length alone and close the connection.
        import socket

        with socket.create_connection(("127.0.0.1", server.port), 30) as sock:
            sock.sendall(
                b"POST /predict HTTP/1.1\r\n"
                b"Host: localhost\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: 2097152\r\n"
                b"\r\n"
            )
            # The refusal closes the connection, so read to EOF — a single
            # recv may return only the first TCP segment (headers without
            # the JSON body) and flake.
            chunks = []
            while True:
                data = sock.recv(65536)
                if not data:
                    break
                chunks.append(data)
            reply = b"".join(chunks).decode()
        assert reply.split("\r\n", 1)[0].split()[1] == "413"
        assert "body_too_large" in reply


class TestStats:
    def test_stats_match_the_metrics_registry(self, server):
        request(server, "POST", "/predict", FAST)
        request(server, "POST", "/predict", FAST)
        status, stats = request(server, "GET", "/stats")
        assert status == 200
        counters = get_metrics().counters(prefix="serve.")
        # /stats itself bumped serve.requests after the snapshot it
        # returned, so allow exactly that one in-flight increment.
        assert counters["serve.requests"] - stats["metrics"]["serve.requests"] <= 1
        for name, value in stats["metrics"].items():
            if name != "serve.requests":
                assert counters[name] == value
        assert stats["queue"]["depth"] == 4
        response = stats["cache"]["classes"]["response"]
        assert response["hits"] >= 1  # the repeated FAST request

    def test_hit_rate_rises_on_repeats(self, server):
        payload = {**FAST, "threads": [2, 8]}
        request(server, "POST", "/predict", payload)
        _, before = request(server, "GET", "/stats")
        for _ in range(3):
            request(server, "POST", "/predict", payload)
        _, after = request(server, "GET", "/stats")
        rate = "serve.cache.response.hit_rate"
        assert after["hit_rates"][rate] > before["hit_rates"].get(rate, 0.0)

    def test_cache_clear_forgets_responses(self, server):
        payload = {**FAST, "threads": [4]}
        request(server, "POST", "/predict", payload)
        status, body = request(server, "POST", "/cache/clear", {})
        assert status == 200
        assert body["cleared"]["response"] >= 1
        _, again = request(server, "POST", "/predict", payload)
        assert again["cached"] is False


class TestSaturation:
    def test_queue_full_gives_429(self):
        srv = create_server(ServeConfig(port=0, queue_depth=1, workers=1)).start()
        try:
            started, release = threading.Event(), threading.Event()

            def block():
                started.set()
                release.wait()

            srv.state.queue.submit(block, Deadline(60.0), label="blocker")
            assert started.wait(10.0)
            srv.state.queue.submit(lambda: None, Deadline(60.0), label="fill")
            status, body = request(srv, "POST", "/predict", FAST)
            assert status == 429
            assert body["error"] == "queue_full"
            release.set()
        finally:
            srv.stop()

    def test_deadline_exceeded_gives_504(self):
        srv = create_server(ServeConfig(port=0, queue_depth=4, workers=1)).start()
        try:
            started, release = threading.Event(), threading.Event()

            def block():
                started.set()
                release.wait()

            srv.state.queue.submit(block, Deadline(60.0), label="blocker")
            assert started.wait(10.0)
            status, body = request(
                srv,
                "POST",
                "/predict",
                {**FAST, "timeout_s": 0.2},
            )
            assert status == 504
            assert body["error"] == "deadline_exceeded"
            release.set()
        finally:
            srv.stop()


class TestLifecycle:
    def test_shutdown_endpoint_drains_and_stops(self):
        srv = create_server(ServeConfig(port=0)).start()
        status, body = request(srv, "POST", "/predict", FAST)
        assert status == 200
        status, body = request(srv, "POST", "/shutdown", {})
        assert status == 200
        assert body["status"] == "draining"
        assert srv._stopped.wait(30.0)
        srv.stop()  # idempotent
        # URLError on a refused connect, ConnectionResetError if the probe
        # races the listener teardown — both are OSErrors, both mean down.
        with pytest.raises(OSError):
            request(srv, "GET", "/health", timeout=3)

    def test_shutdown_disallowed_when_configured_off(self):
        srv = create_server(ServeConfig(port=0, allow_shutdown=False)).start()
        try:
            status, body = request(srv, "POST", "/shutdown", {})
            assert status == 400
            assert "shutdown" in body["message"]
        finally:
            srv.stop()

    def test_stop_drains_accepted_work(self):
        srv = create_server(ServeConfig(port=0))
        done = []
        jobs = [
            srv.state.queue.submit(
                lambda i=i: done.append(i),
                Deadline(60.0),
                label="t",
            )
            for i in range(4)
        ]
        srv.start()
        srv.stop()
        assert sorted(done) == list(range(4))
        assert all(job.done for job in jobs)


class TestServeState:
    """Transport-free handler checks (no sockets)."""

    def test_handle_maps_serve_errors_to_status(self):
        state = ServeState(budgets=RequestBudgets(max_grid_points=1))
        status, body = state.handle(
            "POST",
            "/predict",
            {"workload": "npb_ep", "threads": [2, 4]},
        )
        assert status == 413
        assert body["error"] == "grid_budget_exceeded"
        state.queue.shutdown(timeout=5.0)

    def test_trailing_slash_routes(self):
        state = ServeState()
        status, body = state.handle("GET", "/health/", {})
        assert status == 200 and body["status"] == "ok"
        state.queue.shutdown(timeout=5.0)

    def test_non_object_body_rejected(self):
        state = ServeState()
        status, body = state.handle("POST", "/predict", [1, 2])
        assert status == 400
        state.queue.shutdown(timeout=5.0)

    @pytest.mark.parametrize(
        "path, fields",
        [
            ("/predict", {"cores": None}),
            ("/predict", {"cores": "twelve"}),
            ("/predict", {"cores": 4.5}),
            ("/explore", {"samples": "many"}),
            ("/explore", {"samples": 2.5}),
            ("/explore", {"seed": None}),
            ("/explore", {"seed": "zero"}),
            ("/predict", {"threads": [True]}),
            ("/sweep", {"threads": [2, False]}),
            ("/predict", {"schedules": ["static", "fastest"]}),
            ("/predict", {"schedules": ["static,x"]}),
            ("/predict", {"schedules": "dynamic,2;bogus"}),
            ("/predict", {"paradigm": "mpi"}),
            ("/predict", {"methods": 5}),
            ("/predict", {"methods": []}),
            ("/predict", {"schedules": []}),
            ("/predict", {"memory_model": "false"}),
            ("/predict", {"memory_model": 1}),
            ("/predict", {"cores": 0}),
        ],
    )
    def test_bad_fields_rejected(self, path, fields):
        state = ServeState()
        field = "workloads" if path == "/sweep" else "workload"
        payload = {field: "npb_ep", "threads": [2], **fields}
        try:
            status, body = state.handle("POST", path, payload)
        finally:
            state.queue.shutdown(timeout=5.0)
        assert status == 400, body
        assert body["error"] == "bad_request"
        assert state.queue.stats()["submitted"] == 0

    @pytest.mark.parametrize("path", ["/predict", "/explore", "/check"])
    def test_oversized_machine_refused(self, path):
        """``cores`` above the thread budget would hold the single worker
        for minutes profiling the machine; it is refused up front."""
        state = ServeState()
        payload = {"workload": "npb_ep", "threads": [2], "cores": 4096}
        try:
            status, body = state.handle("POST", path, payload)
        finally:
            state.queue.shutdown(timeout=5.0)
        assert status == 413, body
        assert body["error"] == "grid_budget_exceeded"
        assert state.queue.stats()["submitted"] == 0

    @given(
        path=st.sampled_from(["/predict", "/sweep", "/explore", "/check"]),
        body=st.one_of(_json_values, st.dictionaries(_field_names, _json_values)),
    )
    @settings(
        max_examples=200,
        deadline=None,
        suppress_health_check=[HealthCheck.too_slow],
    )
    def test_hostile_bodies_get_structured_4xx(self, path, body):
        """Any JSON body on a compute endpoint is answered 200, 400 or 413
        with ``error`` and ``message`` fields — never a 500.  A zero grid
        budget keeps every well-formed request out of the work queue."""
        state = ServeState(budgets=RequestBudgets(max_grid_points=0))
        try:
            status, reply = state.handle("POST", path, body)
        finally:
            state.queue.shutdown(timeout=5.0)
        assert status in (200, 400, 413), reply
        if status != 200:
            assert {"error", "message"} <= set(reply), reply
        assert state.queue.stats()["submitted"] == 0

    def test_server_wires_config_through(self):
        srv = ReproServer(ServeConfig(port=0, queue_depth=7, predictor_cache=3))
        try:
            assert srv.state.queue.depth == 7
            assert srv.state.cache.predictors.maxsize == 3
            assert srv.state.on_shutdown is not None
        finally:
            srv.stop()
