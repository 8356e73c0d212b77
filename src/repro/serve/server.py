"""HTTP shell of the prediction daemon (stdlib only, no new deps).

``ThreadingHTTPServer`` gives each connection its own handler thread;
those threads parse JSON and wait — all compute happens on the bounded
:class:`~repro.serve.workqueue.WorkQueue` behind
:class:`~repro.serve.handlers.ServeState`, so concurrency is governed by
the queue's admission control, not by how many sockets are open.

Typical use (the ``repro serve`` CLI wraps exactly this)::

    server = create_server(ServeConfig(port=8765))
    server.serve_forever()          # Ctrl-C → orderly drain

In-process (tests, benches)::

    server = create_server(ServeConfig(port=0))   # ephemeral port
    server.start()                                # background thread
    ... requests against http://127.0.0.1:{server.port} ...
    server.stop()                                 # drain + join
"""

from __future__ import annotations

import json
import threading
from dataclasses import dataclass, field
from http.server import BaseHTTPRequestHandler, ThreadingHTTPServer
from typing import Optional

from repro.serve.budgets import RequestBudgets
from repro.serve.cachelayer import CacheLayer
from repro.serve.handlers import ServeState
from repro.serve.workqueue import WorkQueue

#: Request bodies above this size are refused outright (413).
_MAX_BODY_BYTES = 1 << 20


@dataclass(frozen=True)
class ServeConfig:
    """Everything ``repro serve`` exposes as flags, as one value."""

    host: str = "127.0.0.1"
    port: int = 8765
    #: Work-queue shape: worker threads and pending-request bound.
    workers: int = 1
    queue_depth: int = 16
    #: Per-request budgets (grid size, thread counts, wall clock).
    budgets: RequestBudgets = field(default_factory=RequestBudgets)
    #: Sweep-execution knobs baked into every cached predictor.
    jobs: int = 1
    #: Default prediction tier for requests that don't pass ``tier``
    #: themselves ("exact" | "surrogate" | "auto"; see docs/surrogate.md).
    tier: str = "exact"
    #: Cache-class bounds (entries, not bytes).
    predictor_cache: int = 8
    profile_cache: int = 64
    response_cache: int = 256
    #: Allow ``POST /shutdown`` (on for the CLI, off by default embedded).
    allow_shutdown: bool = True
    #: Log one line per request to stderr.
    log_requests: bool = False


class _Handler(BaseHTTPRequestHandler):
    """Thin JSON adapter: parse, delegate to ServeState, serialise."""

    #: Installed by :class:`ReproServer`.
    state: ServeState = None  # type: ignore[assignment]
    quiet = True
    protocol_version = "HTTP/1.1"

    # BaseHTTPRequestHandler logs to stderr per request; keep it opt-in.
    def log_message(self, fmt, *args):  # noqa: D102
        if not self.quiet:
            super().log_message(fmt, *args)

    def _reply(self, status: int, body: dict) -> None:
        data = json.dumps(body, sort_keys=True).encode()
        self.send_response(status)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(data)))
        self.end_headers()
        self.wfile.write(data)

    def do_GET(self) -> None:  # noqa: N802 - http.server API
        status, body = self.state.handle("GET", self.path, {})
        self._reply(status, body)

    def do_POST(self) -> None:  # noqa: N802 - http.server API
        length = int(self.headers.get("Content-Length") or 0)
        if length > _MAX_BODY_BYTES:
            # Refuse without reading the body; drop the connection so the
            # unread bytes are never parsed as a follow-up request (and so
            # a client mid-send is unblocked rather than deadlocked).
            self.close_connection = True
            self._reply(
                413,
                {
                    "error": "body_too_large",
                    "message": f"request body over {_MAX_BODY_BYTES} bytes",
                },
            )
            return
        raw = self.rfile.read(length) if length else b""
        try:
            payload = json.loads(raw) if raw else {}
        except json.JSONDecodeError as exc:
            self._reply(400, {"error": "bad_json", "message": str(exc)})
            return
        status, body = self.state.handle("POST", self.path, payload)
        self._reply(status, body)


class ReproServer:
    """One daemon: HTTP listener + ServeState, with an orderly stop."""

    def __init__(self, config: ServeConfig) -> None:
        self.config = config
        self.state = ServeState(
            cache=CacheLayer(
                predictor_size=config.predictor_cache,
                profile_size=config.profile_cache,
                response_size=config.response_cache,
                jobs=config.jobs,
            ),
            queue=WorkQueue(workers=config.workers, depth=config.queue_depth),
            budgets=config.budgets,
            default_tier=config.tier,
        )
        handler = type(
            "_BoundHandler",
            (_Handler,),
            {"state": self.state, "quiet": not config.log_requests},
        )
        self._httpd = ThreadingHTTPServer((config.host, config.port), handler)
        self._thread: Optional[threading.Thread] = None
        self._serving = False
        self._stopped = threading.Event()
        if config.allow_shutdown:
            self.state.on_shutdown = self.stop

    # ------------------------------------------------------------- lifecycle

    @property
    def port(self) -> int:
        """The bound port (resolves ``port=0`` to the ephemeral choice)."""
        return self._httpd.server_address[1]

    @property
    def address(self) -> str:
        return f"http://{self.config.host}:{self.port}"

    def serve_forever(self) -> None:
        """Blocking serve loop; KeyboardInterrupt triggers an orderly stop."""
        self._serving = True
        try:
            self._httpd.serve_forever()
        except KeyboardInterrupt:  # pragma: no cover - interactive path
            pass
        finally:
            self.stop()

    def start(self) -> "ReproServer":
        """Serve on a background thread (tests, benches); returns self."""
        self._serving = True
        self._thread = threading.Thread(
            target=self._httpd.serve_forever,
            name="repro-serve-http",
            daemon=True,
        )
        self._thread.start()
        return self

    def stop(self, timeout: Optional[float] = 30.0) -> None:
        """Stop accepting, drain the work queue, close the listener.

        Idempotent: the /shutdown endpoint, Ctrl-C, and tests may all call
        it; only the first does the work.
        """
        if self._stopped.is_set():
            return
        self._stopped.set()
        if self._serving:
            # shutdown() blocks until the serve loop acknowledges; calling
            # it on a never-started server would wait forever.
            self._httpd.shutdown()
        self._httpd.server_close()
        self.state.queue.shutdown(timeout=timeout)
        if self._thread is not None:
            self._thread.join(timeout)
            self._thread = None


def create_server(config: Optional[ServeConfig] = None) -> ReproServer:
    """Build (but do not start) a daemon from ``config``."""
    return ReproServer(config if config is not None else ServeConfig())
