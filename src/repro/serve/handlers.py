"""Transport-free request handlers for the prediction daemon.

:class:`ServeState` owns everything a request touches — the cache layer,
the bounded work queue, the budgets — and exposes exactly one entry point,
:meth:`ServeState.handle`, mapping ``(method, path, payload)`` to
``(status, response dict)``.  The HTTP server is a thin shell over it, and
tests drive the same surface in-process without sockets.

Request flow for the compute endpoints (predict/sweep/explore/check):

1. normalise the payload (defaults filled, orderings canonicalised) —
   equivalent requests become identical cache keys;
2. consult the ``response`` cache class — a warm repeat never queues;
3. admission control — grid budget (413), thread budget, queue bound
   (429);
4. enqueue the computation and wait, bounded by the request deadline
   (504 on expiry; the work itself is never killed mid-simulation and
   lands in the caches for the retry);
5. cache and return the response.
"""

from __future__ import annotations

import json
import time
from typing import Any, Callable, Optional

from repro.errors import ReproError, ServeError
from repro.obs import get_metrics
from repro.runtime.tasks import Schedule
from repro.serve.budgets import BudgetExceeded, Deadline, RequestBudgets
from repro.serve.cachelayer import CacheLayer
from repro.serve.workqueue import WorkQueue

#: Methods a request may ask of the batch predictor.
_METHODS = ("ff", "syn", "real")

#: Prediction tiers a request may select (see ``docs/surrogate.md``).
_TIERS = ("exact", "surrogate", "auto")

#: Paradigms a request may force (``None`` takes the workload's own).
_PARADIGMS = ("omp", "cilk", "omp_task")


def _int_field(payload: dict, name: str, default: int) -> int:
    """An integer request field; booleans, floats and strings are refused."""
    value = payload.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ServeError(f"{name} must be an integer, got {value!r}")
    return value


def estimate_to_dict(est) -> dict[str, Any]:
    """JSON shape of one :class:`~repro.core.report.SpeedupEstimate`."""
    return {
        "method": est.method,
        "paradigm": est.paradigm,
        "schedule": est.schedule,
        "n_threads": est.n_threads,
        "speedup": est.speedup,
        "with_memory_model": est.with_memory_model,
        "sections": dict(est.sections),
    }


def envelope_to_dict(env) -> dict[str, Any]:
    """JSON shape of one :class:`~repro.core.report.SpeedupEnvelope`."""
    return {
        "method": env.method,
        "paradigm": env.paradigm,
        "schedule": env.schedule,
        "n_threads": env.n_threads,
        "lo": env.lo,
        "median": env.median,
        "hi": env.hi,
        "samples": [list(s) for s in env.samples],
    }


def report_to_dict(report) -> dict[str, Any]:
    """JSON shape of a :class:`~repro.core.report.SpeedupReport`."""
    return {
        "estimates": [estimate_to_dict(e) for e in report.estimates],
        "envelopes": [envelope_to_dict(e) for e in report.envelopes],
        "failures": [str(f) for f in report.failures],
    }


class ServeState:
    """All daemon state behind the HTTP surface; one instance per server."""

    def __init__(
        self,
        cache: Optional[CacheLayer] = None,
        queue: Optional[WorkQueue] = None,
        budgets: Optional[RequestBudgets] = None,
        default_tier: str = "exact",
    ) -> None:
        if default_tier not in _TIERS:
            raise ServeError(
                f"unknown tier {default_tier!r} (expected one of {_TIERS})"
            )
        self.cache = cache if cache is not None else CacheLayer()
        self.queue = queue if queue is not None else WorkQueue()
        self.budgets = budgets if budgets is not None else RequestBudgets()
        self.default_tier = default_tier
        self.started = time.time()
        self.requests = 0
        #: Installed by the server: called (in a helper thread) on
        #: ``POST /shutdown`` to begin an orderly drain-and-stop.
        self.on_shutdown: Optional[Callable[[], None]] = None
        self._routes: dict[tuple[str, str], Callable[[dict], dict]] = {
            ("GET", "/health"): self._health,
            ("GET", "/workloads"): self._workloads,
            ("GET", "/stats"): self._stats,
            ("POST", "/predict"): self._predict,
            ("POST", "/sweep"): self._sweep,
            ("POST", "/explore"): self._explore,
            ("POST", "/check"): self._check,
            ("POST", "/cache/clear"): self._cache_clear,
            ("POST", "/shutdown"): self._shutdown,
        }

    # -------------------------------------------------------------- dispatch

    def handle(self, method: str, path: str, payload: dict) -> tuple[int, dict]:
        """Route one request; every error becomes a structured JSON body."""
        metrics = get_metrics()
        self.requests += 1
        metrics.inc("serve.requests")
        handler = self._routes.get((method, path.rstrip("/") or "/"))
        if handler is None:
            return 404, {"error": "not_found", "message": f"no route {method} {path}"}
        try:
            return 200, handler(payload)
        except ServeError as exc:
            metrics.inc(f"serve.errors.{exc.code}")
            return exc.status, {"error": exc.code, "message": str(exc)}
        except ReproError as exc:
            metrics.inc("serve.errors.bad_request")
            return 400, {"error": type(exc).__name__, "message": str(exc)}
        except Exception as exc:  # pragma: no cover - defensive
            metrics.inc("serve.errors.internal")
            return 500, {"error": "internal", "message": f"{type(exc).__name__}: {exc}"}

    # ------------------------------------------------------------ normalising

    def _grid(self, payload: dict, *, workloads_field: str) -> dict[str, Any]:
        """Fill defaults and canonicalise one compute request.

        Returns a plain dict safe to JSON-dump as the response-cache key;
        raises the budget errors for oversized grids up front.
        """
        if not isinstance(payload, dict):
            raise ServeError(f"request body must be a JSON object, got {payload!r}")
        raw = payload.get(workloads_field)
        if isinstance(raw, str):
            workloads = [w.strip() for w in raw.split(",") if w.strip()]
        elif isinstance(raw, list):
            workloads = [str(w) for w in raw]
        else:
            raise ServeError(f"missing required field {workloads_field!r}")
        if not workloads:
            raise ServeError(f"{workloads_field!r} names no workloads")
        threads = payload.get("threads", [2, 4, 8])
        if not isinstance(threads, list) or not threads:
            raise ServeError(f"threads must be a non-empty list, got {threads!r}")
        self.budgets.check_threads(threads)
        schedules = payload.get("schedules", ["static"])
        if isinstance(schedules, str):
            schedules = [s for s in schedules.split(";") if s]
        if not isinstance(schedules, list) or not schedules:
            raise ServeError(f"schedules must be a non-empty list, got {schedules!r}")
        for s in schedules:
            try:
                Schedule.parse(str(s))
            except (ReproError, ValueError):
                raise ServeError(f"unknown schedule {s!r}") from None
        methods = payload.get("methods", ["syn"])
        if isinstance(methods, str):
            methods = [m for m in methods.split(",") if m]
        if not isinstance(methods, list) or not methods:
            raise ServeError(f"methods must be a non-empty list, got {methods!r}")
        for m in methods:
            if m not in _METHODS:
                raise ServeError(f"unknown method {m!r} (expected one of {_METHODS})")
        tier = str(payload.get("tier", self.default_tier))
        if tier not in _TIERS:
            raise ServeError(f"unknown tier {tier!r} (expected one of {_TIERS})")
        paradigm = payload.get("paradigm")
        if paradigm is not None and paradigm not in _PARADIGMS:
            raise ServeError(
                f"unknown paradigm {paradigm!r} (expected one of {_PARADIGMS})"
            )
        memory_model = payload.get("memory_model", True)
        if not isinstance(memory_model, bool):
            raise ServeError(f"memory_model must be a boolean, got {memory_model!r}")
        cores = _int_field(payload, "cores", 12)
        if cores < 1:
            raise ServeError(f"cores must be >= 1, got {cores}")
        if cores > self.budgets.max_threads:
            # Profiling and calibrating a machine grows with its cores.
            raise BudgetExceeded(
                f"cores {cores} exceeds the budget of {self.budgets.max_threads}"
            )
        n_points = len(workloads) * len(schedules) * len(threads) * len(methods)
        self.budgets.check_grid(n_points)
        return {
            "workloads": sorted(set(workloads)),
            "threads": [int(t) for t in threads],
            "schedules": [str(s) for s in schedules],
            "methods": [str(m) for m in methods],
            "paradigm": paradigm,
            "memory_model": memory_model,
            "cores": cores,
            # The tier is part of the canonical request — surrogate and
            # exact answers for the same grid cache separately.
            "tier": tier,
        }

    def _through_cache_and_queue(
        self,
        route: str,
        request: dict[str, Any],
        fn: Callable[[], dict],
        timeout_s,
    ) -> dict:
        """Steps 2-5 of the request flow, shared by every compute endpoint."""
        key = route + ":" + json.dumps(request, sort_keys=True)
        cached = self.cache.responses.get(key)
        if cached is not None:
            return {**cached, "cached": True}
        deadline = Deadline(self.budgets.clamp_timeout(timeout_s))
        t0 = time.perf_counter()
        job = self.queue.submit(fn, deadline, label=route)
        response = job.wait(deadline.remaining())
        response = {**response, "elapsed_s": time.perf_counter() - t0}
        self.cache.responses.put(key, response)
        return {**response, "cached": False}

    # ------------------------------------------------------------- endpoints

    def _health(self, _payload: dict) -> dict:
        return {
            "status": "ok",
            "uptime_s": time.time() - self.started,
            "requests": self.requests,
        }

    def _workloads(self, _payload: dict) -> dict:
        from repro.workloads import get_workload, workload_names

        rows = []
        for name in workload_names():
            wl = get_workload(name)
            rows.append(
                {
                    "name": wl.name,
                    "paradigm": wl.paradigm,
                    "input": wl.input_label,
                    "description": wl.description,
                    "schedule": wl.schedule,
                }
            )
        return {"workloads": rows}

    def _stats(self, _payload: dict) -> dict:
        metrics = get_metrics()
        serve_counters = metrics.counters(prefix="serve.")
        return {
            "uptime_s": time.time() - self.started,
            "requests": self.requests,
            "queue": self.queue.stats(),
            "cache": self.cache.stats(),
            "metrics": serve_counters,
            "surrogate": metrics.counters(prefix="surrogate."),
            "hit_rates": {
                name: rate
                for name, rate in metrics.hit_rates().items()
                if name.startswith("serve.")
            },
        }

    def _cache_clear(self, _payload: dict) -> dict:
        return {"cleared": self.cache.clear()}

    def _shutdown(self, _payload: dict) -> dict:
        if self.on_shutdown is None:
            raise ServeError("this deployment does not allow remote shutdown")
        import threading

        threading.Thread(
            target=self.on_shutdown,
            name="repro-serve-shutdown",
            daemon=True,
        ).start()
        return {"status": "draining"}

    # ----------------------------------------------------- compute endpoints

    def _run_grid(self, request: dict[str, Any]) -> dict:
        """Worker-side body of /predict and /sweep."""
        prophet, predictor = self.cache.predictor_for(request["cores"])
        profiles = {
            name: self.cache.profile_for(name, request["cores"], prophet)
            for name in request["workloads"]
        }
        paradigm = request["paradigm"]
        if paradigm is None:
            paradigm = self._default_paradigm(request["workloads"])
        reports = predictor.sweep(
            profiles,
            threads=request["threads"],
            schedules=request["schedules"],
            methods=tuple(request["methods"]),
            paradigm=paradigm,
            memory_model=request["memory_model"],
            on_error="collect",
            tier=request["tier"],
        )
        return {
            "request": request,
            "paradigm": paradigm,
            "reports": {name: report_to_dict(r) for name, r in reports.items()},
        }

    @staticmethod
    def _default_paradigm(workloads: list[str]) -> str:
        """A single workload defaults to its registered paradigm; grids of
        several fall back to "omp" (the only paradigm they all speak)."""
        if len(workloads) == 1:
            from repro.workloads import get_workload

            return get_workload(workloads[0]).paradigm
        return "omp"

    def _predict(self, payload: dict) -> dict:
        request = self._grid(payload, workloads_field="workload")
        if len(request["workloads"]) != 1:
            raise ServeError("/predict takes exactly one workload; use /sweep")
        if "methods" not in payload:
            request["methods"] = ["ff", "syn"]
        return self._through_cache_and_queue(
            "predict",
            request,
            lambda: self._run_grid(request),
            payload.get("timeout_s"),
        )

    def _sweep(self, payload: dict) -> dict:
        request = self._grid(payload, workloads_field="workloads")
        return self._through_cache_and_queue(
            "sweep",
            request,
            lambda: self._run_grid(request),
            payload.get("timeout_s"),
        )

    def _explore(self, payload: dict) -> dict:
        request = self._grid(payload, workloads_field="workload")
        samples = _int_field(payload, "samples", 6)
        if samples < 1:
            raise ServeError(f"samples must be >= 1, got {samples}")
        # Each grid point is replayed once per handoff variant.
        self.budgets.check_grid(
            samples * len(request["schedules"]) * len(request["threads"]),
            where="explore request",
        )
        request["samples"] = samples
        request["seed"] = _int_field(payload, "seed", 0)

        def run() -> dict:
            from repro.explore import Explorer

            prophet, _predictor = self.cache.predictor_for(request["cores"])
            profiles = {
                name: self.cache.profile_for(name, request["cores"], prophet)
                for name in request["workloads"]
            }
            explored = Explorer(
                prophet,
                samples=request["samples"],
                seed=request["seed"],
                jobs=self.cache.jobs,
            ).explore(
                profiles,
                threads=request["threads"],
                schedules=request["schedules"],
                memory_model=request["memory_model"],
                on_error="collect",
            )
            return {
                "request": request,
                "reports": {name: report_to_dict(r) for name, r in explored.items()},
            }

        return self._through_cache_and_queue(
            "explore",
            request,
            run,
            payload.get("timeout_s"),
        )

    def _check(self, payload: dict) -> dict:
        if not isinstance(payload, dict):
            raise ServeError(f"request body must be a JSON object, got {payload!r}")
        if "workload" not in payload and "workloads" not in payload:
            payload = {**payload, "workloads": ["npb_ep"]}
        field = "workload" if "workload" in payload else "workloads"
        request = self._grid(payload, workloads_field=field)
        if "threads" not in payload:
            request["threads"] = [2, 4]
        if "memory_model" not in payload:
            request["memory_model"] = False

        def run() -> dict:
            from repro.validate import DifferentialHarness

            prophet, _predictor = self.cache.predictor_for(request["cores"])
            profiles = {
                name: self.cache.profile_for(name, request["cores"], prophet)
                for name in request["workloads"]
            }
            report = DifferentialHarness(prophet).run(
                profiles,
                threads=request["threads"],
                schedules=request["schedules"],
                memory_model=request["memory_model"],
            )
            return {
                "request": request,
                "summary": report.summary(),
                "violations": len(report.violations),
                "points": len(report.records),
            }

        return self._through_cache_and_queue(
            "check",
            request,
            run,
            payload.get("timeout_s"),
        )
