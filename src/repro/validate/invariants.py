"""Runtime invariant checks for the simulation and emulation pipeline.

Aggressive fast paths (the columnar closed forms, DRAM-solve memo,
event-sparse kernel, columnar team walk, cross-grid section memo) mean the
predictor's correctness rests on a web of parity claims that were verified
once, at PR time.  This module turns them into *standing* checks, wired
behind a single flag into ``simos.kernel``, ``core.executor``,
``core.ffemu``, and ``core.batch``:

- **simulated-time monotonicity** — no popped event may precede the clock;
- **work conservation** — base compute cycles handed to the kernel equal the
  busy cycles it accounts (exactly so on demand-free replays, as a lower
  bound under DRAM contention, where slowdown ≥ 1 stretches wall time);
- **counter attribution** — a segment's instruction/miss fractions sum to
  exactly 1 over its life, however often it was preempted;
- **DRAM bandwidth cap** — the solved stall factor never lets aggregate
  achieved bandwidth exceed the configured peak;
- **speedup bound** — no method predicts beyond its machine's concurrency
  (FF: the abstract t-CPU machine; SYN/REAL: the physical core count, with
  documented slack for the FAKE replay's overhead subtraction);
- **section-memo soundness** — a deterministic sample of memo hits is
  re-verified by an exact uncached replay, bit for bit.

Discipline
----------
Same contract as ``repro.obs``: every hook is a single attribute test
(``if checker.enabled:``) when disabled, and the compiled-in cost on the
replay hot path stays under the 2% budget
(``benchmarks/bench_validate_overhead.py`` enforces it).  Enable via
``REPRO_VALIDATE=1``, ``repro check`` / ``--selfcheck`` on the CLI, or
``get_checker().enabled = True`` in code.  See ``docs/validation.md``.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Optional

from repro.errors import InvariantViolation
from repro.obs import get_metrics
from repro.validate.policy import (
    FF_BOUND_TOLERANCE,
    REAL_TOLERANCE,
    SYN_TOLERANCE,
)

#: Relative tolerance for float-accumulation effects (attribution fractions,
#: work-conservation sums).  Individual interval errors are ~1e-12 relative;
#: 1e-6 leaves three orders of magnitude for long accumulation chains.
REL_TOL = 1e-6

#: DRAM achieved-bandwidth slack over the configured peak: the bisection
#: solves A(k) = B to 1e-9 relative, so anything past 1e-6 is a real breach.
DRAM_TOL = 1e-6

#: Stall multipliers at/above this are the model's saturation fallback for
#: physically inconsistent demands; the bandwidth cap does not apply there.
_K_SATURATED = 1e11

#: Per-method multiplicative slack on the speedup bound.  FF runs an exact
#: abstract machine (float noise only).  REAL recomputes leaf durations the
#: RLE compressor averaged within tolerance.  FAKE (SYN) additionally
#: subtracts the longest per-worker traversal overhead (Fig. 8 line 26),
#: which over-subtracts on trees of tiny nodes — the synthesizer's
#: documented approximation (see tests/test_fuzz_pipeline.py).  The values
#: are shared with the differential harness via ``repro.validate.policy``.
SPEEDUP_EPS = {
    "ff": FF_BOUND_TOLERANCE,
    "real": REAL_TOLERANCE,
    "syn": SYN_TOLERANCE,
}


@dataclass
class Violation:
    """One failed invariant check, in structured form."""

    check: str  #: invariant name, e.g. "work_conservation"
    where: str  #: instrumentation site / grid-point label
    detail: str  #: human-readable description
    observed: Optional[float] = None
    expected: Optional[float] = None

    def __str__(self) -> str:
        msg = f"[{self.check}] {self.where}: {self.detail}"
        if self.observed is not None or self.expected is not None:
            msg += f" (observed={self.observed!r}, expected={self.expected!r})"
        return msg


class InvariantChecker:
    """Process-wide switchboard for the runtime invariant checks.

    ``enabled`` gates every hook; ``mode`` decides what a failed check does:
    ``"raise"`` throws :class:`~repro.errors.InvariantViolation` at the
    fault site (the right default for tests and batch workers, where the
    existing error plumbing turns it into a structured task failure), while
    ``"record"`` collects :class:`Violation` records on :attr:`violations`
    so a harness can report them all (the CLI's ``check``/``--selfcheck``).
    Every outcome is also counted on the ``repro.obs`` metrics registry
    (``validate.checks`` / ``validate.violations``).
    """

    __slots__ = (
        "enabled",
        "mode",
        "violations",
        "checks_run",
        "memo_verify_every",
        "_memo_hits",
    )

    def __init__(
        self,
        enabled: bool = False,
        mode: str = "raise",
        memo_verify_every: int = 64,
    ) -> None:
        self.enabled = enabled
        self.mode = mode
        #: Violations collected in ``"record"`` mode.
        self.violations: list[Violation] = []
        #: Checks evaluated while enabled (the overhead bench's hook census).
        self.checks_run = 0
        #: Verify every Nth section-memo hit by exact replay (1 = all).
        self.memo_verify_every = memo_verify_every
        self._memo_hits = 0

    # ------------------------------------------------------------- plumbing

    def reset(self) -> None:
        """Drop collected violations and zero the counters."""
        self.violations.clear()
        self.checks_run = 0
        self._memo_hits = 0

    def fail(
        self,
        check: str,
        where: str,
        detail: str,
        observed: Optional[float] = None,
        expected: Optional[float] = None,
    ) -> None:
        """Report one failed check (raise or record, per :attr:`mode`)."""
        violation = Violation(check, where, detail, observed, expected)
        get_metrics().inc("validate.violations")
        if self.mode == "raise":
            raise InvariantViolation(str(violation))
        self.violations.append(violation)

    # ------------------------------------------------------ kernel invariants

    def check_event_time(self, t: float, now: float) -> None:
        """Popped-event monotonicity: the heap never yields the past."""
        self.checks_run += 1
        if t < now - 1e-9:
            self.fail(
                "time_monotonic",
                "kernel.run",
                "event popped before current simulated time",
                observed=t,
                expected=now,
            )

    def check_segment_complete(self, seg) -> None:
        """A completing segment retired all its work, consumed at least its
        base cycles of wall time (slowdown ≥ 1), and attributed exactly its
        whole counter share (fractions sum to 1 under preemption)."""
        self.checks_run += 1
        total = seg.total
        if seg.remaining > REL_TOL * max(total, 1.0):
            self.fail(
                "segment_complete",
                "kernel._complete_segment",
                "segment completed with work remaining",
                observed=seg.remaining,
                expected=0.0,
            )
        if seg.wall_consumed < total * (1.0 - REL_TOL) - 1e-6:
            self.fail(
                "work_conservation",
                "kernel._complete_segment",
                "segment consumed less wall time than its base cycles",
                observed=seg.wall_consumed,
                expected=total,
            )
        # inv_frac is -1.0 when the checker was disabled at attach time
        # (enabling mid-run must not produce false positives).
        if seg.inv_frac >= 0.0 and total > 0 and abs(seg.inv_frac - 1.0) > REL_TOL:
            self.fail(
                "counter_attribution",
                "kernel._complete_segment",
                "instruction/miss fractions did not sum to 1 over the "
                "segment's life",
                observed=seg.inv_frac,
                expected=1.0,
            )

    def check_work_conservation(
        self, cycles_in: float, busy_out: float, exact: bool, where: str
    ) -> None:
        """Whole-run conservation: base compute cycles in vs busy cycles out.

        ``exact=True`` (no segment ever had memory demand, so every slowdown
        was identically 1.0) requires equality; otherwise busy cycles may
        only exceed the base cycles (contention stretches, never shrinks).
        """
        self.checks_run += 1
        tol = REL_TOL * max(cycles_in, 1.0)
        if busy_out < cycles_in - tol:
            self.fail(
                "work_conservation",
                where,
                "kernel accounted fewer busy cycles than compute submitted",
                observed=busy_out,
                expected=cycles_in,
            )
        elif exact and busy_out > cycles_in + tol:
            self.fail(
                "work_conservation",
                where,
                "demand-free run accounted more busy cycles than submitted",
                observed=busy_out,
                expected=cycles_in,
            )

    def check_dram_cap(self, pool, demands, k: float) -> None:
        """The solved stall factor keeps achieved bandwidth under the peak."""
        self.checks_run += 1
        if k >= _K_SATURATED:
            return  # saturation fallback for inconsistent demands
        total = sum(d.demand_bytes_per_sec for d in demands)
        if total <= 0:
            return
        achieved = pool.achieved_bandwidth(demands, k)
        peak = pool.peak_bytes_per_sec
        if achieved > peak * (1.0 + DRAM_TOL):
            self.fail(
                "dram_bandwidth_cap",
                "kernel._rerate_socket",
                "aggregate achieved DRAM bandwidth exceeds the configured peak",
                observed=achieved,
                expected=peak,
            )

    # --------------------------------------------------- prediction invariants

    def check_speedup(
        self,
        method: str,
        speedup: float,
        n_threads: int,
        n_cores: int,
        nested: bool,
        where: str,
    ) -> None:
        """Speedup ≤ concurrency · (1 + ε) for the emulators' machines.

        FF runs an abstract machine with exactly ``n_threads`` CPUs.  The
        replay paradigms run on ``n_cores`` physical cores; non-nested
        programs cannot use more than ``min(n_threads, n_cores)`` of them,
        but nested OpenMP teams spawn *physical* threads, so a "t-thread"
        nested program legitimately scales to the full core count.
        Methods outside ff/syn/real (baselines) are not checked.
        """
        eps = SPEEDUP_EPS.get(method)
        if eps is None:
            return
        self.checks_run += 1
        if method == "ff":
            cap = float(n_threads)
        else:
            cap = float(n_cores if nested else min(n_threads, n_cores))
        if speedup > cap * (1.0 + eps) + 1e-9 or speedup <= 0:
            self.fail(
                "speedup_bound",
                where,
                f"{method} speedup outside (0, {cap:g}·(1+{eps:g})]",
                observed=speedup,
                expected=cap,
            )

    # ------------------------------------------------------- memo verification

    def sample_memo_hit(self) -> bool:
        """Deterministic sampling of section-memo hits for re-verification:
        the first hit and every :attr:`memo_verify_every`-th after it."""
        self._memo_hits += 1
        return self._memo_hits % self.memo_verify_every == 1 or (
            self.memo_verify_every == 1
        )

    def check_memo_parity(self, cached, fresh, where: str) -> None:
        """A memoised :class:`~repro.core.executor.SectionRun` must equal an
        uncached replay *bitwise* — the determinism claim the memo rests on."""
        self.checks_run += 1
        for field in (
            "gross_cycles",
            "traversal_overhead",
            "preemptions",
            "steals",
            "lock_acquires",
            "lock_contended",
        ):
            got = getattr(cached, field)
            want = getattr(fresh, field)
            if got != want:
                self.fail(
                    "section_memo_parity",
                    where,
                    f"memoised section replay diverges from exact replay "
                    f"on {field}",
                    observed=float(got),
                    expected=float(want),
                )


def has_nested_sections(tree) -> bool:
    """True if any top-level SEC contains another SEC (the Fig. 7 shape).

    Nested sections are what let a t-thread replay scale past t (nested
    physical teams) and what the FF's abstract machine cannot model —
    both the speedup-bound cap and the differential harness's expected-
    divergence classification key off this predicate.
    """
    from repro.core.tree import NodeKind

    seen: set[int] = set()

    def any_sec_below(node) -> bool:
        for child in node.children:
            if id(child) in seen:
                continue
            seen.add(id(child))
            if child.kind is NodeKind.SEC or any_sec_below(child):
                return True
        return False

    return any(
        top.kind is NodeKind.SEC and any_sec_below(top)
        for top in tree.root.children
    )


#: Process-global checker; disabled unless opted in (same pattern as the
#: tracer's ``REPRO_TRACE``).  Kernels/executors/emulators capture it at
#: construction, so replace-or-enable it *before* building them.
_checker = InvariantChecker(
    enabled=os.environ.get("REPRO_VALIDATE", "") not in ("", "0")
)


def get_checker() -> InvariantChecker:
    """The process-global invariant checker."""
    return _checker


def set_checker(checker: InvariantChecker) -> InvariantChecker:
    """Replace the process-global checker (tests); returns it."""
    global _checker
    _checker = checker
    return checker
