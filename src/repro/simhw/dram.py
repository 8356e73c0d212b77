"""Fluid DRAM-contention model.

The paper's burden factors exist to predict one phenomenon: *memory resource
contention* — DRAM bandwidth saturation plus queueing delay (Section I cites
[7, 9]).  This module is the ground-truth source of that phenomenon in the
simulated machine.

Model
-----
Each running compute segment *i* is characterised by its **memory fraction**
``f_i`` (share of its uncontended duration spent stalled on LLC misses) and
its **demand bandwidth** ``d_i`` (bytes/s it would pull from DRAM when
running at full speed; misses are assumed uniformly spread through the
segment).  All segments share one stall-inflation factor ``k ≥ 1``: a
segment's slowdown is

    s_i(k) = (1 − f_i) + f_i · k,

its achieved traffic is ``d_i / s_i(k)`` (misses are conserved — a slowed
segment issues the same misses over a longer wall time), and the aggregate
achieved bandwidth is ``A(k) = Σ d_i / s_i(k)``.

``k`` is determined self-consistently:

- **Below saturation** (A at the queue-only inflation still fits in the peak
  bandwidth ``B``): ``k = q(u)`` where ``u = Δ/B`` is the demand utilisation
  and ``q(u) = 1 + κ·u²/(1+u)`` (clamped at u = 1) models memory-controller
  queueing — latency creeps up as the system approaches saturation.
- **At saturation**: ``k`` solves ``A(k) = B`` exactly (monotone in ``k``,
  solved by bisection), so the aggregate achieved bandwidth never exceeds
  the peak, regardless of how compute-diluted the segments are.

The effective stall per LLC miss observed by the simulated counters is
``ω_eff = ω₀ · k``.  The model is deterministic and piecewise-constant
between scheduling events, which is what lets the discrete-event kernel
treat compute progress as piecewise-linear.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import dataclass
from typing import Iterable, Sequence

from repro.errors import ConfigurationError
from repro.obs import get_metrics
from repro.simhw.machine import MachineConfig

#: Relative tolerance of the bandwidth-cap root solve.
_SOLVE_TOL = 1e-9

#: Ceiling of the stall multiplier; only reachable with physically
#: inconsistent segment demands (traffic without proportional stall time).
_K_MAX = 1e12

#: Bound of every DRAM-solve memo (entries): each :class:`DramModel`'s
#: and each columnar team walk's (``repro.core.columnar``), which sits in
#: front of :meth:`DramModel.solve` the way a pool's sits in front of it.
DRAM_SOLVE_CACHE = 256


def _quantize(x: float) -> float:
    """Round to 12 significant digits for cache keying.

    Collapsing float noise three orders of magnitude below the solver
    tolerance (1e-9 relative) lets running sets that differ only by
    accumulated rounding share a cache slot without observably changing the
    returned multiplier."""
    return float(f"{x:.12g}")


@dataclass(frozen=True)
class SegmentDemand:
    """Memory demand of one running compute segment.

    Attributes
    ----------
    mem_fraction:
        Fraction of the segment's uncontended duration that is LLC-miss
        stall time, in [0, 1].
    demand_bytes_per_sec:
        DRAM traffic the segment generates when running at full speed.
    """

    mem_fraction: float
    demand_bytes_per_sec: float

    def __post_init__(self) -> None:
        if not 0.0 <= self.mem_fraction <= 1.0:
            raise ConfigurationError(
                f"mem_fraction must be in [0, 1], got {self.mem_fraction!r}"
            )
        if self.demand_bytes_per_sec < 0:
            raise ConfigurationError(
                f"demand_bytes_per_sec must be >= 0, got {self.demand_bytes_per_sec!r}"
            )


class DramModel:
    """Self-consistent bandwidth sharing for concurrent compute segments."""

    def __init__(
        self,
        config: MachineConfig,
        peak_bytes_per_sec: float | None = None,
    ) -> None:
        """``peak_bytes_per_sec`` overrides the pool's capacity — used for
        per-socket pools on NUMA machines (each socket gets
        ``config.dram_peak_bytes_per_sec_per_socket``).

        :meth:`stall_multiplier` results are memoised in an LRU of
        :data:`DRAM_SOLVE_CACHE` entries: running sets recur constantly
        across DES timeslices, so the 200-step bisection is usually
        redundant."""
        self.config = config
        self._peak = (
            peak_bytes_per_sec
            if peak_bytes_per_sec is not None
            else config.dram_peak_bytes_per_sec
        )
        self._kappa = config.dram_queue_gain
        #: LRU memo: quantized (mem_fraction, demand) multiset -> k.
        self._cache: OrderedDict[tuple, float] = OrderedDict()
        self.cache_hits = 0
        self.cache_misses = 0

    # -- scalar curves ------------------------------------------------------

    def utilisation(self, total_demand: float) -> float:
        """u = Δ/B for aggregate demand ``total_demand`` in bytes/s."""
        return max(0.0, total_demand) / self._peak

    def queue_factor(self, u: float) -> float:
        """q(u) — latency inflation from memory-controller queueing, clamped
        at u = 1 (beyond saturation the serialisation is captured by the
        bandwidth-cap solve, not by per-access latency growth)."""
        if u <= 0.0:
            return 1.0
        uc = min(u, 1.0)
        return 1.0 + self._kappa * uc * uc / (1.0 + uc)

    # -- the shared inflation factor -------------------------------------------

    def stall_multiplier(self, segments: Sequence[SegmentDemand]) -> float:
        """The common factor k by which every segment's per-miss stall is
        inflated, given the currently running set.

        Results are memoised in a bounded LRU keyed by the quantized
        multiset of ``(mem_fraction, demand)`` pairs: the DES kernel
        re-solves on every running-set change, and identical sets recur
        constantly across timeslices."""
        total = sum(s.demand_bytes_per_sec for s in segments)
        if total <= 0:
            return 1.0
        key = tuple(
            sorted(
                (_quantize(s.mem_fraction), _quantize(s.demand_bytes_per_sec))
                for s in segments
                if s.demand_bytes_per_sec > 0
            )
        )
        cached = self._cache.get(key)
        if cached is not None:
            self.cache_hits += 1
            self._cache.move_to_end(key)
            return cached
        self.cache_misses += 1
        k = self.solve(segments, total)
        self._cache[key] = k
        if len(self._cache) > DRAM_SOLVE_CACHE:
            self._cache.popitem(last=False)
        return k

    def solve(self, segments: Sequence[SegmentDemand], total: float) -> float:
        """The stall multiplier ``k`` of ``segments``, whose demands sum to
        ``total`` (> 0), solved without the memo.  :meth:`stall_multiplier`
        runs it on a memo miss; the columnar team walks, which keep their
        own memos, call it directly."""
        k_queue = self.queue_factor(self.utilisation(total))
        if self._achieved(segments, k_queue) <= self._peak:
            return k_queue
        # Saturated: solve A(k) = B.  A is strictly decreasing in k (every
        # segment with d_i > 0 has f_i > 0 because misses imply stall time).
        # This bisection is the expensive path (hit only on memo misses at
        # saturation), so it is worth a process-wide counter; the per-call
        # hit/miss totals are bridged from cache_info() at replay end.
        get_metrics().inc("dram.solve.bisections")
        # The bracket is a pure function of the running set, so a solve never
        # depends on earlier ones and the memo is a pure cache.
        lo, hi = k_queue, max(2.0 * k_queue, 2.0)
        while self._achieved(segments, hi) > self._peak:
            hi *= 2.0
            if hi > _K_MAX:
                # Physically inconsistent demand (huge traffic, ~zero memory
                # fraction) cannot be throttled below peak: saturate the
                # multiplier instead of diverging.
                return _K_MAX
        for _ in range(200):
            mid = 0.5 * (lo + hi)
            if self._achieved(segments, mid) > self._peak:
                lo = mid
            else:
                hi = mid
            if hi - lo <= _SOLVE_TOL * hi:
                break
        return 0.5 * (lo + hi)

    def solve_batch(self, mem_fractions, demands):
        """Vectorized :meth:`stall_multiplier` over independent lanes.

        ``mem_fractions`` and ``demands`` are ``(n_lanes, n_segs)`` arrays
        describing one running set per lane, padded with zero-demand
        columns (which are exact no-ops, as in the scalar path).

        Returns ``k`` as a float64 array.  Every lane follows
        the scalar solve bit for bit — same queue-factor expression, same
        test-then-double bracket growth with the ``_K_MAX`` cap, same
        200-step bisection with the post-update tolerance check — via
        elementwise IEEE-754 ops and per-lane masks, so batching never
        changes a result.  No evaluator calls it (the columnar team walks
        solve their misses one at a time with :meth:`solve`); it stays
        while the end-to-end benchmark's tracer wraps it by name.

        This entry point does not read or write ``_cache`` (each caller
        owns its own memo, mirroring the one-pool-per-kernel structure).
        """
        import numpy as np

        F = np.asarray(mem_fractions, dtype=np.float64)
        D = np.asarray(demands, dtype=np.float64)
        n, width = D.shape

        # Sequential per-segment accumulation: matches the scalar sum()
        # (adding 0.0 for padded columns is an exact identity).
        total = np.zeros(n)
        for j in range(width):
            total = total + D[:, j]

        def achieved(k):
            acc = np.zeros(n)
            for j in range(width):
                d = D[:, j]
                f = F[:, j]
                acc = acc + np.where(d > 0.0, d / (1.0 - f + f * k), 0.0)
            return acc

        u = np.maximum(0.0, total) / self._peak
        uc = np.minimum(u, 1.0)
        # queue_factor: at u <= 0 the second term is exactly 0.0.
        k_queue = 1.0 + self._kappa * uc * uc / (1.0 + uc)
        k = k_queue.copy()
        sat = achieved(k_queue) > self._peak
        n_sat = int(sat.sum())
        if n_sat == 0:
            return k
        get_metrics().inc("dram.solve.bisections", float(n_sat))

        lo = k_queue.copy()
        hi = np.maximum(2.0 * k_queue, 2.0)
        capped = np.zeros(n, dtype=bool)
        active = sat.copy()
        while True:
            need = active & (achieved(hi) > self._peak)
            if not need.any():
                break
            hi = np.where(need, hi * 2.0, hi)
            newly = need & (hi > _K_MAX)
            if newly.any():
                k = np.where(newly, _K_MAX, k)
                capped |= newly
                active = active & ~newly

        solving = sat & ~capped
        done = ~solving
        for _ in range(200):
            if done.all():
                break
            mid = 0.5 * (lo + hi)
            over = achieved(mid) > self._peak
            lo = np.where(~done & over, mid, lo)
            hi = np.where(~done & ~over, mid, hi)
            done = done | (hi - lo <= _SOLVE_TOL * hi)
        return np.where(solving, 0.5 * (lo + hi), k)

    @property
    def peak_bytes_per_sec(self) -> float:
        """The pool's configured peak bandwidth cap (bytes/s)."""
        return self._peak

    def achieved_bandwidth(
        self, segments: Sequence[SegmentDemand], k: float
    ) -> float:
        """A(k) — aggregate achieved bytes/s at stall multiplier ``k``."""
        return self._achieved(segments, k)

    def cache_info(self) -> dict[str, int]:
        """Hit/miss counters plus current and maximum cache size."""
        return {
            "hits": self.cache_hits,
            "misses": self.cache_misses,
            "size": len(self._cache),
            "maxsize": DRAM_SOLVE_CACHE,
        }

    def clear_cache(self) -> None:
        """Drop all memoised solves and reset the counters."""
        self._cache.clear()
        self.cache_hits = 0
        self.cache_misses = 0

    def _achieved(self, segments: Sequence[SegmentDemand], k: float) -> float:
        return sum(
            s.demand_bytes_per_sec / (1.0 - s.mem_fraction + s.mem_fraction * k)
            for s in segments
            if s.demand_bytes_per_sec > 0
        )

    def effective_miss_stall(self, segments: Sequence[SegmentDemand]) -> float:
        """ω_eff — stall cycles per LLC miss for the running set."""
        return self.config.base_miss_stall * self.stall_multiplier(segments)

    # -- per-segment slowdowns ----------------------------------------------

    def slowdowns(self, segments: Sequence[SegmentDemand]) -> list[float]:
        """Instantaneous slowdown factor s_i ≥ 1 for each running segment.

        The returned factors convert *uncontended* cycles into wall cycles:
        a segment with ``r`` base cycles remaining completes after
        ``r * s_i`` wall cycles if the running set does not change.
        """
        if not segments:
            return []
        k = self.stall_multiplier(segments)
        return [1.0 - s.mem_fraction + s.mem_fraction * k for s in segments]

    def aggregate_achieved_bandwidth(
        self, segments: Iterable[SegmentDemand]
    ) -> float:
        """Total bytes/s actually transferred (never exceeds the peak)."""
        segs = list(segments)
        if not segs:
            return 0.0
        return self._achieved(segs, self.stall_multiplier(segs))
