"""Machine configuration.

:class:`MachineConfig` bundles every hardware parameter the simulation needs.
The default, :data:`WESTMERE_12`, mirrors the paper's experimental platform
(Section VII-A): a 12-core two-socket Intel Xeon (Westmere) with 12 MB LLC,
hardware prefetchers disabled, Hyper-Threading/Turbo/SpeedStep off.  Absolute
numbers (frequency, DRAM bandwidth) are representative, not measured — the
reproduction targets the *shape* of results, and every consumer reads these
values from the config rather than hard-coding them.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class MachineConfig:
    """Parameters of the simulated multicore machine.

    Attributes
    ----------
    n_cores:
        Number of physical cores (no SMT; paper assumption 3c).
    freq_ghz:
        Core clock in GHz; converts cycles to wall seconds for bandwidth math.
    line_size:
        Cache-line size in bytes; one LLC miss moves one line from DRAM.
    llc_bytes / llc_assoc:
        Last-level cache capacity and associativity (assumption 3a: only the
        LLC is modelled explicitly).
    base_miss_stall:
        ω₀ — *effective* CPU stall cycles per LLC miss with an idle memory
        system.  This is the post-overlap value: out-of-order cores sustain
        several misses in flight (memory-level parallelism), so the
        serialized cost per miss is far below the raw DRAM latency.  With the
        defaults (30 cycles, 64 B lines, 2.8 GHz) a fully memory-bound core
        demands 64·2.8e9/30 ≈ 6 GB/s — half the 12 GB/s socket peak — so
        streaming workloads saturate at realistic core counts.
    dram_peak_gbs:
        Peak sustainable DRAM bandwidth in GB/s shared by all cores; the
        contention model caps aggregate achieved traffic at this value.
    dram_queue_gain:
        κ — coefficient of the queueing-latency factor below saturation.
    timeslice_cycles:
        OS scheduler quantum in cycles (preemptive round-robin).
    tracer_overhead_cycles:
        Cost charged to the profiled program per annotation event; the
        interval profiler must subtract it (Section VI-A).
    """

    n_cores: int = 12
    #: Number of sockets; ``dram_peak_gbs`` is the *total* machine bandwidth,
    #: split evenly into per-socket pools.  Core *i* belongs to socket
    #: ``i % n_sockets`` (interleaved, modelling an OS that spreads threads).
    #: The default of 1 keeps the memory system a single pool — the paper's
    #: own simplification (assumption 3) — while 2 reproduces the
    #: multi-socket deviations the paper observes ("such a 20% deviation in
    #: speedups is often observed in multiple socket machines").
    n_sockets: int = 1
    freq_ghz: float = 2.8
    line_size: int = 64
    llc_bytes: int = 12 * 2**20
    llc_assoc: int = 16
    base_miss_stall: float = 30.0
    dram_peak_gbs: float = 12.0
    dram_queue_gain: float = 0.6
    timeslice_cycles: float = 2_000_000.0
    tracer_overhead_cycles: float = 120.0
    #: Cost charged to a thread when a core switches to it from a different
    #: thread (register save/restore + cache warmup).  Defaults to 0 so the
    #: abstract-machine reproductions (e.g. the exact Fig. 7 numbers) hold;
    #: set a few thousand cycles to study oversubscription realistically
    #: (see benchmarks/bench_sec3_recursive_paradigms.py).
    context_switch_cycles: float = 0.0

    def __post_init__(self) -> None:
        if self.n_cores < 1:
            raise ConfigurationError(f"n_cores must be >= 1, got {self.n_cores}")
        if self.n_sockets < 1:
            raise ConfigurationError(f"n_sockets must be >= 1, got {self.n_sockets}")
        if self.n_cores % self.n_sockets != 0:
            raise ConfigurationError(
                f"n_cores ({self.n_cores}) must divide evenly into "
                f"{self.n_sockets} socket(s)"
            )
        if self.freq_ghz <= 0:
            raise ConfigurationError(f"freq_ghz must be > 0, got {self.freq_ghz}")
        if self.line_size <= 0 or (self.line_size & (self.line_size - 1)) != 0:
            raise ConfigurationError(
                f"line_size must be a positive power of two, got {self.line_size}"
            )
        if self.llc_bytes <= 0:
            raise ConfigurationError(f"llc_bytes must be > 0, got {self.llc_bytes}")
        if self.llc_assoc < 1:
            raise ConfigurationError(f"llc_assoc must be >= 1, got {self.llc_assoc}")
        if self.base_miss_stall < 0:
            raise ConfigurationError("base_miss_stall must be >= 0")
        if self.dram_peak_gbs <= 0:
            raise ConfigurationError("dram_peak_gbs must be > 0")
        if self.dram_queue_gain < 0:
            raise ConfigurationError("dram_queue_gain must be >= 0")
        if self.timeslice_cycles <= 0:
            raise ConfigurationError("timeslice_cycles must be > 0")
        if self.tracer_overhead_cycles < 0:
            raise ConfigurationError("tracer_overhead_cycles must be >= 0")
        if self.context_switch_cycles < 0:
            raise ConfigurationError("context_switch_cycles must be >= 0")

    # -- unit conversions ---------------------------------------------------

    @property
    def freq_hz(self) -> float:
        """Core frequency in Hz."""
        return self.freq_ghz * 1e9

    @property
    def dram_peak_bytes_per_sec(self) -> float:
        """Peak DRAM bandwidth in bytes/second."""
        return self.dram_peak_gbs * 1e9

    def cycles_to_seconds(self, cycles: float) -> float:
        """Convert a cycle count to wall-clock seconds."""
        return cycles / self.freq_hz

    def seconds_to_cycles(self, seconds: float) -> float:
        """Convert wall-clock seconds to cycles."""
        return seconds * self.freq_hz

    def traffic_mbs(self, llc_misses: float, cycles: float) -> float:
        """DRAM traffic in MB/s generated by ``llc_misses`` line fills spread
        over ``cycles`` cycles (the δ of Section V-D)."""
        if cycles <= 0:
            return 0.0
        seconds = self.cycles_to_seconds(cycles)
        return llc_misses * self.line_size / seconds / 1e6

    def socket_of(self, core: int) -> int:
        """The socket core ``core`` belongs to (interleaved mapping)."""
        return core % self.n_sockets

    @property
    def dram_peak_bytes_per_sec_per_socket(self) -> float:
        """Each socket's share of the total peak bandwidth."""
        return self.dram_peak_bytes_per_sec / self.n_sockets

    def with_cores(self, n_cores: int) -> "MachineConfig":
        """A copy of this config with a different core count (socket count
        reduced to 1 if it no longer divides evenly)."""
        sockets = self.n_sockets if n_cores % self.n_sockets == 0 else 1
        return replace(self, n_cores=n_cores, n_sockets=sockets)


#: Default machine mirroring the paper's 12-core Westmere Xeon testbed,
#: with the memory system as one pool (the paper's assumption 3).
WESTMERE_12 = MachineConfig()

#: The same machine with its two sockets modelled as separate DRAM pools —
#: the configuration behind the paper's observation that multi-socket boxes
#: show ~20 % speedup deviations (Section VII-B).
WESTMERE_12_NUMA = MachineConfig(n_sockets=2)
