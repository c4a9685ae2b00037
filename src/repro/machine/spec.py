"""Machine specifications.

``GEFORCE_8800_GTX`` mirrors the device of the paper's evaluation (Section 6):
16 multiprocessors at 675 MHz with 8 SIMD units each (running at twice the
multiprocessor clock), 16 KB of scratchpad ("shared") memory per
multiprocessor, 768 MB of DRAM, warp size 32.  ``REFERENCE_CPU`` mirrors the
host: an Intel Core2 Duo at 2.13 GHz with a 2 MB L2 cache (a single core is
modelled, as the paper's CPU baseline is sequential).

Per-access cost parameters are calibrated so that the *ratios* the paper
reports (scratchpad vs. DRAM-only, GPU vs. CPU) fall in the observed ranges.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPUSpec:
    """A two-level parallel machine with explicitly managed scratchpads."""

    name: str = "GeForce 8800 GTX (modelled)"
    multiprocessors: int = 16
    simd_units_per_multiprocessor: int = 8
    warp_size: int = 32
    #: SIMD-unit clock in GHz (the 8800 GTX shader clock, 2 × 675 MHz).
    clock_ghz: float = 1.35
    #: scratchpad capacity per multiprocessor in bytes (16 KB on the 8800 GTX)
    shared_memory_per_multiprocessor: int = 16 * 1024
    dram_bytes: int = 768 * 1024 * 1024
    max_blocks_per_multiprocessor: int = 8
    max_threads_per_block: int = 512

    # -- calibrated per-access costs (cycles, per SIMD lane) -------------------
    #: effective cost of one uncoalesced global-memory access issued from
    #: compute code (the 8800 GTX serialises such accesses; 400–600 cycles of
    #: latency amortised over a warp's limited outstanding requests)
    global_access_cycles: float = 16.0
    #: effective cost of one scratchpad access
    shared_access_cycles: float = 1.0
    #: effective cost per element of a coalesced bulk (copy-in/copy-out)
    #: transfer between DRAM and the scratchpad, per participating thread
    dma_cycles_per_element: float = 4.0
    #: cycles of arithmetic per statement instance (SAD/stencil-style bodies)
    compute_cycles_per_instance: float = 4.0
    #: barrier cost among the threads of one block, per thread
    block_sync_cycles: float = 8.0
    #: cost of a device-wide synchronisation (kernel relaunch), in cycles
    global_sync_cycles: float = 6000.0
    #: fixed launch overhead per kernel invocation, in microseconds
    kernel_launch_overhead_us: float = 8.0

    @property
    def cycles_per_us(self) -> float:
        return self.clock_ghz * 1000.0


@dataclass(frozen=True)
class CPUSpec:
    """A cached single-core CPU (the paper's host baseline)."""

    name: str = "Intel Core2 Duo 2.13 GHz (modelled, single core)"
    clock_ghz: float = 2.13
    l2_cache_bytes: int = 2 * 1024 * 1024
    cache_line_bytes: int = 64
    #: cycles per arithmetic-dominated statement instance (scalar code)
    compute_cycles_per_instance: float = 6.0
    #: cycles per memory access that hits in cache
    cache_hit_cycles: float = 2.0
    #: cycles per memory access that misses to DRAM
    dram_access_cycles: float = 220.0

    @property
    def cycles_per_us(self) -> float:
        return self.clock_ghz * 1000.0


@dataclass(frozen=True)
class GridSpec:
    """A P×P grid of processing elements behind one host link.

    Models the wafer-scale-style fabric of the pipelined SUMMA GEMM
    experiments (SNIPPETS.md Snippet 3): a square mesh of PEs with small
    private memories, nearest-neighbour fabric links, and a single host
    link that every H2D broadcast and D2H gather must cross.  The link
    parameters are calibrated so the modelled collective bandwidths land
    on the measured ones — broadcast H2D ≈ 0.868 words/cycle and gather
    D2H ≈ 0.298 words/cycle for the 4×4 / 14³ configuration — with the
    asymmetry coming entirely from :attr:`host_contention_penalty`
    (gathers collect from every PE through one serialising host port,
    broadcasts inject once and fan out on the fabric).

    ``grid_p`` is the *fabric* dimension; a tuning configuration may map
    onto any sub-grid ``p × p`` with ``p <= grid_p``.
    """

    name: str = "WSE-2 subgrid (modelled)"
    #: fabric dimension — the machine exposes ``grid_p × grid_p`` PEs
    grid_p: int = 16
    #: PE clock in GHz (WSE-2 style fabric clock)
    clock_ghz: float = 0.85
    #: bytes per word moved on the fabric (f32)
    word_bytes: int = 4
    #: private memory per PE in bytes (48 KB on WSE-2)
    pe_memory_bytes: int = 48 * 1024
    #: cycles per multiply-accumulate on one PE
    compute_cycles_per_mac: float = 1.0
    #: fixed loop/setup overhead per local compute sub-tile, in cycles
    loop_overhead_cycles: float = 32.0

    # -- calibrated link parameters (see repro.distmodel.links) ---------------
    #: raw host→device injection bandwidth, words per cycle
    h2d_words_per_cycle: float = 0.9
    #: raw device→host drain bandwidth, words per cycle (before contention)
    d2h_words_per_cycle: float = 0.9
    #: nearest-neighbour fabric link bandwidth, words per cycle
    fabric_words_per_cycle: float = 1.0
    #: latency of one fabric hop, in cycles
    hop_latency_cycles: float = 64.0
    #: fractional per-word slowdown added per *extra* concurrent sender on
    #: the device→host path (serialised host collection)
    host_contention_penalty: float = 0.13

    @property
    def cycles_per_us(self) -> float:
        return self.clock_ghz * 1000.0


GEFORCE_8800_GTX = GPUSpec()
REFERENCE_CPU = CPUSpec()
WSE2_GRID = GridSpec()
