"""Calibration constants of the cost model.

The primitive bandwidth/latency numbers in :mod:`repro.hardware.specs`
are the paper's Figure 3 *microbenchmark* results.  Those microbenchmarks
issue dependent 4-byte reads (a pointer chase), which under-utilize the
memory-level parallelism that a hash-join kernel's *independent* probes
achieve.  The constants below bridge that gap and encode a handful of
quantities the paper reports only indirectly.  Every constant records the
paper evidence it was fitted against.

Changing these constants changes simulated absolute numbers but not the
structure of the model; the figure modules' ``CLAIMS`` (checked by the
paper-anchors test) state shapes and ratios, which are robust to modest
recalibration.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from repro.utils.units import GIB, KIB, MIB, US


@dataclass(frozen=True)
class Calibration:
    """Tunable model constants, with paper-derived defaults."""

    # --- independent random-access uplift over the dependent-chase
    #     microbenchmark, per resource technology. Fitted so that the
    #     NOPA join is interconnect-bound for workload A over NVLink
    #     (Figure 12: Coherence = 3.83 G Tuples/s) and HBM-bound for
    #     workload C (Figure 13: ~2.5 G Tuples/s flat).
    independent_access_factor: Dict[str, float] = field(
        default_factory=lambda: {
            "hbm2-v100": 1.6,  # joins reach ~9e9 independent accesses/s
            "ddr4-power9": 1.28,  # ~1.15e9 accesses/s across 16 cores
            "ddr4-xeon": 1.35,  # ~0.91e9 accesses/s across 12 cores
            "nvlink2": 1.8,  # NPU pipelines independent requests
            "xbus": 1.8,
            "upi": 1.7,
            "pcie3": 1.0,  # PCI-e root complex does not pipeline UVA reads
        }
    )

    # --- atomic update rates (accesses/s). Atomics are slower than reads:
    #     they serialize in the memory controller / NPU.
    #     * hbm local: Figure 18 time breakdown (build = 71% at 1:1 ratio).
    #     * cpu local: Figure 21b (CPU build of 1024M tuples in ~2.1 s).
    #     * nvlink remote: Figure 17 (out-of-core NVLink within 13% of CPU).
    #     * pcie remote: PCI-e has no system-wide atomics; CUDA falls back
    #       to page-migration (Section 3), Figure 17 (97% decline, 0.02 GT/s).
    atomic_rate: Dict[str, float] = field(
        default_factory=lambda: {
            "hbm2-v100": 1.7e9,
            "ddr4-power9": 1.0e9,
            "ddr4-xeon": 0.85e9,
            "nvlink2": 0.45e9,
            "xbus": 0.40e9,
            "upi": 0.50e9,
            "pcie3": 0.02e9,
        }
    )

    # --- per-access wire cost of random accesses crossing a link: one L1
    #     sector (32 B on Volta) plus the packet header (Section 2.2).
    random_sector_bytes: float = 32.0

    # --- initiator-side issue efficiency: fraction of the theoretical
    #     MLP/latency rate a join kernel actually sustains (instruction
    #     overhead, TLB misses). CPU fitted to the NOPA baseline
    #     (Figure 21a: workload A = 0.52 G Tuples/s on one POWER9).
    issue_efficiency: Dict[str, float] = field(
        default_factory=lambda: {"cpu": 0.61, "gpu": 1.0}
    )

    # --- memory-side random concurrency: how many initiators' worth of
    #     random traffic the DRAM itself can absorb. DDR4 sockets can
    #     serve both their own cores and the GPU's NPU-issued requests
    #     (Figure 21: Het probe is faster than CPU-only probe); HBM2's
    #     measured random rate is already device-bound.
    dram_concurrency: Dict[str, float] = field(
        default_factory=lambda: {
            "ddr4-power9": 2.0,
            "ddr4-xeon": 2.0,
            "hbm2-v100": 1.0,
        }
    )

    # --- extra-hop degradation for random accesses routed through more
    #     than one interconnect (Figures 13/14: 2->3 hops costs 17-33%).
    per_hop_random_penalty: float = 0.9

    # --- multi-processor write contention on a shared hash table
    #     (Figure 21b: Het build is slower than single-processor build).
    shared_build_contention: float = 0.72

    # --- GPU L2 (memory-side) random service rate when the working set
    #     fits (Figure 13 workload B: 19.08 G Tuples/s in GPU memory).
    l2_random_rate: float = 45e9
    # --- GPU L1 over coherence: it *can* hold remote lines
    #     (Section 2.2.2), but its effective capacity for remote data is
    #     small — a 4 MiB table sees no benefit (Figure 14, workload B)
    #     while a Zipf hot set does (Figure 19).
    l1_random_rate: float = 60e9
    l1_remote_capacity: float = 2 * MIB
    # --- PCI-e's skew relief: without coherence, hot Unified Memory
    #     pages migrate into GPU memory and are then served locally, but
    #     fault handling caps the service rate (Figure 19: PCI-e speeds
    #     up 6.1x under skew yet stays far below NVLink).
    um_hot_page_rate: float = 0.75e9
    # --- CPU cache tiers. Random probes into an LLC-resident table run
    #     no faster than DRAM-latency-bound probes — the cores' load
    #     machinery is the limit (Figure 13: CPU workloads A and B have
    #     equal NOPA throughput). Only tiny per-core-L1-resident hot
    #     sets are served faster (Figure 19: CPU speeds up 3.5x).
    llc_random_rate: float = 1.2e9
    cpu_l1_capacity: float = 512 * KIB
    cpu_l1_random_rate: float = 4e9

    # --- per-tuple compute work (in processor "work units"; a CPU core
    #     retires tuple_rate_per_core units/s). Hash+probe costs ~2
    #     units; predicated SIMD scans ~0.5 (Figure 15: the CPU's Q6 is
    #     balanced between compute and its memory bandwidth).
    join_work_per_tuple: Dict[str, float] = field(
        default_factory=lambda: {"cpu": 2.0, "gpu": 2.0}
    )
    scan_work_per_tuple: Dict[str, float] = field(
        default_factory=lambda: {"cpu": 0.5, "gpu": 1.0}
    )
    # --- residual column load of branching scans: warp divergence and
    #     speculative prefetch still pull part of a "skippable" column
    #     (Figure 15: branching beats predication on the GPU, but the
    #     CPU stays up to 67% faster than NVLink 2.0 overall).
    branching_residual_load: float = 0.55

    # --- software pipelines (push-based transfer methods, Section 4.1).
    pipeline_chunks: int = 32  # chunks in flight for copy pipelines
    mmio_bandwidth: Dict[str, float] = field(
        default_factory=lambda: {  # pageable cudaMemcpyAsync via CPU MMIO
            "nvlink2": 10.5 * GIB,  # Figure 12: Pageable Copy = 0.67 GT/s
            "pcie3": 3.7 * GIB,  # Figure 12: Pageable Copy = 0.25 GT/s
        }
    )
    staging_bandwidth: float = 35 * GIB  # 4 cores memcpy into pinned buffers
    pin_page_cost: Dict[str, float] = field(
        default_factory=lambda: {  # OS page pinning (Dynamic Pinning);
            "ibm-ac922": 1.6 * US,  # 64 KiB pages: Fig. 12 = 2.36 GT/s
            "intel-xeon-v100": 1.0 * US,  # 4 KiB pages: Fig. 12 = 0.26 GT/s
        }
    )
    dma_efficiency: float = 0.97  # copy-engine overhead vs. raw link bw

    # --- unified memory (Section 4: UM Migration / UM Prefetch).
    #     POWER9 driver is poorly optimized (paper footnote 1).
    um_fault_cost: Dict[str, float] = field(
        default_factory=lambda: {
            "ibm-ac922": 25 * US,  # per 64 KiB page: 0.17 GT/s in Fig. 12
            "intel-xeon-v100": 1.1 * US,  # per 4 KiB page: 0.25 GT/s
        }
    )
    um_prefetch_efficiency: Dict[str, float] = field(
        default_factory=lambda: {
            "ibm-ac922": 0.038,  # Figure 12: UM Prefetch = 0.16 GT/s
            "intel-xeon-v100": 0.66,  # Figure 12: UM Prefetch = 0.54 GT/s
        }
    )

    # --- radix join baseline (Figures 16/17: CPU "PRA" ~0.4-0.5 GT/s,
    #     flat). Effective partitioning bandwidth includes SWWC buffer
    #     flushes, TLB pressure and the read+write round trip.
    partition_bandwidth: Dict[str, float] = field(
        default_factory=lambda: {
            "power9": 8.5 * GIB,
            "xeon-6126": 7.0 * GIB,
        }
    )
    # Cache-resident per-partition build+probe rate, tuples/s per core.
    partition_join_rate_per_core: float = 150e6

    # --- kernel-side overheads.
    join_pipeline_overhead: float = 0.015  # epilogue/launch amortization
    gpu_batch_dispatch_latency: float = 20 * US  # morsel batch round trip
    cpu_morsel_dispatch_latency: float = 0.2 * US

    # --- synchronous device-to-host hash-table broadcast (GPU+Het).
    ht_copy_bandwidth_factor: float = 0.8  # of the GPU link's seq bw

    def independent_factor(self, resource_name: str) -> float:
        """Uplift factor for a spec name; unknown resources get 1.0."""
        return self.independent_access_factor.get(resource_name, 1.0)

    def atomic_rate_for(self, resource_name: str) -> float:
        """Atomic accesses/s for a spec name; falls back to 0.5e9."""
        return self.atomic_rate.get(resource_name, 0.5e9)


DEFAULT_CALIBRATION = Calibration()
