"""Extension bench: multi-GPU hash-table placement (Section 6.3).

The paper describes — without a dedicated figure — that multi-GPU
systems should replicate small tables (GPU+Het style) and *interleave*
large tables over the GPUs' memories, because:

1. using only GPUs avoids computational skew,
2. distributing large tables within GPU memory frees CPU memory
   bandwidth for loading the base relations, and
3. interleaving exercises the full bidirectional link bandwidth.

This bench compares one GPU vs. two GPUs with replicated and
interleaved placements, and against the single-GPU hybrid spill for a
table larger than one GPU.
"""

from __future__ import annotations

from repro.bench.common import Claim, FigureResult, Series, price_series, throughputs
from repro.core.join.multigpu import MultiGpuJoin
from repro.core.join.nopa import NoPartitioningJoin
from repro.hardware.topology import ibm_ac922
from repro.workloads.builders import workload_a, workload_ratio

CLAIMS = (
    Claim("Small table: replicating it over two GPUs beats one GPU and beats interleaving it",
          lambda r: r.value("A (2 GiB table)", "replicated") > max(
              r.value("A (2 GiB table)", "one-gpu"), r.value("A (2 GiB table)", "interleaved"))),
    Claim("Table of 2x one GPU's memory: interleaving it beats one GPU's hybrid spill",
          lambda r: r.value("C 2048M (32 GiB table)", "interleaved")
          > r.value("C 2048M (32 GiB table)", "one-gpu")),
    Claim("Four GPUs scale the interleaved join over 1.5x past two",
          lambda r: r.value("C 2048M scaling", "4-gpus")
          > 1.5 * r.value("C 2048M scaling", "2-gpus")),
)


def run(scale: float = 2.0**-12) -> FigureResult:
    result = FigureResult(
        figure="Extension: multi-GPU",
        title="Multi-GPU hash-table placement (Section 6.3)",
        notes=(
            "Small tables: replicate (local probes on every GPU). Large "
            "tables: interleave over GPU memories — the table no longer "
            "fits one GPU, yet stays entirely in (remote) GPU memory, "
            "beating the single-GPU hybrid spill to CPU memory."
        ),
    )
    machine = ibm_ac922(gpus=2, gpu_mesh=True)
    one_gpu = NoPartitioningJoin(machine, hash_table_placement="gpu")
    hybrid = NoPartitioningJoin(machine, hash_table_placement="hybrid")
    interleaved = Series("interleaved", MultiGpuJoin(machine, placement="interleaved"))

    # Small table (workload A): one GPU vs two, replicated vs interleaved.
    wl = workload_a(scale=scale)
    execution = one_gpu.execute(wl.r, wl.s)
    series = (
        Series("one-gpu", one_gpu),
        Series("replicated", MultiGpuJoin(machine, placement="replicated")),
        interleaved,
    )
    result.add("A (2 GiB table)", **throughputs(price_series(execution, (wl.r, wl.s), series)))

    # Large table (24 GiB): exceeds one GPU; interleaving over two GPUs
    # keeps it in GPU memory where the single GPU must spill.
    big = workload_ratio(1, scale=2.0**-13, modeled_r=2048 * 10**6)
    execution = hybrid.execute(big.r, big.s)
    series = (Series("gpu", one_gpu), Series("one-gpu", hybrid), interleaved)
    results = price_series(execution, (big.r, big.s), series)
    if "gpu" in results:
        raise AssertionError("32 GiB table unexpectedly fit one GPU")
    result.add("C 2048M (32 GiB table)", **throughputs(results))

    # GPU-count scaling of the interleaved placement (the AC922 takes
    # up to four GPUs, two per socket).
    four_gpu = MultiGpuJoin(ibm_ac922(gpus=4, gpu_mesh=True), placement="interleaved")
    series = [
        Series(f"{count}-gpus", four_gpu, {"workers": tuple(f"gpu{i}" for i in range(count))})
        for count in (2, 4)
    ]
    result.add("C 2048M scaling", **throughputs(price_series(execution, (big.r, big.s), series)))
    return result
