"""Command-line entry point.

Usage::

    python -m repro info                # describe the simulated machines
    python -m repro figures             # run every figure reproduction
    python -m repro figure 17           # run one figure (by registry key)
    python -m repro join [options]      # run one configurable join
"""

from __future__ import annotations

import argparse
import sys

from repro.utils.units import format_bytes


def cmd_info(_args) -> int:
    from repro.hardware.topology import ibm_ac922, intel_xeon_v100

    for machine in (ibm_ac922(), intel_xeon_v100()):
        print(f"{machine.name}")
        for cpu in machine.cpus():
            print(
                f"  {cpu.name}: {cpu.spec.name}, {cpu.spec.cores} cores x "
                f"SMT{cpu.spec.smt}, {format_bytes(cpu.local_memory.capacity)} "
                f"memory"
            )
        for gpu in machine.gpus():
            link = machine.gpu_link(gpu.name)
            print(
                f"  {gpu.name}: {gpu.spec.name}, {gpu.spec.sms} SMs, "
                f"{format_bytes(gpu.local_memory.capacity)} memory, "
                f"attached via {link.spec.name}"
            )
        print(f"  coherent GPU access: {machine.coherent_gpu_access}")
        print()
    return 0


def cmd_figures(_args) -> int:
    from repro.bench import run_all

    run_all.main([])
    return 0


def cmd_figure(args) -> int:
    from repro.bench.run_all import FIGURES

    figures = [figure for figure in FIGURES if figure.key == args.number]
    if not figures:
        valid = ", ".join(dict.fromkeys(figure.key for figure in FIGURES))
        print(f"unknown figure {args.number!r}; valid: {valid}", file=sys.stderr)
        return 2
    print("\n\n".join(figure.runner().render() for figure in figures))
    return 0


def cmd_join(args) -> int:
    import repro

    machine = (
        repro.ibm_ac922() if args.machine == "ibm" else repro.intel_xeon_v100()
    )
    builders = {
        "a": repro.workload_a,
        "b": repro.workload_b,
        "c": repro.workload_c,
    }
    workload = builders[args.workload](scale=args.scale)
    # Allocate the relations as the chosen transfer method requires.
    workload = workload.placed_for(args.method)
    join = repro.NoPartitioningJoin(
        machine,
        hash_table_placement=args.placement,
        transfer_method=args.method,
    )
    result = join.run(workload.r, workload.s, processor=args.processor)
    print(f"workload {args.workload.upper()} on {machine.name} "
          f"({args.processor}, table={args.placement}, method={args.method})")
    print(f"  matches:    {result.matches}")
    print(f"  build:      {result.build_cost.seconds:.3f} s "
          f"[{result.build_cost.bottleneck}]")
    print(f"  probe:      {result.probe_cost.seconds:.3f} s "
          f"[{result.probe_cost.bottleneck}]")
    print(f"  throughput: {result.throughput_gtuples:.2f} G Tuples/s")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduction of 'Pump Up the Volume' (SIGMOD 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", help="describe the simulated machines")
    sub.add_parser("figures", help="run every figure reproduction")

    one = sub.add_parser("figure", help="run one figure reproduction")
    one.add_argument("number", help="figure number (e.g. 17 or 21b) or name")

    join = sub.add_parser("join", help="run one configurable join")
    join.add_argument("--machine", choices=("ibm", "intel"), default="ibm")
    join.add_argument("--workload", choices=("a", "b", "c"), default="a")
    join.add_argument(
        "--placement", default="gpu",
        help="gpu | cpu | hybrid | a region name",
    )
    join.add_argument("--method", default="coherence")
    join.add_argument("--processor", default="gpu0")
    join.add_argument("--scale", type=float, default=2.0**-12)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handlers = {
        "info": cmd_info,
        "figures": cmd_figures,
        "figure": cmd_figure,
        "join": cmd_join,
    }
    return handlers[args.command](args)


if __name__ == "__main__":
    raise SystemExit(main())
