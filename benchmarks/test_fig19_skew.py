"""Figure 19: Zipf-skewed probe relations."""

from benchmarks.conftest import run_figure
from repro.bench import fig19_skew


def test_fig19_skew(benchmark, bench_scale):
    result = run_figure(
        benchmark, fig19_skew.run, scale=bench_scale,
        exponents=(0.0, 1.0, 1.5, 1.75),
    )

    # Skew raises throughput for CPU-resident tables on every platform
    # (paper: 3.5x CPU, 3.6x NVLink, 6.1x PCI-e).
    for series, min_gain in (("cpu", 2.0), ("nvlink2", 2.5), ("pcie3", 3.0)):
        base = result.value("zipf=0.0", series)
        peak = result.value("zipf=1.75", series)
        assert peak / base > min_gain, series

    # Throughput is monotone in the exponent.
    for series in ("cpu", "nvlink2", "pcie3"):
        values = result.series(series)
        assert all(b >= a * 0.99 for a, b in zip(values, values[1:])), series

    # PCI-e stays far below NVLink even at peak skew.
    assert result.value("zipf=1.75", "pcie3") < 0.5 * result.value(
        "zipf=1.75", "nvlink2"
    )


def test_fig19_hybrid_splits(benchmark, bench_scale):
    result = run_figure(
        benchmark, fig19_skew.run_splits, scale=bench_scale, exponent=1.5
    )
    # Throughput increases with the hybrid table's GPU share (rows run
    # in ascending GPU fraction).
    values = result.series("nvlink2")
    assert values == sorted(values)


def test_fig19_gpu_resident_table_unaffected(benchmark, bench_scale):
    result = benchmark.pedantic(
        lambda: fig19_skew.run(
            scale=bench_scale, exponents=(0.0, 1.5), gpu_split=1.0
        ),
        rounds=1, iterations=1,
    )
    print()
    print(result.render())
    # With the table fully in GPU memory the base-relation transfer is
    # the bottleneck, so skew has (almost) no effect.
    base = result.value("zipf=0.0", "nvlink2")
    skewed = result.value("zipf=1.5", "nvlink2")
    assert abs(skewed - base) / base < 0.1
