"""Execute once, price per configuration.

``run`` is ``price(execute(...))`` for the functional facades (NOPA,
cooperative, multi-GPU, radix, and the selection scan behind Q6): pricing a separate execution gives
the same result, field by field.  The three hash-join facades share one
execution, so each prices the others'.  ``price`` refuses an execution
of another hash scheme, output mode or other columns, and the figure
runners execute each distinct input once.
"""

import dataclasses
from collections import Counter

import numpy as np
import pytest

from repro.bench import (
    ablations,
    fig11_placement,
    fig12_transfer_methods,
    fig13_data_locality,
    fig14_hashtable_locality,
    fig15_tpch_q6,
    fig16_probe_scaling,
    fig17_build_scaling,
    fig19_skew,
    fig20_selectivity,
    fig21_coprocessing,
    multi_gpu,
    sensitivity,
)
from repro.core.join.coop import CoopJoin, CoopResult
from repro.core.join.multigpu import MultiGpuJoin, MultiGpuResult
from repro.core.join.nopa import JoinResult, NoPartitioningJoin
from repro.core.join.radix import RadixJoin
from repro.core.ops import q6
from repro.core.ops.q6 import TpchQ6
from repro.core.ops.scan import SelectionScan
from repro.data.relation import Relation
from repro.faults import FaultPlan, OomAt, RetryPolicy, TransientError
from repro.faults.scenarios import GPU_PLACEMENT_LABEL
from repro.hardware.topology import TopologyError, ibm_ac922, intel_xeon_v100
from repro.obs.trace import Timeline
from repro.workloads.builders import workload_ratio, workload_selectivity
from repro.workloads.tpch import lineitem_q6

SCALE = 2.0**-16


@pytest.fixture(scope="module")
def wl():
    return workload_selectivity(0.5, scale=SCALE)


def assert_same_join_result(got: JoinResult, want: JoinResult) -> None:
    for field in dataclasses.fields(JoinResult):
        a, b = getattr(got, field.name), getattr(want, field.name)
        if field.name == "materialized" and b is not None:
            assert a.keys() == b.keys()
            for name in b:
                assert a[name].dtype == b[name].dtype, name
                assert np.array_equal(a[name], b[name]), name
        elif field.name == "placement":
            # The hybrid allocation is a freed record of the placement
            # run; its mapped pieces are compared through the split.
            assert (a.total_bytes, a.fractions, a.label) == (
                b.total_bytes,
                b.fractions,
                b.label,
            )
            assert (a.hybrid is None) == (b.hybrid is None)
        else:
            assert a == b, field.name


PLACEMENTS = {
    "gpu": {},
    "cpu": {"hash_table_placement": "cpu"},
    "hybrid": {"hash_table_placement": "hybrid"},
    "explicit": {"fractions": {"gpu0-mem": 0.25, "cpu0-mem": 0.75}},
}


class TestNopa:
    @pytest.mark.parametrize("scheme", ["perfect", "open_addressing", "chaining"])
    @pytest.mark.parametrize("output", ["aggregate", "materialize"])
    @pytest.mark.parametrize("layout", ["soa", "aos"])
    @pytest.mark.parametrize("placement", sorted(PLACEMENTS))
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    def test_run_equals_price_of_execute(
        self, ibm, wl, scheme, output, layout, placement, backend
    ):
        config = dict(PLACEMENTS[placement])
        fractions = config.pop("fractions", None)

        def join():
            return NoPartitioningJoin(
                ibm,
                hash_scheme=scheme,
                output=output,
                layout=layout,
                backend=backend,
                workers=2,
                exec_morsel_tuples=8192,
                **config,
            )

        for processor in ("gpu0", "cpu0"):
            want = join().run(
                wl.r, wl.s, processor=processor, placement_fractions=fractions
            )
            executor = join()
            got = executor.price(
                executor.execute(wl.r, wl.s),
                wl.r,
                wl.s,
                processor=processor,
                placement_fractions=fractions,
            )
            assert_same_join_result(got, want)

    def test_one_execution_prices_many_configurations(self, ibm, intel, wl):
        execution = NoPartitioningJoin(ibm).execute(wl.r, wl.s)
        pinned = wl.placed_for("zero_copy")
        for machine, r, s, config in (
            (ibm, wl.r, wl.s, {"hash_table_placement": "cpu"}),
            (intel, pinned.r, pinned.s, {"transfer_method": "zero_copy"}),
        ):
            want = NoPartitioningJoin(machine, **config).run(r, s)
            got = NoPartitioningJoin(machine, **config).price(execution, r, s)
            assert_same_join_result(got, want)

    def test_spill_records_execution_events_then_spill(self, ibm):
        # A table that fits the GPU, a placement check that fails anyway,
        # and transient morsel faults the thread backend retries.
        wl = workload_ratio(1, scale=SCALE)

        def join():
            return NoPartitioningJoin(
                ibm,
                backend="threads",
                workers=2,
                exec_morsel_tuples=512,
                oom_policy="spill",
                retry_policy=RetryPolicy(max_attempts=8, base_delay=0.0),
            )

        def plan():
            return FaultPlan(
                seed=101,
                rules=[
                    TransientError(probability=0.5, times=None),
                    OomAt(ordinal=0, label=GPU_PLACEMENT_LABEL),
                ],
            )

        reference = join()
        with plan().install():
            want = reference.run(wl.r, wl.s)
        pricer = join()
        with plan().install():
            execution = pricer.execute(wl.r, wl.s)
            got = pricer.price(execution, wl.r, wl.s)
        assert_same_join_result(got, want)
        assert got.placement.label == "hybrid"

        events = pricer.last_resilience.events
        retries = execution.resilience.count("retry")
        assert retries >= 1
        assert len(execution.resilience) == retries, "price wrote to the execution"
        assert events[:-1] == execution.resilience.events
        assert events[-1].action == "spill"
        assert events[-1].seq == retries
        assert pricer.last_resilience.counts() == reference.last_resilience.counts()
        assert events[-1].detail == reference.last_resilience.events[-1].detail

        # Re-pricing starts again from the execution's events.
        with plan().install():
            pricer.price(execution, wl.r, wl.s)
        assert pricer.last_resilience.count("spill") == 1

    def test_placed_copies_are_accepted(self, ibm, wl):
        execution = NoPartitioningJoin(ibm).execute(wl.r, wl.s)
        placed = wl.placed_for("zero_copy", location="cpu1-mem")
        want = NoPartitioningJoin(ibm, transfer_method="zero_copy").run(
            placed.r, placed.s
        )
        got = NoPartitioningJoin(ibm, transfer_method="zero_copy").price(
            execution, placed.r, placed.s
        )
        assert_same_join_result(got, want)

    @pytest.mark.parametrize(
        "config,match",
        [
            ({"hash_scheme": "open_addressing"}, "hash_scheme"),
            ({"output": "materialize"}, "output"),
        ],
    )
    def test_rejects_other_scheme_or_output(self, ibm, wl, config, match):
        execution = NoPartitioningJoin(ibm).execute(wl.r, wl.s)
        with pytest.raises(ValueError, match=match):
            NoPartitioningJoin(ibm, **config).price(execution, wl.r, wl.s)

    def test_rejects_other_columns(self, ibm, wl):
        execution = NoPartitioningJoin(ibm).execute(wl.r, wl.s)
        other = workload_selectivity(0.5, scale=SCALE)
        with pytest.raises(ValueError, match="'R.key'"):
            NoPartitioningJoin(ibm).price(execution, other.r, wl.s)
        copied = Relation("S", wl.s.key.copy(), wl.s.payload)
        with pytest.raises(ValueError, match="'S.key'"):
            NoPartitioningJoin(ibm).price(execution, wl.r, copied)


SCHEMES = ["perfect", "open_addressing", "chaining"]


def assert_same_coop_result(got: CoopResult, want: CoopResult) -> None:
    for field in dataclasses.fields(CoopResult):
        if field.name != "probe_outcome":
            assert getattr(got, field.name) == getattr(want, field.name), field.name
    assert got.timeline.to_dicts() == want.timeline.to_dicts()


class TestCoop:
    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("strategy", ["het", "gpu+het"])
    def test_run_equals_price_of_execute(self, ibm, wl, scheme, strategy):
        def join():
            return CoopJoin(ibm, strategy=strategy, hash_scheme=scheme)

        want = join().run(wl.r, wl.s)
        executor = join()
        got = executor.price(executor.execute(wl.r, wl.s), wl.r, wl.s)
        assert_same_coop_result(got, want)

    def test_prices_a_nopa_execution(self, ibm, wl):
        execution = NoPartitioningJoin(ibm).execute(wl.r, wl.s)
        for strategy in ("het", "gpu+het"):
            join = CoopJoin(ibm, strategy=strategy)
            got = join.price(execution, wl.r, wl.s, workers=("cpu0", "gpu0"))
            assert_same_coop_result(got, join.run(wl.r, wl.s))

    def test_timeline_is_built_on_first_read(self, ibm, wl):
        result = CoopJoin(ibm).run(wl.r, wl.s)
        outcome = result.probe_outcome
        assert outcome._timeline is None
        eager = Timeline()
        for worker, start, end, tuples in outcome.grants:
            eager.record(worker, outcome.name, start, end, tuples)
        timeline = result.timeline
        assert timeline.to_dicts() == eager.to_dicts()
        assert result.timeline is timeline

    def test_rejects_other_scheme_and_columns(self, ibm, wl):
        execution = CoopJoin(ibm).execute(wl.r, wl.s)
        with pytest.raises(ValueError, match="hash_scheme"):
            CoopJoin(ibm, hash_scheme="chaining").price(execution, wl.r, wl.s)
        other = workload_selectivity(0.5, scale=SCALE)
        with pytest.raises(ValueError, match="'R.key'"):
            CoopJoin(ibm).price(execution, other.r, wl.s)


class TestMultiGpu:
    @pytest.fixture
    def mesh(self):
        return ibm_ac922(gpus=2, gpu_mesh=True)

    @pytest.mark.parametrize("placement", ["replicated", "interleaved"])
    def test_run_equals_price_of_execute(self, mesh, wl, placement):
        def join():
            return MultiGpuJoin(mesh, placement=placement)

        want = join().run(wl.r, wl.s)
        executor = join()
        got = executor.price(executor.execute(wl.r, wl.s), wl.r, wl.s)
        for field in dataclasses.fields(MultiGpuResult):
            assert getattr(got, field.name) == getattr(want, field.name), field.name

    def test_prices_a_nopa_execution(self, mesh, wl):
        execution = NoPartitioningJoin(mesh).execute(wl.r, wl.s)
        for placement in ("replicated", "interleaved"):
            join = MultiGpuJoin(mesh, placement=placement)
            assert join.price(execution, wl.r, wl.s) == join.run(wl.r, wl.s)

    def test_rejects_other_scheme_and_columns(self, mesh, wl):
        execution = MultiGpuJoin(mesh).execute(wl.r, wl.s)
        with pytest.raises(ValueError, match="hash_scheme"):
            MultiGpuJoin(mesh, hash_scheme="open_addressing").price(
                execution, wl.r, wl.s
            )
        copied = Relation("S", wl.s.key.copy(), wl.s.payload)
        with pytest.raises(ValueError, match="'S.key'"):
            MultiGpuJoin(mesh).price(execution, wl.r, copied)


class TestRadix:
    @pytest.mark.parametrize("executed_bits", [0, 4, 8])
    def test_run_equals_price_of_execute(self, ibm, wl, executed_bits):
        def join():
            return RadixJoin(ibm, executed_radix_bits=executed_bits)

        want = join().run(wl.r, wl.s)
        executor = join()
        got = executor.price(executor.execute(wl.r, wl.s), wl.r, wl.s)
        assert got == want

    def test_rejects_other_fan_out_and_columns(self, ibm, wl):
        execution = RadixJoin(ibm).execute(wl.r, wl.s)
        with pytest.raises(ValueError, match="executed_radix_bits"):
            RadixJoin(ibm, executed_radix_bits=4).price(execution, wl.r, wl.s)
        other = workload_selectivity(0.5, scale=SCALE)
        with pytest.raises(ValueError, match="'S.payload'"):
            RadixJoin(ibm).price(
                execution,
                wl.r,
                Relation("S", wl.s.columns()["key"], other.s.payload),
            )

    def test_rejects_gpu(self, ibm, wl):
        execution = RadixJoin(ibm).execute(wl.r, wl.s)
        with pytest.raises(ValueError, match="CPUs only"):
            RadixJoin(ibm).price(execution, wl.r, wl.s, processor="gpu0")


class Q6Scan:
    """Q6 stated as a bare :class:`SelectionScan` over lineitem's column
    dict, behind the ``TpchQ6`` call shape."""

    def __init__(self, machine, **kwargs):
        self.scan = SelectionScan(
            machine, q6.PREDICATES, ["l_extendedprice"], q6.revenue, **kwargs
        )

    def execute(self, lineitem):
        return self.scan.execute(lineitem.columns())

    def price(self, execution, lineitem, processor="gpu0"):
        return self.scan.price(
            execution,
            lineitem.columns(),
            processor,
            lineitem.location,
            lineitem.modeled_rows,
            lineitem.kind,
        )

    def run(self, lineitem, processor="gpu0"):
        return self.price(self.execute(lineitem), lineitem, processor)


class TestQ6:
    """Q6 through the ``TpchQ6`` facade; :class:`TestQ6AsSelectionScan`
    runs every case again through a bare ``SelectionScan``."""

    facade = TpchQ6

    @pytest.fixture(scope="class")
    def lineitem(self):
        return lineitem_q6(scale_factor=100, scale=2**-12, seed=11)

    @pytest.mark.parametrize("variant", ["branching", "predicated"])
    @pytest.mark.parametrize("backend", ["serial", "threads"])
    @pytest.mark.parametrize("processor", ["gpu0", "cpu0"])
    def test_run_equals_price_of_execute(
        self, ibm, lineitem, variant, backend, processor
    ):
        def q6():
            return self.facade(ibm, variant=variant, backend=backend, workers=2)

        want = q6().run(lineitem, processor=processor)
        executor = q6()
        got = executor.price(executor.execute(lineitem), lineitem, processor)
        assert got == want

    def test_one_execution_prices_both_variants(self, ibm, lineitem):
        execution = self.facade(ibm).execute(lineitem)
        for variant in ("branching", "predicated"):
            op = self.facade(ibm, variant=variant)
            assert op.price(execution, lineitem) == op.run(lineitem)

    def test_execution_holds_no_row_masks(self, ibm, lineitem):
        execution = self.facade(ibm).execute(lineitem)
        assert len(execution.cascade_line_fractions) == 4
        for field in dataclasses.fields(execution):
            assert not isinstance(getattr(execution, field.name), np.ndarray)

    def test_accepts_placed_and_rejects_other_columns(self, ibm, lineitem):
        execution = self.facade(ibm).execute(lineitem)
        placed = lineitem.placed("cpu1-mem")
        assert self.facade(ibm).price(execution, placed) == self.facade(ibm).run(
            placed
        )
        other = lineitem_q6(scale_factor=100, scale=2**-12, seed=11)
        with pytest.raises(ValueError, match="'l_shipdate'"):
            self.facade(ibm).price(execution, other)


class TestQ6AsSelectionScan(TestQ6):
    facade = Q6Scan


#: executions per figure runner at small scale: one per distinct
#: (input, hash scheme, output), counted over every facade's ``execute``.
EXECUTIONS = [
    (fig11_placement.run, {"nopa": 5}),
    (fig12_transfer_methods.run, {"nopa": 1}),
    (fig13_data_locality.run, {"nopa": 3}),
    (fig14_hashtable_locality.run, {"nopa": 3}),
    (fig15_tpch_q6.run, {"q6": 5}),
    (fig16_probe_scaling.run, {"nopa": 4, "radix": 4}),
    (fig17_build_scaling.run, {"nopa": 9, "radix": 9}),
    (fig19_skew.run, {"nopa": 6}),
    (fig19_skew.run_splits, {"nopa": 1}),
    (fig20_selectivity.run, {"nopa": 6}),
    (fig21_coprocessing.run, {"nopa": 3}),
    (fig21_coprocessing.run_phases, {"nopa": 1}),
    (ablations.run_batch_size, {"coop": 1}),
    (ablations.run_layout, {"nopa": 4}),
    (ablations.run_hash_scheme, {"nopa": 3}),
    (ablations.run_hybrid_vs_spill, {"nopa": 6}),
    (multi_gpu.run, {"nopa": 2}),
    (sensitivity.run, {"nopa": 2}),
]


@pytest.mark.parametrize(
    "runner,expected",
    EXECUTIONS,
    ids=[f"{r.__module__.rsplit('.', 1)[1]}.{r.__name__}" for r, _ in EXECUTIONS],
)
def test_runners_execute_each_input_once(monkeypatch, runner, expected):
    calls = Counter()
    for name, facade in (
        ("nopa", NoPartitioningJoin),
        ("coop", CoopJoin),
        ("multigpu", MultiGpuJoin),
        ("radix", RadixJoin),
        ("q6", TpchQ6),
    ):

        def counted(self, *args, _name=name, _execute=facade.execute):
            calls[_name] += 1
            return _execute(self, *args)

        monkeypatch.setattr(facade, "execute", counted)
    runner(scale=2.0**-16)
    assert dict(calls) == expected


REFUSED_WORKERS = [
    pytest.param(lambda: CoopJoin(intel_xeon_v100(), "het"), {}, ValueError,
                 "requires a cache-coherent interconnect", id="het-over-pcie"),
    pytest.param(lambda: CoopJoin(ibm_ac922()), {"workers": ()}, ValueError,
                 "need at least one worker", id="coop-no-workers"),
    pytest.param(lambda: CoopJoin(ibm_ac922()), {"workers": ("gpu7",)}, TopologyError,
                 "unknown processor: gpu7", id="coop-unknown-worker"),
    pytest.param(lambda: MultiGpuJoin(ibm_ac922(gpus=2)), {"workers": ("cpu0",)}, ValueError,
                 "multi-GPU join accepts GPUs only, got cpu0", id="multigpu-cpu-worker"),
]


@pytest.mark.parametrize("make_join,kwargs,error,match", REFUSED_WORKERS)
def test_run_refuses_workers_before_executing(monkeypatch, wl, make_join, kwargs, error, match):
    join = make_join()
    calls = Counter()

    def counted(self, *args, _execute=type(join).execute):
        calls["execute"] += 1
        return _execute(self, *args)

    monkeypatch.setattr(type(join), "execute", counted)
    with pytest.raises(error, match=match) as raised:
        join.run(wl.r, wl.s, **kwargs)
    assert type(raised.value) is error
    assert calls["execute"] == 0
