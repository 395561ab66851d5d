"""Span tracer for the traced benchmark run.

The benchmark measures every layer of ``repro`` from outside: this module
wraps public callables at the places the program looks them up (class
attributes, module attributes of the importing module, registry entries),
records what they do while a workload runs, and restores every original
afterwards.  Nothing under ``src/`` knows it is being traced.

Three kinds of wrapper, by call frequency:

* **span** - one record per call: name, start, end, parent span and the
  pass (iteration) id.  For layer boundaries called a few times per pass.
* **leaf** - calls aggregated on the enclosing span as count + seconds
  (+ an optional weight such as the solver's worker count).  For hot
  functions called thousands of times per pass, where one record per call
  would cost more than the call.
* **count** - number of truthy returns, untimed.  For the simulator's
  ``step``/``cancel_event``, whose time is its callers' time.

A span's self time is its duration minus its child spans and its leaves, so
self times and leaf seconds of one tree add up to the root's duration.
"""

from __future__ import annotations

import importlib
import time
from contextlib import contextmanager
from typing import Any, Callable, Dict, Iterator, List, Optional, Tuple, Union

#: exceptions that mean "the symbol this wrapper targets is gone" - the
#: target is skipped (and listed in ``Tracer.missing``) so a later change
#: may delete a layer without editing the benchmark.
MISSING = (ImportError, AttributeError, KeyError)

_ABSENT = object()


class Span:
    """One timed call of a layer boundary."""

    __slots__ = ("name", "start", "end", "parent", "pass_id", "leaves", "children")

    def __init__(self, name: str, start: float, parent: int, pass_id: int) -> None:
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent
        self.pass_id = pass_id
        #: leaf name -> [calls, seconds, weight]
        self.leaves: Dict[str, List[float]] = {}
        #: seconds covered by direct child spans
        self.children = 0.0

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def self_seconds(self) -> float:
        return self.duration - self.children - sum(
            agg[1] for agg in self.leaves.values()
        )

    def to_dict(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            "pass": self.pass_id,
            "self_s": self.self_seconds,
            "leaves": {
                name: {"calls": int(agg[0]), "seconds": agg[1], "weight": agg[2]}
                for name, agg in self.leaves.items()
            },
        }


class Tracer:
    """Collects spans in memory; writes nothing until asked."""

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self.counts: Dict[str, float] = {}
        self.pass_id = 0
        #: targets that could not be resolved, with the reason.
        self.missing: List[str] = []
        self._stack: List[int] = []
        self._in_leaf = False
        #: leaves recorded while no span was open.
        self._orphans: Dict[str, List[float]] = {}
        self._undo: List[Callable[[], None]] = []

    # ------------------------------------------------------------------
    # Recording
    # ------------------------------------------------------------------
    @contextmanager
    def span(self, name: str) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else -1
        span = Span(name, time.perf_counter(), parent, self.pass_id)
        self._stack.append(len(self.spans))
        self.spans.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
            if parent >= 0:
                self.spans[parent].children += span.duration

    def wrap_span(
        self,
        name: Union[str, Callable[..., str]],
        fn: Callable[..., Any],
        on_result: Optional[Callable[["Tracer", Any], None]] = None,
    ) -> Callable[..., Any]:
        """``fn`` recorded as one span per call.

        ``name`` may be a function of the call's arguments (the join facade
        names its span after the hash scheme of ``self``).
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            label = name if isinstance(name, str) else name(*args, **kwargs)
            with self.span(label):
                result = fn(*args, **kwargs)
            if on_result is not None:
                on_result(self, result)
            return result

        return traced

    def wrap_leaf(
        self,
        name: str,
        fn: Callable[..., Any],
        weigh: Optional[Callable[..., float]] = None,
    ) -> Callable[..., Any]:
        """``fn`` aggregated on the enclosing span as calls + seconds.

        A leaf called from inside another leaf (a sharded table's
        per-shard lookups) is not recorded again: the outermost owns the
        interval, so leaf seconds never overlap.
        """

        def traced(*args: Any, **kwargs: Any) -> Any:
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                self._in_leaf = False
                leaves = (
                    self.spans[self._stack[-1]].leaves
                    if self._stack
                    else self._orphans
                )
                agg = leaves.get(name)
                if agg is None:
                    agg = leaves[name] = [0, 0.0, 0.0]
                agg[0] += 1
                agg[1] += elapsed
                if weigh is not None:
                    agg[2] += weigh(*args, **kwargs)

        return traced

    def wrap_count(self, name: str, fn: Callable[..., Any]) -> Callable[..., Any]:
        """Count the truthy returns of ``fn`` (no timing)."""
        counts = self.counts
        counts.setdefault(name, 0)

        def traced(*args: Any, **kwargs: Any) -> Any:
            result = fn(*args, **kwargs)
            if result:
                counts[name] += 1
            return result

        return traced

    def add(self, name: str, amount: float) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    # ------------------------------------------------------------------
    # Patching
    # ------------------------------------------------------------------
    def patch_attr(
        self,
        owner: str,
        attr: str,
        wrap: Callable[[Callable[..., Any]], Callable[..., Any]],
    ) -> None:
        """Replace ``owner.attr`` by ``wrap(original)`` until :meth:`restore`.

        ``owner`` is a dotted path to a module or to a class inside one
        (``"repro.plan.PlanExecutor"``); resolving it here keeps a deleted
        target from failing the run.
        """
        try:
            target = _resolve(owner)
            original = getattr(target, attr)
        except MISSING as error:
            self.missing.append(f"{owner}.{attr}: {type(error).__name__}: {error}")
            return
        # An inherited method is not in the class's own namespace: put the
        # wrapper there and delete it again, leaving the base untouched.
        own = vars(target).get(attr, _ABSENT)
        setattr(target, attr, wrap(original))
        if own is _ABSENT:
            self._undo.append(lambda: delattr(target, attr))
        else:
            self._undo.append(lambda: setattr(target, attr, own))

    def patch_item(
        self,
        owner: str,
        mapping_name: str,
        wrap: Callable[[str, Any], Any],
    ) -> None:
        """Replace every value of the registry ``owner.mapping_name``."""
        try:
            mapping = getattr(_resolve(owner), mapping_name)
            originals = dict(mapping)
        except MISSING as error:
            self.missing.append(
                f"{owner}.{mapping_name}: {type(error).__name__}: {error}"
            )
            return
        for key, value in originals.items():
            mapping[key] = wrap(key, value)

        def undo() -> None:
            for key, value in originals.items():
                mapping[key] = value

        self._undo.append(undo)

    def restore(self) -> None:
        """Put back every original, newest patch first."""
        while self._undo:
            self._undo.pop()()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def named(self, name: str) -> List[Span]:
        return [span for span in self.spans if span.name == name]

    def seconds(self, name: str) -> float:
        return sum(span.duration for span in self.named(name))

    def calls(self, name: str) -> int:
        return len(self.named(name))

    def self_seconds(self, name: str) -> float:
        return sum(span.self_seconds for span in self.named(name))

    def leaf(self, name: str) -> Tuple[int, float, float]:
        """(calls, seconds, weight) of a leaf over the whole trace."""
        calls, seconds, weight = 0, 0.0, 0.0
        holders = [span.leaves for span in self.spans] + [self._orphans]
        for leaves in holders:
            agg = leaves.get(name)
            if agg is not None:
                calls += int(agg[0])
                seconds += agg[1]
                weight += agg[2]
        return calls, seconds, weight

    def seconds_under(self, names: Tuple[str, ...], ancestor_prefix: str) -> float:
        """Seconds of spans called ``names`` below a span whose name starts
        with ``ancestor_prefix``."""
        total = 0.0
        for span in self.spans:
            if span.name not in names:
                continue
            parent = span.parent
            while parent >= 0:
                if self.spans[parent].name.startswith(ancestor_prefix):
                    total += span.duration
                    break
                parent = self.spans[parent].parent
        return total

    def roots(self) -> List[Span]:
        return [span for span in self.spans if span.parent < 0]

    def to_dict(self) -> Dict[str, Any]:
        origin = self.spans[0].start if self.spans else 0.0
        spans = []
        for span in self.spans:
            record = span.to_dict()
            record["start"] -= origin
            record["end"] -= origin
            spans.append(record)
        return {
            "clock": "host perf_counter seconds, relative to the first span",
            "spans": spans,
            "counts": dict(self.counts),
            "missing": list(self.missing),
        }


def _resolve(path: str) -> Any:
    """Import the longest module prefix of ``path``, then walk attributes."""
    parts = path.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for attr in parts[cut:]:
            target = getattr(target, attr)
        return target
    raise ImportError(f"cannot import any prefix of {path!r}")


# ----------------------------------------------------------------------
# What the benchmark wraps
# ----------------------------------------------------------------------
#: layer boundaries recorded one span per call: (owner, attribute, span name)
SPANS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.service.QueryService", "serve", "serve.serve"),
    ("repro.serve.scheduler.ContentionScheduler", "run", "serve.scheduler_run"),
    ("repro.serve.service", "build_manifest", "obs.build_manifest"),
    ("repro.logical.optimizer", "compile_query", "logical.compile_query"),
    ("repro.plan.PlanExecutor", "execute", "plan.execute"),
    ("repro.core.join.nopa", "execute_build", "exec.build"),
    ("repro.core.join.nopa", "execute_probe", "exec.probe"),
    ("repro.core.join.nopa.NoPartitioningJoin", "compile_plan", "plan.compile"),
    # The other operator facades the figure runners drive; without them the
    # figures' time would sit in no layer's span.
    ("repro.core.join.radix.RadixJoin", "run", "core.join.radix_run"),
    ("repro.core.join.coop.CoopJoin", "run", "core.join.coop_run"),
    ("repro.core.join.multiway.StarJoin", "run", "core.join.star_run"),
    ("repro.core.join.multigpu.MultiGpuJoin", "run", "core.join.multigpu_run"),
    ("repro.core.ops.q6.TpchQ6", "run", "core.ops.q6_run"),
    ("repro.core.ops.scan.SelectionScan", "run", "core.ops.scan_run"),
)

#: hot functions aggregated as calls + seconds: (owner, attribute, leaf name)
LEAVES: Tuple[Tuple[str, str, str], ...] = (
    ("repro.serve.service.QueryService", "submit", "serve.submit"),
    ("repro.serve.cache.PlanCache", "get", "serve.cache_get"),
    ("repro.serve.cache.PlanCache", "put", "serve.cache_put"),
    ("repro.serve.admission.AdmissionController", "admit", "serve.admission"),
    ("repro.serve.admission.AdmissionController", "release", "serve.admission"),
    ("repro.faults.plan.FaultPlan", "check_query", "faults.check_query"),
    ("repro.costmodel.model.CostModel", "phase_cost", "costmodel.phase_cost"),
    ("repro.core.hashtable.perfect.PerfectHashTable", "insert_batch", "core.hashtable.insert"),
    ("repro.core.hashtable.perfect.PerfectHashTable", "lookup_batch", "core.hashtable.lookup"),
    ("repro.core.hashtable.open_addressing.OpenAddressingHashTable", "insert_batch", "core.hashtable.insert"),
    ("repro.core.hashtable.open_addressing.OpenAddressingHashTable", "lookup_batch", "core.hashtable.lookup"),
    ("repro.core.hashtable.chaining.ChainingHashTable", "insert_batch", "core.hashtable.insert"),
    ("repro.core.hashtable.chaining.ChainingHashTable", "lookup_batch", "core.hashtable.lookup"),
)

#: untimed truthy-return counters: (owner, attribute, counter name)
COUNTS: Tuple[Tuple[str, str, str], ...] = (
    ("repro.sim.engine.Simulator", "step", "sim.events_fired"),
    ("repro.sim.engine.Simulator", "cancel_event", "sim.events_cancelled"),
)

#: modules whose workload generators are wrapped where figure runners
#: imported them by name.
GENERATOR_MODULES = ("repro.workloads.builders", "repro.workloads.tpch")


def _optimizer_counts(tracer: Tracer, result: Any) -> None:
    candidates = result.candidates
    tracer.add("logical.candidates", len(candidates))
    tracer.add("logical.viable", sum(1 for c in candidates if c.viable))


def install(tracer: Tracer, importers: Tuple[str, ...] = ()) -> None:
    """Wrap every target above; ``importers`` are modules (the figure
    runners) whose by-name imports of workload generators are wrapped too."""
    for owner, attr, name in SPANS:
        tracer.patch_attr(
            owner, attr, lambda fn, name=name: tracer.wrap_span(name, fn)
        )
    tracer.patch_attr(
        "repro.core.join.nopa.NoPartitioningJoin",
        "run",
        lambda fn: tracer.wrap_span(
            lambda self, *a, **k: f"core.join.nopa_run.{self.hash_scheme}", fn
        ),
    )
    tracer.patch_attr(
        "repro.serve.service",
        "optimize",
        lambda fn: tracer.wrap_span("logical.optimize", fn, _optimizer_counts),
    )
    for owner, attr, name in LEAVES:
        tracer.patch_attr(
            owner, attr, lambda fn, name=name: tracer.wrap_leaf(name, fn)
        )
    tracer.patch_attr(
        "repro.serve.scheduler",
        "solve_concurrent_rates",
        lambda fn: tracer.wrap_leaf(
            "sim.solve", fn, weigh=lambda demands, *a, **k: len(demands)
        ),
    )
    for owner, attr, name in COUNTS:
        tracer.patch_attr(
            owner, attr, lambda fn, name=name: tracer.wrap_count(name, fn)
        )
    # Registries hold the callables themselves, so the entries are replaced.
    tracer.patch_item(
        "repro.logical.explain",
        "WORKLOADS",
        lambda _key, entry: (
            entry[0],
            tracer.wrap_span("workloads.build_query", entry[1]),
        ),
    )
    tracer.patch_item(
        "repro.logical.explain",
        "MACHINES",
        lambda _key, build: tracer.wrap_leaf("hardware.machine_build", build),
    )
    for source in GENERATOR_MODULES:
        _patch_importers(tracer, source, importers)


def _patch_importers(tracer: Tracer, source: str, importers: Tuple[str, ...]) -> None:
    """Wrap ``source``'s public functions in each module that imported them."""
    try:
        module = _resolve(source)
    except MISSING as error:
        tracer.missing.append(f"{source}: {type(error).__name__}: {error}")
        return
    generators = {
        name: fn
        for name, fn in vars(module).items()
        if not name.startswith("_")
        and callable(fn)
        and getattr(fn, "__module__", None) == module.__name__
        and not isinstance(fn, type)
    }
    for importer in importers:
        try:
            namespace = vars(_resolve(importer))
        except MISSING:
            continue  # the workload reports a missing figure runner itself
        for name, fn in generators.items():
            if namespace.get(name) is fn:
                tracer.patch_attr(
                    importer,
                    name,
                    lambda original: tracer.wrap_leaf("workloads.gen", original),
                )
