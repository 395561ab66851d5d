"""Thread-pool morsel-parallel executor (Section 6.1, for real).

The functional layer used to drive its numpy kernels from exactly one
thread; this module runs them across N workers pulling work from the
(now thread-safe) :class:`~repro.core.scheduler.morsel.MorselDispatcher`
— the same "cores request fixed-sized chunks from a central read
cursor" scheme the paper's Het strategy uses, executed with real
concurrency instead of a discrete-event simulation of it.

Determinism guarantee: each dispatched range lands in the worker's
private result buffer; after the pool drains, buffers are merged by
range start (ranges partition ``[0, total_tuples)``, so the merge is a
stable morsel-order concatenation).  Parallel output is therefore
bit-identical to a serial execution of the same morsel decomposition,
regardless of worker count or interleaving.

Resilience (``repro.faults``): when a :class:`~repro.faults.FaultPlan`
is installed, the executor checks each morsel receipt *before* the task
runs — the crash-safe injection point — and recovers:

* a :class:`~repro.faults.TransientKernelFault` retries the same range
  in place with bounded backoff (:class:`~repro.faults.RetryPolicy`);
* a :class:`~repro.faults.WorkerCrashFault` kills the worker; its range
  is re-dispatched to a surviving worker (unordered runs) or the pool
  degrades to a serial morsel-order replay (ordered runs, where blocked
  peers cannot take over);
* if every worker dies, the main thread replays the remaining ranges
  serially — output stays bit-identical because ranges still run
  exactly once and merge in morsel order;
* an exhausted retry budget raises :class:`MorselFailedError` naming
  the failed range, with every peer woken (no stranded waiters).

Genuine (non-injected) task exceptions propagate unchanged, with the
failed range attached as ``failed_work`` / ``failed_worker`` attributes.

The executor keeps its *own* metrics registry and span timeline.  The
observability bundle attached to an operator records the *priced*
(modeled) execution; wall-clock worker scheduling is a property of the
host machine and must not leak into run manifests, which are diffed
bit-for-bit across backends and PRs.  Recovery actions additionally
land in a :class:`~repro.faults.ResilienceLog` for the manifest's
``resilience`` section.
"""

from __future__ import annotations

import os
import threading
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, Generic, List, Optional, Tuple, TypeVar

from repro.core.hashtable.base import HashTableBase
from repro.core.scheduler.morsel import MorselDispatcher, WorkRange
from repro.faults.plan import (
    FaultPlan,
    TransientKernelFault,
    WorkerCrashFault,
)
from repro.faults.recovery import RetryPolicy
from repro.faults.resilience import ResilienceLog
from repro.faults.runtime import active_plan
from repro.obs.metrics import MetricsRegistry
from repro.obs.trace import Timeline

T = TypeVar("T")

#: valid execution backends for the functional layer.
EXEC_BACKENDS = ("serial", "threads")

#: default morsel size (executed tuples) for the thread backend: the
#: hash tables' probe block.  The serial probe walks its keys in blocks
#: of that size already; smaller morsels only shrink each numpy call
#: until the GIL hand-off between workers outweighs it (2**15 loses to
#: serial: docs/architecture.md, "One parallel backend").
DEFAULT_EXEC_MORSEL_TUPLES = HashTableBase.PROBE_BLOCK

#: default worker count of the thread backend.
DEFAULT_WORKERS = 4

#: executed rows from which the host tier runs on threads.
HOST_TIER_ROWS = 1 << 18


def check_backend(backend: str) -> str:
    """Validate a ``backend`` knob: serial | threads."""
    if backend not in EXEC_BACKENDS:
        raise ValueError(
            f"unknown execution backend {backend!r}; "
            f"valid: {', '.join(EXEC_BACKENDS)}"
        )
    return backend


def host_tier(executed_rows: int) -> Tuple[str, int]:
    """(backend, workers) for a functional execution of ``executed_rows``.

    Backend choice cannot be priced — the modeled plan cost is
    backend-invariant by construction — so the tier scales with the
    *executed* data size: serial below 2¹⁸ rows (dispatch overhead
    dominates), threads from there up.  The tier is nominal: plans
    record it as is, and a facade's default run under it
    (:func:`make_executor` with ``cap_workers``) starts no more threads
    than the process has usable CPUs.
    """
    if executed_rows >= HOST_TIER_ROWS:
        return ("threads", DEFAULT_WORKERS)
    return ("serial", 0)


def usable_cpus() -> int:
    """CPUs this process may run on: its affinity mask where the
    platform has one, else ``os.cpu_count()``."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def exec_tier(
    backend: Optional[str], workers: int, executed_rows: int
) -> Tuple[str, int]:
    """The (backend, workers) of one execution, as its plan records it:
    an explicit (already validated) knob as given, ``None`` as
    :func:`host_tier`."""
    if backend is None:
        return host_tier(executed_rows)
    return backend, workers


class AbortedError(RuntimeError):
    """Ordered execution was aborted before this range could be applied.

    Raised out of :meth:`_Sequencer.run_in_order` to every waiter when a
    peer worker fails (or crashes); the range the waiter held was *not*
    applied and is safe to replay.
    """


class MorselFailedError(RuntimeError):
    """A work range exhausted its retry budget.

    Attributes:
        work: the failed :class:`WorkRange`.
        worker: the worker holding the range on the final attempt.
        attempts: attempts consumed (including the first).
    """

    def __init__(
        self, work: WorkRange, worker: str, attempts: int, cause: BaseException
    ) -> None:
        super().__init__(
            f"morsel [{work.start}, {work.end}) failed on {worker} after "
            f"{attempts} attempt(s): {cause}"
        )
        self.work = work
        self.worker = worker
        self.attempts = attempts
        self.__cause__ = cause


class _WorkerCrashed(Exception):
    """Internal control flow: this worker was killed by an injected crash."""


@dataclass(frozen=True)
class MorselOutcome(Generic[T]):
    """One dispatched range, the worker that ran it, and its result."""

    work: WorkRange
    worker: str
    value: T


class _Sequencer:
    """Enforces morsel-order application of side-effecting tasks.

    A worker holding range ``[s, e)`` blocks until every earlier range
    has been applied; hash-table builds use this so the shared table
    evolves exactly as a serial morsel-order build would.

    Abort protocol: :meth:`abort` wakes every waiter, which raises
    :class:`AbortedError` *without* applying its range; a task that
    raises mid-apply aborts its peers and never advances the cursor, so
    nothing is applied out of order and nobody is left blocked.  A task
    already past the fault check finishes its application even if an
    abort lands meanwhile — its side effects are real, so the cursor
    must record them.
    """

    def __init__(self) -> None:
        self._cond = threading.Condition()
        self._next = 0
        self._aborted = False

    @property
    def applied_through(self) -> int:
        """Every range below this tuple index has been applied."""
        with self._cond:
            return self._next

    def run_in_order(self, start: int, end: int, fn: Callable[[], T]) -> T:
        with self._cond:
            while self._next != start and not self._aborted:
                self._cond.wait()
            if self._aborted:
                raise AbortedError(
                    f"ordered execution aborted; range [{start}, {end}) "
                    "was not applied"
                )
        try:
            value = fn()
        except BaseException:
            # The range may be partially applied: poison the sequence so
            # no later range is applied after the gap, and wake everyone.
            self.abort()
            raise
        with self._cond:
            self._next = end
            self._cond.notify_all()
        return value

    def abort(self) -> None:
        with self._cond:
            self._aborted = True
            self._cond.notify_all()


class MorselExecutor:
    """Runs a per-range task across N workers over ``[0, total_tuples)``.

    Args:
        workers: number of pool threads (1 degenerates to an in-line
            loop through the same dispatcher — useful for tests).
        morsel_tuples: dispatcher morsel size in executed tuples.
        batch_morsels: morsels per dispatch request (GPU-style batching).
        name: label prefix for executor-local spans and metrics.
        retry: bounded retry/backoff policy for injected faults.
        resilience: recovery audit log (a fresh one is created when not
            injected; operators share one per run so it lands in the
            manifest's ``resilience`` section).
        serial_fallback: allow degradation to a serial morsel-order
            replay when the whole pool dies; disabling it turns that
            situation into an error.
    """

    def __init__(
        self,
        workers: int = DEFAULT_WORKERS,
        morsel_tuples: int = DEFAULT_EXEC_MORSEL_TUPLES,
        batch_morsels: int = 1,
        name: str = "exec",
        retry: Optional[RetryPolicy] = None,
        resilience: Optional[ResilienceLog] = None,
        serial_fallback: bool = True,
    ) -> None:
        if workers < 1:
            raise ValueError(f"need at least one worker: {workers}")
        if morsel_tuples <= 0:
            raise ValueError(f"morsel size must be positive: {morsel_tuples}")
        if batch_morsels <= 0:
            raise ValueError(f"batch must be at least one morsel: {batch_morsels}")
        self.workers = workers
        self.morsel_tuples = morsel_tuples
        self.batch_morsels = batch_morsels
        self.name = name
        self.retry = retry if retry is not None else RetryPolicy()
        self.resilience = resilience if resilience is not None else ResilienceLog()
        self.serial_fallback = serial_fallback
        #: executor-local observability (never merged into run manifests).
        self.metrics = MetricsRegistry()
        self.timeline = Timeline()

    # ------------------------------------------------------------------
    def worker_names(self) -> List[str]:
        """Stable worker labels (``<name>-w0`` ... ``<name>-wN-1``)."""
        return [f"{self.name}-w{i}" for i in range(self.workers)]

    # ------------------------------------------------------------------
    def run(
        self,
        total_tuples: int,
        task: Callable[[WorkRange, str], T],
        ordered: bool = False,
    ) -> List[MorselOutcome[T]]:
        """Dispatch ``[0, total_tuples)`` to the pool; merge by range start.

        ``task(work, worker)`` is called once per dispatched range.  With
        ``ordered=True`` tasks are *applied* in morsel order (workers
        still pull concurrently but block on a sequencer), which is what
        shared-table mutation requires.

        Returns the outcomes sorted by ``work.start`` — the morsel-order
        merge — after verifying the ranges exactly cover the input.
        """
        run = _PoolRun(self, total_tuples, task, ordered, active_plan())
        return run.execute()

    def map_values(
        self,
        total_tuples: int,
        task: Callable[[WorkRange, str], T],
        ordered: bool = False,
    ) -> List[T]:
        """:meth:`run`, returning just the values in morsel order."""
        return [
            outcome.value for outcome in self.run(total_tuples, task, ordered)
        ]


class _PoolRun(Generic[T]):
    """One :meth:`MorselExecutor.run` invocation's mutable state.

    Separated from the executor so concurrent state (pending queues,
    stop events, the sequencer) has run lifetime, while the executor
    keeps only configuration plus cumulative observability.
    """

    def __init__(
        self,
        executor: MorselExecutor,
        total_tuples: int,
        task: Callable[[WorkRange, str], T],
        ordered: bool,
        plan: Optional[FaultPlan],
    ) -> None:
        self.executor = executor
        self.task = task
        self.ordered = ordered
        self.plan = plan
        self.total_tuples = total_tuples
        self.dispatcher = MorselDispatcher(
            total_tuples,
            executor.morsel_tuples,
            metrics=executor.metrics,
        )
        self.buffers: List[List[MorselOutcome[T]]] = [
            [] for _ in range(executor.workers + 1)  # +1: serial-fallback buffer
        ]
        self.errors: List[BaseException] = []
        self.fatal = threading.Event()
        self.degrade = threading.Event()
        #: ranges pulled but not executed, awaiting another worker:
        #: re-dispatch queue (unordered) / replay backlog (ordered).
        self.pending: Deque[Tuple[WorkRange, int]] = deque()
        self.lock = threading.Lock()
        self.sequencer = _Sequencer() if ordered else None

    # -- fault bookkeeping ----------------------------------------------
    def _record_fault(self, kind: str, worker: str) -> None:
        self.executor.metrics.counter(
            "faults_injected_total", kind=kind, worker=worker
        ).inc()

    def _fail(
        self, work: WorkRange, worker: str, attempts: int, cause: BaseException
    ) -> MorselFailedError:
        """Build the typed budget-exhausted error and stop the pool."""
        failure = MorselFailedError(work, worker, attempts, cause)
        with self.lock:
            self.errors.append(failure)
        self.fatal.set()
        if self.sequencer is not None:
            self.sequencer.abort()
        return failure

    # -- per-range execution with recovery -------------------------------
    def _attempt(
        self,
        work: WorkRange,
        worker: str,
        attempt: int,
        buffer: List[MorselOutcome[T]],
        in_pool: bool,
    ) -> None:
        """Run one range, retrying injected faults within the budget.

        ``in_pool`` distinguishes pool workers (which may die and hand
        their range to a peer) from the serial-fallback driver (which
        has no peers and converts crashes into in-place retries).
        Raises :class:`_WorkerCrashed` to unwind a killed pool worker.
        """
        executor = self.executor
        retry = executor.retry
        while True:
            try:
                if self.plan is not None:
                    self.plan.check_morsel(
                        worker=worker,
                        start=work.start,
                        end=work.end,
                        attempt=attempt,
                    )
                if self.sequencer is not None and in_pool:
                    value = self.sequencer.run_in_order(
                        work.start, work.end, lambda: self.task(work, worker)
                    )
                else:
                    value = self.task(work, worker)
            except TransientKernelFault as fault:
                self._record_fault("transient", worker)
                attempt += 1
                if attempt >= retry.max_attempts:
                    raise self._fail(work, worker, attempt, fault) from fault
                delay = retry.delay(attempt)
                executor.resilience.record(
                    "retry",
                    worker=worker,
                    start=work.start,
                    end=work.end,
                    attempt=attempt,
                    backoff_seconds=delay,
                )
                executor.metrics.counter("retries_total", worker=worker).inc()
                retry.sleep(attempt)
                continue
            except WorkerCrashFault as fault:
                self._record_fault("crash", worker)
                attempt += 1
                if attempt >= retry.max_attempts:
                    raise self._fail(work, worker, attempt, fault) from fault
                if not in_pool:
                    # The fallback driver has no peers to die for; treat
                    # the crash as one more retry against the budget.
                    delay = retry.delay(attempt)
                    executor.resilience.record(
                        "retry",
                        worker=worker,
                        start=work.start,
                        end=work.end,
                        attempt=attempt,
                        backoff_seconds=delay,
                    )
                    executor.metrics.counter("retries_total", worker=worker).inc()
                    retry.sleep(attempt)
                    continue
                # Hand the (side-effect free) range to the survivors and
                # die.  Ordered runs additionally degrade: peers may be
                # blocked in the sequencer and cannot pull the queue, so
                # the pool drains and the main thread replays serially.
                with self.lock:
                    self.pending.append((work, attempt))
                if self.ordered:
                    self.degrade.set()
                    assert self.sequencer is not None
                    self.sequencer.abort()
                raise _WorkerCrashed(worker) from fault
            else:
                buffer.append(MorselOutcome(work, worker, value))
                executor.timeline.record(
                    worker, f"{executor.name}:morsel", 0.0, 0.0, units=work.tuples
                )
                return

    # -- work acquisition -------------------------------------------------
    def _take_work(self, worker: str) -> Optional[Tuple[WorkRange, int]]:
        """Next unit: a re-dispatched crashed range, else the cursor."""
        if not self.ordered:
            with self.lock:
                if self.pending:
                    work, attempt = self.pending.popleft()
                    self.executor.resilience.record(
                        "redispatch",
                        worker=worker,
                        start=work.start,
                        end=work.end,
                        attempt=attempt,
                    )
                    self.executor.metrics.counter(
                        "redispatches_total", worker=worker
                    ).inc()
                    return work, attempt
        grant = self.dispatcher.next_batch(
            self.executor.batch_morsels, worker=worker
        )
        if grant is None:
            return None
        return grant, 0

    # -- worker loop -------------------------------------------------------
    def _worker_loop(self, worker: str, buffer: List[MorselOutcome[T]]) -> None:
        while not self.fatal.is_set() and not self.degrade.is_set():
            got = self._take_work(worker)
            if got is None:
                return
            work, attempt = got
            try:
                self._attempt(work, worker, attempt, buffer, in_pool=True)
            except _WorkerCrashed:
                return  # range already re-queued (or error recorded)
            except AbortedError:
                if not self.fatal.is_set():
                    # Degrading: the range this worker held was never
                    # applied; park it for the serial replay.
                    with self.lock:
                        self.pending.append((work, attempt))
                return
            except MorselFailedError:
                return  # _fail already recorded it and stopped the pool
            except BaseException as exc:  # noqa: B036 - propagate to caller
                # A genuine task bug: attach the failed range and stop.
                exc.failed_work = work  # type: ignore[attr-defined]
                exc.failed_worker = worker  # type: ignore[attr-defined]
                with self.lock:
                    self.errors.append(exc)
                self.fatal.set()
                if self.sequencer is not None:
                    self.sequencer.abort()
                return

    # -- serial replay fallback ---------------------------------------------
    def _serial_replay(self) -> None:
        """Drain every unexecuted range in morsel order on this thread.

        Reached when the pool died (all workers crashed) or an ordered
        run degraded after a crash.  Ranges still execute exactly once —
        the applied prefix is in the buffers, the rest is here — so the
        merged output stays bit-identical.
        """
        executor = self.executor
        fallback = f"{executor.name}-fallback"
        with self.lock:
            backlog = sorted(self.pending, key=lambda item: item[0].start)
            self.pending.clear()
        executor.resilience.record(
            "serial_fallback",
            worker=fallback,
            pending_ranges=len(backlog),
            ordered=self.ordered,
        )
        executor.metrics.counter("serial_fallbacks_total").inc()
        buffer = self.buffers[-1]
        for work, attempt in backlog:
            executor.resilience.record(
                "redispatch",
                worker=fallback,
                start=work.start,
                end=work.end,
                attempt=attempt,
            )
            executor.metrics.counter(
                "redispatches_total", worker=fallback
            ).inc()
            self._attempt(work, fallback, attempt, buffer, in_pool=False)
        while True:
            grant = self.dispatcher.next_batch(
                executor.batch_morsels, worker=fallback
            )
            if grant is None:
                return
            self._attempt(grant, fallback, 0, buffer, in_pool=False)

    # -- top level ------------------------------------------------------------
    def execute(self) -> List[MorselOutcome[T]]:
        executor = self.executor
        names = executor.worker_names()
        if executor.workers == 1:
            self._worker_loop(names[0], self.buffers[0])
        else:
            threads = [
                threading.Thread(
                    target=self._worker_loop,
                    args=(names[i], self.buffers[i]),
                    name=names[i],
                    daemon=True,
                )
                for i in range(executor.workers)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()
        # The workers have been joined, but the lock discipline for
        # ``errors``/``pending`` is acquire-to-read everywhere — the
        # serial path (workers == 1) shares this code and a failed
        # worker thread may have died mid-update.
        with self.lock:
            if self.errors:
                raise self.errors[0]
            leftover = bool(self.pending)
        if leftover or not self.dispatcher.exhausted:
            if not executor.serial_fallback:
                raise RuntimeError(
                    f"{executor.name}: every worker died with work "
                    "remaining and serial_fallback is disabled"
                )
            self._serial_replay()
        return self._merge()

    def _merge(self) -> List[MorselOutcome[T]]:
        merged: List[MorselOutcome[T]] = sorted(
            (outcome for buffer in self.buffers for outcome in buffer),
            key=lambda outcome: outcome.work.start,
        )
        cursor = 0
        for outcome in merged:
            if outcome.work.start != cursor:
                raise RuntimeError(
                    f"morsel merge lost coverage at tuple {cursor}: "
                    f"next range starts at {outcome.work.start}"
                )
            cursor = outcome.work.end
        if cursor != self.total_tuples:
            raise RuntimeError(
                f"morsel merge covers {cursor} of {self.total_tuples} tuples"
            )
        return merged


def make_executor(
    backend: str,
    workers: int = DEFAULT_WORKERS,
    morsel_tuples: int = DEFAULT_EXEC_MORSEL_TUPLES,
    name: str = "exec",
    retry: Optional[RetryPolicy] = None,
    resilience: Optional[ResilienceLog] = None,
    cap_workers: bool = False,
) -> Optional[MorselExecutor]:
    """Executor for ``backend``; a return of ``None`` selects the serial
    fast path.

    ``cap_workers`` (how the facades run their default tier, see
    :func:`exec_tier`) starts no more threads than :func:`usable_cpus`;
    one usable CPU means a serial run.
    """
    check_backend(backend)
    if cap_workers:
        workers = min(workers, usable_cpus())
    if backend == "serial" or (cap_workers and workers < 2):
        return None
    return MorselExecutor(
        workers=workers,
        morsel_tuples=morsel_tuples,
        name=name,
        retry=retry,
        resilience=resilience,
    )
