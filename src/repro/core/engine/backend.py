"""Execution backends: how plan waves and fleet rounds actually run.

The wave stepper (:class:`~repro.core.execution.PlanExecution`) and the
fleet scheduler decide *what* runs next; a backend decides *how*:

* :class:`SerialBackend` — the default — runs every node and every plan
  step on the calling thread in deterministic order, exactly as the
  pre-backend code did: branches open/close on the shared
  :class:`~repro.core.scheduler.VirtualTimeline` (rebasing the shared
  clock), so streams, journals, span ids, and charges are byte-identical
  run to run.  This is the property-testing and recovery mode.

* :class:`ThreadBackend` — real concurrency for the sync agent stack,
  following the dataflow-engine idiom (independent ready nodes execute
  simultaneously; a scheduling loop only coordinates).  Every ready unit
  — a wave's node, an in-flight plan's step in a fleet round — runs at
  once: the caller runs one, and one uncapped pool runs the rest.
  Simulated time stays correct because each node runs inside a
  :meth:`~repro.clock.SimClock.branch_begin` overlay — the
  thread-safe replacement for the timeline's shared-rebase branches — and
  merges its branch end via :meth:`~repro.core.scheduler.VirtualTimeline.
  record`.  Ids are owner-scoped (:func:`repro.ids.id_scope`) and spans are
  explicitly adopted cross-thread (:meth:`~repro.observability.span.
  Tracer.adopt`).  Charge attribution needs no scope here: the
  execution's per-node :meth:`~repro.core.budget.Budget.window` holds
  the opening thread's charges only, on either backend.

Determinism contract: serial mode is byte-identical to the pre-backend
runtime; thread mode guarantees *result identity* — same node
outputs, statuses, charge multisets, and journal entry sets as serial
for the nodes both executed — while event order, global-arrival ids,
and wall interleaving may differ.  A failed wave is the one defined
divergence: serial stops at the first failing node and never starts its
wave siblings, while the thread backend has already started them, so
a failed run's executed set under threads is a superset of serial's
(the failing wave runs to completion; later waves still never start).
"""

from __future__ import annotations

import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from functools import partial
from typing import Any, Callable, Protocol, Sequence, TYPE_CHECKING

from ...ids import id_scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...clock import SimClock
    from ..execution import PlanExecution
    from ..plan.task_plan import TaskNode


class ExecutionBackend(Protocol):
    """How waves of nodes and rounds of plan steps execute."""

    #: Human-readable backend name (``serial`` / ``threads``).
    name: str
    #: True when work may run off the calling thread; the execution and
    #: fleet consult this to avoid shared-clock rebases.
    concurrent: bool

    def run_wave(
        self,
        execution: "PlanExecution",
        wave: "Sequence[TaskNode]",
        wave_index: int,
    ) -> str:
        """Drive every pending node of *wave*; returns the wave verdict.

        The verdict is ``"ok"`` when every node completed, else the first
        non-ok node verdict in node order (``"stop"`` / ``"replan"``).
        """
        ...

    def step_round(self, executions: "Sequence[PlanExecution]") -> None:
        """Advance every execution one step (one fleet round).

        A crash raised by a step propagates; ``PlanExecution.step`` has
        already abandoned the dying plan, so backends only relay it.
        """
        ...

    def close(self) -> None:
        """Release backend resources (worker pools); idempotent."""
        ...


class SerialBackend:
    """Single-threaded deterministic execution — the default.

    Every operation happens on the calling thread in schedule order, so
    this backend preserves the pre-backend byte-identical traces that the
    property suites, recovery machinery, and benchmarks assert on.
    """

    name = "serial"
    concurrent = False

    def run_wave(
        self,
        execution: "PlanExecution",
        wave: "Sequence[TaskNode]",
        wave_index: int,
    ) -> str:
        run = execution.run
        timeline = execution.timeline
        for node in wave:
            if node.node_id in run.executed:
                # Restored from the journal on resume: already completed
                # (and journaled as such) before the crash — zero
                # messages, zero branch time.
                continue
            if timeline is not None:
                if len(wave) > 1:
                    execution.count_parallel(1)
                timeline.open(execution.ready_time(node))
            try:
                verdict = execution.drive(node, wave_index, len(wave))
            finally:
                if timeline is not None:
                    execution._ends[node.node_id] = timeline.close()
            if verdict != "ok":
                return verdict
        return "ok"

    def step_round(self, executions: "Sequence[PlanExecution]") -> None:
        # A crash re-raises immediately: later plans in the round are not
        # stepped — the process "crashed" mid-fleet.
        for execution in executions:
            execution.step()

    def close(self) -> None:
        pass


#: Shared default instance: the backend is stateless.
SERIAL = SerialBackend()


class ThreadBackend:
    """Thread-pool execution: wave nodes and fleet rounds overlap for real.

    One pool runs every *unit* — a wave's node or a round's plan step —
    and the calling thread runs one unit itself: it submits ``units[1:]``
    and then runs ``units[0]`` (caller-runs), so a singleton wave or round
    never hops threads and the degenerate case needs no branch of its own.
    The pool has no worker cap: ``ThreadPoolExecutor`` starts a thread
    only when no worker is idle, so it grows to the peak concurrent
    demand — (in-flight plans - 1) + the sum of (wave width - 1) — and no
    ready unit ever queues behind a sleeping one.  A step waiting on its
    wave's nodes can therefore never keep those nodes from a thread, so
    nested waits cannot deadlock.  Every node runs inside a clock branch
    overlay, an id scope, and an adopted parent span, so the shared
    runtime state the serial path mutates in place stays consistent under
    real interleaving.
    """

    name = "threads"
    concurrent = True

    def __init__(self) -> None:
        self._pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    def close(self) -> None:
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadBackend":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    # -- execution ------------------------------------------------------
    def _run_all(
        self, clock: "SimClock", units: "Sequence[Callable[[], Any]]"
    ) -> list:
        """Run every unit at once; their results, in unit order.

        Siblings are submitted before the caller runs ``units[0]``, so a
        failing unit never keeps the rest from running; every unit ends
        before the first error in unit order re-raises — a chaos kill must
        not leave siblings mutating shared state behind the exception.
        """
        futures = []
        if len(units) > 1:
            # Flip the clock into locked mode from THIS thread before any
            # worker can race an unlocked serial-fast-path write.
            clock.mark_threaded()
            with self._pool_lock:
                if self._pool is None:
                    # Uncapped: the executor adds a thread only when none
                    # is idle, so demand alone decides the size.
                    self._pool = ThreadPoolExecutor(
                        max_workers=sys.maxsize, thread_name_prefix="engine-worker"
                    )
                pool = self._pool
            futures = [pool.submit(unit) for unit in units[1:]]
        results: list = []
        error: BaseException | None = None
        for wait in (*units[:1], *(future.result for future in futures)):
            try:
                results.append(wait())
            except BaseException as exc:  # noqa: BLE001 - re-raised below
                if error is None:
                    error = exc
                results.append(None)
        if error is not None:
            raise error
        return results

    @staticmethod
    def _run_node(
        execution: "PlanExecution",
        node: "TaskNode",
        wave_index: int,
        wave_len: int,
        parent: Any,
    ) -> str:
        """Drive one node under the concurrent-execution scope stack.

        A clock branch overlay rooted at the node's ready time,
        owner-scoped ids, and the wave's parent span adopted onto this
        worker — the invariants that keep shared runtime state consistent
        when siblings interleave for real.
        """
        clock = execution.clock
        clock.branch_begin(execution.ready_time(node))
        try:
            with ExitStack() as stack:
                stack.enter_context(id_scope(f"{execution.run.plan_id}.{node.node_id}"))
                tracer = execution._tracer
                if tracer is not None:
                    stack.enter_context(tracer.adopt(parent))
                return execution.drive(node, wave_index, wave_len)
        finally:
            end = clock.branch_end()
            execution._ends[node.node_id] = end
            if execution.timeline is not None:
                execution.timeline.record(end)

    def run_wave(
        self,
        execution: "PlanExecution",
        wave: "Sequence[TaskNode]",
        wave_index: int,
    ) -> str:
        if execution.timeline is None:
            # Non-parallel schedules have no branch accounting to
            # overlap; run them exactly as the serial backend would.
            return SERIAL.run_wave(execution, wave, wave_index)
        run = execution.run
        pending = [node for node in wave if node.node_id not in run.executed]
        if len(wave) > 1:
            execution.count_parallel(len(pending))
        tracer = execution._tracer
        parent = tracer.current() if tracer is not None else None
        verdicts = self._run_all(
            execution.clock,
            [
                partial(self._run_node, execution, node, wave_index, len(wave), parent)
                for node in pending
            ],
        )
        return next((verdict for verdict in verdicts if verdict != "ok"), "ok")

    def step_round(self, executions: "Sequence[PlanExecution]") -> None:
        # Every step of the round ends before the first crash in
        # admission order re-raises (``step()`` has already abandoned the
        # dying plan); an empty round does nothing.
        if executions:
            self._run_all(
                executions[0].clock,
                [execution.step for execution in executions],
            )


def resolve_backend(
    backend: "str | ExecutionBackend | None",
) -> ExecutionBackend:
    """Map a backend spec (name, instance, or None) to an instance.

    ``None`` and ``"serial"`` return the shared stateless
    :data:`SERIAL` backend; ``"threads"`` builds a fresh
    :class:`ThreadBackend` owned by the caller (who should
    :meth:`close` it).
    """
    if backend is None:
        return SERIAL
    if isinstance(backend, str):
        if backend == "serial":
            return SERIAL
        if backend == "threads":
            return ThreadBackend()
        raise ValueError(f"unknown execution backend: {backend!r}")
    return backend
