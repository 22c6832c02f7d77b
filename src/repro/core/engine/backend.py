"""Execution backends: how plan waves and fleet rounds actually run.

The wave stepper (:class:`~repro.core.coordinator.PlanExecution`) and the
fleet scheduler decide *what* runs next; a backend decides *how*:

* :class:`SerialBackend` — the default — runs every node and every plan
  step on the calling thread in deterministic order, exactly as the
  pre-backend code did: branches open/close on the shared
  :class:`~repro.core.scheduler.VirtualTimeline` (rebasing the shared
  clock), so streams, journals, span ids, and charges are byte-identical
  run to run.  This is the property-testing and recovery mode.

* :class:`ThreadBackend` — real concurrency for the sync agent stack,
  following the dataflow-engine idiom (independent ready nodes execute
  simultaneously; a scheduling loop only coordinates).  Nodes of a wave
  run on a worker pool, and the fleet steps all in-flight plans' waves in
  parallel rounds.  Simulated time stays correct because each worker runs
  inside a :meth:`~repro.clock.SimClock.branch_begin` overlay — the
  thread-safe replacement for the timeline's shared-rebase branches — and
  merges its branch end via :meth:`~repro.core.scheduler.VirtualTimeline.
  record`.  Ids are owner-scoped (:func:`repro.ids.id_scope`) and spans are
  explicitly adopted cross-thread (:meth:`~repro.observability.span.
  Tracer.adopt`).  Charge attribution needs no scope here: the
  coordinator's per-node :meth:`~repro.core.budget.Budget.window` holds
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

import os
import threading
from concurrent.futures import ThreadPoolExecutor
from contextlib import ExitStack
from typing import Any, Protocol, Sequence, TYPE_CHECKING

from ...ids import id_scope

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..coordinator import PlanExecution
    from ..plan.task_plan import TaskNode


class ExecutionBackend(Protocol):
    """How waves of nodes and rounds of plan steps execute."""

    #: Human-readable backend name (``serial`` / ``threads``).
    name: str
    #: True when work may run off the calling thread; the coordinator and
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
                    execution.coordinator._parallel_node_tally += 1
                timeline.open(execution.ready_time(node), owner=run.plan_id)
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


def _default_workers() -> int:
    return min(16, max(4, (os.cpu_count() or 4)))


class ThreadBackend:
    """Thread-pool execution: wave nodes and fleet rounds overlap for real.

    Two pools keep plan-level and node-level work from deadlocking on
    each other: :meth:`step_round` fans plan steps onto the *plan* pool,
    and each step's :meth:`run_wave` fans its nodes onto the *node* pool.
    Every node task runs inside a clock branch overlay, an id scope, and
    an adopted parent span, so the shared runtime state the serial path
    mutates in place stays consistent under real interleaving.
    """

    name = "threads"
    concurrent = True

    def __init__(self) -> None:
        self._plan_pool: ThreadPoolExecutor | None = None
        self._node_pool: ThreadPoolExecutor | None = None
        self._pool_lock = threading.Lock()

    # -- pools ----------------------------------------------------------
    def _plans(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._plan_pool is None:
                self._plan_pool = ThreadPoolExecutor(
                    max_workers=_default_workers(),
                    thread_name_prefix="engine-plan",
                )
            return self._plan_pool

    def _nodes(self) -> ThreadPoolExecutor:
        with self._pool_lock:
            if self._node_pool is None:
                self._node_pool = ThreadPoolExecutor(
                    max_workers=_default_workers(),
                    thread_name_prefix="engine-node",
                )
            return self._node_pool

    def close(self) -> None:
        with self._pool_lock:
            plan_pool, self._plan_pool = self._plan_pool, None
            node_pool, self._node_pool = self._node_pool, None
        if plan_pool is not None:
            plan_pool.shutdown(wait=True)
        if node_pool is not None:
            node_pool.shutdown(wait=True)

    def __enter__(self) -> "ThreadBackend":
        return self

    def __exit__(self, *exc_info: Any) -> bool:
        self.close()
        return False

    # -- execution ------------------------------------------------------
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
        context = execution.coordinator._require_context()
        clock = context.clock
        run = execution.run
        owner = f"{run.plan_id}.{node.node_id}"
        clock.branch_begin(execution.ready_time(node))
        try:
            with ExitStack() as stack:
                stack.enter_context(id_scope(owner))
                tracer = execution._tracer
                if tracer is not None:
                    stack.enter_context(tracer.adopt(parent))
                return execution.drive(node, wave_index, wave_len)
        finally:
            end = clock.branch_end()
            execution._ends[node.node_id] = end
            if execution.timeline is not None:
                execution.timeline.record(end, owner=run.plan_id)

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
        if not pending:
            return "ok"
        if len(wave) > 1:
            execution.coordinator._parallel_node_tally += len(pending)
        tracer = execution._tracer
        parent = tracer.current() if tracer is not None else None
        if len(pending) == 1:
            # A singleton wave still needs the branch overlay (other
            # plans' steps run concurrently), but not a pool hop.
            verdicts = [
                self._run_node(execution, pending[0], wave_index, len(wave), parent)
            ]
        else:
            # Flip the clock into locked mode from THIS thread before any
            # worker can race an unlocked serial-fast-path write.
            execution.coordinator._require_context().clock.mark_threaded()
            pool = self._nodes()
            futures = [
                pool.submit(
                    self._run_node, execution, node, wave_index, len(wave), parent
                )
                for node in pending
            ]
            verdicts = []
            error: BaseException | None = None
            for future in futures:
                # Wait for EVERY sibling before re-raising: a chaos kill
                # must not leave half the wave still mutating shared state
                # behind the propagating exception.
                try:
                    verdicts.append(future.result())
                except BaseException as exc:  # noqa: BLE001 - re-raised below
                    if error is None:
                        error = exc
                    verdicts.append("ok")
            if error is not None:
                raise error
        for verdict in verdicts:
            if verdict != "ok":
                return verdict
        return "ok"

    @staticmethod
    def _step_guarded(execution: "PlanExecution") -> BaseException | None:
        """One plan step; a crash is returned, to surface post-barrier.

        Serial crash semantics re-raise immediately; under concurrency the
        whole round completes first (siblings are already running), then
        the first crash — in admission order — propagates to the fleet.
        """
        try:
            execution.step()
        except BaseException as error:  # noqa: BLE001 - re-raised by step_round
            return error
        return None

    def step_round(self, executions: "Sequence[PlanExecution]") -> None:
        if len(executions) == 1:
            SERIAL.step_round(executions)
            return
        executions[0].coordinator._require_context().clock.mark_threaded()
        pool = self._plans()
        futures = [
            pool.submit(self._step_guarded, execution) for execution in executions
        ]
        errors = [future.result() for future in futures]
        for error in errors:
            if error is not None:
                raise error


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
