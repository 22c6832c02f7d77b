"""Critical-path time accounting over a shared :class:`SimClock`.

The runtime's components (LLM clients, budgets, retry backoff) advance
the *shared* simulated clock as work executes.  Running a wave's nodes
one after another would therefore charge the plan the **sum** of their
latencies.  A :class:`VirtualTimeline` makes that same single-threaded
execution account like concurrent execution:

* :meth:`open` a *branch* at the node's ready time — the clock rebases
  there, so everything the node does (LLM latency, budget charges,
  backoff sleeps, span/message stamps) happens in branch-local time;
* :meth:`close` records the branch's end and returns it, so downstream
  nodes can compute their own ready times (``max`` over predecessors);
* :meth:`commit` restores global monotonicity with one
  ``advance_to(max(branch ends))`` — the plan's **critical path**.

All node-latency accounting thus flows through a single ``advance_to``
at commit rather than interleaved read-modify-writes on the clock, which
is also what makes the accounting safe to reason about: ``SimClock.now``
is a lock-free read, not a synchronization point.
"""

from __future__ import annotations

import threading

from ...clock import SimClock


class VirtualTimeline:
    """Branch-local simulated time for logically-concurrent execution.

    Example — two 1-second branches cost 1 second, not 2:
        >>> clock = SimClock()
        >>> timeline = VirtualTimeline(clock)
        >>> for _ in range(2):
        ...     _ = timeline.open(ready_at=timeline.origin)
        ...     _ = clock.advance(1.0)
        ...     _ = timeline.close()
        >>> timeline.commit()
        1.0
    """

    def __init__(self, clock: SimClock) -> None:
        self._clock = clock
        #: Simulated time the timeline was created at (the plan start).
        self.origin = clock.now()
        self._horizon = self.origin
        self._branch_open = False
        # Guards horizon merges: the thread backend records branch ends
        # from worker threads (see :meth:`record`).
        self._merge_lock = threading.Lock()

    @property
    def horizon(self) -> float:
        """Latest branch end seen so far (the running critical path)."""
        return self._horizon

    def elapsed(self) -> float:
        """Critical-path seconds accounted so far."""
        return self._horizon - self.origin

    def open(self, ready_at: float) -> float:
        """Start a branch at *ready_at* (clamped to the plan origin).

        Branches do not nest: plan nodes are the unit of concurrency, and
        any sub-plans a node runs belong to that node's branch.  A plan
        sharing the timeline with others (fleet execution) keeps its own
        critical path itself (``PlanExecution.plan_end``).
        """
        if self._branch_open:
            raise RuntimeError("a timeline branch is already open")
        start = max(float(ready_at), self.origin)
        self._clock.rebase(start)
        self._branch_open = True
        return start

    def close(self) -> float:
        """End the open branch; returns its branch-local end time."""
        if not self._branch_open:
            raise RuntimeError("no timeline branch is open")
        end = self._clock.now()
        self._branch_open = False
        return self.record(end)

    def record(self, end: float) -> float:
        """Merge a finished branch's *end* into the horizon; returns it.

        The thread backend's entry point: workers run their branches on a
        clock overlay (no :meth:`open`/:meth:`close` pairing, which would
        serialize on the shared rebase) and merge each end here.  Safe
        under concurrent callers — merges are locked, and the horizon only
        ever ratchets upward.
        """
        if not self._clock.threaded:
            # Serial fast path: a never-threaded clock means every
            # record() comes from the single driving thread.
            if end > self._horizon:
                self._horizon = end
            return end
        with self._merge_lock:
            if end > self._horizon:
                self._horizon = end
        return end

    def commit(self) -> float:
        """Advance the shared clock to the critical path and return it.

        Idempotent, and safe to call with a branch still open (a chaos
        kill mid-node): the branch is closed first so its partial time is
        never lost, then the clock lands at ``max(branch ends)``.
        """
        if self._branch_open:
            self.close()
        return self._clock.advance_to(self._horizon)
