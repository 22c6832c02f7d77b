"""Write-ahead journaling of plan-node lifecycle events.

The blueprint's streams "represent and persist the flow of data and
control" (Section III-B) — which is exactly what crash recovery needs:
execution state that outlives the process executing it.  The
:class:`WriteAheadJournal` records every plan-node lifecycle transition
(``plan_started`` / ``node_scheduled`` / ``node_started`` / ``effect`` /
``node_completed`` / ``node_compensated`` / ``plan_finished``) as ordinary
data messages on a per-session ``journal`` stream.  Because the stream
store is the durable substrate (it survives coordinator death the way a
database survives a client crash), a journal rebuilt over the same store
after a crash sees exactly the same history — the stream *is* the record,
the same discipline :class:`~repro.core.resilience.DeadLetterQueue` uses.

Journal messages are stamped by the store from the shared
:class:`~repro.clock.SimClock`, so two same-seed runs journal
byte-identically — the property the kill/resume determinism suite pins.

**Barriers.**  Between any two journal writes the coordinator crosses a
*barrier*: a named point where a crash is survivable with zero duplicate
effects.  :meth:`WriteAheadJournal.barrier` invokes an optional hook with
the barrier's site name; the chaos harness installs a hook that raises
:class:`~repro.errors.CoordinatorKilledError` to simulate a hard kill at
exactly that point (``boundary:`` sites before a node is scheduled,
``midnode:`` sites between its effect record and its completion record).
"""

from __future__ import annotations

from typing import Any, Callable, Iterator, TYPE_CHECKING

from .effects import EffectTable

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...observability import MetricsRegistry
    from ...streams import Message, StreamStore
    from ..plan.task_plan import TaskPlan
    from ..qos import QoSSpec
    from ..session import Session

#: Tag carried by every journal record.
JOURNAL_TAG = "JOURNAL"

#: A barrier hook receives the site name; it may raise to simulate a kill.
BarrierHook = Callable[[str], None]

#: Terminal statuses a ``plan_finished`` record may carry.
TERMINAL_STATUSES = ("completed", "failed", "aborted", "compensated")


class WriteAheadJournal:
    """Durable, replayable log of plan execution on a session stream."""

    def __init__(
        self,
        store: "StreamStore",
        session: "Session | None" = None,
        stream_id: str | None = None,
        producer: str = "RECOVERY_JOURNAL",
        barrier_hook: BarrierHook | None = None,
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.store = store
        self.session = session
        self.producer = producer
        self.barrier_hook = barrier_hook
        self.metrics = metrics
        # Hot-path accounting: ``record`` bumps a plain tally and the
        # registry pulls it at snapshot time (several journals may share
        # a registry — collector sums merge on key collision).
        self._event_tally: dict[str, int] = {}
        if metrics is not None:
            metrics.register_collector(self._collect_metrics)
        if session is not None:
            self.stream = session.ensure_stream("journal", creator=producer)
        elif stream_id is not None:
            self.stream = store.get_stream(stream_id)
        else:
            raise ValueError("WriteAheadJournal needs a session or a stream_id")
        #: The idempotent-effect view over this journal.
        self.effects = EffectTable(self)

    @classmethod
    def over_stream(cls, store: "StreamStore", stream_id: str) -> "WriteAheadJournal":
        """Attach to an existing journal stream (post-hoc analysis over a
        replayed store: ``repro recover --export``)."""
        return cls(store, session=None, stream_id=stream_id)

    # ------------------------------------------------------------------
    # Barriers (the chaos kill sites)
    # ------------------------------------------------------------------
    def barrier(self, site: str) -> None:
        """Cross a named checkpoint barrier; the hook may kill us here."""
        if self.barrier_hook is not None:
            self.barrier_hook(site)

    # ------------------------------------------------------------------
    # Writing
    # ------------------------------------------------------------------
    def _collect_metrics(self, sink: Any) -> None:
        for event, count in self._event_tally.items():
            sink.inc("journal.records", count, event=event)

    def record(self, event: str, plan_id: str, **fields: Any) -> "Message":
        """Append one journal record (a durable stream message)."""
        if self.metrics is not None:
            tally = self._event_tally
            tally[event] = tally.get(event, 0) + 1
        return self.store.publish_data(
            self.stream.stream_id,
            {"event": event, "plan": plan_id, **fields},
            tags=(JOURNAL_TAG,),
            producer=self.producer,
        )

    def plan_started(
        self, plan: "TaskPlan", qos: "QoSSpec | None" = None, attempt: int = 0
    ) -> None:
        """The plan is about to execute; journal everything resume needs:
        the full plan payload and the QoS envelope of its budget."""
        qos_payload = None
        if qos is not None:
            qos_payload = {
                "max_cost": qos.max_cost,
                "max_latency": qos.max_latency,
                "min_quality": qos.min_quality,
                "objective": qos.objective,
            }
        self.record(
            "plan_started",
            plan.plan_id,
            goal=plan.goal,
            payload=plan.to_payload(),
            qos=qos_payload,
            attempt=attempt,
            started_at=self.store.clock.now(),
        )

    def node_scheduled(self, plan_id: str, node_id: str, agent: str) -> None:
        self.record("node_scheduled", plan_id, node=node_id, agent=agent)

    def node_started(self, plan_id: str, node_id: str, agent: str) -> None:
        self.record("node_started", plan_id, node=node_id, agent=agent)

    def node_completed(
        self, plan_id: str, node_id: str, outputs: dict[str, Any]
    ) -> None:
        self.record("node_completed", plan_id, node=node_id, outputs=outputs)

    def node_compensated(self, plan_id: str, node_id: str, agent: str) -> None:
        self.record("node_compensated", plan_id, node=node_id, agent=agent)

    def plan_finished(
        self, plan_id: str, status: str, reason: str | None = None
    ) -> None:
        """Terminal record; a plan without one is *incomplete* (resumable)."""
        if status not in TERMINAL_STATUSES:
            raise ValueError(f"unknown terminal status: {status!r}")
        self.record("plan_finished", plan_id, status=status, reason=reason)

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def entries(self, plan_id: str | None = None) -> list[dict[str, Any]]:
        """Journal record payloads in append order (optionally one plan's)."""
        return list(self.iter_entries(plan_id))

    def iter_entries(self, plan_id: str | None = None) -> Iterator[dict[str, Any]]:
        for message in self.stream.messages():
            if not (message.is_data and message.has_tag(JOURNAL_TAG)):
                continue
            payload = message.payload
            if not isinstance(payload, dict) or "event" not in payload:
                continue
            if plan_id is not None and payload.get("plan") != plan_id:
                continue
            yield payload

    def plan_ids(self) -> list[str]:
        """Every plan that ever journaled, in first-seen order."""
        seen: dict[str, None] = {}
        for entry in self.iter_entries():
            seen.setdefault(entry["plan"], None)
        return list(seen)

    def terminal_status(self, plan_id: str) -> str | None:
        """The plan's latest terminal status, or None while incomplete.

        A ``plan_started`` written after a terminal record (a replan)
        re-opens the plan — the scan keeps the *last* transition.
        """
        status: str | None = None
        for entry in self.iter_entries(plan_id):
            if entry["event"] == "plan_started":
                status = None
            elif entry["event"] == "plan_finished":
                status = entry.get("status")
        return status

    def incomplete_plans(self) -> list[str]:
        """Plans with a ``plan_started`` but no terminal record after it."""
        return [p for p in self.plan_ids() if self.terminal_status(p) is None]

    def describe(self) -> dict[str, Any]:
        events: dict[str, int] = {}
        for entry in self.iter_entries():
            events[entry["event"]] = events.get(entry["event"], 0) + 1
        return {
            "stream": self.stream.stream_id,
            "records": sum(events.values()),
            "events": events,
            "plans": len(self.plan_ids()),
            "incomplete": self.incomplete_plans(),
        }
