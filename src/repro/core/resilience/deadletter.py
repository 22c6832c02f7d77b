"""Dead-letter streams: quarantine for messages from failed plan nodes.

When a node exhausts its retries (and its fallback, if any), the work item
is not dropped — the coordinator quarantines it on a per-session
``deadletter`` stream with full failure metadata: plan, node, agent, the
resolved inputs, the error and its transient/fatal classification, and the
attempt count.  After recovery (a container restart, a fixed agent) the
queue is **replayable**: each pending entry is re-executed and, on success,
marked replayed by a marker message referencing it.

State lives entirely on the stream (entries + replay markers), so a queue
rebuilt over the same store after a crash sees exactly the same pending
set — the stream *is* the durable record.
"""

from __future__ import annotations

import threading
from typing import Any, Callable, TYPE_CHECKING

from ...streams import Message

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...observability import MetricsRegistry
    from ...streams import StreamStore
    from ..session import Session

#: Tag on quarantined entries.
DEAD_LETTER_TAG = "DEAD_LETTER"
#: Tag on replay markers acknowledging an entry.
REPLAYED_TAG = "DEAD_LETTER_REPLAYED"

#: An executor re-runs one quarantined payload; truthy return = success.
ReplayExecutor = Callable[[dict[str, Any]], Any]


class DeadLetterQueue:
    """A session's quarantine stream plus replay bookkeeping."""

    def __init__(
        self,
        store: "StreamStore",
        session: "Session",
        producer: str = "DEAD_LETTER_QUEUE",
        metrics: "MetricsRegistry | None" = None,
    ) -> None:
        self.store = store
        self.session = session
        self.producer = producer
        self.metrics = metrics
        self.stream = session.ensure_stream("deadletter", creator=producer)
        self._replay_lock = threading.Lock()
        self._in_flight: set[str] = set()

    # ------------------------------------------------------------------
    # Quarantine
    # ------------------------------------------------------------------
    def quarantine(
        self,
        plan: str,
        node: str,
        agent: str,
        inputs: dict[str, Any],
        error: str,
        error_type: str = "",
        transient: bool = False,
        attempts: int = 0,
        fallback_agent: str | None = None,
    ) -> Message:
        """Park one failed work item with its failure metadata."""
        if self.metrics is not None:
            self.metrics.inc("deadletter.quarantined", agent=agent)
        return self.store.publish_data(
            self.stream.stream_id,
            {
                "plan": plan,
                "node": node,
                "agent": agent,
                "inputs": dict(inputs),
                "error": error,
                "error_type": error_type,
                "transient": transient,
                "attempts": attempts,
                "fallback_agent": fallback_agent,
            },
            tags=(DEAD_LETTER_TAG,),
            producer=self.producer,
            metadata={"session": self.session.session_id},
        )

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def entries(self) -> list[Message]:
        """Every quarantined entry ever recorded, in order."""
        return [m for m in self.stream.messages() if m.has_tag(DEAD_LETTER_TAG)]

    def replayed_ids(self) -> set[str]:
        return {
            m.payload["ref"]
            for m in self.stream.messages()
            if m.has_tag(REPLAYED_TAG)
        }

    def pending(self) -> list[Message]:
        """Quarantined entries not yet successfully replayed."""
        acked = self.replayed_ids()
        return [m for m in self.entries() if m.message_id not in acked]

    def __len__(self) -> int:
        return len(self.pending())

    # ------------------------------------------------------------------
    # Replay
    # ------------------------------------------------------------------
    def replay(self, executor: ReplayExecutor) -> list[Message]:
        """Re-run every pending entry through *executor*.

        Entries whose executor call returns truthy are acknowledged with a
        replay marker (and disappear from :meth:`pending`); failing entries
        stay quarantined for the next replay.  Returns the acknowledged
        entries.

        Replaying is guarded against the double-replay hazard: an entry is
        claimed (under a lock, against both the acked set and entries other
        replayers currently hold in flight) before its executor runs, so
        concurrent or re-entrant ``replay()`` calls — an executor that
        itself triggers a replay, two supervisors recovering at once —
        cannot re-execute the same side-effecting work item twice.
        """
        recovered: list[Message] = []
        for entry in self.pending():
            with self._replay_lock:
                if (
                    entry.message_id in self._in_flight
                    or entry.message_id in self.replayed_ids()
                ):
                    continue
                self._in_flight.add(entry.message_id)
            try:
                if executor(dict(entry.payload)):
                    self.store.publish_data(
                        self.stream.stream_id,
                        {"ref": entry.message_id},
                        tags=(REPLAYED_TAG,),
                        producer=self.producer,
                    )
                    recovered.append(entry)
            finally:
                with self._replay_lock:
                    self._in_flight.discard(entry.message_id)
        if self.metrics is not None and recovered:
            self.metrics.inc("deadletter.replayed", len(recovered))
        return recovered

    def describe(self) -> dict[str, Any]:
        entries = self.entries()
        return {
            "stream": self.stream.stream_id,
            "total": len(entries),
            "pending": len(self.pending()),
            "by_agent": _count_by(entries, "agent"),
            "by_error_type": _count_by(entries, "error_type"),
        }


def _count_by(entries: list[Message], key: str) -> dict[str, int]:
    counts: dict[str, int] = {}
    for entry in entries:
        value = str(entry.payload.get(key, ""))
        counts[value] = counts.get(value, 0) + 1
    return counts
