"""One replica of one shard: a durable op log plus its state machine.

A replica is modeled the way a real replicated store treats a node: the
op log is *durable* (it survives a process kill, like a WAL on disk)
while the materialized state is *volatile* (rebuilt by replaying the log
on restart).  That split is what makes chaos ``replica_kill`` faults
recoverable without inventing hidden storage: a revived replica replays
its own log, then catches up the missing suffix from a live peer.

Logs are kept prefix-consistent by construction — the shard group only
appends to replicas whose log length equals the canonical next sequence
number, and catch-up copies a suffix from a longer log — so "how current
is this replica" is just ``applied`` (its log length).
"""

from __future__ import annotations

import enum
import hashlib
import json
from typing import Any, Callable

#: Applies one op to a replica's state; returns the op's result value
#: (e.g. an update count).  All replicas of a shard apply the same ops in
#: the same order, so results agree and the router may use any one.
ApplyFn = Callable[[Any, dict[str, Any]], Any]
StateFactory = Callable[[], Any]


class ReplicaStatus(str, enum.Enum):
    """Replica lifecycle: ALIVE serves, DEAD is crashed, SYNCING rebuilds."""

    ALIVE = "alive"
    DEAD = "dead"
    SYNCING = "syncing"


class Replica:
    """One copy of a shard's data."""

    def __init__(
        self,
        replica_id: str,
        shard_index: int,
        index: int,
        state_factory: StateFactory,
        apply_fn: ApplyFn,
    ) -> None:
        self.replica_id = replica_id
        self.shard_index = shard_index
        self.index = index
        self._state_factory = state_factory
        self._apply = apply_fn
        self.state = state_factory()
        #: Durable op log (the replica's WAL): survives kills.
        self.log: list[dict[str, Any]] = []
        self.status = ReplicaStatus.ALIVE
        #: False while a network partition hides this replica from the
        #: router; the replica itself keeps running (and its log intact).
        self.reachable = True
        self.last_heartbeat = 0.0
        #: Cluster tick at which a dead replica restarts (None = not scheduled).
        self.restart_at_tick: int | None = None
        #: Degraded-latency fault: until this tick, ops add ``degraded_seconds``.
        self.degraded_until_tick = -1
        self.degraded_seconds = 0.0

    # ------------------------------------------------------------------
    # Log and state
    # ------------------------------------------------------------------
    @property
    def applied(self) -> int:
        """Ops applied == log length (state is always caught up to the log)."""
        return len(self.log)

    def can_accept(self, seq: int) -> bool:
        """Whether this replica may take the append at sequence *seq*."""
        return (
            self.status is ReplicaStatus.ALIVE
            and self.reachable
            and len(self.log) == seq
        )

    def append(self, op: dict[str, Any]) -> Any:
        """Apply *op* to the state, then log it.  An op the state machine
        refuses is never logged: the state it may have half-changed is
        rebuilt from the unchanged log, and the error propagates."""
        try:
            result = self._apply(self.state, op)
        except Exception:
            self._replay()
            raise
        self.log.append(op)
        return result

    def _replay(self) -> None:
        """Rebuild the state from the log alone."""
        self.state = self._state_factory()
        for op in self.log:
            self._apply(self.state, op)

    def catch_up(self, donor: "Replica") -> int:
        """Replay the suffix of *donor*'s log this replica is missing."""
        missing = donor.log[len(self.log):]
        for op in missing:
            self.append(op)
        return len(missing)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def kill(self, restart_at_tick: int | None = None) -> None:
        """Crash the process: state is lost, the log (disk) survives."""
        self.status = ReplicaStatus.DEAD
        self.restart_at_tick = restart_at_tick
        self.state = None  # memory is gone until restart replays the log

    def begin_restart(self) -> None:
        """Come back up: rebuild state from the local log, then SYNC."""
        self._replay()
        self.status = ReplicaStatus.SYNCING
        self.restart_at_tick = None

    def is_degraded(self, tick: int) -> bool:
        return tick < self.degraded_until_tick

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def log_digest(self) -> str:
        """md5 of the canonical JSON op log (byte-identity checks)."""
        payload = json.dumps(self.log, sort_keys=True, default=str)
        return hashlib.md5(payload.encode("utf-8")).hexdigest()

    def describe(self) -> dict[str, Any]:
        return {
            "replica": self.replica_id,
            "status": self.status.value,
            "reachable": self.reachable,
            "applied": self.applied,
            "log_digest": self.log_digest(),
        }
