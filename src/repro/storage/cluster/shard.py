"""A shard group: R replicas, quorum appends/reads, failover.

The protocol is primary-backup with majority quorums over a *fixed*
membership of R replicas (quorum = ``R // 2 + 1``):

* **Append** — the router (the sole sequencer) offers the op to every
  replica whose log is at the canonical next sequence (:meth:`acceptors`);
  if fewer than a quorum can accept, the append raises
  :class:`~repro.errors.ClusterUnavailableError` *without touching any
  replica*, so logs never diverge and un-acked partial writes cannot
  masquerade as data.  An acked append therefore lives on >= quorum
  replicas.  The router decides a write's effect before it appends
  (``StoreCluster.write``); an op the state machine still refuses raises
  at the first acceptor, which applies before it logs: nothing is logged.
* **Quorum read** — reads the quorum of live replicas with the longest
  logs; since any two majorities of the same R-set intersect, the
  longest log in a read quorum always contains the latest acked append.
  Lagging quorum members are read-repaired (suffix replay) on the way.
* **Scan read** — full scans go to the primary.  :meth:`primary` checks
  health first and promotes a caught-up successor if the primary is
  dead, partitioned, or suspected — promotion is serialized under the
  group lock and re-checked inside it, so concurrent scanners under the
  thread backend cannot double-promote.
* **Anti-entropy** — :meth:`sync_all` replays the longest live log onto
  every lagging or SYNCING replica; a synced replica rejoins the
  acceptor/quorum sets.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ...errors import ClusterUnavailableError
from .failure import FailureDetector
from .replica import ApplyFn, Replica, ReplicaStatus, StateFactory

EventFn = Callable[..., None]  # (kind, **detail)
_ALIVE = ReplicaStatus.ALIVE


class ShardGroup:
    """One shard's replica set plus its quorum/failover protocol."""

    def __init__(
        self,
        shard_index: int,
        n_replicas: int,
        state_factory: StateFactory,
        apply_fn: ApplyFn,
        detector: FailureDetector,
        record_event: EventFn,
    ) -> None:
        if n_replicas < 1:
            raise ValueError(f"n_replicas must be >= 1: {n_replicas}")
        self.shard_index = shard_index
        self.replicas = [
            Replica(f"s{shard_index}.r{i}", shard_index, i, state_factory, apply_fn)
            for i in range(n_replicas)
        ]
        self.quorum = n_replicas // 2 + 1
        self.primary_index = 0
        #: Canonical history length == highest acked sequence.  The two
        #: never diverge because appends are all-or-nothing: an append
        #: either reaches every accepting replica (>= quorum) and is
        #: acked, or touches none and raises.
        self.acked = 0
        self.read_repairs = 0
        self.promotions = 0
        self._detector = detector
        self._record = record_event
        self._lock = threading.RLock()

    # ------------------------------------------------------------------
    # Membership views
    # ------------------------------------------------------------------
    def replica(self, index: int) -> Replica:
        return self.replicas[index]

    def _contactable(self) -> list[Replica]:
        """Replicas the router can currently reach (ALIVE and not partitioned)."""
        return [
            r
            for r in self.replicas
            if r.status is ReplicaStatus.ALIVE and r.reachable
        ]

    # ------------------------------------------------------------------
    # Writes
    # ------------------------------------------------------------------
    def append(self, op: dict[str, Any]) -> Any:
        """Quorum-append *op* to the :meth:`acceptors`; returns the first
        one's apply result.  An op its state machine refuses raises there,
        and no replica logs it."""
        with self._lock:
            results = [replica.append(op) for replica in self.acceptors()]
            self.acked += 1
            return results[0]

    def acceptors(self) -> list[Replica]:
        """The replicas the next append reaches: those whose log is at the
        acked sequence.  Raises ``ClusterUnavailableError`` when fewer than
        a quorum are; call it under the group lock."""
        acceptors = [r for r in self.replicas if r.can_accept(self.acked)]
        if len(acceptors) < self.quorum:
            raise ClusterUnavailableError(
                f"shard {self.shard_index}: {len(acceptors)} of "
                f"{len(self.replicas)} replicas accepting, quorum is "
                f"{self.quorum}"
            )
        return acceptors

    # ------------------------------------------------------------------
    # Reads
    # ------------------------------------------------------------------
    def quorum_state(self) -> Any:
        """State observed by a majority read (always >= latest acked).

        Reads the quorum with the longest logs; repairs lagging members.
        In the steady state — the first ``quorum`` contactable replicas in
        index order all hold every acked op — the ``(-applied, index)``
        sort would pick exactly those, with no repair and no error, so the
        first one's state is returned without sorting.
        """
        with self._lock:
            acked, needed = self.acked, self.quorum
            first = None
            for replica in self.replicas:
                if replica.status is _ALIVE and replica.reachable:
                    if len(replica.log) != acked:
                        break
                    if first is None:
                        first = replica
                    needed -= 1
                    if not needed:
                        return first.state
            candidates = sorted(
                self._contactable(), key=lambda r: (-r.applied, r.index)
            )
            if len(candidates) < self.quorum:
                raise ClusterUnavailableError(
                    f"shard {self.shard_index}: {len(candidates)} live "
                    f"replicas, read quorum is {self.quorum}"
                )
            readers = candidates[: self.quorum]
            best = readers[0]
            if best.applied < self.acked:
                raise ClusterUnavailableError(
                    f"shard {self.shard_index}: freshest live replica at "
                    f"seq {best.applied} < acked {self.acked}"
                )
            for lagging in readers[1:]:
                if lagging.applied < best.applied:
                    self.read_repairs += lagging.catch_up(best)
                    self._record(
                        "read_repair",
                        shard=self.shard_index,
                        replica=lagging.replica_id,
                        caught_up_to=best.applied,
                    )
            return best.state

    def primary(self) -> Replica:
        """The healthy, caught-up primary — promoting one if necessary."""
        return self.promote()

    def promote(self, now: float | None = None) -> Replica:
        """Elect the most caught-up live replica as primary.

        Serialized and re-checked under the group lock: two concurrent
        callers observing a dead primary produce exactly one promotion.
        """
        with self._lock:
            current = self.replicas[self.primary_index]
            if (
                current.status is ReplicaStatus.ALIVE
                and current.reachable
                and current.applied >= self.acked
                and (now is None or not self._detector.suspects(current.replica_id, now))
            ):
                return current  # a racing caller already promoted
            candidates = sorted(
                (
                    r
                    for r in self._contactable()
                    if now is None
                    or not self._detector.suspects(r.replica_id, now)
                ),
                key=lambda r: (-r.applied, r.index),
            )
            if not candidates or candidates[0].applied < self.acked:
                raise ClusterUnavailableError(
                    f"shard {self.shard_index}: no caught-up live replica "
                    f"to promote (acked {self.acked})"
                )
            elected = candidates[0]
            if elected.index != self.primary_index:
                self.promotions += 1
                self._record(
                    "promotion",
                    shard=self.shard_index,
                    old_primary=current.replica_id,
                    new_primary=elected.replica_id,
                    at_seq=elected.applied,
                )
                self.primary_index = elected.index
            return elected

    # ------------------------------------------------------------------
    # Anti-entropy
    # ------------------------------------------------------------------
    def sync_all(self) -> int:
        """Replay the longest live log onto every lagging/SYNCING replica.

        Returns the number of ops replayed across replicas.  SYNCING
        replicas that reach the donor's length rejoin as ALIVE.
        """
        with self._lock:
            up = [
                r
                for r in self.replicas
                if r.status is not ReplicaStatus.DEAD and r.reachable
            ]
            if not up:
                return 0
            donor = max(up, key=lambda r: (r.applied, -r.index))
            if donor.applied < self.acked:
                # Every holder of the acked tail is currently down; wait
                # for one to restart rather than resurrect stale data.
                return 0
            replayed = 0
            for replica in up:
                if replica is donor:
                    pass
                elif replica.applied < donor.applied:
                    replayed += replica.catch_up(donor)
                    self._record(
                        "anti_entropy",
                        shard=self.shard_index,
                        replica=replica.replica_id,
                        caught_up_to=donor.applied,
                    )
                if (
                    replica.status is ReplicaStatus.SYNCING
                    and replica.applied >= donor.applied
                ):
                    replica.status = ReplicaStatus.ALIVE
                    self._record(
                        "rejoin", shard=self.shard_index, replica=replica.replica_id
                    )
            return replayed

    def has_syncing(self) -> bool:
        return any(r.status is ReplicaStatus.SYNCING for r in self.replicas)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def describe(self) -> dict[str, Any]:
        return {
            "shard": self.shard_index,
            "primary": self.replicas[self.primary_index].replica_id,
            "acked": self.acked,
            "quorum": self.quorum,
            "read_repairs": self.read_repairs,
            "promotions": self.promotions,
            "replicas": [r.describe() for r in self.replicas],
        }
