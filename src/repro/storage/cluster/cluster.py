"""The cluster router: ring + shard groups + the deterministic tick loop.

:class:`StoreCluster` is the generic replicated-sharded engine the store
fronts (KV, document, relational, stream) delegate to.  It owns:

* the :class:`~repro.storage.cluster.ring.HashRing` routing keys to
  shards,
* one :class:`~repro.storage.cluster.shard.ShardGroup` per shard,
* the :class:`~repro.storage.cluster.failure.FailureDetector`, and
* :meth:`tick` — the cluster's control loop, advanced explicitly by the
  harness so every failover decision lands at a reproducible instant:

  1. dead replicas whose restart delay elapsed come back up (rebuild
     state from their durable log, enter SYNCING),
  2. expired network partitions heal,
  3. up, reachable replicas heartbeat at ``clock.now()``,
  4. the failure detector marks silent replicas suspected; shards whose
     primary is dead/partitioned/suspected promote a caught-up successor,
  5. a seeded anti-entropy sweep syncs one shard per tick (plus any
     shard with SYNCING replicas, so rejoins converge fast).

Chaos faults arrive through the hooks :meth:`kill_replica`,
:meth:`partition_shard`, and :meth:`degrade_replica`, driven by the
:class:`~repro.core.resilience.ChaosController`'s seeded rolls — same
seed and schedule, byte-identical :meth:`export`.  A kill or a partition
takes the cluster lock, then its shard's lock (the order :meth:`tick`
uses), so it lands before or after a :meth:`write`, never inside one.
"""

from __future__ import annotations

import hashlib
import json
import threading
from typing import Any, Callable, Sequence, TYPE_CHECKING

from ...clock import SimClock
from ...errors import StorageError
from .failure import FailureDetector
from .replica import ApplyFn, Replica, ReplicaStatus, StateFactory
from .ring import HashRing
from .shard import ShardGroup

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...observability import Observability


class StoreCluster:
    """N shards x R replicas with quorum I/O, failover, and anti-entropy."""

    def __init__(
        self,
        name: str,
        n_shards: int,
        n_replicas: int,
        state_factory: StateFactory,
        apply_fn: ApplyFn,
        clock: SimClock | None = None,
        seed: int = 0,
        heartbeat_interval: float = 1.0,
        suspicion_timeout: float = 3.0,
        restart_delay_ticks: int = 5,
        virtual_nodes: int = 64,
    ) -> None:
        self.name = name
        self.clock = clock or SimClock()
        self.seed = seed
        self.ring = HashRing(n_shards, virtual_nodes=virtual_nodes)
        self.heartbeat_interval = heartbeat_interval
        self.restart_delay_ticks = restart_delay_ticks
        self.detector = FailureDetector(suspicion_timeout)
        self.events: list[dict[str, Any]] = []
        self.tick_count = 0
        self.observability: "Observability | None" = None
        self._lock = threading.RLock()
        self.shards = [
            ShardGroup(
                index,
                n_replicas,
                state_factory,
                apply_fn,
                self.detector,
                self._event,
            )
            for index in range(n_shards)
        ]
        #: Active partitions: shard -> (replica indices hidden, heal tick).
        self._partitions: dict[int, tuple[tuple[int, ...], int]] = {}
        #: The latest tick any replica stays degraded until: no replica is
        #: degraded once ``tick_count`` reaches it.
        self._degraded_until = -1

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def n_shards(self) -> int:
        return len(self.shards)

    @property
    def n_replicas(self) -> int:
        return len(self.shards[0].replicas)

    def _metric(self, name: str, value: float = 1.0, **labels: Any) -> None:
        obs = self.observability
        if obs is not None:
            obs.metrics.inc(name, value, cluster=self.name, **labels)

    def _event(self, kind: str, **detail: Any) -> None:
        self.events.append(
            {
                "tick": self.tick_count,
                "time": self.clock.now(),
                "kind": kind,
                **detail,
            }
        )
        self._metric(f"cluster.{kind}")

    def replica_by_id(self, replica_id: str) -> Replica:
        try:
            shard_part, replica_part = replica_id.split(".", 1)
            return self.shards[int(shard_part[1:])].replica(int(replica_part[1:]))
        except (ValueError, IndexError):
            raise StorageError(
                f"no replica {replica_id!r} in cluster {self.name!r}"
            ) from None

    def all_replicas(self) -> list[Replica]:
        return [r for shard in self.shards for r in shard.replicas]

    # ------------------------------------------------------------------
    # Routing and I/O
    # ------------------------------------------------------------------
    def shard_for(self, key: str) -> int:
        return self.ring.shard_for(key)

    def append(self, key: str, op: dict[str, Any]) -> Any:
        """Quorum-append *op* to the shard owning *key*."""
        return self.append_to(self.shard_for(key), op)

    def append_to(self, shard_index: int, op: dict[str, Any]) -> Any:
        shard = self.shards[shard_index]
        self._charge_degraded(shard)
        result = shard.append(op)
        if self.observability is not None:
            self._metric("cluster.writes", shard=str(shard_index))
        return result

    def broadcast(self, op: dict[str, Any]) -> list[Any]:
        """Append *op* to every shard or to none (DDL: create collection / table / index)."""
        return self.write(range(self.n_shards), lambda: [op] * self.n_shards, lambda effect: effect)

    def write(
        self,
        shard_indices: Sequence[int],
        decide: Callable[[], Sequence[Any]],
        op_of: Callable[[Any], dict[str, Any]],
    ) -> list[Any]:
        """Under the listed shards' locks, taken in shard order: ``decide()``
        returns one effect per shard (or raises), every shard with a
        non-empty effect must have a quorum of acceptors, and only then is
        ``op_of(effect)`` appended to each.  Returns those appends' results."""
        locks = [self.shards[index]._lock for index in sorted(shard_indices)]
        for lock in locks:
            lock.acquire()
        try:
            decided = zip(shard_indices, decide(), strict=True)
            touched = [(index, effect) for index, effect in decided if effect]
            if len(touched) > 1:  # one shard's append checks its own quorum
                for index, _ in touched:
                    self.shards[index].acceptors()
            return [self.append_to(index, op_of(effect)) for index, effect in touched]
        finally:
            for lock in locks:
                lock.release()

    def scan_stats(
        self, shard_indices: Sequence[int], pruned: bool, **labels: Any
    ) -> dict[str, Any]:
        """Count one read fan-out as ``cluster.shards_scanned``; its summary."""
        self._metric("cluster.shards_scanned", float(len(shard_indices)), **labels)
        return {
            "shards_scanned": len(shard_indices),
            "shards_total": self.n_shards,
            "pruned": pruned,
        }

    def quorum_state(self, key: str) -> Any:
        """Majority-read state for the shard owning *key* (point reads)."""
        return self.quorum_state_of(self.shard_for(key))

    def quorum_state_of(self, shard_index: int) -> Any:
        shard = self.shards[shard_index]
        self._charge_degraded(shard)
        state = shard.quorum_state()
        if self.observability is not None:
            self._metric("cluster.quorum_reads", shard=str(shard_index))
        return state

    def primary_state(self, shard_index: int) -> Any:
        """The primary's state for scans (promotes on unhealthy primary)."""
        shard = self.shards[shard_index]
        self._charge_degraded(shard)
        state = shard.primary().state
        if self.observability is not None:
            self._metric("cluster.scan_reads", shard=str(shard_index))
        return state

    def primary_states(self, shard_indices: list[int] | None = None) -> list[Any]:
        """Primary states for a scan fan-out (all shards when None)."""
        indices = (
            list(shard_indices) if shard_indices is not None else self.ring.all_shards()
        )
        return [self.primary_state(index) for index in indices]

    def _charge_degraded(self, shard: ShardGroup) -> None:
        """Account degraded-replica latency on ops touching the shard.

        O(1) while no replica of the cluster is degraded."""
        if self.tick_count >= self._degraded_until:
            return
        for replica in shard.replicas:
            if replica.is_degraded(self.tick_count):
                self._metric(
                    "cluster.degraded_ops", shard=str(shard.shard_index)
                )
                obs = self.observability
                if obs is not None:
                    obs.metrics.observe(
                        "cluster.degraded_latency", replica.degraded_seconds
                    )

    # ------------------------------------------------------------------
    # Chaos fault hooks
    # ------------------------------------------------------------------
    def kill_replica(self, replica_id: str) -> None:
        """Crash a replica; it restarts ``restart_delay_ticks`` later."""
        replica = self.replica_by_id(replica_id)
        with self._lock, self.shards[replica.shard_index]._lock:
            if replica.status is ReplicaStatus.DEAD:
                return
            replica.kill(restart_at_tick=self.tick_count + self.restart_delay_ticks)
            self.detector.forget(replica_id)
            self._event("replica_kill", replica=replica_id, shard=replica.shard_index)

    def partition_shard(
        self, shard_index: int, replica_indices: tuple[int, ...], ticks: int
    ) -> None:
        """Hide a minority of a shard's replicas from the router."""
        shard = self.shards[shard_index]
        members = tuple(
            sorted(set(replica_indices))[: (len(shard.replicas) - shard.quorum)]
        )
        if not members or ticks <= 0:
            return
        with self._lock, shard._lock:
            # A re-partition replaces the active one: heal the old members
            # first, or those not in the new set would stay unreachable
            # forever (their heal entry is about to be overwritten).
            previous = self._partitions.get(shard_index)
            if previous is not None:
                for index in previous[0]:
                    shard.replica(index).reachable = True
            for index in members:
                shard.replica(index).reachable = False
            self._partitions[shard_index] = (members, self.tick_count + ticks)
            self._event(
                "shard_partition",
                shard=shard_index,
                replicas=[shard.replica(i).replica_id for i in members],
                heals_at_tick=self.tick_count + ticks,
            )

    def degrade_replica(self, replica_id: str, seconds: float, ticks: int) -> None:
        """Inject extra latency on a replica's shard for *ticks* ticks."""
        replica = self.replica_by_id(replica_id)
        replica.degraded_seconds = seconds
        replica.degraded_until_tick = self.tick_count + ticks
        self._degraded_until = max(self._degraded_until, replica.degraded_until_tick)
        self._event(
            "replica_degraded", replica=replica_id, seconds=seconds, ticks=ticks
        )

    # ------------------------------------------------------------------
    # The control loop
    # ------------------------------------------------------------------
    def tick(self, advance: float | None = None) -> None:
        """One control-loop step (see module docstring for the phases).

        Advances the clock by *advance* simulated seconds (default: the
        heartbeat interval).  Pass ``advance=0.0`` when an outer harness
        owns the clock.
        """
        with self._lock:
            self.tick_count += 1
            self.clock.advance(
                self.heartbeat_interval if advance is None else advance
            )
            now = self.clock.now()
            # 1. restarts
            for replica in self.all_replicas():
                if (
                    replica.status is ReplicaStatus.DEAD
                    and replica.restart_at_tick is not None
                    and replica.restart_at_tick <= self.tick_count
                ):
                    replica.begin_restart()
                    self._event(
                        "replica_restart",
                        replica=replica.replica_id,
                        shard=replica.shard_index,
                        replayed=replica.applied,
                    )
            # 2. partition heals
            for shard_index in sorted(self._partitions):
                members, heal_at = self._partitions[shard_index]
                if heal_at <= self.tick_count:
                    shard = self.shards[shard_index]
                    for index in members:
                        shard.replica(index).reachable = True
                    del self._partitions[shard_index]
                    self._event("partition_heal", shard=shard_index)
            # 3. heartbeats (before suspicion: a beat at the deadline rescues)
            for replica in self.all_replicas():
                if replica.status is not ReplicaStatus.DEAD and replica.reachable:
                    self.detector.beat(replica.replica_id, now)
            # 4. failover
            for shard in self.shards:
                primary = shard.replicas[shard.primary_index]
                if (
                    primary.status is not ReplicaStatus.ALIVE
                    or not primary.reachable
                    or self.detector.suspects(primary.replica_id, now)
                ):
                    try:
                        shard.promote(now=now)
                    except Exception:
                        # No caught-up live replica yet; retried next tick.
                        self._metric(
                            "cluster.promotion_unavailable",
                            shard=str(shard.shard_index),
                        )
            # 5. seeded anti-entropy sweep
            swept = self._sweep_target()
            for shard in self.shards:
                if shard.shard_index == swept or shard.has_syncing():
                    replayed = shard.sync_all()
                    if replayed:
                        self._metric(
                            "cluster.anti_entropy_ops",
                            float(replayed),
                            shard=str(shard.shard_index),
                        )

    def _sweep_target(self) -> int:
        """Which shard this tick's seeded anti-entropy sweep visits."""
        digest = hashlib.md5(
            f"{self.seed}|sweep|{self.tick_count}".encode("utf-8")
        ).digest()
        return int.from_bytes(digest[:8], "little") % self.n_shards

    def settle(self, ticks: int | None = None, advance: float | None = None) -> None:
        """Tick until every replica is ALIVE and caught up (or *ticks* runs out).

        Test/bench convenience for "let the cluster heal" phases.
        """
        budget = ticks if ticks is not None else self.restart_delay_ticks + self.n_shards + 2
        for _ in range(budget):
            if all(
                r.status is ReplicaStatus.ALIVE
                and r.reachable
                and r.applied == self.shards[r.shard_index].acked
                for r in self.all_replicas()
            ):
                return
            self.tick(advance=advance)

    # ------------------------------------------------------------------
    # Export
    # ------------------------------------------------------------------
    def export(self) -> dict[str, Any]:
        """Deterministic JSON-able snapshot: topology, logs, and events."""
        return {
            "cluster": self.name,
            "seed": self.seed,
            "n_shards": self.n_shards,
            "n_replicas": self.n_replicas,
            "tick": self.tick_count,
            "clock": self.clock.now(),
            "shards": [shard.describe() for shard in self.shards],
            "events": list(self.events),
        }

    def export_json(self) -> str:
        return json.dumps(self.export(), sort_keys=True, default=str)

    def describe(self) -> dict[str, Any]:
        kinds: dict[str, int] = {}
        for event in self.events:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        return {
            "cluster": self.name,
            "shards": self.n_shards,
            "replicas": self.n_replicas,
            "quorum": self.shards[0].quorum,
            "tick": self.tick_count,
            "acked": [shard.acked for shard in self.shards],
            "events": kinds,
        }
