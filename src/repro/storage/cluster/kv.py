"""Sharded, replicated key-value store behind the ``KeyValueStore`` API.

Routing key is ``namespace + "\\x00" + key`` so a namespace's entries
spread across shards; namespace-wide operations (``keys``, ``clear``)
fan out.  Point reads are quorum reads; a ``put`` is a quorum append,
and a ``delete`` / ``clear`` one ``StoreCluster.write``: appended to
every shard it touches or to none.  The router remembers the shard of
each key it wrote (a cache of the ring's pure placement, so it is never
stale), and a point op on such a key does not hash.

TTL handling differs from the single-node store on purpose: replicas
never *evict* expired records (eviction timing would depend on read
order, breaking replay determinism) — expiry is a read-time filter at
the router, which owns the clock.  A ``delete`` / ``clear`` is only
appended where it is decided, under the shard's lock, that the key is
live or the shard holds the namespace, so replica logs stay a pure
function of the acked write sequence.
"""

from __future__ import annotations

from typing import Any, Iterator

from ...clock import SimClock
from ...errors import StorageError
from ..keyvalue.store import KeyValueStore
from .cluster import StoreCluster

_SEP = "\x00"


def _apply_kv(state: dict[str, dict[str, Any]], op: dict[str, Any]) -> Any:
    kind = op["op"]
    if kind == "put":
        bucket = state.setdefault(op["ns"], {})
        bucket[op["key"]] = {"value": op["value"], "expires_at": op["expires_at"]}
        return None
    if kind == "delete":
        bucket = state.get(op["ns"], {})
        return bucket.pop(op["key"], None) is not None
    if kind == "clear":
        return len(state.pop(op["ns"], {}))
    raise StorageError(f"unknown kv op: {kind}")


class ClusteredKeyValueStore(KeyValueStore):
    """Drop-in ``KeyValueStore`` facade over a :class:`StoreCluster`.

    Subclasses the single-node store purely for interface compatibility
    (``isinstance`` checks in the data executor); every operation routes
    through the cluster (``contains`` and ``describe`` through ``get`` and
    ``keys``).
    """

    def __init__(
        self,
        name: str,
        n_shards: int = 4,
        n_replicas: int = 3,
        clock: SimClock | None = None,
        seed: int = 0,
        description: str = "",
        **cluster_options: Any,
    ) -> None:
        super().__init__(name, clock=clock, description=description)
        self.cluster = StoreCluster(
            f"kv:{name}",
            n_shards,
            n_replicas,
            dict,
            _apply_kv,
            clock=self._clock,
            seed=seed,
            **cluster_options,
        )
        #: namespace -> key -> shard, for the keys this router wrote.
        self._placed: dict[str, dict[str, int]] = {}

    def _shard(self, namespace: str, key: str) -> int:
        """The shard owning *key*: remembered if written, else hashed."""
        placed = self._placed.get(namespace)
        shard = None if placed is None else placed.get(key)
        if shard is None:
            shard = self.cluster.shard_for(f"{namespace}{_SEP}{key}")
        return shard

    def _live(self, record: dict[str, Any] | None) -> bool:
        if record is None:
            return False
        deadline = record["expires_at"]
        return deadline is None or self._clock.now() < deadline

    # ------------------------------------------------------------------
    # KeyValueStore API
    # ------------------------------------------------------------------
    def put(self, namespace: str, key: str, value: Any, ttl: float | None = None) -> None:
        if ttl is not None and ttl <= 0:
            raise StorageError(f"ttl must be positive: {ttl}")
        expires_at = None if ttl is None else self._clock.now() + ttl
        shard = self._shard(namespace, key)
        self.cluster.append_to(
            shard,
            {
                "op": "put",
                "ns": namespace,
                "key": key,
                "value": value,
                "expires_at": expires_at,
            },
        )
        self._placed.setdefault(namespace, {})[key] = shard

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        state = self.cluster.quorum_state_of(self._shard(namespace, key))
        record = state.get(namespace, {}).get(key)
        if not self._live(record):
            return default
        return record["value"]

    def delete(self, namespace: str, key: str) -> bool:
        shard = self._shard(namespace, key)

        def live() -> list[bool]:
            state = self.cluster.quorum_state_of(shard)
            return [self._live(state.get(namespace, {}).get(key))]

        return any(self.cluster.write(
            [shard], live, lambda _: {"op": "delete", "ns": namespace, "key": key}
        ))

    def keys(self, namespace: str) -> list[str]:
        return [key for key, _ in self.items(namespace)]

    def items(self, namespace: str) -> Iterator[tuple[str, Any]]:
        pairs: list[tuple[str, Any]] = []
        for state in self.cluster.primary_states():
            bucket = state.get(namespace, {})
            pairs.extend(
                (k, rec["value"]) for k, rec in bucket.items() if self._live(rec)
            )
        yield from sorted(pairs, key=lambda pair: pair[0])

    def namespaces(self) -> list[str]:
        seen: set[str] = set()
        for state in self.cluster.primary_states():
            for ns, bucket in state.items():
                if ns not in seen and any(self._live(r) for r in bucket.values()):
                    seen.add(ns)
        return sorted(seen)

    def clear(self, namespace: str) -> int:
        live = len(self.keys(namespace))
        self._placed.pop(namespace, None)
        shards = self.cluster.ring.all_shards()
        self.cluster.write(
            shards,
            lambda: [namespace in self.cluster.primary_state(index) for index in shards],
            lambda _: {"op": "clear", "ns": namespace},
        )
        return live

    def describe(self) -> dict[str, Any]:
        return {**super().describe(), "cluster": self.cluster.describe()}

    # ------------------------------------------------------------------
    # Cluster plumbing
    # ------------------------------------------------------------------
    def tick(self, advance: float | None = None) -> None:
        self.cluster.tick(advance=advance)

    def export(self) -> dict[str, Any]:
        return self.cluster.export()
