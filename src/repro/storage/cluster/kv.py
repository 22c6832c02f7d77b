"""Sharded, replicated key-value store behind the ``KeyValueStore`` API.

Routing key is ``namespace + "\\x00" + key`` so a namespace's entries
spread across shards; namespace-wide operations (``keys``, ``clear``)
fan out.  Point reads are quorum reads; writes are quorum appends.  The
router remembers the shard of each key it wrote (a cache of the ring's
pure placement, so it is never stale), and a point op on such a key
does not hash.

TTL handling differs from the single-node store on purpose: replicas
never *evict* expired records (eviction timing would depend on read
order, breaking replay determinism) — expiry is a read-time filter at
the router, which owns the clock.  A ``delete``/``clear`` is only
appended for keys that are currently live, so replica logs stay a pure
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
    (``isinstance`` checks in the data executor); every operation is
    overridden to route through the cluster.
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

    def contains(self, namespace: str, key: str) -> bool:
        sentinel = object()
        return self.get(namespace, key, sentinel) is not sentinel

    def delete(self, namespace: str, key: str) -> bool:
        shard = self._shard(namespace, key)
        state = self.cluster.quorum_state_of(shard)
        if not self._live(state.get(namespace, {}).get(key)):
            return False
        return bool(
            self.cluster.append_to(
                shard, {"op": "delete", "ns": namespace, "key": key}
            )
        )

    def keys(self, namespace: str) -> list[str]:
        found: list[str] = []
        for state in self.cluster.primary_states():
            bucket = state.get(namespace, {})
            found.extend(k for k, rec in bucket.items() if self._live(rec))
        return sorted(found)

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
        for index in self.cluster.ring.all_shards():
            state = self.cluster.primary_state(index)
            if namespace in state:
                self.cluster.append_to(
                    index, {"op": "clear", "ns": namespace}
                )
        return live

    def describe(self) -> dict[str, Any]:
        return {
            "store": self.name,
            "description": self.description,
            "namespaces": {ns: len(self.keys(ns)) for ns in self.namespaces()},
            "cluster": self.cluster.describe(),
        }

    # ------------------------------------------------------------------
    # Cluster plumbing
    # ------------------------------------------------------------------
    def tick(self, advance: float | None = None) -> None:
        self.cluster.tick(advance=advance)

    def export(self) -> dict[str, Any]:
        return self.cluster.export()
