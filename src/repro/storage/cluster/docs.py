"""Sharded, replicated document store with partition-aware find pruning.

Each replica's state is a full :class:`~repro.storage.document.DocumentStore`
holding that shard's slice of every collection.  A collection may declare a
``partition_field``; documents route by ``"{collection}|{partition_value}"``
(falling back to the document id), so equality/``$in`` filters on the
partition field prune the find fan-out to exactly the owning shards —
the mechanism behind the bench's sub-linear query latency.

:class:`ClusteredCollection` subclasses :class:`Collection` purely for
interface compatibility (``isinstance`` checks in the data executor);
every operation is overridden to route through the cluster:

* point ops (``insert``, ``get``) go to the owning shard — quorum append
  / quorum read;
* ``find`` prunes shards when it can, pushes sort+limit down to each
  shard's primary, then re-merges (sort, limit, project) at the router;
* ``update``/``delete`` fan out as quorum appends to the pruned shards.

A document's placement is fixed at insert time: updating the partition
field does *not* migrate it (matching common sharded stores, where the
shard key is immutable).
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping, Sequence

from ...clock import SimClock
from ...errors import QueryError, StorageError
from ...ids import IdGenerator
from ..document.query import get_path
from ..document.store import Collection, DocumentStore, _sortable
from .cluster import StoreCluster


def _make_store() -> DocumentStore:
    return DocumentStore("shard")


def _apply_docs(state: DocumentStore, op: dict[str, Any]) -> Any:
    kind = op["op"]
    if kind == "create_collection":
        if not state.has_collection(op["name"]):
            state.create_collection(op["name"], op.get("description", ""))
        return None
    collection = state.collection(op["collection"])
    if kind == "insert":
        return collection.insert(op["document"], doc_id=op["doc_id"])
    if kind == "insert_many":
        for document, doc_id in zip(op["documents"], op["doc_ids"]):
            collection.insert(document, doc_id=doc_id)
        return len(op["doc_ids"])
    if kind == "update":
        return collection.update(op["filter"], op["changes"])
    if kind == "delete":
        return collection.delete(op["filter"])
    if kind == "create_index":
        collection.create_index(op["field"])
        return None
    raise StorageError(f"unknown document op: {kind}")


class ClusteredCollection(Collection):
    """Router facade for one collection spread across the cluster."""

    def __init__(
        self,
        store: "ClusteredDocumentStore",
        name: str,
        description: str = "",
        partition_field: str | None = None,
    ) -> None:
        super().__init__(name, description)
        self._store = store
        self._cluster = store.cluster
        self.partition_field = partition_field
        self._router_ids = IdGenerator()
        self._doc_shard: dict[str, int] = {}
        self._router_lock = threading.RLock()
        #: Stats of the most recent :meth:`find` — surfaced as span
        #: attributes by the data executor and asserted on by the bench.
        self.last_find_stats: dict[str, Any] = {}

    # ------------------------------------------------------------------
    # Routing
    # ------------------------------------------------------------------
    def _route_value(self, document: Mapping[str, Any], doc_id: str) -> Any:
        if self.partition_field is not None:
            value = document.get(self.partition_field)
            if value is not None:
                return value
        return doc_id

    def _route(self, partition_value: Any) -> str:
        return f"{self.name}|{partition_value}"

    def shards_for_filter(
        self, filter_spec: Mapping[str, Any] | None
    ) -> tuple[list[int], bool]:
        """Shards a filter can touch, plus whether pruning applied."""
        ring = self._cluster.ring
        if filter_spec:
            doc_id = filter_spec.get("_id")
            if isinstance(doc_id, str):
                with self._router_lock:
                    shard = self._doc_shard.get(doc_id)
                if shard is not None:
                    return [shard], True
            if self.partition_field is not None:
                condition = filter_spec.get(self.partition_field)
                values: list[Any] | None = None
                if isinstance(condition, Mapping):
                    if "$eq" in condition:
                        values = [condition["$eq"]]
                    elif "$in" in condition:
                        values = list(condition["$in"])
                elif condition is not None:
                    values = [condition]
                if values is not None:
                    return (
                        ring.shards_for(self._route(v) for v in values),
                        True,
                    )
        return ring.all_shards(), False

    def _shard_collection(self, state: DocumentStore) -> Collection | None:
        return state.collection(self.name) if state.has_collection(self.name) else None

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, document: Mapping[str, Any], doc_id: str | None = None) -> str:
        with self._router_lock:
            if doc_id is None:
                doc_id = self._router_ids.next("doc")
            shard = self._cluster.shard_for(
                self._route(self._route_value(document, doc_id))
            )
        self._cluster.append_to(
            shard,
            {
                "op": "insert",
                "collection": self.name,
                "document": dict(document),
                "doc_id": doc_id,
            },
        )
        with self._router_lock:
            self._doc_shard[doc_id] = shard
        return doc_id

    def insert_many(
        self,
        documents: Iterable[Mapping[str, Any]],
        doc_ids: Iterable[str] | None = None,
    ) -> list[str]:
        """Bulk insert, batched into one quorum append per touched shard."""
        explicit = iter(doc_ids) if doc_ids is not None else None
        batches: dict[int, tuple[list[dict[str, Any]], list[str]]] = {}
        assigned: list[str] = []
        with self._router_lock:
            for document in documents:
                doc_id = (
                    next(explicit)
                    if explicit is not None
                    else self._router_ids.next("doc")
                )
                shard = self._cluster.shard_for(
                    self._route(self._route_value(document, doc_id))
                )
                docs, ids = batches.setdefault(shard, ([], []))
                docs.append(dict(document))
                ids.append(doc_id)
                assigned.append(doc_id)
        for shard in sorted(batches):
            docs, ids = batches[shard]
            self._cluster.append_to(
                shard,
                {
                    "op": "insert_many",
                    "collection": self.name,
                    "documents": docs,
                    "doc_ids": ids,
                },
            )
            with self._router_lock:
                for doc_id in ids:
                    self._doc_shard[doc_id] = shard
        return assigned

    def update(self, filter_spec: Mapping[str, Any], changes: Mapping[str, Any]) -> int:
        if "_id" in changes:
            raise StorageError("cannot change _id")
        shards, _ = self.shards_for_filter(filter_spec)
        return self._cluster.append_each(
            shards,
            {
                "op": "update",
                "collection": self.name,
                "filter": dict(filter_spec),
                "changes": dict(changes),
            },
        )

    def delete(self, filter_spec: Mapping[str, Any]) -> int:
        shards, _ = self.shards_for_filter(filter_spec)
        return self._cluster.append_each(
            shards,
            {"op": "delete", "collection": self.name, "filter": dict(filter_spec)},
        )

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------
    def find(
        self,
        filter_spec: Mapping[str, Any] | None = None,
        fields: Sequence[str] | None = None,
        sort: str | None = None,
        descending: bool = False,
        limit: int | None = None,
        shards: Sequence[int] | None = None,
    ) -> list[dict[str, Any]]:
        """Fan out to shard primaries, merge, and re-sort at the router.

        *shards* lets the planner pass a pre-computed pruning decision
        (``params["shards"]``); otherwise the filter is pruned here.
        """
        if shards is not None:
            indices, pruned = sorted(set(shards)), True
        else:
            indices, pruned = self.shards_for_filter(filter_spec)
        results: list[dict[str, Any]] = []
        docs_scanned = 0
        for state in self._cluster.primary_states(list(indices)):
            collection = self._shard_collection(state)
            if collection is None:
                continue
            docs_scanned += len(collection)
            # Push sort+limit down: top-k per shard is a superset of the
            # global top-k.  Projection waits for the router (the merge
            # sort needs the sort field).
            results.extend(
                collection.find(
                    filter_spec, sort=sort, descending=descending, limit=limit
                )
            )
        if sort is not None and len(indices) > 1:
            results.sort(key=lambda d: _sortable(get_path(d, sort)), reverse=descending)
        if limit is not None:
            results = results[:limit]
        if fields is not None:
            from ..document.query import project

            results = [project(document, fields) for document in results]
        self.last_find_stats = {
            **self._cluster.scan_stats(indices, pruned, collection=self.name),
            "docs_scanned": docs_scanned,
            "rows": len(results),
        }
        self._cluster._metric(
            "cluster.docs_scanned", float(docs_scanned), collection=self.name
        )
        return results

    def get(self, doc_id: str) -> dict[str, Any]:
        with self._router_lock:
            shard = self._doc_shard.get(doc_id)
        if shard is not None:
            state = self._cluster.quorum_state_of(shard)
            collection = self._shard_collection(state)
            if collection is not None:
                return collection.get(doc_id)
        for state in self._cluster.primary_states():
            collection = self._shard_collection(state)
            if collection is None:
                continue
            try:
                return collection.get(doc_id)
            except QueryError:
                continue
        raise QueryError(f"no document with id {doc_id!r} in {self.name!r}")

    def __len__(self) -> int:
        total = 0
        for state in self._cluster.primary_states():
            collection = self._shard_collection(state)
            if collection is not None:
                total += len(collection)
        return total

    # ------------------------------------------------------------------
    # Field indices
    # ------------------------------------------------------------------
    def create_index(self, field: str) -> None:
        self._cluster.broadcast(
            {"op": "create_index", "collection": self.name, "field": field}
        )

    def indexed_fields(self) -> list[str]:
        state = self._cluster.primary_state(0)
        collection = self._shard_collection(state)
        return collection.indexed_fields() if collection is not None else []


class ClusteredDocumentStore(DocumentStore):
    """Sharded ``DocumentStore`` facade: one cluster, many collections."""

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
        super().__init__(name, description)
        self._clock = clock or SimClock()
        self.cluster = StoreCluster(
            f"docs:{name}",
            n_shards,
            n_replicas,
            _make_store,
            _apply_docs,
            clock=self._clock,
            seed=seed,
            **cluster_options,
        )
        self._fronts: dict[str, ClusteredCollection] = {}

    def create_collection(
        self,
        name: str,
        description: str = "",
        partition_field: str | None = None,
    ) -> ClusteredCollection:
        with self._lock:
            if name in self._fronts:
                raise StorageError(f"collection already exists: {name!r}")
            self.cluster.broadcast(
                {"op": "create_collection", "name": name, "description": description}
            )
            front = ClusteredCollection(
                self, name, description, partition_field=partition_field
            )
            self._fronts[name] = front
            return front

    def collection(self, name: str) -> ClusteredCollection:
        with self._lock:
            front = self._fronts.get(name)
        if front is None:
            raise StorageError(f"unknown collection: {name!r} in store {self.name!r}")
        return front

    def has_collection(self, name: str) -> bool:
        with self._lock:
            return name in self._fronts

    def collection_names(self) -> list[str]:
        with self._lock:
            return sorted(self._fronts)

    def describe(self) -> dict[str, Any]:
        return {
            "store": self.name,
            "description": self.description,
            "collections": [
                {
                    "name": front.name,
                    "description": front.description,
                    "documents": len(front),
                    "indexed_fields": front.indexed_fields(),
                    "partition_field": front.partition_field,
                }
                for front in (self.collection(n) for n in self.collection_names())
            ],
            "cluster": self.cluster.describe(),
        }

    def tick(self, advance: float | None = None) -> None:
        self.cluster.tick(advance=advance)

    def export(self) -> dict[str, Any]:
        return self.cluster.export()
