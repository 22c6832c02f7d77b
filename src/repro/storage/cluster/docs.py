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

* ``get`` goes to the owning shard — a quorum read; an unplaced id raises;
* ``find`` prunes shards when it can and hands their primaries' slices to
  the one find path (``document.store.find_selection``), which reads them as one
  collection in shard order — so it returns what a single-node
  ``Collection`` holding the same documents returns; ``count`` and
  ``distinct`` read the same slices and leave ``last_find_stats`` alone;
* every write is one ``StoreCluster.write``: ``insert_many`` logs each
  document's read-only stored form, built once at the router; ``update`` /
  ``delete`` log the effect decided on the pruned primaries' slices.

The placement map (``_doc_shard``) is under the collection's own lock, a
leaf lock: no shard lock is taken while it is held.

A document's placement is fixed at insert time, so the shard key is
immutable (as in common sharded stores): an ``update`` naming the
partition field is refused, as is an ``insert`` of an id the router has
placed.  A ``None`` or absent partition value routes by document id, so a
filter pinning the field to ``None`` prunes nothing and fans out.
"""

from __future__ import annotations

from typing import Any, Callable, Iterable, Mapping, Sequence

from ...clock import SimClock
from ...errors import QueryError, StorageError
from ..document.query import compile_where, sargable
from ..document.store import Collection, DocumentStore, Selection, StoredDocument, find_selection
from ..relational.index import partition_values
from .cluster import StoreCluster
from .ring import routing_key


def _make_store() -> DocumentStore:
    return DocumentStore("shard")


def _apply_docs(state: DocumentStore, op: dict[str, Any]) -> Any:
    kind = op["op"]
    if kind == "create_collection":
        if not state.has_collection(op["name"]):
            state.create_collection(op["name"], op.get("description", ""))
        return None
    collection = state.collection(op["collection"])
    if kind == "insert_many":  # the router's stored documents, shared with the log
        return len(collection._heap.insert_many(op["documents"]))
    if kind == "replace_rows":  # the router's decided images, shared with the log
        return collection._heap.put(op["rows"])
    if kind == "remove_rows":  # the router's decided row ids
        return collection._heap.drop(op["rows"])
    if kind == "create_index":
        collection.create_index(op["field"], kind=op["kind"])
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
        self._cluster = store.cluster
        self.partition_field = partition_field
        #: The shard each stored id, or one being inserted, is placed on
        #: (under the inherited lock).
        self._doc_shard: dict[str, int] = {}
        #: Stats of the most recent :meth:`find`, for tests, benches and the
        #: ``repro shard`` demo to read.
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
        return routing_key(self.name, partition_value)

    def shards_for_filter(
        self, filter_spec: Mapping[str, Any] | None
    ) -> tuple[list[int], bool]:
        """Shards a filter can touch, plus whether pruning applied."""
        filter_spec = filter_spec or {}
        doc_id = filter_spec.get("_id")
        if isinstance(doc_id, str):
            with self._lock:
                shard = self._doc_shard.get(doc_id)
            if shard is not None:
                return [shard], True
        ring = self._cluster.ring
        values = partition_values(sargable(filter_spec), self.partition_field)
        # A None partition value was routed by document id, not by value.
        if values is not None and all(v is not None for v in values):
            return ring.shards_for(self._route(v) for v in values), True
        return ring.all_shards(), False

    def _slices(self, indices: list[int] | None = None) -> list[Collection]:
        """The listed shards' primaries' slices (every shard's when None)."""
        states = self._cluster.primary_states(indices)
        slices = (state.get_collection(self.name) for state in states)
        return [c for c in slices if c is not None]

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, document: Mapping[str, Any], doc_id: str | None = None) -> str:
        return self.insert_many([document], None if doc_id is None else [doc_id])[0]

    def insert_many(
        self,
        documents: Iterable[Mapping[str, Any]],
        doc_ids: Iterable[str] | None = None,
    ) -> list[str]:
        """Build each document's stored form once, here — the log and every
        replica of its shard share it.  Every id is checked and reserved in
        one critical section, and freed again if the write is refused."""
        documents = list(documents)
        with self._lock:
            ids = [self._ids.next("doc") for _ in documents] if doc_ids is None else list(doc_ids)
            if len(ids) != len(documents):
                raise StorageError(f"{len(documents)} documents but {len(ids)} document ids")
            seen: set[str] = set()
            for doc_id in ids:
                if doc_id in seen or doc_id in self._doc_shard:
                    raise StorageError(f"duplicate document id: {doc_id!r}")
                seen.add(doc_id)
            routes = map(self._route, map(self._route_value, documents, ids))
            batches = self._cluster.ring.positions_by_shard(routes)
            self._doc_shard.update((ids[i], shard) for shard, batch in batches for i in batch)
        try:
            # A shard's documents are built together, so they lie together in
            # memory: built in input order, the shards' documents interleave
            # and scans slow.
            stored = {
                shard: [StoredDocument(documents[i], _id=ids[i]) for i in batch]
                for shard, batch in batches
            }
            self._cluster.write(
                list(stored), lambda: list(stored.values()),
                lambda batch: {"op": "insert_many", "collection": self.name, "documents": batch},
            )
        except BaseException:
            with self._lock:
                for doc_id in ids:
                    del self._doc_shard[doc_id]
            raise
        return ids

    def update(self, filter_spec: Mapping[str, Any], changes: Mapping[str, Any]) -> int:
        conjuncts, residual, change = self._update(filter_spec, changes)
        if self.partition_field in changes:  # placement is fixed at insert
            raise StorageError(f"cannot change partition field {self.partition_field!r}")
        return self._write(
            filter_spec, "replace_rows", lambda heap: heap.images(conjuncts, residual, change)
        )

    def delete(self, filter_spec: Mapping[str, Any]) -> int:
        conjuncts, residual = compile_where(filter_spec)
        return self._write(
            filter_spec, "remove_rows", lambda heap: heap.matching(conjuncts, residual)
        )

    def _write(self, filter_spec: Mapping[str, Any], kind: str, decide: Callable) -> int:
        """Decide a write on each pruned shard's primary slice; a delete's
        ids then leave the placement map."""
        shards, _ = self.shards_for_filter(filter_spec)
        gone: list[str] = []

        def effects() -> list[Any]:
            heaps = [collection._heap for collection in self._slices(shards)]
            decided = list(map(decide, heaps))
            if kind == "remove_rows":
                gone.extend(heap._rows[row_id]["_id"] for heap, row_ids in zip(heaps, decided)
                            for row_id in row_ids)
            return decided

        written = self._cluster.write(
            shards, effects, lambda effect: {"op": kind, "collection": self.name, "rows": effect}
        )
        with self._lock:
            for doc_id in gone:
                del self._doc_shard[doc_id]
        return sum(written)

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
    ) -> list[dict[str, Any]]:
        """One ``find`` over the pruned shard primaries' slices, in shard order."""
        indices, pruned = self.shards_for_filter(filter_spec)
        slices = self._slices(indices)
        results, examined, tested, indexed = find_selection(
            slices, filter_spec, fields, sort, descending, limit
        )
        docs_scanned = sum(map(len, slices))
        self.last_find_stats = {
            **self._cluster.scan_stats(indices, pruned, collection=self.name),
            "docs_scanned": docs_scanned,  # documents in the slices read
            "docs_examined": examined,  # candidates read
            "docs_tested": tested,  # candidates a residual test ran on
            "index": indexed,
            "rows": len(results),
        }
        self._cluster._metric(
            "cluster.docs_scanned", float(docs_scanned), collection=self.name
        )
        return results

    def _selection(self, filter_spec: Mapping[str, Any] | None) -> Selection:
        slices = self._slices(self.shards_for_filter(filter_spec)[0])
        return find_selection(slices, filter_spec, None, None, False, None)

    def get(self, doc_id: str) -> dict[str, Any]:
        with self._lock:
            shard = self._doc_shard.get(doc_id)
        if shard is None:
            raise QueryError(f"no document with id {doc_id!r} in {self.name!r}")
        return self._cluster.quorum_state_of(shard).get_collection(self.name).get(doc_id)

    def __len__(self) -> int:
        return sum(map(len, self._slices()))

    # ------------------------------------------------------------------
    # Field indices
    # ------------------------------------------------------------------
    def create_index(self, field: str, kind: str = "hash") -> None:
        self._cluster.broadcast(
            {"op": "create_index", "collection": self.name, "field": field, "kind": kind}
        )

    def indexed_fields(self) -> list[str]:
        slices = self._slices([0])
        return slices[0].indexed_fields() if slices else []

    def describe(self) -> dict[str, Any]:
        return {**super().describe(), "partition_field": self.partition_field}


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

    def create_collection(
        self,
        name: str,
        description: str = "",
        partition_field: str | None = None,
    ) -> ClusteredCollection:
        with self._lock:
            if name in self._collections:
                raise StorageError(f"collection already exists: {name!r}")
            self.cluster.broadcast(
                {"op": "create_collection", "name": name, "description": description}
            )
            # the inherited catalog holds the router fronts
            front = self._collections[name] = ClusteredCollection(
                self, name, description, partition_field=partition_field
            )
            return front

    def describe(self) -> dict[str, Any]:
        return {**super().describe(), "cluster": self.cluster.describe()}

    def tick(self, advance: float | None = None) -> None:
        self.cluster.tick(advance=advance)

    def export(self) -> dict[str, Any]:
        return self.cluster.export()
