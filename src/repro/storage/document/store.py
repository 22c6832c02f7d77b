"""Document store: named collections of schemaless JSON-like documents.

``find`` has one path, :func:`find_in`, over collections read as one: a
single-node ``find`` passes itself, the clustered router its pruned shard
slices.  Field indexes are the relational layer's ``HashIndex``, chosen by
its ``choose_index`` from the filter's ``sargable`` form.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ...errors import QueryError, StorageError
from ...ids import IdGenerator
from ..relational.index import Conjunct, HashIndex, choose_index
from .query import get_path, hashable, matches, project, sargable, _MISSING


class Collection:
    """A collection of documents with Mongo-style find/update/delete."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._documents: dict[str, dict[str, Any]] = {}
        self._ids = IdGenerator()
        self._lock = threading.RLock()
        self._field_indices: dict[str, HashIndex] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._documents)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, document: Mapping[str, Any], doc_id: str | None = None) -> str:
        """Insert a copy of *document*; returns its id (stored as ``_id``)."""
        with self._lock:
            if doc_id is None:
                doc_id = self._ids.next("doc")
            if doc_id in self._documents:
                raise StorageError(f"duplicate document id: {doc_id!r}")
            stored = dict(document)
            stored["_id"] = doc_id
            self._documents[doc_id] = stored
            for index, value in _index_entries(self._field_indices, stored):
                index.insert(value, doc_id)
            return doc_id

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> list[str]:
        return [self.insert(document) for document in documents]

    def update(self, filter_spec: Mapping[str, Any], changes: Mapping[str, Any]) -> int:
        """Shallow-merge *changes* into matching documents; returns count."""
        if "_id" in changes:
            raise StorageError("cannot change _id")
        count = 0
        with self._lock:
            for doc_id, document in self._documents.items():
                if not matches(document, filter_spec):
                    continue
                for index, value in _index_entries(self._field_indices, document):
                    index.remove(value, doc_id)
                document.update(dict(changes))
                for index, value in _index_entries(self._field_indices, document):
                    index.insert(value, doc_id)
                count += 1
        return count

    def delete(self, filter_spec: Mapping[str, Any]) -> int:
        with self._lock:
            doomed = [
                doc_id
                for doc_id, document in self._documents.items()
                if matches(document, filter_spec)
            ]
            for doc_id in doomed:
                document = self._documents.pop(doc_id)
                for index, value in _index_entries(self._field_indices, document):
                    index.remove(value, doc_id)
        return len(doomed)

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
        """Documents matching *filter_spec* (all when None)."""
        return find_in([self], filter_spec, fields, sort, descending, limit)

    def find_one(self, filter_spec: Mapping[str, Any] | None = None) -> dict[str, Any] | None:
        found = self.find(filter_spec, limit=1)
        return found[0] if found else None

    def get(self, doc_id: str) -> dict[str, Any]:
        with self._lock:
            document = self._documents.get(doc_id)
        if document is None:
            raise QueryError(f"no document with id {doc_id!r} in {self.name!r}")
        return dict(document)

    def count(self, filter_spec: Mapping[str, Any] | None = None) -> int:
        return len(self.find(filter_spec))

    def distinct(self, field: str) -> list[Any]:
        values = []
        seen: set[Any] = set()
        for document in self.find():
            value = get_path(document, field)
            if value is _MISSING:
                continue
            key = repr(value) if isinstance(value, (list, dict)) else value
            if key not in seen:
                seen.add(key)
                values.append(value)
        return values

    # ------------------------------------------------------------------
    # Field indices
    # ------------------------------------------------------------------
    def create_index(self, field: str) -> None:
        """Equality index over a top-level or dotted field."""
        with self._lock:
            if field in self._field_indices:
                return
            index = HashIndex(field)
            for doc_id, document in self._documents.items():
                for _, value in _index_entries({field: index}, document):
                    index.insert(value, doc_id)
            self._field_indices[field] = index

    def indexed_fields(self) -> list[str]:
        with self._lock:
            return sorted(self._field_indices)

    def describe(self) -> dict[str, Any]:
        """Catalog metadata (its store's ``describe`` lists these)."""
        return {
            "name": self.name,
            "description": self.description,
            "documents": len(self),
            "indexed_fields": self.indexed_fields(),
        }

    def _candidates(self, conjuncts: Sequence[Conjunct]) -> list[dict[str, Any]]:
        """What can match: an index's answer in id order, else all as inserted."""
        with self._lock:
            chosen = choose_index(self._field_indices.get, conjuncts)
            if chosen is None:
                return list(self._documents.values())
            return [self._documents[doc_id] for doc_id in sorted(chosen[1])]


def _index_entries(
    indices: Mapping[str, HashIndex], document: Mapping[str, Any]
) -> Iterator[tuple[HashIndex, Any]]:
    """``(index, key)`` per index holding *document* (field present, value hashable)."""
    for field, index in indices.items():
        value = get_path(document, field)
        if value is not _MISSING and hashable(value):
            yield index, value


def find_in(
    slices: Sequence[Collection],
    filter_spec: Mapping[str, Any] | None,
    fields: Sequence[str] | None,
    sort: str | None,
    descending: bool,
    limit: int | None,
) -> list[dict[str, Any]]:
    """``find`` over *slices* read as one collection in slice order: one
    stable sort, one limit, and only what is returned is copied."""
    filter_spec = filter_spec or {}
    conjuncts = sargable(filter_spec)
    results = [
        document
        for collection in slices
        for document in collection._candidates(conjuncts)
        if matches(document, filter_spec)
    ]
    if sort is not None:
        results.sort(key=lambda d: _sortable(get_path(d, sort)), reverse=descending)
    if limit is not None:
        results = results[:limit]
    return [project(document, fields) for document in results]


def _sortable(value: Any) -> Any:
    if value is _MISSING or value is None:
        return (0, 0)
    if isinstance(value, bool):
        return (1, int(value))
    if isinstance(value, (int, float)):
        return (1, value)
    return (2, str(value))


class DocumentStore:
    """A named set of collections (the enterprise's document database)."""

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._collections: dict[str, Collection] = {}
        self._lock = threading.RLock()

    def create_collection(self, name: str, description: str = "") -> Collection:
        with self._lock:
            if name in self._collections:
                raise StorageError(f"collection already exists: {name!r}")
            collection = Collection(name, description)
            self._collections[name] = collection
            return collection

    def collection(self, name: str) -> Collection:
        with self._lock:
            collection = self._collections.get(name)
        if collection is None:
            raise StorageError(f"unknown collection: {name!r} in store {self.name!r}")
        return collection

    def has_collection(self, name: str) -> bool:
        with self._lock:
            return name in self._collections

    def collection_names(self) -> list[str]:
        with self._lock:
            return sorted(self._collections)

    def describe(self) -> dict[str, Any]:
        return {
            "store": self.name,
            "description": self.description,
            "collections": [
                self.collection(name).describe() for name in self.collection_names()
            ],
        }
