"""Document store: named collections of schemaless JSON-like documents.

``find`` has one path, :func:`find_in`, over collections read as one: a
single-node ``find`` passes itself, the clustered router its pruned shard
slices.  Field indexes are the relational layer's ``HashIndex`` and
``SortedIndex`` and ``_id`` is the primary key (a ``KeyIndex``); its
``choose_index`` intersects what they answer of the filter's ``sargable``
form.  An index never changes an answer: candidates are read in insertion
order whatever selected them, and the filter — compiled once per call — is
re-applied to each.  ``find(sort=)`` and ``distinct`` order and dedupe by
``sort_key`` / ``group_key``, as SQL's ``ORDER BY`` and ``DISTINCT`` do.
"""

from __future__ import annotations

import threading
from itertools import islice
from operator import length_hint
from typing import Any, Iterable, Iterator, Mapping, Sequence

from ...errors import QueryError, StorageError
from ...ids import IdGenerator
from ..relational.index import (
    Conjunct, HashIndex, KeyIndex, SortedIndex, choose_index, group_key, sort_key,
)
from .query import _MISSING, Test, compile_filter, get_path, hashable, project, sargable


class Collection:
    """A collection of documents with Mongo-style find/update/delete.

    Laid out like a ``Table``: documents live under stable integer row ids
    handed out in insertion order, ``_id`` is the primary-key index onto
    them, and field indexes hold row ids — so sorting candidate ids *is*
    putting them in the order a scan reads them.
    """

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._rows: dict[int, dict[str, Any]] = {}
        self._next_row_id = 0
        self._ids = IdGenerator()
        self._lock = threading.RLock()
        self._primary = KeyIndex("_id")
        self._field_indices: dict[str, HashIndex | SortedIndex] = {}

    def __len__(self) -> int:
        with self._lock:
            return len(self._rows)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, document: Mapping[str, Any], doc_id: str | None = None) -> str:
        """Insert a copy of *document*; returns its id (stored as ``_id``)."""
        with self._lock:
            if doc_id is None:
                doc_id = self._ids.next("doc")
            if self._primary.get(doc_id) is not None:
                raise StorageError(f"duplicate document id: {doc_id!r}")
            stored = dict(document)
            stored["_id"] = doc_id
            row_id = self._next_row_id
            self._next_row_id += 1
            self._rows[row_id] = stored
            self._primary.insert(doc_id, row_id)
            for index, value in _index_entries(self._field_indices, stored):
                index.insert(value, row_id)
            return doc_id

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> list[str]:
        return [self.insert(document) for document in documents]

    def update(self, filter_spec: Mapping[str, Any], changes: Mapping[str, Any]) -> int:
        """Shallow-merge *changes* into matching documents; returns count."""
        if "_id" in changes:
            raise StorageError("cannot change _id")
        test = compile_filter(filter_spec)
        with self._lock:
            matched, _, _ = self._select(sargable(filter_spec), test)
            for document in matched:
                row_id = self._primary.get(document["_id"])
                for index, value in _index_entries(self._field_indices, document):
                    index.remove(value, row_id)
                document.update(dict(changes))
                for index, value in _index_entries(self._field_indices, document):
                    index.insert(value, row_id)
        return len(matched)

    def delete(self, filter_spec: Mapping[str, Any]) -> int:
        test = compile_filter(filter_spec)
        with self._lock:
            doomed, _, _ = self._select(sargable(filter_spec), test)
            for document in doomed:
                row_id = self._primary.get(document["_id"])
                del self._rows[row_id]
                self._primary.remove(document["_id"], row_id)
                for index, value in _index_entries(self._field_indices, document):
                    index.remove(value, row_id)
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
        return find_in([self], filter_spec, fields, sort, descending, limit)[0]

    def find_one(self, filter_spec: Mapping[str, Any] | None = None) -> dict[str, Any] | None:
        found = self.find(filter_spec, limit=1)
        return found[0] if found else None

    def get(self, doc_id: str) -> dict[str, Any]:
        with self._lock:
            document = self._rows.get(self._primary.get(doc_id))
        if document is None:
            raise QueryError(f"no document with id {doc_id!r} in {self.name!r}")
        return dict(document)

    def count(self, filter_spec: Mapping[str, Any] | None = None) -> int:
        return len(self.find(filter_spec))

    def distinct(self, field: str) -> list[Any]:
        """Each value of *field* once, first-seen first (``==`` values are one)."""
        values: dict[Any, Any] = {}
        for document in self.find():
            value = get_path(document, field)
            if value is not _MISSING:
                values.setdefault(group_key(value), value)
        return list(values.values())

    # ------------------------------------------------------------------
    # Field indices
    # ------------------------------------------------------------------
    def create_index(self, field: str, kind: str = "hash") -> None:
        """Index a top-level or dotted field: ``hash`` answers equality and
        ``$in``, ``sorted`` the range operators."""
        with self._lock:
            if field in self._field_indices:
                return
            if kind == "hash":
                index: HashIndex | SortedIndex = HashIndex(field)
            elif kind == "sorted":
                index = SortedIndex(field)
            else:
                raise StorageError(f"unknown index kind: {kind!r}")
            index.extend(
                (value, row_id)
                for row_id, document in self._rows.items()
                for _, value in _index_entries({field: index}, document)
            )
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

    def _index_on(self, field: str) -> HashIndex | SortedIndex | KeyIndex | None:
        return self._primary if field == "_id" else self._field_indices.get(field)

    def _select(
        self, conjuncts: Sequence[Conjunct], test: Test, at_most: int | None = None
    ) -> tuple[list[dict[str, Any]], int, list[str]]:
        """The stored documents (not copies) passing *test*, in insertion
        order — the first *at_most* of them, reading no further — with how
        many candidates *test* was applied to and the indexed fields that
        selected them (none: every document was a candidate)."""
        with self._lock:
            fields, row_ids = choose_index(self._index_on, conjuncts) or ([], self._rows)
            pending = iter(sorted(row_ids))
            candidates = length_hint(pending)
            documents = map(self._rows.__getitem__, pending)
            matched = list(islice(filter(test, documents), at_most))
            # a list iterator's hint is exact: what early exit left unread
            return matched, candidates - length_hint(pending), fields


def _index_entries(
    indices: Mapping[str, HashIndex | SortedIndex], document: Mapping[str, Any]
) -> Iterator[tuple[HashIndex | SortedIndex, Any]]:
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
) -> tuple[list[dict[str, Any]], int, list[str]]:
    """``find`` over *slices* read as one collection in slice order: one
    compiled filter, one stable sort, one limit, and only what is returned
    is copied.  Without a sort the first *limit* matches are the answer, so
    reading stops there.  Also returns how many candidates the filter was
    applied to and which indexed fields selected them."""
    filter_spec = filter_spec or {}
    test = compile_filter(filter_spec)
    conjuncts = sargable(filter_spec)
    results: list[dict[str, Any]] = []
    examined, used = 0, set()
    early_exit = sort is None and limit is not None and limit >= 0
    for collection in slices:
        wanted = limit - len(results) if early_exit else None
        if wanted == 0:
            break
        matched, seen, indexed = collection._select(conjuncts, test, wanted)
        results += matched
        examined += seen
        used.update(indexed)
    if sort is not None:
        results.sort(key=lambda d: sort_key(get_path(d, sort)), reverse=descending)
    if limit is not None:
        results = results[:limit]
    return [project(document, fields) for document in results], examined, sorted(used)


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
