"""Document store: named collections of schemaless JSON-like documents.

A collection is a ``RowHeap`` (``relational/table.py``) keyed by ``_id``,
as a table is one keyed by its primary key: field indexes are the
relational layer's ``HashIndex`` and ``SortedIndex``, and ``find`` has one
path, :func:`find_selection`, over collections read as one through ``select_in``
— a single-node ``find`` passes itself, the clustered router its pruned
shard slices.  An index never changes an answer: candidates are read in
insertion order whatever selected them, and the filter — compiled once per
call (``compile_where``) — is applied to each, less the entries whose every
operator a slice's indexes answered exactly (``index.exact``: a range
always; an ``=`` / ``$in`` unless a constant is NaN).  ``find(sort=)`` and
``distinct`` order and dedupe by ``sort_key`` / ``group_key``, as SQL's
``ORDER BY`` and ``DISTINCT`` do.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping, NoReturn, Sequence

from ...errors import QueryError, StorageError
from ...ids import IdGenerator
from ..relational.index import group_key, sort_key
from ..relational.table import RowHeap, Selection, select_in
from .query import _MISSING, compile_where, get_path, hashable, project


class StoredDocument(dict):
    """A document as a collection stores it: read-only, so a read hands out
    the stored object itself.  Shallow, as a copy is: nested values are shared."""

    __slots__ = ()

    def _read_only(self, *args: Any, **kwargs: Any) -> NoReturn:
        raise TypeError("a stored document is read-only: change a copy of it")

    __setitem__ = __delitem__ = __ior__ = clear = pop = popitem = setdefault = update = _read_only

    def __reduce__(self) -> tuple[type, tuple[dict[str, Any]]]:
        return StoredDocument, (dict(self),)  # copy / pickle would refill via __setitem__


def _indexed(document: Mapping[str, Any], field: str) -> Any:
    """What an index on *field* keys *document* under: ``_MISSING`` for an
    absent field or a container, which matches by ``==`` (``hashable``)."""
    value = document.get(field, _MISSING) if "." not in field else get_path(document, field)
    return value if hashable(value) else _MISSING


class Collection:
    """A collection of documents with Mongo-style find/update/delete.

    Its documents live in a :class:`RowHeap` keyed by ``_id``, whose
    indexes key a document under a top-level or dotted field's value.
    """

    def __init__(self, name: str, description: str = "") -> None:
        self.name = name
        self.description = description
        self._ids = IdGenerator()
        self._lock = threading.RLock()
        self._heap = RowHeap(
            "_id", lambda doc_id: f"duplicate document id: {doc_id!r}", _indexed
        )

    def __len__(self) -> int:
        return len(self._heap)

    # ------------------------------------------------------------------
    # Mutation
    # ------------------------------------------------------------------
    def insert(self, document: Mapping[str, Any], doc_id: str | None = None) -> str:
        """Store a read-only copy of *document*; returns its id (stored as ``_id``)."""
        with self._lock:  # generated ids follow insertion order
            if doc_id is None:
                doc_id = self._ids.next("doc")
            self._heap.insert(StoredDocument(document, _id=doc_id))
            return doc_id

    def insert_many(self, documents: Iterable[Mapping[str, Any]]) -> list[str]:
        """Store read-only copies under generated ids, as one :meth:`RowHeap.insert_many`."""
        with self._lock:  # generated ids follow insertion order
            stored = (StoredDocument(document, _id=self._ids.next("doc")) for document in documents)
            return [self._heap._rows[row_id]["_id"] for row_id in self._heap.insert_many(stored)]

    def update(self, filter_spec: Mapping[str, Any], changes: Mapping[str, Any]) -> int:
        """Shallow-merge *changes* into matching documents; returns count."""
        return self._heap.replace(*self._update(filter_spec, changes))

    def _update(self, filter_spec: Mapping[str, Any], changes: Mapping[str, Any]) -> tuple:
        """What ``update`` matches, and its change of a match; refuses an ``_id`` change."""
        if "_id" in changes:
            raise StorageError("cannot change _id")
        (conjuncts, residual), changes = compile_where(filter_spec), dict(changes)
        return conjuncts, residual, lambda document: StoredDocument({**document, **changes})

    def delete(self, filter_spec: Mapping[str, Any]) -> int:
        return self._heap.remove(*compile_where(filter_spec))

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
        """The stored documents (read-only) matching *filter_spec* (all when None)."""
        return find_selection([self], filter_spec, fields, sort, descending, limit).rows

    def find_one(self, filter_spec: Mapping[str, Any] | None = None) -> dict[str, Any] | None:
        found = self.find(filter_spec, limit=1)
        return found[0] if found else None

    def get(self, doc_id: str) -> dict[str, Any]:
        """The stored document holding *doc_id* (read-only)."""
        document = self._heap.get(doc_id)
        if document is None:
            raise QueryError(f"no document with id {doc_id!r} in {self.name!r}")
        return document

    def _selection(self, filter_spec: Mapping[str, Any] | None) -> Selection:
        return find_selection([self], filter_spec, None, None, False, None)

    def count(self, filter_spec: Mapping[str, Any] | None = None) -> int:
        """How many match: the size of the stored selection, nothing copied."""
        return len(self._selection(filter_spec).rows)

    def distinct(self, field: str) -> list[Any]:
        """Each value of *field* once, first-seen first (``==`` values are one)."""
        values: dict[Any, Any] = {}
        for document in self._selection(None).rows:
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
        self._heap.create_index(field, kind)

    def indexed_fields(self) -> list[str]:
        return sorted(field for field in self._heap.kinds() if field != "_id")

    def describe(self) -> dict[str, Any]:
        """Catalog metadata (its store's ``describe`` lists these)."""
        return {
            "name": self.name,
            "description": self.description,
            "documents": len(self),
            "indexed_fields": self.indexed_fields(),
        }


def find_in(*args: Any) -> tuple[list[dict[str, Any]], int, list[str]]:
    """:func:`find_selection` as documents, candidates read, indexed fields."""
    documents, examined, _, used = find_selection(*args)
    return documents, examined, used


def find_selection(
    slices: Sequence[Collection],
    filter_spec: Mapping[str, Any] | None,
    fields: Sequence[str] | None,
    sort: str | None,
    descending: bool,
    limit: int | None,
) -> Selection:
    """``find`` over *slices* read as one collection in slice order: one
    compiled filter, one stable sort, one limit, and the stored documents
    themselves (read-only) unless *fields* projects them.  Without a sort
    the first *limit* matches are the answer, so reading stops there."""
    early_exit = sort is None and limit is not None and limit >= 0
    results, examined, tested, used = select_in(
        [collection._heap for collection in slices],
        *compile_where(filter_spec or {}), limit if early_exit else None,
    )
    if sort is not None:
        results.sort(key=lambda d: sort_key(get_path(d, sort)), reverse=descending)
    if limit is not None:
        results = results[:limit]
    if fields is not None:
        results = [project(document, fields) for document in results]
    return Selection(results, examined, tested, sorted(used))


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
        collection = self.get_collection(name)
        if collection is None:
            raise StorageError(f"unknown collection: {name!r} in store {self.name!r}")
        return collection

    def get_collection(self, name: str) -> Collection | None:
        """The collection called *name*, or None if there is none."""
        with self._lock:
            return self._collections.get(name)

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
