"""Helpers for the differential suites of both stores.

``stale_entries`` reads what a row heap's indexes hold that its rows do
not back, for any ``RowHeap`` — a ``Table``'s or a ``Collection``'s
``_heap``, single-node or a shard primary's.  ``replicas_decide_nothing``
makes a replica that runs the SQL executor or compiles a document filter
while it applies an op raise.
"""

import threading
from contextlib import ExitStack, contextmanager
from unittest import mock

from repro.storage.cluster import docs, relational
from repro.storage.document import store
from repro.storage.relational.index import MISSING, KeyIndex
from repro.storage.relational.sql.executor import Executor


def stale_entries(heap):
    """Index entries no row backs: each index against one built afresh over
    the heap's rows — so an emptied hash bucket, a stale sorted entry and a
    key mapped to the wrong row all show — and a key index holding other
    than exactly one key per row."""
    stale = []
    stored = [(row_id, row) for row_id, row in enumerate(heap._rows) if row is not None]
    for field, index in heap._indexes.items():
        fresh = type(index)(field)
        for row_id, row in stored:  # a removed row leaves None at its row id
            value = heap._read(row, heap._at.get(field, field))
            if value is not MISSING:
                fresh.insert(value, row_id)
        if vars(index) != vars(fresh):
            stale.append((field, vars(index), vars(fresh)))
        if isinstance(index, KeyIndex) and len(index.keys()) != len(stored):
            stale.append((field, sorted(index.keys()), len(stored)))
    if len(heap) != len(stored):
        stale.append(("len", len(heap), len(stored)))
    return stale


@contextmanager
def replicas_decide_nothing():
    """Within it, a cluster built there raises ``AssertionError`` where a
    replica applying an op calls ``Executor.execute`` or ``compile_where``:
    a replica applies the effect the router decided, never a statement."""
    applying = threading.local()  # a router thread may decide while another's replicas apply

    def applies(apply):
        def guarded(state, op):
            applying.depth = getattr(applying, "depth", 0) + 1
            try:
                return apply(state, op)
            finally:
                applying.depth -= 1

        return guarded

    def refused(real):
        def guarded(*args, **kwargs):
            if getattr(applying, "depth", 0):
                raise AssertionError(f"a replica called {real.__name__} applying an op")
            return real(*args, **kwargs)

        return guarded

    with ExitStack() as patches:
        for module, name in ((relational, "_apply_relational"), (docs, "_apply_docs")):
            patches.enter_context(mock.patch.object(module, name, applies(getattr(module, name))))
        patches.enter_context(mock.patch.object(Executor, "execute", refused(Executor.execute)))
        for module in (store, docs):
            patches.enter_context(
                mock.patch.object(module, "compile_where", refused(module.compile_where))
            )
        yield
