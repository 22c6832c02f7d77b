"""What a row heap's indexes hold that its rows do not back.

One helper for the differential suites of both stores: it reads any
``RowHeap`` — a ``Table``'s or a ``Collection``'s ``_heap``, single-node or
a shard primary's.
"""

from repro.storage.relational.index import MISSING, KeyIndex


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
