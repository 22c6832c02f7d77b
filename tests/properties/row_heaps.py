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
    for field, index in heap._indexes.items():
        fresh = type(index)(field)
        for row_id, row in heap._rows.items():
            value = heap._read(row, field)
            if value is not MISSING:
                fresh.insert(value, row_id)
        if vars(index) != vars(fresh):
            stale.append((field, vars(index), vars(fresh)))
        if isinstance(index, KeyIndex) and len(index.keys()) != len(heap._rows):
            stale.append((field, sorted(index.keys()), len(heap._rows)))
    return stale
