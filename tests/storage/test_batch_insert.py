"""Batch inserts: where a batch is refused, and that it stores what a
row-by-row loop stores.

A single-node batch is refused where a row-by-row loop would refuse it:
a duplicate key or a schema-invalid row at position k raises there, and the
k rows before it stay stored.  A clustered batch is checked before its
first append (the router) or refused whole by each replica's state machine,
so a bad row appends nothing.

The properties start from heaps that already hold rows under a key, hash
and sorted indexes, and compare a batch against a row-by-row loop (single
node) or a single-node copy (1 and 3 shards): the same rows under the same
row ids, the same index contents, the same answers, no stale index entry
(``row_heaps.stale_entries``), and a version that moved exactly when rows
were stored.
"""

import sys
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.errors import SchemaError, StorageError
from repro.storage.cluster import ClusteredDocumentStore, ShardedDatabase
from repro.storage.document.store import Collection
from repro.storage.relational.index import SortedIndex, order_key
from repro.storage.relational.table import Table
from repro.storage.schema import Column, ColumnType, TableSchema

try:
    from row_heaps import stale_entries
except ImportError:  # collected before tests/properties: put it on the path
    sys.path.insert(0, str(Path(__file__).parents[1] / "properties"))
    from row_heaps import stale_entries


def keyed_table():
    return Table(TableSchema.build("t", [
        Column("id", ColumnType.INT, primary_key=True), ("x", ColumnType.INT),
    ]))


def ids(table):
    return [row["id"] for row in table.rows()]


class TestWhereABatchIsRefused:
    def test_a_duplicate_key_keeps_the_rows_before_it(self):
        table = keyed_table()
        with pytest.raises(StorageError, match="duplicate primary key 1"):
            table.insert_many([{"id": 1}, {"id": 2}, {"id": 1}, {"id": 3}])
        assert ids(table) == [1, 2]

    def test_a_key_held_before_the_batch_keeps_the_rows_before_it(self):
        table = keyed_table()
        table.insert({"id": 2})
        with pytest.raises(StorageError, match="duplicate primary key 2"):
            table.insert_many([{"id": 5}, {"id": 2}, {"id": 6}])
        assert ids(table) == [2, 5]

    def test_a_schema_invalid_row_keeps_the_rows_before_it(self):
        table = keyed_table()
        with pytest.raises(SchemaError):
            table.insert_many([{"id": 1}, {"id": 2}, {"id": 3, "x": "three"}, {"id": 4}])
        assert ids(table) == [1, 2]

    def test_the_first_refused_row_is_the_error_raised(self):
        table = keyed_table()
        with pytest.raises(StorageError, match="duplicate primary key 1"):
            table.insert_many([{"id": 1}, {"id": 1}, {"id": 5, "x": "five"}])
        assert ids(table) == [1]
        with pytest.raises(SchemaError):
            table.insert_many([{"id": 7}, {"id": 8, "x": "eight"}, {"id": 1}])
        assert ids(table) == [1, 7]

    @pytest.mark.parametrize("ids", [range(1, 9), [1, 2, 3, 2]])
    def test_a_sharded_batch_with_a_duplicate_key_appends_nothing(self, ids):
        """Id 5 is held, or 2 is in the batch twice: the router refuses the
        batch before its first append.  Each shard's replicas used to refuse
        only that shard's batch, so ids 1-8 kept 1, 2 and 6."""
        db = ShardedDatabase("t", n_shards=4, n_replicas=3, clock=SimClock(), seed=0)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
        db.table("t").insert({"id": 5})
        logs = [replica.log_digest() for replica in db.cluster.all_replicas()]
        with pytest.raises(StorageError, match="duplicate primary key [52]"):
            db.table("t").insert_many({"id": i} for i in ids)
        assert [row["id"] for row in db.table("t").rows()] == [5]
        assert [replica.log_digest() for replica in db.cluster.all_replicas()] == logs

    def test_a_refused_batch_still_changes_the_version_when_rows_were_stored(self):
        table = keyed_table()
        before = table.version
        with pytest.raises(StorageError):
            table.insert_many([{"id": 1}, {"id": 1}])
        assert table.version > before
        stamped = table.version
        with pytest.raises(StorageError):
            table.insert_many([{"id": 1}])
        assert table.version == stamped  # nothing stored, nothing changed

    def test_a_held_document_id_keeps_the_documents_before_it(self):
        collection = Collection("c")
        collection.insert({"a": 0}, doc_id="doc-000002")
        with pytest.raises(StorageError, match="duplicate document id"):
            collection.insert_many([{"a": 1}, {"a": 2}, {"a": 3}])
        assert [(d["_id"], d["a"]) for d in collection.find()] == [
            ("doc-000002", 0), ("doc-000001", 1),
        ]

    def test_a_document_that_is_no_mapping_keeps_the_documents_before_it(self):
        collection = Collection("c")
        with pytest.raises((TypeError, ValueError)):
            collection.insert_many([{"a": 1}, 5, {"a": 3}])
        assert [d["a"] for d in collection.find()] == [1]


class TestAClusteredBatchIsRefusedWhole:
    def test_a_duplicate_key_in_a_shard_batch_appends_nothing(self):
        db = ShardedDatabase("t", n_shards=1, n_replicas=3, clock=SimClock(), seed=0)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
        digests = [replica.log_digest() for replica in db.cluster.all_replicas()]
        with pytest.raises(StorageError, match="duplicate primary key 1"):
            db.table("t").insert_many([{"id": 1}, {"id": 2}, {"id": 1}])
        assert [replica.log_digest() for replica in db.cluster.all_replicas()] == digests
        assert len(db.table("t")) == 0
        for replica in db.cluster.all_replicas():
            assert len(replica.state.table("t")) == 0

    def test_a_duplicate_document_id_appends_nothing(self):
        store = ClusteredDocumentStore("d", n_shards=2, n_replicas=3, clock=SimClock(), seed=0)
        collection = store.create_collection("c")
        digests = [replica.log_digest() for replica in store.cluster.all_replicas()]
        with pytest.raises(StorageError, match="duplicate document id"):
            collection.insert_many([{"a": 1}, {"a": 2}, {"a": 3}], ["x", "y", "x"])
        assert [replica.log_digest() for replica in store.cluster.all_replicas()] == digests
        assert collection.count() == 0


class Counted(float):
    """A float that counts the comparisons an index makes on it."""

    seen = 0

    def __eq__(self, other):
        Counted.seen += 1
        return float(self) == float(other)

    def __lt__(self, other):
        Counted.seen += 1
        return float(self) < float(other)

    __hash__ = float.__hash__


class TestABatchIsMergedByItsSize:
    """Every ``doc_insert`` is a one-document batch: re-sorting a sorted
    index per batch cost ``store_mix`` 20-25 % of its ops/s."""

    def test_a_small_batch_is_inserted_without_a_sort(self):
        index = SortedIndex("x")
        index.extend((Counted(value), value) for value in range(1024))
        Counted.seen = 0
        index.extend([(Counted(7.5), 2000), (Counted(-1), 2001)])
        assert Counted.seen <= 2 * 2 * 12  # two binary searches, no pass over 1024
        assert [entry[-1] for entry in index._entries[:1]] == [2001]
        assert index.ids(">", 7)[:2] == [2000, 8]

    def test_a_large_batch_is_sorted_once(self):
        index = SortedIndex("x")
        index.extend((value, value) for value in range(100))
        index.extend((value + 0.5, 200 + value) for value in reversed(range(100)))
        assert [entry[1] for entry in index._entries] == sorted(
            [*range(100), *(value + 0.5 for value in range(100))]
        )


# ----------------------------------------------------------------------
# A batch stores what a row-by-row loop stores
# ----------------------------------------------------------------------
NAN = float("nan")  # one object, so both stores key the same NaN

COLUMNS = [("x", ColumnType.FLOAT), ("tag", ColumnType.TEXT), ("flag", ColumnType.BOOL)]
TABLE_INDEXES = [("x", "sorted"), ("tag", "hash"), ("flag", "hash")]
#: ``(SQL WHERE, conjuncts)``: the same predicate for both spellings.
TABLE_QUERIES = [
    ("x >= 1", [("x", ">=", 1)]),
    ("x < 2.5", [("x", "<", 2.5)]),
    ("tag = 'a'", [("tag", "=", "a")]),
    ("flag IN (TRUE)", [("flag", "in", [True])]),
    ("tag IN ('a', 'b') AND x > 0", [("tag", "in", ["a", "b"]), ("x", ">", 0)]),
]
DOC_INDEXES = [("n", "sorted"), ("tag", "hash"), ("sub.x", "hash")]
DOC_FILTERS = [
    {}, {"n": {"$gte": 1}}, {"n": 1}, {"n": None}, {"tag": "a"}, {"sub.x": 1},
    {"tag": {"$in": ["a", "b"]}, "n": {"$lt": 3}},
]

#: Values both stores are exercised with; a table refuses the ill-typed ones.
scalars = st.sampled_from([None, NAN, 0, 1, 1.0, True, False, 2.5, -0.0, "a", "b"])
doc_values = st.one_of(scalars, st.sampled_from([[1], {"x": 1}, (1, [2])]))
table_rows = st.fixed_dictionaries(
    {}, optional={"id": st.integers(0, 9), "x": scalars, "tag": scalars, "flag": scalars}
)
documents = st.fixed_dictionaries(
    {},
    optional={
        "n": doc_values, "tag": doc_values,
        "sub": st.one_of(st.fixed_dictionaries({}, optional={"x": doc_values}), doc_values),
    },
)


def first_error(insert, rows):
    """The type of the error *insert* raised on *rows*, or None."""
    try:
        for row in rows:
            insert(row)
    except Exception as error:  # noqa: BLE001 - compared by type
        return type(error)
    return None


def matches(conjuncts):
    """The plain test of *conjuncts* (what a scan runs): ranges within a
    bracket of ``order_key``."""
    def test(row):
        for column, op, value in conjuncts:
            got = row[column]
            if op in ("=", "in"):
                if not any(got == member for member in (value if op == "in" else [value])):
                    return False
            elif (order_key(got) or (None,))[0] != order_key(value)[0] or not {
                "<": got < value, "<=": got <= value, ">": got > value, ">=": got >= value,
            }[op]:
                return False
        return True

    return test


def index_contents(heap):
    return {field: vars(index) for field, index in heap._indexes.items()}


class TestABatchStoresWhatARowByRowLoopStores:
    @settings(max_examples=200, deadline=None)
    @given(
        st.booleans(), st.integers(0, 120), st.lists(table_rows, max_size=8),
        st.lists(table_rows, max_size=10),
    )
    def test_table(self, keyed, filler, prefix, batch):
        """*filler* rows make a small batch small next to the indexes."""
        filled = [{"id": 100 + i, "x": i % 7 / 2, "tag": "ab"[i % 2]} for i in range(filler)]
        pair = []
        for _ in range(2):
            columns = [Column("id", ColumnType.INT, primary_key=keyed), *COLUMNS]
            table = Table(TableSchema.build("t", columns))
            first_error(table.insert, prefix + filled)
            for column, kind in TABLE_INDEXES:
                table.create_index(column, kind)
            pair.append(table)
        batched, looped = pair
        version, held = batched.version, len(batched)
        assert first_error(batched.insert_many, [batch]) == first_error(looped.insert, batch)
        assert batched._heap._rows == looped._heap._rows
        assert index_contents(batched._heap) == index_contents(looped._heap)
        assert stale_entries(batched._heap) == [] and stale_entries(looped._heap) == []
        assert (batched.version > version) == (len(batched) > held)
        assert batched.version >= version
        names = batched.schema.column_names()
        for _, conjuncts in TABLE_QUERIES:
            by_name = matches(conjuncts)
            test = lambda row: by_name(dict(zip(names, row)))  # a stored row is a tuple
            answer = batched.select(conjuncts, lambda exact: test).rows
            assert answer == looped.select(conjuncts, lambda exact: test).rows
            assert answer == [row for row in batched.select(()).rows if test(row)]

    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 120), st.lists(documents, max_size=6),
        st.lists(st.sampled_from(["doc-000002", "doc-000005", "own"]), max_size=2, unique=True),
        st.lists(documents, max_size=8),
    )
    def test_collection(self, filler, prefix, held_ids, batch):
        filled = [{"n": i % 7 / 2, "sub": {"x": i % 3}} for i in range(filler)]
        pair = []
        for _ in range(2):
            collection = Collection("c")
            first_error(collection.insert, prefix + filled)
            for doc_id in held_ids:  # ids a generated one may run into
                if not collection.count({"_id": doc_id}):
                    collection.insert({"held": True}, doc_id=doc_id)
            for field, kind in DOC_INDEXES:
                collection.create_index(field, kind)
            pair.append(collection)
        batched, looped = pair
        version, held = batched._heap.version, len(batched)
        assert first_error(batched.insert_many, [batch]) == first_error(looped.insert, batch)
        assert batched._heap._rows == looped._heap._rows
        assert index_contents(batched._heap) == index_contents(looped._heap)
        assert stale_entries(batched._heap) == [] and stale_entries(looped._heap) == []
        assert (batched._heap.version > version) == (len(batched) > held)
        for filter_spec in DOC_FILTERS:
            assert batched.find(filter_spec) == looped.find(filter_spec)


def by_id(rows, key):
    return sorted(rows, key=lambda row: row[key])


def replicas_agree(cluster, read_heap):
    """Every replica holds its primary's rows, and no stale index entry."""
    for shard, primary in zip(cluster.shards, cluster.primary_states()):
        for replica in shard.replicas:
            heap = read_heap(replica.state)
            assert heap._rows == read_heap(primary)._rows
            assert stale_entries(heap) == []


class TestAClusteredBatchStoresWhatOneNodeStores:
    @settings(max_examples=60, deadline=None)
    @given(
        st.sampled_from([1, 3]),
        st.lists(documents, max_size=6),
        st.lists(st.tuples(documents, st.sampled_from("abcdefg")), max_size=8),
    )
    def test_documents(self, n_shards, prefix, batch):
        store = ClusteredDocumentStore("d", n_shards=n_shards, n_replicas=3, clock=SimClock(), seed=0)
        clustered = store.create_collection("c", partition_field="tag")
        plain = Collection("c")
        for position, document in enumerate(prefix):
            clustered.insert(document, doc_id=f"p{position}")
            plain.insert(document, doc_id=f"p{position}")
        for field, kind in DOC_INDEXES:
            clustered.create_index(field, kind)
            plain.create_index(field, kind)
        logs = [replica.log_digest() for replica in store.cluster.all_replicas()]
        documents_in, ids = [document for document, _ in batch], [doc_id for _, doc_id in batch]
        if len(set(ids)) < len(ids):
            with pytest.raises(StorageError, match="duplicate document id"):
                clustered.insert_many(documents_in, ids)
            assert [replica.log_digest() for replica in store.cluster.all_replicas()] == logs
        else:
            assert clustered.insert_many(documents_in, ids) == ids
            first_error(lambda pair: plain.insert(*pair), batch)
        for filter_spec in DOC_FILTERS:
            assert by_id(clustered.find(filter_spec), "_id") == by_id(plain.find(filter_spec), "_id")
        replicas_agree(store.cluster, lambda state: state.collection("c")._heap)

    @settings(max_examples=60, deadline=None)
    @given(st.sampled_from([1, 3]), st.lists(table_rows, max_size=6), st.lists(table_rows, max_size=10))
    def test_tables(self, n_shards, prefix, batch):
        db = ShardedDatabase("t", n_shards=n_shards, n_replicas=3, clock=SimClock(), seed=0)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, x FLOAT, tag TEXT, flag BOOL)")
        front = db.table("t")
        first_error(front.insert, prefix)
        for column, kind in TABLE_INDEXES:
            front.create_index(column, kind)
        logs = [replica.log_digest() for replica in db.cluster.all_replicas()]
        before = by_id(front.rows(), "id")
        error = first_error(front.insert_many, [batch])
        after = by_id(front.rows(), "id")
        if error is not None:  # the router checks every row and key before the first append
            assert [replica.log_digest() for replica in db.cluster.all_replicas()] == logs
            assert after == before
        else:  # one node holding the same rows
            plain = Table(front.schema)
            plain.insert_many([*before, *batch])
            assert after == by_id(plain.rows(), "id")
        replicas_agree(db.cluster, lambda state: state.table("t")._heap)
        for where, conjuncts in TABLE_QUERIES:
            got = db.query(f"SELECT id FROM t WHERE {where} ORDER BY id")
            assert [row["id"] for row in got] == [row["id"] for row in after if matches(conjuncts)(row)]
