"""Tests for tables and secondary indices."""

import pytest

from repro.errors import SchemaError, StorageError
from repro.storage.relational.index import HashIndex, KeyIndex, SortedIndex
from repro.storage.relational.table import Table
from repro.storage.schema import Column, ColumnType, TableSchema


@pytest.fixture
def table():
    schema = TableSchema(
        "people",
        (
            Column("id", ColumnType.INT, primary_key=True),
            Column("name", ColumnType.TEXT),
            Column("age", ColumnType.INT),
        ),
    )
    t = Table(schema)
    t.insert_many(
        [
            {"id": 1, "name": "ann", "age": 30},
            {"id": 2, "name": "bob", "age": 25},
            {"id": 3, "name": "cam", "age": 30},
        ]
    )
    return t


class TestTable:
    def test_insert_and_scan(self, table):
        assert len(table) == 3
        assert [r["name"] for r in table.scan()] == ["ann", "bob", "cam"]

    def test_scan_returns_copies(self, table):
        row = next(table.scan())
        row["name"] = "mutated"
        assert next(table.scan())["name"] == "ann"

    def test_duplicate_pk_rejected(self, table):
        with pytest.raises(StorageError):
            table.insert({"id": 1, "name": "dup", "age": 1})

    def test_insert_validates_schema(self, table):
        with pytest.raises(SchemaError):
            table.insert({"id": 4, "name": 5, "age": 1})

    def test_update(self, table):
        count = table.update(lambda r: r["age"] == 30, {"age": 31})
        assert count == 2
        assert sorted(r["age"] for r in table.scan()) == [25, 31, 31]

    def test_update_reads_changes_from_the_stored_row(self, table):
        assert table.update(lambda r: r["age"] == 30, lambda r: {"age": r["age"] + r["id"]}) == 2
        assert [r["age"] for r in table.scan()] == [31, 25, 33]

    def test_update_refuses_a_primary_key_another_row_holds(self, table):
        """The key index was overwritten: ``id = 2`` then found one of two rows."""
        with pytest.raises(StorageError, match="duplicate primary key 2 in table 'people'"):
            table.update(lambda r: r["id"] == 1, {"id": 2})
        assert [r["name"] for r in table.lookup("id", 2)] == ["bob"]
        assert table.update(lambda r: r["id"] == 1, {"id": 9}) == 1
        assert [r["name"] for r in table.lookup("id", 9)] == ["ann"]
        assert table.lookup("id", 1) == []

    def test_update_unknown_column_rejected(self, table):
        with pytest.raises(SchemaError):
            table.update(lambda r: True, {"bogus": 1})

    def test_delete(self, table):
        assert table.delete(lambda r: r["age"] == 30) == 2
        assert len(table) == 1

    def test_pk_lookup_uses_auto_index(self, table):
        assert table.index_on("id") is not None
        assert table.lookup("id", 2)[0]["name"] == "bob"

    def test_lookup_without_index_scans(self, table):
        assert table.index_on("name") is None
        assert table.lookup("name", "cam")[0]["id"] == 3

    def test_create_hash_index_backfills(self, table):
        table.create_index("age", kind="hash")
        assert sorted(r["id"] for r in table.lookup("age", 30)) == [1, 3]

    def test_index_maintained_on_update(self, table):
        table.create_index("age", kind="hash")
        table.update(lambda r: r["id"] == 1, {"age": 99})
        assert [r["id"] for r in table.lookup("age", 99)] == [1]
        assert [r["id"] for r in table.lookup("age", 30)] == [3]

    def test_index_maintained_on_delete(self, table):
        table.create_index("age", kind="hash")
        table.delete(lambda r: r["id"] == 1)
        assert [r["id"] for r in table.lookup("age", 30)] == [3]

    def test_unknown_index_kind(self, table):
        with pytest.raises(StorageError):
            table.create_index("age", kind="btree-9000")

    def test_index_unknown_column(self, table):
        with pytest.raises(SchemaError):
            table.create_index("bogus")

    def test_indexed_columns_metadata(self, table):
        table.create_index("age", kind="sorted")
        assert table.indexed_columns() == {"id": "hash", "age": "sorted"}


class TestHashIndex:
    def test_insert_lookup_remove(self):
        index = HashIndex("c")
        index.insert("x", 1)
        index.insert("x", 2)
        assert list(index.ids("=", "x")) == [1, 2]
        index.remove("x", 1)
        assert list(index.ids("=", "x")) == [2]
        assert list(index.ids("=", "missing")) == []

    def test_lookup_many(self):
        index = HashIndex("c")
        index.insert("a", 1)
        index.insert("b", 2)
        assert set(index.ids("in", ["a", "b", "c"])) == {1, 2}

    def test_len(self):
        index = HashIndex("c")
        index.insert("a", 1)
        index.insert("a", 2)
        assert len(index) == 2

    def test_a_bucket_is_a_sorted_list_without_repeats(self):
        index = HashIndex("c")
        for row_id in (5, 9, 2, 9, 7, 2, 11):  # updates move older rows in
            index.insert("a", row_id)
        assert list(index.ids("=", "a")) == [2, 5, 7, 9, 11]
        assert index.estimate("=", "a") == 5 and index.estimate("=", "zz") == 0
        assert index.estimate("in", ["a", "zz", "a"]) == 10  # repeats counted
        assert index.estimate(">", "a") is None  # ranges need a sorted index
        index.remove("a", 7)
        index.remove("a", 8)  # not there
        index.remove("zz", 1)
        assert list(index.ids("=", "a")) == [2, 5, 9, 11]
        for row_id in (2, 5, 9, 11):
            index.remove("a", row_id)
        assert list(index.keys()) == []  # an emptied bucket is dropped


class TestKeyIndex:
    def test_one_row_id_per_key(self):
        index = KeyIndex("id")
        index.insert("k1", 0)
        index.insert("k2", 4)
        assert (index.get("k1"), index.get("k2"), index.get("nope")) == (0, 4, None)
        assert list(index.ids("=", "k1")) == [0] and list(index.ids("=", "nope")) == []
        assert index.estimate("=", "nope") == 1 and index.estimate("in", ["k1", "x"]) == 2
        assert index.estimate("<", "k1") is None
        assert list(index.ids("in", ["k2", "x", "k1"])) == [4, 0]
        index.remove("k1", 99)  # another row's id: not this entry
        index.remove("k1", 0)
        assert list(index.keys()) == ["k2"]

    def test_a_primary_key_is_a_key_index(self, table):
        assert isinstance(table.index_on("id"), KeyIndex)
        assert table.indexed_columns()["id"] == "hash"
        with pytest.raises(StorageError, match="duplicate primary key"):
            table.insert({"id": 1, "name": "dup", "age": 1})


class TestSortedIndex:
    def build(self):
        index = SortedIndex("c")
        for row_id, value in enumerate([10, 20, 30, 40]):
            index.insert(value, row_id)
        return index

    @staticmethod
    def between(index, low_op, low, high_op, high):
        return set(index.ids(low_op, low)) & set(index.ids(high_op, high))

    def test_equality_lookup(self):
        # equality is a hash or key index's job: a sorted index answers ranges only
        assert self.build().estimate("=", 20) is None
        assert self.between(self.build(), ">=", 20, "<=", 20) == {1}

    def test_range_inclusive(self):
        assert self.between(self.build(), ">=", 20, "<=", 30) == {1, 2}

    def test_range_exclusive(self):
        index = self.build()
        assert self.between(index, ">", 20, "<=", 30) == {2}
        assert self.between(index, ">=", 20, "<", 30) == {1}

    def test_open_ranges(self):
        index = self.build()
        assert set(index.ids(">=", 30)) == {2, 3}
        assert set(index.ids("<=", 20)) == {0, 1}

    def test_none_not_indexed(self):
        index = SortedIndex("c")
        index.insert(None, 0)
        assert len(index) == 0

    def test_remove(self):
        index = self.build()
        index.remove(20, 1)
        assert self.between(index, ">=", 20, "<=", 20) == set()

    def test_row_ids_of_any_type(self):
        """Ranges bisect on the value alone: a ``(value, inf)`` sentinel used
        to raise ``TypeError`` as soon as row ids were document ids."""
        index = SortedIndex("c")
        index.extend([(20, "doc-b"), (10, "doc-a"), (None, "doc-n"), (20, "doc-c")])
        index.insert(30, "doc-d")
        assert set(index.ids(">", 20)) == {"doc-d"}
        assert set(index.ids("<=", 20)) == {"doc-a", "doc-b", "doc-c"}
        assert self.between(index, ">=", 10, "<", 20) == {"doc-a"}
        assert self.between(index, ">=", 20, "<=", 20) == {"doc-b", "doc-c"}
        index.remove(20, "doc-b")
        assert list(index.ids("<=", 20)) == ["doc-a", "doc-c"]

    def test_estimate_is_the_posting_list_length(self):
        index = self.build()
        for op, value, size in [(">", 20, 2), (">=", 5, 4), ("<", 10, 0), ("<=", 99, 4)]:
            assert index.estimate(op, value) == len(list(index.ids(op, value))) == size
        assert index.estimate("in", [10, 20]) is None  # ``in`` needs a hash index
        assert index.estimate("=", 20) is None  # and so does ``=``

    def test_keyed_index_orders_within_a_bracket_only(self):
        """Schemaless values: numbers and text never compare with each other,
        the rest has no place in the order, and only ranges are answered."""
        index = SortedIndex("f")
        values = [3, "b", None, 1.5, True, [1], "a", {"x": 1}, 0]
        index.extend((value, f"d{position}") for position, value in enumerate(values))
        assert len(index) == 6  # None, the list and the sub-document are left out
        assert list(index.ids(">=", 1)) == ["d4", "d3", "d0"]  # True, 1.5, 3: no text
        assert list(index.ids("<", 2)) == ["d8", "d4", "d3"]
        assert list(index.ids(">", "a")) == ["d1"]
        assert list(index.ids("<=", "zz")) == ["d6", "d1"]  # no numbers
        for unordered in (None, [1], {"x": 1}):
            # flipped from 0: a constant with no bracket is declined, so a scan decides
            assert index.estimate(">=", unordered) is None
        assert index.estimate("=", 3) is None  # equality needs a hash index
        assert set(index.ids(">=", 1)) == {"d4", "d3", "d0"}
        index.remove(1.5, "d3")
        index.remove([1], "d5")  # was never in
        assert list(index.ids(">=", 1)) == ["d4", "d0"]
