"""Tests for SQL execution: the full SELECT pipeline plus DML/DDL."""

import pytest

from repro.clock import SimClock
from repro.errors import SQLError, StorageError
from repro.storage import ColumnType, Database, ShardedDatabase, quick_table
from repro.storage.document.query import sargable as doc_sargable
from repro.storage.relational.index import (
    HashIndex,
    SortedIndex,
    choose_index,
    partition_values,
)
from repro.storage.relational.sql.executor import sargable
from repro.storage.relational.sql.parser import parse
from repro.storage.schema import Column


@pytest.fixture
def db():
    database = Database("testdb")
    quick_table(
        database,
        "jobs",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("title", ColumnType.TEXT),
            Column("city", ColumnType.TEXT),
            Column("salary", ColumnType.INT),
            Column("remote", ColumnType.BOOL),
        ],
        [
            {"id": 1, "title": "Data Scientist", "city": "San Francisco", "salary": 150000, "remote": False},
            {"id": 2, "title": "ML Engineer", "city": "Oakland", "salary": 160000, "remote": True},
            {"id": 3, "title": "Data Scientist", "city": "New York", "salary": 140000, "remote": False},
            {"id": 4, "title": "Data Analyst", "city": "Oakland", "salary": 110000, "remote": False},
            {"id": 5, "title": "Data Scientist", "city": "Berkeley", "salary": None, "remote": True},
        ],
    )
    quick_table(
        database,
        "apps",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("job_id", ColumnType.INT),
            Column("status", ColumnType.TEXT),
        ],
        [
            {"id": 1, "job_id": 1, "status": "submitted"},
            {"id": 2, "job_id": 1, "status": "offer"},
            {"id": 3, "job_id": 2, "status": "submitted"},
            {"id": 4, "job_id": 99, "status": "submitted"},
        ],
    )
    return database


class TestBasicSelect:
    def test_select_star(self, db):
        assert len(db.query("SELECT * FROM jobs")) == 5

    def test_projection_and_alias(self, db):
        rows = db.query("SELECT title AS t FROM jobs WHERE id = 1")
        assert rows == [{"t": "Data Scientist"}]

    def test_where_equality(self, db):
        rows = db.query("SELECT id FROM jobs WHERE city = 'Oakland'")
        assert sorted(r["id"] for r in rows) == [2, 4]

    def test_where_comparison_null_excluded(self, db):
        rows = db.query("SELECT id FROM jobs WHERE salary > 100000")
        assert 5 not in [r["id"] for r in rows]  # NULL salary never compares true

    def test_in_list(self, db):
        rows = db.query("SELECT id FROM jobs WHERE city IN ('Oakland', 'Berkeley')")
        assert sorted(r["id"] for r in rows) == [2, 4, 5]

    def test_not_in(self, db):
        rows = db.query("SELECT id FROM jobs WHERE id NOT IN (1, 2, 3, 4)")
        assert [r["id"] for r in rows] == [5]

    def test_like_case_insensitive(self, db):
        rows = db.query("SELECT id FROM jobs WHERE title LIKE '%scientist%'")
        assert sorted(r["id"] for r in rows) == [1, 3, 5]

    def test_like_wildcards_match_across_newlines(self, db):
        db.execute(
            "INSERT INTO jobs (id, title, city) VALUES (6, :title, 'Oakland')",
            {"title": "Staff\nEngineer"},
        )
        assert [r["id"] for r in db.query(
            "SELECT id FROM jobs WHERE title LIKE 'staff%engineer'")] == [6]
        assert [r["id"] for r in db.query(
            "SELECT id FROM jobs WHERE title LIKE 'staff_engineer'")] == [6]

    def test_between(self, db):
        rows = db.query("SELECT id FROM jobs WHERE salary BETWEEN 140000 AND 155000")
        assert sorted(r["id"] for r in rows) == [1, 3]

    def test_is_null(self, db):
        assert [r["id"] for r in db.query("SELECT id FROM jobs WHERE salary IS NULL")] == [5]

    def test_is_not_null(self, db):
        assert len(db.query("SELECT id FROM jobs WHERE salary IS NOT NULL")) == 4

    def test_boolean_literal_filter(self, db):
        rows = db.query("SELECT id FROM jobs WHERE remote = TRUE")
        assert sorted(r["id"] for r in rows) == [2, 5]

    def test_parameters(self, db):
        rows = db.query("SELECT id FROM jobs WHERE city = :c", {"c": "Oakland"})
        assert sorted(r["id"] for r in rows) == [2, 4]

    def test_missing_parameter(self, db):
        with pytest.raises(SQLError, match="missing parameter"):
            db.query("SELECT * FROM jobs WHERE city = :c")

    def test_arithmetic_in_projection(self, db):
        rows = db.query("SELECT salary / 1000 AS k FROM jobs WHERE id = 1")
        assert rows[0]["k"] == 150.0

    def test_case_when(self, db):
        rows = db.query(
            "SELECT id, CASE WHEN salary >= 150000 THEN 'high' ELSE 'low' END AS band "
            "FROM jobs WHERE id IN (1, 4)"
        )
        bands = {r["id"]: r["band"] for r in rows}
        assert bands == {1: "high", 4: "low"}

    def test_scalar_functions(self, db):
        row = db.query(
            "SELECT UPPER(title) AS u, LENGTH(city) AS l FROM jobs WHERE id = 2"
        )[0]
        assert row["u"] == "ML ENGINEER"
        assert row["l"] == len("Oakland")

    def test_concat_operator(self, db):
        row = db.query("SELECT title || ' @ ' || city AS loc FROM jobs WHERE id = 1")[0]
        assert row["loc"] == "Data Scientist @ San Francisco"

    def test_coalesce(self, db):
        row = db.query("SELECT COALESCE(salary, 0) AS s FROM jobs WHERE id = 5")[0]
        assert row["s"] == 0

    def test_division_by_zero(self, db):
        with pytest.raises(SQLError):
            db.query("SELECT 1 / 0 FROM jobs")

    def test_unknown_column(self, db):
        with pytest.raises(SQLError):
            db.query("SELECT bogus FROM jobs")

    def test_unknown_table(self, db):
        with pytest.raises(StorageError):
            db.query("SELECT * FROM bogus")


class TestOrderLimitDistinct:
    def test_order_by_asc_nulls_first(self, db):
        ids = [r["id"] for r in db.query("SELECT id FROM jobs ORDER BY salary")]
        assert ids[0] == 5  # NULL first ascending

    def test_order_by_desc(self, db):
        ids = [r["id"] for r in db.query("SELECT id FROM jobs ORDER BY salary DESC")]
        assert ids[0] == 2
        assert ids[-1] == 5  # NULL last descending

    def test_order_by_multiple_keys(self, db):
        rows = db.query("SELECT id FROM jobs ORDER BY title ASC, salary DESC")
        assert [r["id"] for r in rows][:1] == [4]  # Data Analyst first

    def test_order_by_alias(self, db):
        rows = db.query("SELECT salary AS s FROM jobs WHERE salary IS NOT NULL ORDER BY s DESC")
        assert rows[0]["s"] == 160000

    def test_limit_offset(self, db):
        rows = db.query("SELECT id FROM jobs ORDER BY id LIMIT 2 OFFSET 1")
        assert [r["id"] for r in rows] == [2, 3]

    def test_distinct(self, db):
        rows = db.query("SELECT DISTINCT title FROM jobs")
        assert len(rows) == 3


class TestAggregation:
    def test_count_star(self, db):
        assert db.execute("SELECT COUNT(*) AS n FROM jobs").scalar() == 5

    def test_count_column_skips_null(self, db):
        assert db.execute("SELECT COUNT(salary) AS n FROM jobs").scalar() == 4

    def test_count_distinct(self, db):
        assert db.execute("SELECT COUNT(DISTINCT city) AS n FROM jobs").scalar() == 4

    def test_sum_avg_min_max(self, db):
        row = db.query(
            "SELECT SUM(salary) AS s, AVG(salary) AS a, MIN(salary) AS lo, MAX(salary) AS hi FROM jobs"
        )[0]
        assert row["s"] == 560000
        assert row["a"] == 140000.0
        assert row["lo"] == 110000
        assert row["hi"] == 160000

    def test_aggregate_on_empty_set(self, db):
        row = db.query("SELECT COUNT(*) AS n, AVG(salary) AS a FROM jobs WHERE id > 99")[0]
        assert row["n"] == 0
        assert row["a"] is None

    def test_group_by(self, db):
        rows = db.query("SELECT title, COUNT(*) AS n FROM jobs GROUP BY title")
        counts = {r["title"]: r["n"] for r in rows}
        assert counts["Data Scientist"] == 3

    def test_group_by_having(self, db):
        rows = db.query(
            "SELECT title, COUNT(*) AS n FROM jobs GROUP BY title HAVING COUNT(*) > 1"
        )
        assert len(rows) == 1
        assert rows[0]["title"] == "Data Scientist"

    def test_group_by_order_by_aggregate(self, db):
        rows = db.query(
            "SELECT city, COUNT(*) AS n FROM jobs GROUP BY city ORDER BY n DESC, city ASC"
        )
        assert rows[0]["city"] == "Oakland"

    def test_aggregate_expression(self, db):
        row = db.query("SELECT MAX(salary) - MIN(salary) AS spread FROM jobs")[0]
        assert row["spread"] == 50000

    def test_aggregate_outside_group_context(self, db):
        with pytest.raises(SQLError):
            db.query("SELECT id FROM jobs WHERE COUNT(*) > 1")


class TestJoins:
    def test_inner_join(self, db):
        rows = db.query(
            "SELECT j.title, a.status FROM jobs j JOIN apps a ON a.job_id = j.id"
        )
        assert len(rows) == 3  # app 4 references a missing job

    def test_join_group_by(self, db):
        rows = db.query(
            "SELECT j.title, COUNT(*) AS n FROM jobs j JOIN apps a ON a.job_id = j.id "
            "GROUP BY j.title ORDER BY n DESC"
        )
        assert rows[0] == {"title": "Data Scientist", "n": 2}

    def test_left_join_null_fills(self, db):
        rows = db.query(
            "SELECT j.id, a.status FROM jobs j LEFT JOIN a ON a.job_id = j.id"
            .replace(" a ON", " apps a ON")
        )
        unmatched = [r for r in rows if r["status"] is None]
        assert sorted(r["id"] for r in unmatched) == [3, 4, 5]

    def test_left_join_where_is_null(self, db):
        rows = db.query(
            "SELECT j.id FROM jobs j LEFT JOIN apps a ON a.job_id = j.id "
            "WHERE a.status IS NULL"
        )
        assert sorted(r["id"] for r in rows) == [3, 4, 5]

    def test_ambiguous_column_rejected(self, db):
        with pytest.raises(SQLError, match="ambiguous"):
            db.query("SELECT id FROM jobs j JOIN apps a ON a.job_id = j.id")

    def test_qualified_star(self, db):
        rows = db.query("SELECT a.* FROM jobs j JOIN apps a ON a.job_id = j.id")
        assert set(rows[0]) == {"id", "job_id", "status"}


class TestIndexAccessPath:
    def test_equality_uses_pk_index(self, db):
        result = db.execute("SELECT * FROM jobs WHERE id = 3")
        assert result.stats.used_index == "jobs.id"
        assert result.stats.rows_scanned == 0

    def test_in_uses_hash_index(self, db):
        db.execute("CREATE INDEX i ON jobs (city)")
        result = db.execute("SELECT * FROM jobs WHERE city IN ('Oakland', 'Berkeley')")
        assert result.stats.used_index == "jobs.city"
        assert len(result.rows) == 3

    def test_range_uses_sorted_index(self, db):
        db.execute("CREATE INDEX i ON jobs (salary) USING sorted")
        result = db.execute("SELECT id FROM jobs WHERE salary >= 150000")
        assert result.stats.used_index == "jobs.salary"
        assert sorted(r["id"] for r in result.rows) == [1, 2]

    def test_unindexed_falls_back_to_scan(self, db):
        result = db.execute("SELECT * FROM jobs WHERE title = 'Data Analyst'")
        assert result.stats.used_index is None
        assert result.stats.rows_scanned == 5

    def test_index_results_match_scan(self, db):
        db.execute("CREATE INDEX i ON jobs (city)")
        indexed = db.query("SELECT id FROM jobs WHERE city = 'Oakland' ORDER BY id")
        expected = [{"id": 2}, {"id": 4}]
        assert indexed == expected

    @pytest.mark.parametrize("op, flipped, ids", [
        (">", "<", [2]), (">=", "<=", [1, 2]), ("<", ">", [3, 4]), ("<=", ">=", [1, 3, 4]),
    ])
    def test_constant_on_the_left_uses_the_sorted_index_too(self, db, op, flipped, ids):
        """``:v < salary`` is ``salary > :v``; it used to fall back to a scan."""
        db.execute("CREATE INDEX i ON jobs (salary) USING sorted")
        plain = db.execute(f"SELECT id FROM jobs WHERE salary {op} :v", {"v": 150000})
        mirrored = db.execute(f"SELECT id FROM jobs WHERE :v {flipped} salary", {"v": 150000})
        assert sorted(r["id"] for r in plain.rows) == ids
        assert mirrored.rows == plain.rows
        assert plain.stats.used_index == mirrored.stats.used_index == "jobs.salary"
        assert plain.stats.index_lookups == mirrored.stats.index_lookups == 1
        assert plain.stats.rows_scanned == mirrored.stats.rows_scanned == 0

    def test_missing_parameter_is_one_error_on_both_databases(self, db):
        """The sharded router raised its own ``StorageError("missing SQL
        parameter")`` from pruning before the executor saw the statement."""
        sharded = ShardedDatabase("s", n_shards=2, n_replicas=3, clock=SimClock())
        sharded.execute("CREATE TABLE jobs (id INT PRIMARY KEY, city TEXT)")
        sharded.execute("INSERT INTO jobs (id, city) VALUES (1, 'Oakland')")
        errors = []
        for database in (db, sharded):
            for sql in ("SELECT id FROM jobs WHERE id = :k",
                        "SELECT id FROM jobs WHERE city = :k",
                        "SELECT id FROM jobs WHERE id IN (1, :k)"):
                with pytest.raises(SQLError, match="missing parameter: 'k'") as caught:
                    database.execute(sql, {})
                errors.append((type(caught.value), str(caught.value)))
        assert len(set(errors)) == 1


class TestSargableForm:
    """``sargable`` → ``choose_index`` / ``partition_values``."""

    @staticmethod
    def conjuncts(where, parameters=None, binding="j"):
        select = parse(f"SELECT * FROM jobs j WHERE {where}")
        return sargable(select.where, binding, parameters or {})

    def test_sql_conjuncts(self):
        assert self.conjuncts(
            "j.id = 3 AND :low <= salary AND city IN ('a', :c) AND title <> 'x' "
            "AND other.id = 1 AND id = salary AND city NOT IN ('b') AND (id = 1 OR id = 2) "
            "AND salary + 1 > 2",
            {"low": 10, "c": "b"},
        ) == [("id", "=", 3), ("salary", ">=", 10), ("city", "in", ["a", "b"])]
        assert self.conjuncts("id IN (1, salary)") == []
        assert sargable(None, "j", {}) == []

    def test_document_conjuncts(self):
        assert doc_sargable({
            "city": "SF", "n": {"$eq": 3}, "tag": {"$in": ("a", "b")}, "x": None,
            "years": {"$gte": 2, "$lt": 9.5}, "$or": [{"city": "LA"}], "sub": {"a": 1},
            "eq_sub": {"$eq": {"a": 1}}, "lst": [1, 2], "in_lst": {"$in": [[1], 2]},
            "in_text": {"$in": "abc"}, "name": {"$gt": "m", "$ne": "x"},
            # a range is sargable only for a constant that has a place in the order
            "gt_none": {"$gt": None}, "lte_list": {"$lte": [1]}, "lt_sub": {"$lt": {"a": 1}},
        }) == [
            ("city", "=", "SF"), ("n", "=", 3), ("tag", "in", ["a", "b"]), ("x", "=", None),
            ("years", ">=", 2), ("years", "<", 9.5), ("name", ">", "m"),
        ]

    def test_choose_index_intersects_every_usable_conjunct(self):
        hashed, ranged = HashIndex("h"), SortedIndex("r")
        for row_id, value in enumerate([10, 20, 20, 30]):
            hashed.insert(value, row_id)
            ranged.insert(value, row_id)
        index_on = {"h": hashed, "r": ranged}.get
        assert choose_index(index_on, []) is None
        assert choose_index(index_on, [("none", "=", 20)]) is None
        # the unindexed and the unusable are passed over, the rest intersected;
        # the columns come back in conjunct order whatever the sizes were
        assert choose_index(
            index_on, [("none", "=", 1), ("h", ">", 10), ("r", "in", [10]), ("r", "<", 30), ("h", "=", 20)]
        ) == (["r", "h"], {1, 2}, {3, 4})
        assert choose_index(index_on, [("h", "=", 20), ("r", "<", 20)]) == (["h", "r"], set(), {0, 1})
        assert choose_index(index_on, [("h", "=", 20), ("r", ">=", 20)]) == (["h", "r"], {1, 2}, {0, 1})
        assert choose_index(index_on, [("r", ">", 10), ("r", "<", 30)]) == (["r"], {1, 2}, {0, 1})
        # equality takes a hash (or key) index, ``in`` a hash index, a range a
        # sorted one.  Flipped: a sorted index answered ``=`` too until every
        # sorted index ordered by ``order_key``, under which ``Decimal(1) == 1``
        # holds where the keys differ, so it answers ranges only.
        assert choose_index(index_on, [("r", "=", 20)]) is None
        assert choose_index(index_on, [("h", "in", [10, 30, 40])]) == (["h"], {0, 3}, {0})
        assert choose_index(index_on, [("r", "in", [10, 30])]) is None
        assert choose_index(index_on, [("h", ">=", 20)]) is None
        assert choose_index(index_on, [("r", ">", 20)]) == (["r"], {3}, {0})

    def test_choose_index_reads_the_smallest_posting_list_first(self):
        """Sizes come from ``estimate``; only then is anything materialised."""
        read = []

        class Spy(HashIndex):
            def ids(self, op, value):
                read.append(self.column)
                return super().ids(op, value)

        big, small, empty = Spy("big"), Spy("small"), Spy("empty")
        for row_id in range(50):
            big.insert("x", row_id)
        small.extend([("y", 3), ("y", 70)])
        index_on = {"big": big, "small": small, "empty": empty}.get
        conjuncts = [("big", "=", "x"), ("small", "=", "y")]
        assert choose_index(index_on, conjuncts) == (["big", "small"], {3}, {0, 1})
        assert read == ["small", "big"]
        del read[:]
        # an empty answer stops the intersection: nothing else is read
        assert choose_index(index_on, conjuncts + [("empty", "in", ["z"])]) == (
            ["big", "small", "empty"], set(), {0, 1, 2}
        )
        assert read == ["empty"]

    def test_partition_values(self):
        conjuncts = [("age", ">", 3), ("city", "in", ("a", "b")), ("city", "=", "c")]
        assert partition_values(conjuncts, "city") == ["a", "b"]
        assert partition_values(conjuncts[::-1], "city") == ["c"]
        assert partition_values(conjuncts, "age") is None  # a range pins nothing
        assert partition_values(conjuncts, "City") is None
        assert partition_values(conjuncts, None) is None
        assert partition_values([], "city") is None


class TestDML:
    def test_insert(self, db):
        result = db.execute(
            "INSERT INTO jobs (id, title, city, salary, remote) "
            "VALUES (10, 'PM', 'Austin', 120000, FALSE)"
        )
        assert result.rowcount == 1
        assert len(db.query("SELECT * FROM jobs")) == 6

    def test_insert_count_mismatch(self, db):
        with pytest.raises(SQLError):
            db.execute("INSERT INTO jobs (id, title) VALUES (10)")

    def test_update_with_expression(self, db):
        result = db.execute("UPDATE jobs SET salary = salary + 1000 WHERE id = 1")
        assert result.rowcount == 1
        assert db.execute("SELECT salary FROM jobs WHERE id = 1").scalar() == 151000

    def test_update_all(self, db):
        assert db.execute("UPDATE jobs SET remote = TRUE").rowcount == 5

    def test_update_reads_each_row_as_it_was_before_the_statement(self):
        """Each matched row was updated through a whole-row ``==`` predicate
        that re-matched rows already updated: 1, 2 became 3, 3."""
        database = Database("keyless")
        quick_table(database, "t", [("x", ColumnType.INT)], [{"x": 1}, {"x": 2}])
        assert database.execute("UPDATE t SET x = x + 1").rowcount == 2
        assert database.query("SELECT x FROM t") == [{"x": 2}, {"x": 3}]

    def test_update_refuses_a_primary_key_another_row_holds(self):
        """``SET id = id + 1`` on 1, 2 reported 2 rows and left two rows with
        id 3, the key index pointing at one of them."""
        database = Database("keyed")
        keyed = [Column("id", ColumnType.INT, primary_key=True)]
        quick_table(database, "p", keyed, [{"id": 1}, {"id": 2}])
        with pytest.raises(StorageError, match="duplicate primary key 2 in table 'p'"):
            database.execute("UPDATE p SET id = id + 1")
        assert database.query("SELECT id FROM p") == [{"id": 1}, {"id": 2}]
        # refused at the colliding row: the rows before it stay updated
        quick_table(database, "q", keyed, [{"id": 1}, {"id": 3}, {"id": 4}])
        with pytest.raises(StorageError, match="duplicate primary key 4"):
            database.execute("UPDATE q SET id = id + 1")
        assert database.query("SELECT id FROM q") == [{"id": 2}, {"id": 3}, {"id": 4}]
        assert database.query("SELECT id FROM q WHERE id = 2") == [{"id": 2}]
        assert database.execute("UPDATE q SET id = id + 10").rowcount == 3
        assert database.query("SELECT id FROM q WHERE id IN (2, 12, 14)") == [
            {"id": 12}, {"id": 14}
        ]

    def test_update_frees_and_claims_keys_in_row_order(self):
        """Deciding every row before applying any keeps the row-by-row key
        rule: a key an earlier row gave up is free, one it took is held."""
        database = Database("keyed")
        keyed = [Column("id", ColumnType.INT, primary_key=True)]
        quick_table(database, "p", keyed, [{"id": 1}, {"id": 2}, {"id": 3}])
        assert database.execute("UPDATE p SET id = id - 1").rowcount == 3
        assert database.query("SELECT id FROM p WHERE id IN (0, 1, 2, 3)") == [
            {"id": 0}, {"id": 1}, {"id": 2}
        ]
        with pytest.raises(StorageError, match="duplicate primary key 5"):
            database.execute("UPDATE p SET id = 5 WHERE id <> 1")
        assert database.query("SELECT id FROM p WHERE id IN (0, 1, 2, 5)") == [
            {"id": 5}, {"id": 1}, {"id": 2}
        ]

    def test_delete(self, db):
        assert db.execute("DELETE FROM jobs WHERE city = 'Oakland'").rowcount == 2
        assert len(db.query("SELECT * FROM jobs")) == 3

    def test_create_table_and_use(self, db):
        db.execute("CREATE TABLE notes (id INT PRIMARY KEY, body TEXT)")
        db.execute("INSERT INTO notes (id, body) VALUES (1, 'hi')")
        assert db.execute("SELECT COUNT(*) AS n FROM notes").scalar() == 1

    def test_create_index_unknown_kind(self, db):
        with pytest.raises(StorageError):
            db.execute("CREATE INDEX i ON jobs (city) USING banana")


class TestSQLResult:
    def test_scalar_empty(self, db):
        assert db.execute("SELECT id FROM jobs WHERE id = 99").scalar() is None

    def test_column(self, db):
        result = db.execute("SELECT id FROM jobs ORDER BY id LIMIT 2")
        assert result.column("id") == [1, 2]

    def test_len_and_iter(self, db):
        result = db.execute("SELECT id FROM jobs")
        assert len(result) == 5
        assert len(list(result)) == 5
