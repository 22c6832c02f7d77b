"""Tests for SQL subqueries: IN (SELECT ...) and scalar subqueries."""

import pytest

from repro.storage import ColumnType, Database, quick_table
from repro.storage.schema import Column


@pytest.fixture
def db():
    database = Database("subq")
    quick_table(
        database,
        "jobs",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("title", ColumnType.TEXT),
            Column("city", ColumnType.TEXT),
            Column("salary", ColumnType.INT),
        ],
        [
            {"id": 1, "title": "DS", "city": "SF", "salary": 150},
            {"id": 2, "title": "ML", "city": "Oakland", "salary": 170},
            {"id": 3, "title": "DS", "city": "NY", "salary": 120},
        ],
    )
    quick_table(
        database,
        "apps",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("job_id", ColumnType.INT),
        ],
        [
            {"id": 1, "job_id": 1},
            {"id": 2, "job_id": 1},
            {"id": 3, "job_id": 3},
        ],
    )
    return database


class TestInSubquery:
    def test_semi_join(self, db):
        rows = db.query("SELECT id FROM jobs WHERE id IN (SELECT job_id FROM apps)")
        assert sorted(r["id"] for r in rows) == [1, 3]

    def test_anti_join(self, db):
        rows = db.query("SELECT id FROM jobs WHERE id NOT IN (SELECT job_id FROM apps)")
        assert [r["id"] for r in rows] == [2]

    def test_filtered_subquery(self, db):
        rows = db.query(
            "SELECT id FROM apps WHERE job_id IN "
            "(SELECT id FROM jobs WHERE city = 'SF')"
        )
        assert sorted(r["id"] for r in rows) == [1, 2]

    def test_empty_subquery(self, db):
        rows = db.query(
            "SELECT id FROM jobs WHERE id IN (SELECT job_id FROM apps WHERE id > 99)"
        )
        assert rows == []

    def test_null_operand_never_matches(self, db):
        db.execute("INSERT INTO jobs (id, title, city, salary) VALUES (4, 'PM', 'SF', NULL)")
        rows = db.query(
            "SELECT id FROM jobs WHERE salary IN (SELECT salary FROM jobs WHERE id = 1)"
        )
        assert [r["id"] for r in rows] == [1]


class TestScalarSubquery:
    def test_comparison_to_scalar(self, db):
        rows = db.query(
            "SELECT id FROM jobs WHERE salary > (SELECT AVG(salary) FROM jobs)"
        )
        # avg = (150+170+120)/3 ~ 146.7
        assert sorted(r["id"] for r in rows) == [1, 2]

    def test_scalar_in_projection(self, db):
        row = db.query("SELECT (SELECT MAX(salary) FROM jobs) AS top FROM jobs LIMIT 1")[0]
        assert row["top"] == 170

    def test_empty_scalar_is_null(self, db):
        rows = db.query(
            "SELECT id FROM jobs WHERE salary > (SELECT salary FROM jobs WHERE id = 99)"
        )
        assert rows == []

    def test_nested_subqueries(self, db):
        rows = db.query(
            "SELECT id FROM jobs WHERE id IN "
            "(SELECT job_id FROM apps WHERE job_id IN "
            "(SELECT id FROM jobs WHERE title = 'DS'))"
        )
        assert sorted(r["id"] for r in rows) == [1, 3]

    def test_parenthesized_expr_still_works(self, db):
        rows = db.query("SELECT id FROM jobs WHERE (salary + 10) >= 160")
        assert sorted(r["id"] for r in rows) == [1, 2]


class TestExists:
    def test_exists_true_when_rows(self, db):
        rows = db.query("SELECT id FROM jobs WHERE EXISTS (SELECT id FROM apps)")
        assert len(rows) == 3  # all jobs kept: the subquery has rows

    def test_exists_false_when_empty(self, db):
        rows = db.query(
            "SELECT id FROM jobs WHERE EXISTS (SELECT id FROM apps WHERE id > 99)"
        )
        assert rows == []

    def test_not_exists(self, db):
        rows = db.query(
            "SELECT id FROM jobs WHERE NOT EXISTS (SELECT id FROM apps WHERE id > 99)"
        )
        assert len(rows) == 3

    def test_exists_with_filtered_subquery(self, db):
        rows = db.query(
            "SELECT id FROM jobs WHERE EXISTS "
            "(SELECT id FROM apps WHERE job_id = 3) AND city = 'NY'"
        )
        assert [r["id"] for r in rows] == [3]

    def test_exists_combined_with_not_expr(self, db):
        # Plain NOT on a non-EXISTS expression still parses.
        rows = db.query("SELECT id FROM jobs WHERE NOT city = 'SF'")
        assert sorted(r["id"] for r in rows) == [2, 3]


class TestStatementSnapshot:
    """An UPDATE / DELETE decides every row on the table as it was before
    the statement: a subquery in SET once read the rows already updated
    (1, 2, 3 became 4, 5, 6)."""

    def test_a_subquery_in_set_reads_the_rows_before_the_update(self):
        database = Database("snapshot")
        quick_table(database, "t", [("x", ColumnType.INT)], [{"x": 1}, {"x": 2}, {"x": 3}])
        assert database.execute("UPDATE t SET x = (SELECT MAX(x) FROM t) + 1").rowcount == 3
        assert database.query("SELECT x FROM t") == [{"x": 4}, {"x": 4}, {"x": 4}]

    def test_a_subquery_in_where_reads_the_rows_before_the_delete(self, db):
        sql = "DELETE FROM jobs WHERE salary >= (SELECT MAX(salary) FROM jobs)"
        assert db.execute(sql).rowcount == 1
        assert [r["id"] for r in db.query("SELECT id FROM jobs")] == [1, 3]
