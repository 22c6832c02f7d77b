"""Tests for the sharded relational database (router + shard pruning)."""

import pytest

from repro.clock import SimClock
from repro.errors import StorageError
from repro.storage.cluster import ShardedDatabase
from repro.storage.schema import Column, ColumnType, TableSchema


CITIES = ["Oakland", "Austin", "Denver", "Boston", "Seattle"]


def people_schema():
    return TableSchema(
        "people",
        [
            Column("id", ColumnType.INT, primary_key=True),
            Column("name", ColumnType.TEXT),
            Column("city", ColumnType.TEXT),
            Column("age", ColumnType.INT),
        ],
    )


@pytest.fixture
def db():
    database = ShardedDatabase("hr", n_shards=4, n_replicas=3,
                               clock=SimClock(), seed=5)
    table = database.create_table(people_schema(), partition_column="city")
    table.create_index("city")
    table.insert_many(
        {"id": i, "name": f"p{i}", "city": CITIES[i % 5], "age": 20 + i % 40}
        for i in range(100)
    )
    return database


class TestShardedTable:
    def test_rows_span_all_shards(self, db):
        table = db.table("people")
        assert len(table) == 100
        assert len(table.rows()) == 100
        used = {table.shard_for_value(city) for city in CITIES}
        assert len(used) > 1

    def test_same_partition_value_same_shard(self, db):
        table = db.table("people")
        austin = [r for r in table.rows() if r["city"] == "Austin"]
        assert len(austin) == 20
        shards = {table.shard_for_value(r["city"]) for r in austin}
        assert len(shards) == 1

    def test_insert_validates_schema(self, db):
        with pytest.raises(StorageError):
            db.table("people").insert({"id": "not-an-int", "name": "x",
                                       "city": "Austin", "age": 1})

    def test_duplicate_table_rejected(self, db):
        with pytest.raises(StorageError):
            db.create_table(people_schema())

    def test_partition_column_must_exist(self, db):
        schema = TableSchema("other", [Column("a", ColumnType.INT)])
        with pytest.raises(StorageError):
            db.create_table(schema, partition_column="nope")

    def test_drop_table_unsupported(self, db):
        with pytest.raises(StorageError):
            db.drop_table("people")


class TestShardPruning:
    def test_equality_on_partition_column_prunes(self, db):
        result = db.execute("SELECT * FROM people WHERE city = 'Austin'")
        assert len(result.rows) == 20
        stats = db.last_execute_stats
        assert stats["pruned"]
        assert stats["shards_scanned"] == 1
        assert stats["shards_total"] == 4

    def test_in_list_prunes_to_member_shards(self, db):
        result = db.execute(
            "SELECT * FROM people WHERE city IN ('Austin', 'Boston')"
        )
        assert len(result.rows) == 40
        stats = db.last_execute_stats
        assert stats["pruned"]
        assert stats["shards_scanned"] <= 2

    def test_parameterized_equality_prunes(self, db):
        result = db.execute(
            "SELECT * FROM people WHERE city = :city",
            {"city": "Denver"},
        )
        assert len(result.rows) == 20
        assert db.last_execute_stats["pruned"]

    def test_non_partition_filter_fans_out(self, db):
        result = db.execute("SELECT * FROM people WHERE age >= 50")
        assert result.rows
        stats = db.last_execute_stats
        assert not stats["pruned"]
        assert stats["shards_scanned"] == 4

    def test_pruned_and_fanout_agree(self, db):
        pruned = db.execute("SELECT id FROM people WHERE city = 'Austin'")
        fanout = db.execute(
            "SELECT id FROM people WHERE city || '' = 'Austin'"
        )
        assert sorted(r["id"] for r in pruned.rows) == \
            sorted(r["id"] for r in fanout.rows)


class TestDistributedQueries:
    def test_order_by_limit_merges_across_shards(self, db):
        result = db.execute(
            "SELECT id, age FROM people ORDER BY age DESC, id ASC LIMIT 7"
        )
        everything = db.execute("SELECT id, age FROM people")
        expected = sorted(
            everything.rows, key=lambda r: (-r["age"], r["id"])
        )[:7]
        assert result.rows == expected
        assert db.last_execute_stats["path"] == "pushdown"

    def test_aggregate_gathers(self, db):
        result = db.execute("SELECT COUNT(*) AS n FROM people")
        assert result.scalar() == 100
        assert db.last_execute_stats["path"] == "gather"

    def test_group_by_gathers_globally(self, db):
        result = db.execute(
            "SELECT city, COUNT(*) AS n FROM people GROUP BY city ORDER BY city"
        )
        assert [r["n"] for r in result.rows] == [20] * 5

    def test_update_on_pruned_shard(self, db):
        count = db.execute(
            "UPDATE people SET age = 99 WHERE city = 'Austin'"
        ).rowcount
        assert count == 20
        assert db.last_execute_stats["pruned"]
        check = db.execute("SELECT COUNT(*) AS n FROM people WHERE age = 99")
        assert check.scalar() == 20

    def test_delete_fans_out(self, db):
        count = db.execute("DELETE FROM people WHERE age >= 50").rowcount
        assert count > 0
        assert len(db.table("people")) == 100 - count

    def test_insert_via_sql_routes_by_partition(self, db):
        db.execute(
            "INSERT INTO people (id, name, city, age) "
            "VALUES (1000, 'new', 'Austin', 30)"
        )
        result = db.execute("SELECT * FROM people WHERE city = 'Austin'")
        assert len(result.rows) == 21
        assert db.last_execute_stats["shards_scanned"] == 1


class TestFailover:
    def test_queries_survive_primary_kills(self, db):
        cluster = db.cluster
        for shard in cluster.shards:
            cluster.kill_replica(shard.primary().replica_id)
        cluster.tick()  # failover promotes replacements
        result = db.execute("SELECT COUNT(*) AS n FROM people")
        assert result.scalar() == 100
        db.execute("INSERT INTO people (id, name, city, age) "
                   "VALUES (2000, 'during-failover', 'Austin', 1)")
        cluster.settle()
        result = db.execute(
            "SELECT name FROM people WHERE city = 'Austin' AND id = 2000"
        )
        assert [r["name"] for r in result.rows] == ["during-failover"]

    def test_replicas_converge_to_identical_logs(self, db):
        cluster = db.cluster
        cluster.kill_replica("s1.r0")
        db.execute("UPDATE people SET age = 0 WHERE age < 30")
        cluster.settle()
        for shard in cluster.shards:
            digests = {replica.log_digest() for replica in shard.replicas}
            assert len(digests) == 1


class TestCrossShardDuplicateKey:
    """``partition_column`` != primary key: the router accepts one ``id``
    on two shards (DESIGN §13, known limitation); a gather that sees both
    slices refuses to treat them as one table."""

    @pytest.fixture
    def split(self, db):
        table = db.table("people")
        here, there = next(
            (a, b) for a in CITIES for b in CITIES
            if table.shard_for_value(a) != table.shard_for_value(b)
        )
        table.insert({"id": 500, "name": "twin", "city": here, "age": 1})
        table.insert({"id": 500, "name": "twin", "city": there, "age": 2})
        return here, there

    def test_fanout_gather_rejects_duplicate_primary_key(self, db, split):
        with pytest.raises(StorageError, match="duplicate primary key 500"):
            db.execute("SELECT COUNT(*) AS n FROM people")

    def test_gather_pruned_to_one_shard_does_not(self, db, split):
        here, _ = split
        result = db.execute(
            "SELECT COUNT(*) AS n FROM people WHERE city = :city AND id = 500",
            {"city": here},
        )
        assert result.scalar() == 1
        assert db.last_execute_stats["path"] == "gather"
        assert db.last_execute_stats["shards_scanned"] == 1

    def test_pushdown_returns_both_rows(self, db, split):
        result = db.execute("SELECT city, age FROM people WHERE id = 500")
        assert db.last_execute_stats["path"] == "pushdown"
        assert sorted(r["city"] for r in result.rows) == sorted(split)
