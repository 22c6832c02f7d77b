"""Tests for the sharded relational database (router + shard pruning)."""

import sys
import threading
from pathlib import Path

import pytest

from repro.clock import SimClock
from repro.errors import SchemaError, StorageError
from repro.observability import Observability
from repro.storage.cluster import Replica, ShardedDatabase
from repro.storage.relational import Database
from repro.storage.relational.sql.executor import Executor
from repro.storage.schema import Column, ColumnType, TableSchema

try:
    from row_heaps import replicas_decide_nothing
except ImportError:  # collected before tests/properties: put it on the path
    sys.path.insert(0, str(Path(__file__).parents[1] / "properties"))
    from row_heaps import replicas_decide_nothing


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

    def test_an_int_routes_as_the_float_it_is_stored_as(self):
        """A FLOAT column stores ``float(v)``, which past 2**53 is another
        number: routing the int as given would place the row off the shard
        its stored value prunes to."""
        schema = TableSchema("m", [
            Column("id", ColumnType.INT, primary_key=True), Column("f", ColumnType.FLOAT),
        ])
        sharded = ShardedDatabase("s", n_shards=4, n_replicas=3, clock=SimClock(), seed=5)
        single = Database("one")
        rows = [{"id": i, "f": 2**53 + i} for i in range(1, 40, 2)]  # odd: rounded
        sharded.create_table(schema, partition_column="f").insert_many(rows)
        single.create_table(schema).insert_many(rows)
        sql = "SELECT id FROM m WHERE f = :f ORDER BY id"
        for row in rows:
            parameters = {"f": float(row["f"])}
            assert sharded.execute(sql, parameters).rows == single.execute(sql, parameters).rows


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

    def test_aggregate_gathers(self, db):
        result = db.execute("SELECT COUNT(*) AS n FROM people")
        assert result.scalar() == 100

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

    def test_insert_values_are_evaluated_at_the_router(self, db):
        db.execute(
            "INSERT INTO people (id, name, city, age) "
            "VALUES (1001, UPPER('new'), 'Aus' || 'tin', :base + 1)",
            {"base": 30},
        )
        result = db.execute(
            "SELECT name, age FROM people WHERE city = 'Austin' AND id = 1001"
        )
        assert result.rows == [{"name": "NEW", "age": 31}]
        assert db.last_execute_stats["shards_scanned"] == 1

    def test_insert_value_count_mismatch_rejected(self, db):
        with pytest.raises(StorageError, match="count mismatch"):
            db.execute(
                "INSERT INTO people (id, name, city, age) VALUES (1002, 'x', 'Austin')"
            )
        assert len(db.table("people")) == 100


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
        assert db.last_execute_stats["shards_scanned"] == 1

    def test_select_of_both_slices_raises(self, db, split):
        for sql in (
            "SELECT city, age FROM people WHERE id = 500",
            "SELECT * FROM people",
            "SELECT name FROM people ORDER BY age LIMIT 3",
        ):
            with pytest.raises(StorageError, match="duplicate primary key 500"):
                db.execute(sql)

    def test_select_pruned_to_one_shard_answers(self, db, split):
        here, _ = split
        result = db.execute(
            "SELECT city, age FROM people WHERE id = 500 AND city = :city",
            {"city": here},
        )
        assert result.rows == [{"city": here, "age": 1}]


def people_rows(nulls):
    """Distinct ages (37 is a unit mod 101), so no ORDER BY age ties —
    except among the NULLs, when asked for."""
    return [
        {"id": i, "name": f"n{i}", "city": CITIES[i % 5],
         "age": None if nulls and i % 7 == 0 else (i * 37) % 101}
        for i in range(60)
    ]


def sharded_and_single(rows):
    sharded = ShardedDatabase("hr", n_shards=4, n_replicas=3,
                              clock=SimClock(), seed=5)
    table = sharded.create_table(people_schema(), partition_column="city")
    table.insert_many(rows)
    assert len({table.shard_for_value(city) for city in CITIES}) >= 2
    single = Database("hr")
    single.create_table(people_schema()).insert_many(rows)
    return sharded, single


class TestMatchesSingleNode:
    """A sharded SELECT returns, row for row, what a single-node
    ``Database`` holding the same rows returns."""

    @pytest.mark.parametrize("sql", [
        # the sort column is not projected
        "SELECT name FROM people ORDER BY age DESC LIMIT 5",
        # ... and is reached through a table alias
        "SELECT p.name AS who FROM people p ORDER BY p.age LIMIT 5",
        "SELECT p.name AS who, p.age AS years FROM people p ORDER BY p.age DESC LIMIT 5",
    ])
    def test_order_by_limit(self, sql):
        sharded, single = sharded_and_single(people_rows(nulls=False))
        assert sharded.execute(sql).rows == single.execute(sql).rows

    @pytest.mark.parametrize("sql", [
        "SELECT name FROM people ORDER BY age, id LIMIT 12",
        "SELECT name FROM people ORDER BY age DESC, id",
        "SELECT id, age FROM people ORDER BY age, id LIMIT 12",
        "SELECT id, age FROM people ORDER BY age DESC, id",
    ])
    def test_null_bearing_sort_column(self, sql):
        sharded, single = sharded_and_single(people_rows(nulls=True))
        assert sharded.execute(sql).rows == single.execute(sql).rows


class TestShardedDDL:
    def shard_tables(self, db, name):
        return [state.table(name) for state in db.cluster.primary_states()]

    def test_create_table_broadcasts_and_partitions_by_primary_key(self, db):
        result = db.execute(
            "CREATE TABLE notes (id INT PRIMARY KEY, body TEXT NOT NULL)"
        )
        assert result.statement_kind == "create_table"
        assert db.table("notes").partition_column == "id"
        assert len(self.shard_tables(db, "notes")) == 4
        db.execute("INSERT INTO notes (id, body) VALUES (1, 'a'), (2, 'b'), (3, 'c')")
        assert db.execute("SELECT COUNT(*) AS n FROM notes").scalar() == 3
        with pytest.raises(StorageError, match="table already exists"):
            db.execute("CREATE TABLE notes (id INT PRIMARY KEY)")

    def test_create_index_broadcasts(self, db):
        result = db.execute("CREATE INDEX by_age ON people (age) USING sorted")
        assert result.statement_kind == "create_index"
        for table in self.shard_tables(db, "people"):
            assert table.indexed_columns()["age"] == "sorted"

    def test_unknown_index_kind_rejected_before_any_append(self, db):
        with pytest.raises(StorageError, match="unknown index kind"):
            db.execute("CREATE INDEX by_age ON people (age) USING btree")
        # no replica logged the statement: a primary that had would lose
        # the next write to its shard
        for shard in db.cluster.shards:
            assert len({replica.log_digest() for replica in shard.replicas}) == 1
        db.table("people").insert_many(
            {"id": 100 + i, "name": "late", "city": city, "age": 1}
            for i, city in enumerate(CITIES)
        )
        assert db.execute("SELECT COUNT(*) AS n FROM people").scalar() == 105


class TestRefusedWrites:
    """A write a shard's state machine refuses reaches no replica's log.
    The first acceptor used to log before applying: the refused op sat in
    its log past ``acked``, later appends skipped that replica, and while it
    stayed primary it served without them (ids 3-7 read back as 3, 5, 6, 7);
    a refused ``CREATE INDEX`` also broke every replay of that log."""

    @pytest.fixture
    def small(self):
        db = ShardedDatabase("t", n_shards=2, n_replicas=3, clock=SimClock(), seed=0)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
        db.execute("INSERT INTO t (id, x) VALUES (1, 1), (2, 2)")
        return db

    @pytest.mark.parametrize("refused, error", [
        ("INSERT INTO t (id, x) VALUES (1, 9)", StorageError),
        ("CREATE INDEX ix ON t (nosuch)", SchemaError),
        ("INSERT INTO t (id, x) VALUES (9, 'nine')", SchemaError),
        ("INSERT INTO t (id, nosuch) VALUES (9, 1)", SchemaError),
        ("INSERT INTO t (id, x) VALUES (NULL, 1)", SchemaError),
    ])
    def test_a_refused_write_reaches_no_log(self, small, refused, error):
        cluster = small.cluster
        digests = [replica.log_digest() for replica in cluster.all_replicas()]
        with pytest.raises(error):
            small.execute(refused)
        assert [replica.log_digest() for replica in cluster.all_replicas()] == digests
        for i in range(3, 8):
            small.execute(f"INSERT INTO t (id, x) VALUES ({i}, {i})")
        ids = list(range(1, 8))
        assert [row["id"] for row in small.query("SELECT id FROM t ORDER BY id")] == ids
        for shard in cluster.shards:
            cluster.kill_replica(shard.replicas[0].replica_id)
        cluster.settle()  # replays every log: raised SchemaError at each tick
        assert [row["id"] for row in small.query("SELECT id FROM t ORDER BY id")] == ids
        for shard in cluster.shards:
            assert {r.applied for r in shard.replicas} == {shard.acked}
            assert len({replica.log_digest() for replica in shard.replicas}) == 1


    def test_a_bad_last_row_appends_to_no_shard(self, small):
        """The router is the only check: it validates every row before the
        first append."""
        cluster = small.cluster
        digests = [replica.log_digest() for replica in cluster.all_replicas()]
        rows = [{"id": i, "x": i} for i in range(3, 20)] + [{"id": 20, "x": "twenty"}]
        with pytest.raises(SchemaError):
            small.table("t").insert_many(rows)
        assert [replica.log_digest() for replica in cluster.all_replicas()] == digests
        assert len(small.table("t")) == 2


class TestOneStoredRow:
    """A sharded INSERT validates each row once, at the router, and the log
    and every replica of its shard hold that one row object.  Each replica
    used to validate it again and keep its own copy: 4 validations and 3
    distinct rows per row."""

    @pytest.fixture
    def validated(self, monkeypatch):
        rows = []
        validate_row = TableSchema.validate_row

        def counting(schema, row):
            rows.append(row)
            return validate_row(schema, row)

        monkeypatch.setattr(TableSchema, "validate_row", counting)
        return rows

    def test_validated_once_and_shared_by_every_replica(self, validated):
        db = ShardedDatabase("t", n_shards=2, n_replicas=3, clock=SimClock(), seed=0)
        db.execute("CREATE TABLE t (id INT PRIMARY KEY, x INT)")
        assert db.table("t").insert_many({"id": i, "x": i} for i in range(10)) == 10
        assert len(validated) == 10
        db.execute("INSERT INTO t (id, x) VALUES (10, 10), (11, 11)")
        assert len(validated) == 12
        cluster = db.cluster
        for shard in cluster.shards:
            cluster.kill_replica(shard.replicas[0].replica_id)
        cluster.settle()  # the killed replicas replay their logs
        assert len(validated) == 12
        stored = 0
        for shard in cluster.shards:
            tables = [replica.state.table("t") for replica in shard.replicas]
            logged = [row for op in shard.replicas[0].log if op["op"] == "insert_many"
                      for row in op["rows"]]
            rows = tables[0].select(())[0]
            assert [id(row) for row in rows] == [id(row) for row in logged]
            for row in rows:
                assert all(table._heap.get(row[0]) is row for table in tables)  # id, by position
            stored += len(rows)
        assert stored == 12


class TestSqlSpan:
    def test_span_attributes_and_tallies(self, db):
        obs = Observability(SimClock())
        db.observability = obs
        db.execute("SELECT name FROM people WHERE city = 'Austin'")
        db.execute("UPDATE people SET age = 1 WHERE age >= 50")
        db.execute("CREATE INDEX by_age ON people (age)")
        spans = [span.to_dict() for span in obs.tracer.spans()]
        assert [span["name"] for span in spans] == ["sql:hr"] * 3
        assert {span["kind"] for span in spans} == {"storage"}
        assert [span["attributes"] for span in spans[:2]] == [
            {"database": "hr", "statement_kind": "select", "rows": 20,
             "shards_scanned": 1, "shards_total": 4, "pruned": True},
            {"database": "hr", "statement_kind": "update", "rows": 0,
             "shards_scanned": 4, "shards_total": 4, "pruned": False},
        ]
        assert spans[2]["attributes"]["statement_kind"] == "create_index"
        snapshot = obs.metrics.snapshot()
        assert snapshot["storage.queries{database=hr}"] == 3
        assert snapshot["storage.rows{database=hr}"] == 20

    def test_an_insert_or_ddl_span_carries_no_shard_attributes(self, db):
        """They carried the previous SELECT's (``shards_scanned: 1``)."""
        obs = Observability(SimClock())
        db.observability = obs
        db.execute("SELECT name FROM people WHERE city = 'Austin'")
        db.execute("INSERT INTO people (id, name, city, age) VALUES (500, 'n', 'Austin', 30)")
        assert db.last_execute_stats == {}
        db.execute("CREATE INDEX by_age ON people (age)")
        spans = [span.to_dict()["attributes"] for span in obs.tracer.spans()]
        assert [span.get("shards_scanned") for span in spans] == [1, None, None]
        assert [span.get("pruned") for span in spans] == [True, None, None]


class TestWritesAreDecidedOnce:
    """A sharded UPDATE / DELETE is decided once, at the router, over the
    pruned slices, and logged as its effect.  Each replica used to parse,
    plan and run the statement itself (12 executions on 4 x 3), a refused
    one rebuilt the refusing replica from its whole log, and each shard
    decided on its own slice, so a subquery read one shard's rows."""

    @pytest.fixture
    def emp(self):
        with replicas_decide_nothing():
            db = ShardedDatabase("hr", n_shards=4, n_replicas=3, clock=SimClock(), seed=5)
            db.execute("CREATE TABLE emp (id INT PRIMARY KEY, city TEXT, salary INT)")
            db.execute("CREATE TABLE dept (id INT PRIMARY KEY, cap INT)")
            db.table("emp").insert_many(
                {"id": i, "city": CITIES[i % 5], "salary": 1000 + i * 37 % 500} for i in range(40)
            )
            db.execute("INSERT INTO dept (id, cap) VALUES (1, 1300)")
            yield db

    @staticmethod
    def single(db):
        """A single-node database holding what *db* holds."""
        single = Database("one")
        for name in ("emp", "dept"):
            front = db.table(name)
            rows = sorted(front.rows(), key=lambda row: row["id"])
            single.create_table(front.schema).insert_many(rows)
        return single

    def test_a_fan_out_update_runs_the_executor_once(self, emp, monkeypatch):
        runs = []
        execute = Executor.execute
        monkeypatch.setattr(
            Executor, "execute", lambda self, st: (runs.append(st), execute(self, st))[1]
        )
        assert emp.execute("UPDATE emp SET salary = salary + 1").rowcount == 40
        assert emp.execute("DELETE FROM emp WHERE salary > 1400").rowcount > 0
        assert len(runs) == 2

    @pytest.mark.parametrize("sql", [
        "UPDATE emp SET id = 0 WHERE id = 5",
        "UPDATE emp SET id = id + 5",  # refused on some shard, appended on none
        "UPDATE emp SET salary = 'high' WHERE city = 'Austin'",
    ])
    def test_a_refused_write_reaches_no_log_and_replays_nothing(self, emp, monkeypatch, sql):
        replays = []
        replay = Replica._replay
        monkeypatch.setattr(Replica, "_replay", lambda self: (replays.append(self), replay(self)))
        rows = sorted(emp.table("emp").rows(), key=lambda r: r["id"])
        digests = [replica.log_digest() for replica in emp.cluster.all_replicas()]
        with pytest.raises((StorageError, SchemaError)):
            emp.execute(sql)
        assert [replica.log_digest() for replica in emp.cluster.all_replicas()] == digests
        assert replays == []
        assert sorted(emp.table("emp").rows(), key=lambda r: r["id"]) == rows

    def test_a_key_held_on_the_last_pruned_shard_refuses_every_shard(self, emp):
        """Pruned to two shards, the collision is on the later one: the
        earlier shard's rows, updated and logged at the parent, stay."""
        front = emp.table("emp")
        by_shard = {}
        for city in CITIES:
            by_shard.setdefault(front.shard_for_value(city), city)
        (_, first), (_, last) = sorted(by_shard.items())[0], sorted(by_shard.items())[-1]
        emp.execute("INSERT INTO emp (id, city, salary) VALUES (200, :a, 1), (100, :b, 1), "
                    "(101, :b, 1)", {"a": first, "b": last})
        digests = [replica.log_digest() for replica in emp.cluster.all_replicas()]
        sql = "UPDATE emp SET id = id + 1 WHERE city IN (:a, :b) AND salary = 1"
        with pytest.raises(StorageError, match="duplicate primary key 101"):
            emp.execute(sql, {"a": first, "b": last})
        assert [replica.log_digest() for replica in emp.cluster.all_replicas()] == digests
        ids = "SELECT id FROM emp WHERE salary = 1 ORDER BY id"
        assert [row["id"] for row in emp.query(ids)] == [100, 101, 200]

    def test_every_replica_holds_the_logged_image(self, emp):
        emp.execute("UPDATE emp SET salary = salary * 2 WHERE city = 'Austin'")
        emp.execute("UPDATE emp SET salary = 0 WHERE id < 6")
        emp.execute("DELETE FROM emp WHERE id = 7")
        cluster = emp.cluster
        for shard in cluster.shards:
            cluster.kill_replica(shard.replicas[1].replica_id)
        cluster.settle()  # the killed replicas replay their logs
        images = 0
        for shard in cluster.shards:
            tables = [replica.state.table("emp") for replica in shard.replicas]
            latest = {}
            for op in shard.replicas[0].log:
                if op["op"] == "replace_rows":
                    latest.update((row[0], row) for _, row in op["rows"])
            for key, image in latest.items():
                assert all(table._heap.get(key) is image for table in tables)
            images += len(latest)
        assert images == 8 + 6 - 1  # Austin's 8 rows and ids 0-5 (id 1 is Austin's)

    def test_concurrent_increments_lose_no_update(self, emp):
        """Each UPDATE decides and appends under its shards' locks, so two
        writers never decide on the same row as it was before either."""
        workers, rounds = 8, 25
        ids = [0, 1, 2, 3]  # on several shards: a fan-out takes every lock
        start = emp.query("SELECT id, salary FROM emp WHERE id IN (0, 1, 2, 3) ORDER BY id")
        errors = []

        def bump(worker):
            try:
                for n in range(rounds):
                    if (worker + n) % 3:
                        emp.execute("UPDATE emp SET salary = salary + 1 WHERE id = :id",
                                    {"id": ids[(worker + n) % 4]})
                    else:
                        emp.execute("UPDATE emp SET salary = salary + 1 WHERE id IN (0, 1, 2, 3)")
            except Exception as error:  # reported below: a thread's raise is lost
                errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=bump, args=(w,)) for w in range(workers)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and errors == []
        bumps = dict.fromkeys(ids, 0)
        for worker in range(workers):
            for n in range(rounds):
                for key in ([ids[(worker + n) % 4]] if (worker + n) % 3 else ids):
                    bumps[key] += 1
        end = emp.query("SELECT id, salary FROM emp WHERE id IN (0, 1, 2, 3) ORDER BY id")
        assert [row["salary"] - before["salary"] for row, before in zip(end, start)] == [
            bumps[key] for key in ids
        ]
        for shard in emp.cluster.shards:
            assert len({replica.log_digest() for replica in shard.replicas}) == 1

    def test_a_write_under_its_shard_locks_never_waits_for_the_catalog(self, emp, monkeypatch):
        """CREATE TABLE holds the catalog lock while it takes each shard's
        lock; a fan-out UPDATE holding every shard's lock must not then ask
        for the catalog lock.  The UPDATE is held inside its shard locks
        until the CREATE TABLE holds the catalog lock."""
        cluster = emp.cluster
        decided, creating = threading.Event(), threading.Event()
        write, broadcast = cluster.write, cluster.broadcast

        def locked_then_wait(shards, decide, op_of):
            def wait_then_decide():  # called under the shard locks
                decided.set()
                creating.wait(timeout=5)
                return decide()

            return write(shards, wait_then_decide, op_of)

        def signal_then_broadcast(op):
            creating.set()
            return broadcast(op)

        monkeypatch.setattr(cluster, "write", locked_then_wait)
        monkeypatch.setattr(cluster, "broadcast", signal_then_broadcast)
        errors = []

        def run(sql):
            try:
                emp.execute(sql)
            except Exception as error:  # reported below: a thread's raise is lost
                errors.append(error)

        update = threading.Thread(target=run, args=("UPDATE emp SET salary = salary + 1",),
                                  daemon=True)  # a deadlocked thread must not hang the run
        create = threading.Thread(target=run, args=("CREATE TABLE site (id INT PRIMARY KEY)",),
                                  daemon=True)
        update.start()
        assert decided.wait(timeout=5)
        create.start()
        update.join(timeout=10)
        create.join(timeout=10)
        assert not update.is_alive() and not create.is_alive() and errors == []
        assert emp.has_table("site")
        assert emp.query("SELECT COUNT(*) AS n FROM emp WHERE salary > 1000")[0]["n"] == 40

    @pytest.mark.parametrize("sql", [
        "SELECT id FROM emp WHERE id = 3 AND salary < (SELECT MAX(salary) FROM emp) - 300",
        "SELECT id FROM emp WHERE salary < (SELECT MAX(cap) FROM dept) ORDER BY id",
        "SELECT id FROM emp WHERE city = 'Austin' AND id IN (SELECT id FROM dept)",
        "DELETE FROM emp WHERE salary = (SELECT MAX(salary) FROM emp)",
        "DELETE FROM emp WHERE city = 'Austin' AND salary > (SELECT cap FROM dept)",
        "UPDATE emp SET salary = (SELECT MAX(salary) FROM emp)",
        "UPDATE emp SET salary = (SELECT cap FROM dept) WHERE city = 'Boston'",
    ])
    def test_a_subquery_reads_every_shard_as_one_node_does(self, emp, sql):
        single = self.single(emp)
        assert emp.execute(sql).rows == single.execute(sql).rows
        assert emp.execute(sql).rowcount == single.execute(sql).rowcount  # a second write
        by_id = "SELECT * FROM emp ORDER BY id"
        assert emp.query(by_id) == single.query(by_id)
