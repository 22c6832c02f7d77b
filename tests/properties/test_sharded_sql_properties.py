"""Differential property test for the sharded SELECT path.

``ShardedDatabase`` answers every SELECT by running the statement once
over read-only views of the pruned shard slices
(:class:`~repro.storage.relational.view.ConcatTable`).  The oracle is the
implementation those views replaced: copy each pruned primary slice, in
shard order, into a fresh single-node ``Database``, rebuild its indexes,
and run the same SQL there.  The two must agree on rows, on columns and on
row *order*, for every statement of a small random grammar, interleaved
with writes and one failover.

A statement with a subquery has another oracle: a single-node ``Database``
fed the same rows and statements, while replicas die and catch up — the
views a pruned statement read used to hide rows from its subquery, a
subquery over another table did not find it, and each shard decided an
UPDATE / DELETE on its own slice.
"""

from hypothesis import given, settings
from hypothesis import strategies as st
from row_heaps import replicas_decide_nothing, stale_entries

from repro.clock import SimClock
from repro.storage.cluster import ReplicaStatus, ShardedDatabase
from repro.storage.relational import Database, Table
from repro.storage.relational.sql import execute_sql, parse
from repro.storage.schema import Column, ColumnType, TableSchema

CITIES = ["Oakland", "Austin", "Denver", "Boston", "Seattle"]
DEPTS = ["eng", "ops", "hr"]

EMP = TableSchema(
    "emp",
    [
        Column("id", ColumnType.INT, primary_key=True),
        Column("dept", ColumnType.TEXT),
        Column("city", ColumnType.TEXT),
        Column("age", ColumnType.INT),
    ],
)
OFFICE = TableSchema(
    "office",
    [
        Column("id", ColumnType.INT, primary_key=True),
        Column("city", ColumnType.TEXT),
        Column("dept", ColumnType.TEXT),
        Column("floor", ColumnType.INT),
    ],
)


def reference_gather(db, sql, parameters):
    """The copy loop ``ShardedDatabase`` ran before the views."""
    select = parse(sql)
    scratch = Database("reference")
    for ref in [select.table, *(join.table for join in select.joins)]:
        if scratch.has_table(ref.name):
            continue
        front = db.table(ref.name)
        shards = db._prune(select.where, front, ref.binding(), parameters)
        target = scratch.create_table(front.schema)
        for state in db.cluster.primary_states(shards):
            target.insert_many(state.table(ref.name).rows())
        for column, kind in front.indexed_columns().items():
            if column not in target.indexed_columns():
                target.create_index(column, kind=kind)
    copied = sum(len(table) for table in scratch.tables())
    return execute_sql(scratch, sql, parameters), copied


def build(emp_rows, office_rows):
    """Both tables partitioned by ``city`` (not the primary key), with a
    hash index on ``dept`` and a sorted index on ``age`` / ``floor``."""
    db = ShardedDatabase("prop", n_shards=3, n_replicas=3, clock=SimClock(), seed=1)
    emp = db.create_table(EMP, partition_column="city")
    office = db.create_table(OFFICE, partition_column="city")
    for table, ranged in ((emp, "age"), (office, "floor")):
        table.create_index("city")
        table.create_index("dept")
        table.create_index(ranged, kind="sorted")
    emp.insert_many(
        {"id": i, "dept": dept, "city": city, "age": age}
        for i, (dept, city, age) in enumerate(emp_rows)
    )
    office.insert_many(
        {"id": i, "city": city, "dept": dept, "floor": floor}
        for i, (city, dept, floor) in enumerate(office_rows)
    )
    return db


# ----------------------------------------------------------------------
# The grammar
# ----------------------------------------------------------------------
def atoms(prefix, ranged):
    """WHERE conjuncts over one table binding; ``:city``/``:low`` are bound."""
    return (
        # partition column: prunes the fan-out, answered by the hash index
        [f"{prefix}city = '{city}'" for city in CITIES]
        + [f"{prefix}city = :city", f"{prefix}city IN ('Austin', :city)"]
        # hash-indexed, not the partition column: every shard is gathered
        + [f"{prefix}dept = '{dept}'" for dept in DEPTS]
        + [f"{prefix}dept IN ('eng', 'hr')", f"{prefix}id = 3"]
        # sorted index: equality and each range operator
        + [f"{prefix}{ranged} {op} :low" for op in ("=", "<", "<=", ">", ">=")]
        # no index
        + [
            f"{prefix}{ranged} IS NULL",
            f"{prefix}dept <> 'eng'",
            f"{prefix}dept LIKE 'e%'",
            f"({prefix}dept = 'ops' OR {prefix}{ranged} > 3)",
        ]
    )


SINGLE_TABLE = [
    "SELECT COUNT(*) AS n, SUM(age) AS s, MIN(age) AS lo, MAX(age) AS hi, "
    "AVG(age) AS mean FROM emp{where}",
    "SELECT COUNT(DISTINCT dept) AS depts, COUNT(age) AS aged FROM emp{where}",
    "SELECT dept, COUNT(*) AS n, SUM(age) AS s FROM emp{where} GROUP BY dept "
    "HAVING COUNT(*) >= {k} ORDER BY n DESC, dept{limit}",
    "SELECT city, dept, MAX(age) AS hi FROM emp{where} GROUP BY city, dept{limit}",
    "SELECT DISTINCT dept, city FROM emp{where}{limit}",
    "SELECT DISTINCT dept FROM emp{where} ORDER BY dept DESC",
    "SELECT id, age FROM emp{where} ORDER BY age DESC, id LIMIT {k} OFFSET {j}",
    "SELECT * FROM emp{where} LIMIT {k} OFFSET {j}",
    # No join, aggregate, DISTINCT or OFFSET: the class a per-shard fork
    # used to answer, re-sorting the merged rows on their *projected* columns.
    "SELECT id, dept FROM emp{where}",
    "SELECT * FROM emp{where}",
    "SELECT id, city FROM emp{where} LIMIT {k}",
    "SELECT id, age FROM emp{where} ORDER BY age DESC, id LIMIT {k}",
    "SELECT id, age AS years FROM emp{where} ORDER BY age, id",
    "SELECT id FROM emp{where} ORDER BY age, id LIMIT {k}",
    "SELECT dept FROM emp{where} ORDER BY age DESC LIMIT {k}",
    "SELECT e.id AS who FROM emp e{where} ORDER BY e.age DESC, e.id LIMIT {k}",
]
JOINS = [
    "SELECT e.id, e.dept, o.id AS oid, o.floor FROM emp e "
    "JOIN office o ON e.dept = o.dept{where}{limit}",
    "SELECT e.id, o.id AS oid FROM emp e LEFT JOIN office o ON e.city = o.city{where}",
    "SELECT e.dept, COUNT(*) AS n, MIN(o.floor) AS lo FROM emp e "
    "LEFT JOIN office o ON e.city = o.city{where} GROUP BY e.dept ORDER BY n, e.dept",
    "SELECT e.id, o.id AS oid FROM emp e JOIN office o ON e.age < o.floor * 10{where}",
    # self-join: the first binding's pruning decides the slices both sides read
    "SELECT e.id, o.id AS oid FROM emp e JOIN emp o ON e.age = o.age{where}{limit}",
]


@st.composite
def selects(draw):
    if draw(st.booleans()):
        template, pool = draw(st.sampled_from(SINGLE_TABLE)), atoms("", "age")
    else:
        template = draw(st.sampled_from(JOINS))
        right = "age" if "JOIN emp o" in template else "floor"
        pool = atoms("e.", "age") + atoms("o.", right)
    conjuncts = draw(st.lists(st.sampled_from(pool), max_size=2, unique=True))
    k, j = draw(st.integers(0, 6)), draw(st.integers(0, 3))
    sql = template.format(
        where=" WHERE " + " AND ".join(conjuncts) if conjuncts else "",
        limit=draw(st.sampled_from(["", f" LIMIT {k}", f" LIMIT {k} OFFSET {j}"])),
        k=k,
        j=j,
    )
    parameters = {
        "city": draw(st.sampled_from(CITIES)),
        "low": draw(st.integers(0, 60)),
    }
    return "select", sql, parameters


WRITES = [
    "UPDATE emp SET age = age + 1 WHERE dept = 'eng'",
    "UPDATE emp SET dept = 'ops' WHERE city = 'Austin'",
    "UPDATE emp SET age = NULL WHERE id = 2",
    "UPDATE emp SET age = 30 WHERE age IS NULL",
    "UPDATE office SET floor = 4 WHERE dept = 'hr'",
    "DELETE FROM emp WHERE age < 25",
    "DELETE FROM office WHERE city = 'Denver'",
]

nullable_int = st.one_of(st.none(), st.integers(0, 60))
emp_rows = st.lists(
    st.tuples(st.sampled_from(DEPTS), st.sampled_from(CITIES), nullable_int),
    max_size=30,
)
office_rows = st.lists(
    st.tuples(st.sampled_from(CITIES), st.sampled_from(DEPTS), st.one_of(st.none(), st.integers(0, 6))),
    max_size=10,
)
steps = st.lists(
    st.one_of(selects(), st.tuples(st.just("write"), st.sampled_from(WRITES), st.just({}))),
    min_size=2,
    max_size=10,
)


class TestGatherMatchesCopyLoop:
    @settings(max_examples=120, deadline=None)
    @given(emp_rows, office_rows, steps, st.integers(0, 10))
    def test_rows_columns_and_order(self, emp, office, script, kill_at):
        db = build(emp, office)
        for position, (kind, sql, parameters) in enumerate(script):
            if position == kill_at:
                db.cluster.kill_replica("s1.r0")
                db.tick()
            if kind == "write":
                db.execute(sql)
                continue
            actual = db.execute(sql, parameters)
            stats = db.last_execute_stats
            expected, copied = reference_gather(db, sql, parameters)
            assert actual.rows == expected.rows, sql
            assert actual.columns == expected.columns, sql
            assert stats["rows_scanned"] == copied, sql


def test_gather_select_builds_no_table(monkeypatch):
    db = build(
        [(DEPTS[i % 3], CITIES[i % 5], 20 + i) for i in range(30)],
        [(CITIES[i % 5], DEPTS[i % 3], i) for i in range(10)],
    )
    calls = []
    for owner, method in (
        (Table, "insert"),
        (Table, "create_index"),
        (TableSchema, "validate_row"),
    ):
        monkeypatch.setattr(
            owner, method, lambda *args, _name=method, **kwargs: calls.append(_name)
        )
    result = db.execute(
        "SELECT e.dept, COUNT(*) AS n FROM emp e JOIN office o ON e.city = o.city "
        "WHERE e.age >= 25 GROUP BY e.dept ORDER BY e.dept"
    )
    assert [row["dept"] for row in result.rows] == sorted(DEPTS)
    assert calls == []


# ----------------------------------------------------------------------
# Subqueries, against a single node
# ----------------------------------------------------------------------
SUBQUERY_SELECTS = [
    "SELECT id FROM emp WHERE {atom} AND age < (SELECT MAX(age) FROM emp) - :low ORDER BY id",
    "SELECT id, dept FROM emp WHERE {atom} AND age >= (SELECT MIN(floor) FROM office) * 10 "
    "ORDER BY id",
    "SELECT id FROM emp WHERE {atom} AND dept IN (SELECT dept FROM office WHERE city = :city) "
    "ORDER BY id",
    "SELECT id FROM emp WHERE {atom} AND NOT EXISTS (SELECT id FROM office WHERE floor > :low) "
    "ORDER BY id",
    "SELECT e.id, (SELECT COUNT(*) FROM office o WHERE o.city = :city) AS n FROM emp e "
    "WHERE {atom} ORDER BY e.id",
]
SUBQUERY_WRITES = [
    "UPDATE emp SET age = (SELECT MAX(age) FROM emp) WHERE {atom}",
    "UPDATE emp SET age = (SELECT MIN(floor) FROM office) WHERE {atom}",
    "UPDATE office SET floor = (SELECT COUNT(*) FROM emp WHERE city = :city) WHERE {atom}",
    "DELETE FROM emp WHERE age = (SELECT MAX(age) FROM emp)",
    "DELETE FROM emp WHERE {atom} AND age > (SELECT AVG(age) FROM emp)",
    "DELETE FROM office WHERE {atom} AND floor = (SELECT MIN(floor) FROM office)",
    # refused at the first row it changes, on one node as on the cluster
    "UPDATE emp SET age = 'old' WHERE {atom}",
    "UPDATE emp SET id = (SELECT MAX(id) FROM emp WHERE city = :city) "
    "WHERE id = (SELECT MIN(id) FROM emp WHERE city = :city)",
]


@st.composite
def subquery_steps(draw):
    template = draw(st.sampled_from(SUBQUERY_SELECTS + SUBQUERY_WRITES + WRITES))
    pool = atoms("e." if "emp e" in template else "", "floor" if "UPDATE office" in template
                 or "FROM office WHERE {atom}" in template else "age")
    parameters = {"city": draw(st.sampled_from(CITIES)), "low": draw(st.integers(0, 60))}
    return template.format(atom=draw(st.sampled_from(pool))), parameters


def answer(db, sql, parameters):
    try:
        result = db.execute(sql, parameters)
    except Exception as error:  # the property is *which* error
        return type(error)
    return result.rows, result.rowcount


class TestSubqueriesMatchSingleNode:
    @settings(max_examples=100, deadline=None)
    @given(emp_rows, office_rows, st.lists(st.one_of(
        subquery_steps(),
        st.tuples(st.just("kill"), st.integers(0, 8)),
        st.tuples(st.just("settle")),
    ), min_size=1, max_size=8))
    def test_every_answer_and_every_row(self, emp, office, script):
        with replicas_decide_nothing():
            sharded = build(emp, office)
        single = Database("single")
        for schema in (EMP, OFFICE):
            front = sharded.table(schema.name)
            table = single.create_table(schema)
            for column, kind in front.indexed_columns().items():
                if column not in table.indexed_columns():
                    table.create_index(column, kind=kind)
            table.insert_many(sorted(front.rows(), key=lambda row: row["id"]))
        cluster = sharded.cluster
        with replicas_decide_nothing():
            for step in script:
                if step[0] == "kill":
                    shard = cluster.shards[step[1] % cluster.n_shards]
                    if all(r.status is ReplicaStatus.ALIVE and r.applied == shard.acked
                           for r in shard.replicas):
                        cluster.kill_replica(shard.replicas[step[1] % 3].replica_id)
                        cluster.tick()
                elif step[0] == "settle":
                    cluster.settle()
                else:
                    assert answer(sharded, *step) == answer(single, *step), step
                    for table in ("emp", "office"):
                        everything = f"SELECT * FROM {table} ORDER BY id"
                        assert sharded.query(everything) == single.query(everything), step
            cluster.settle()
        for shard in cluster.shards:
            assert len({replica.log_digest() for replica in shard.replicas}) == 1
            for replica in shard.replicas:
                for table in replica.state.tables():
                    assert stale_entries(table._heap) == []


# ----------------------------------------------------------------------
# Numeric routing keys
# ----------------------------------------------------------------------
KEYED = TableSchema(
    "keyed",
    [
        Column("id", ColumnType.INT, primary_key=True),
        Column("k", ColumnType.INT),
        Column("f", ColumnType.FLOAT),
    ],
)
numeric_constants = st.one_of(
    st.integers(-2, 8),
    st.integers(-2, 8).map(float),
    st.sampled_from([0.5, 2.5, 1e20, float("inf")]),
    st.booleans(),
)


def literal(constant):
    """The constant as SQL text, or None where the lexer has no spelling for it."""
    if isinstance(constant, bool):
        return str(constant).upper()
    return str(constant) if 0 <= constant < 100 else None


class TestNumericRoutingKeys:
    """Routing keys were ``str(value)``: on a table partitioned by an INT
    column, ``WHERE k = 1.0`` pruned to the shard of ``"1.0"`` and counted 0
    where a single node counts 1."""

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(-2, 8), max_size=20),
        st.sampled_from(["k", "f"]),
        st.lists(numeric_constants, min_size=1, max_size=3),
        st.sampled_from([2, 3, 5]),
    )
    def test_equal_constants_prune_to_the_row(self, keys, column, constants, n_shards):
        sharded = ShardedDatabase("prop", n_shards=n_shards, n_replicas=3, clock=SimClock(), seed=2)
        single = Database("single")
        rows = [{"id": i, "k": key, "f": key + (0.5 if i % 3 == 0 else 0.0)}
                for i, key in enumerate(keys)]
        sharded.create_table(KEYED, partition_column=column).insert_many(rows)
        single.create_table(KEYED).insert_many(rows)
        parameters = {f"c{position}": constant for position, constant in enumerate(constants)}
        wheres = [f"{column} = :c0", f":c0 = {column}", f"{column} IN ({', '.join(':' + name for name in parameters)})"]
        if literal(constants[0]) is not None:
            wheres += [f"{column} = {literal(constants[0])}", f"{column} IN (99, {literal(constants[0])})"]
        for where in wheres:
            sql = f"SELECT id FROM keyed WHERE {where} ORDER BY id"
            assert sharded.execute(sql, parameters).rows == single.execute(sql, parameters).rows, sql
            assert sharded.last_execute_stats["shards_scanned"] <= len(constants) + 1
