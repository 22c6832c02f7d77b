"""A table stores tuples and behaves as a table of dicts did.

A table's rows are tuples in column order; a dict is built only on the way
out (``rows`` / ``scan`` / ``lookup``, a SELECT's returned rows) and for a
caller's Python predicate or change.  The property drives a single-node
``Database`` and a ``ShardedDatabase`` on 1 and 3 shards through inserts,
updates and deletes, and after every step compares what they return with a
reference that keeps the rows as plain dicts: the rows read back, ``SELECT
*``, inner and left joins, a grouped, filtered and ordered aggregate, and
``lookup``.  Every dict handed out — returned, or passed to a predicate or
a change — is then mutated, and the store must not move; no index may hold
an entry its rows do not back (``row_heaps.stale_entries``).

And ``COUNT(*)`` is the selection's length: it builds no object per row.
"""

import gc
import sys
import tracemalloc
from pathlib import Path

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.storage import ColumnType, Database, ShardedDatabase, quick_table
from repro.storage.relational.index import sort_key

try:
    from row_heaps import stale_entries
except ImportError:  # collected before tests/properties: put it on the path
    sys.path.insert(0, str(Path(__file__).parents[1] / "properties"))
    from row_heaps import stale_entries

EMP = "CREATE TABLE emp (id INT PRIMARY KEY, dept TEXT, age INT, score FLOAT)"
DEPT = "CREATE TABLE dept (name TEXT PRIMARY KEY, city TEXT)"
NAMES = ("id", "dept", "age", "score")
DEPTS = ("eng", "ops", None)
CITIES = {"eng": "SF", "ops": "NYC", "hr": "LA"}

ages = st.one_of(st.none(), st.integers(20, 24))
employees = st.tuples(st.sampled_from(DEPTS), ages, st.one_of(st.none(), st.integers(0, 3)))
steps = st.one_of(
    st.tuples(st.just("insert"), employees),
    st.tuples(st.just("raise"), st.integers(20, 24)),  # score + 1 where age >= n
    st.tuples(st.just("move"), st.integers(0, 12), st.sampled_from(DEPTS)),
    st.tuples(st.just("delete"), st.integers(20, 24)),
)


def build(n_shards):
    """Empty ``emp`` and a filled ``dept``: single-node for 0 shards."""
    db = (
        Database("d") if n_shards == 0
        else ShardedDatabase("d", n_shards=n_shards, n_replicas=3, clock=SimClock(), seed=0)
    )
    db.execute(EMP)
    db.execute(DEPT)
    db.execute("CREATE INDEX by_dept ON emp (dept)")
    db.execute("CREATE INDEX by_age ON emp (age) USING sorted")
    db.table("dept").insert_many({"name": name, "city": city} for name, city in CITIES.items())
    return db


def apply(db, reference, step, next_id):
    """*step* on *db* — a single-node table through its Python door, a
    sharded one through SQL — and on the dict-row *reference*."""
    kind, *args = step
    table = db.table("emp")
    single = not isinstance(db, ShardedDatabase)
    if kind == "insert":
        dept, age, score = args[0]
        row = {"id": next_id, "dept": dept, "age": age, "score": score}
        table.insert(row)
        reference.append({**row, "score": None if score is None else float(score)})
        return
    if kind == "raise":
        floor = args[0]
        if single:  # a Python predicate and change, each handed a dict it may change
            def older(row):
                passed = row["age"] is not None and row["age"] >= floor
                row["age"] = -1
                return passed

            def bump(row):
                changes = {"score": (row["score"] or 0) + 1}
                row.clear()
                return changes

            table.update(older, bump)
        else:
            db.execute(
                "UPDATE emp SET score = COALESCE(score, 0) + 1 WHERE age >= :n", {"n": floor}
            )
        for row in reference:
            if row["age"] is not None and row["age"] >= floor:
                row["score"] = (row["score"] or 0) + 1.0
    elif kind == "move":
        target, dept = args
        if single:
            table.update(lambda row: row["id"] == target, {"dept": dept})
        else:
            db.execute("UPDATE emp SET dept = :d WHERE id = :i", {"d": dept, "i": target})
        for row in reference:
            if row["id"] == target:
                row["dept"] = dept
    else:
        age = args[0]
        if single:
            table.delete(lambda row: row.pop("age") == age)
        else:
            db.execute("DELETE FROM emp WHERE age = :a", {"a": age})
        reference[:] = [row for row in reference if row["age"] != age]


def by_id(rows):
    return sorted(rows, key=lambda row: row["id"])


def check(db, reference):
    single = not isinstance(db, ShardedDatabase)
    table = db.table("emp")
    read = table.rows()
    assert (read if single else by_id(read)) == (reference if single else by_id(reference))
    if single:
        assert list(table.scan()) == reference
        for dept in DEPTS:
            assert table.lookup("dept", dept) == [row for row in reference if row["dept"] == dept]

    everything = db.execute("SELECT * FROM emp ORDER BY id")
    assert everything.rows == by_id(reference)
    assert everything.columns == (list(NAMES) if reference else [])

    for kind in ("JOIN", "LEFT JOIN"):
        joined = db.query(
            f"SELECT e.id, d.city, e.age FROM emp e {kind} dept d ON d.name = e.dept ORDER BY e.id"
        )
        expected = [
            {"id": row["id"], "city": CITIES.get(row["dept"]), "age": row["age"]}
            for row in by_id(reference)
            if kind == "LEFT JOIN" or row["dept"] in CITIES
        ]
        assert joined == expected

    grouped = db.query(
        "SELECT dept, COUNT(*) AS n, SUM(age) AS total, MAX(score) AS best FROM emp "
        "GROUP BY dept HAVING COUNT(age) >= 1 ORDER BY n DESC, dept"
    )
    groups = {}
    for row in reference:
        groups.setdefault(row["dept"], []).append(row)
    expected = []
    for dept, members in groups.items():
        ages_present = [row["age"] for row in members if row["age"] is not None]
        scores = [row["score"] for row in members if row["score"] is not None]
        if ages_present:
            expected.append({
                "dept": dept, "n": len(members), "total": sum(ages_present),
                "best": max(scores, default=None),
            })
    expected.sort(key=lambda row: sort_key(row["dept"]))
    expected.sort(key=lambda row: row["n"], reverse=True)
    assert grouped == expected

    # every dict handed out is the caller's own
    looked_up = table.lookup("dept", "eng") if single else []
    for handed in (read, everything.rows, looked_up, grouped):
        for row in handed:
            row["age"] = -99
            row.pop("dept")
    assert by_id(table.rows()) == by_id(reference)

    for heap in heaps(db):
        assert stale_entries(heap) == []
        assert all(type(row) is tuple for row in heap._rows if row is not None)


def heaps(db):
    if not isinstance(db, ShardedDatabase):
        return [db.table("emp")._heap]
    return [
        replica.state.table("emp")._heap
        for shard in db.cluster.shards for replica in shard.replicas
    ]


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([0, 1, 3]), st.lists(employees, max_size=8), st.lists(steps, max_size=8))
def test_tuple_tables_behave_like_dict_tables(n_shards, initial, script):
    db = build(n_shards)
    reference: list[dict] = []
    next_id = 0
    for employee in initial:
        apply(db, reference, ("insert", employee), next_id)
        next_id += 1
    check(db, reference)
    for step in script:
        apply(db, reference, step, next_id)
        next_id += step[0] == "insert"
        check(db, reference)


def test_an_empty_select_star_names_no_column():
    """``*`` names the columns of the rows there are, as it always did."""
    db = build(0)
    assert db.execute("SELECT * FROM emp").columns == []
    assert db.execute("SELECT *, id FROM emp").columns == ["id"]
    assert db.execute("SELECT COUNT(*) AS n FROM emp").rows == [{"n": 0}]


@pytest.mark.parametrize("where, matched", [("", 5000), (" WHERE name LIKE '%1%'", 2084)])
def test_count_star_builds_no_object_per_row(where, matched):
    """The peak a ``COUNT(*)`` over 5 000 rows traces is the selection's
    list of stored rows — at most 16 bytes per matched row — where a dict
    per row (the ``{binding: row}`` environments) took ~200 B.  Scans: an
    index-chosen selection also reads its candidate ids into a set."""
    db = Database("d")
    columns = [("id", ColumnType.INT), ("city", ColumnType.TEXT), ("name", ColumnType.TEXT)]
    rows = ({"id": i, "city": "ab"[i % 2], "name": f"seeker {i}"} for i in range(5000))
    quick_table(db, "t", columns, rows).create_index("city")
    sql = f"SELECT COUNT(*) AS n FROM t{where}"
    db.execute(sql)  # parsed and compiled once
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        assert db.execute(sql).scalar() == matched
        peak = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert peak <= 16 * matched
