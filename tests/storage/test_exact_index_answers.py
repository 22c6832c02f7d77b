"""The exactness rule: a candidate is tested only on what no index answered.

Every index kind says, through ``exact(op, value)``, whether its answer to a
conjunct is exactly the rows the conjunct's own test passes; each slice's row
heap then leaves those conjuncts out of the test it runs on its candidates.
The rule, pinned here:

* a sorted index's range answer is exact;
* a hash or key index's ``=`` / ``in`` answer is exact only when every
  constant equals itself (a NaN does not, yet a lookup finds it by identity);
* SQL keeps testing a NULL constant (``x = NULL`` is never true, yet the None
  bucket holds rows);
* a document entry is dropped only when every operator in it was answered;
* under a JOIN, SQL drops only conjuncts qualified with the FROM binding (an
  unqualified one may be ambiguous, which must still raise);
* the SQL residual is tested as the AND was: in order, stopping at FALSE, a
  NULL not stopping it — so errors raise where they did.

The differentials run each script on twin stores under drawn indexes, one
of them as a *full re-check* — every index's ``exact`` reporting False, so
each candidate is tested on the whole predicate.  Both must return the same
values, or raise the same type.  The document scripts also run on a store
with no index.  SQL's do not: a row-time error (``10 / x`` on ``x = 0``) is
raised only on a candidate, so the access path itself can hide one, with or
without this rule.
"""

from contextlib import contextmanager

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.errors import SQLError
from repro.storage import ColumnType, Database, ShardedDatabase
from repro.storage.cluster import ClusteredDocumentStore
from repro.storage.document.store import Collection, find_selection
from repro.storage.relational.index import HashIndex, KeyIndex, SortedIndex
from repro.storage.relational.sql import parse
from repro.storage.relational.sql.executor import (
    Executor,
    _conjuncts,
    _truthy,
    compile_expr,
    sargable,
)
from repro.storage.schema import Column, TableSchema

NAN = float("nan")  # one object: a stored NaN and a constant NaN are the same


@contextmanager
def full_recheck():
    """Every index answers inexactly: the predicate is re-applied whole."""
    saved = {kind: kind.exact for kind in (HashIndex, KeyIndex, SortedIndex)}
    for kind in saved:
        kind.exact = lambda self, op, value: False
    try:
        yield
    finally:
        for kind, method in saved.items():
            kind.exact = method


def outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except Exception as error:  # the property is *which* error
        return type(error)


# ----------------------------------------------------------------------
# exact(), per index kind
# ----------------------------------------------------------------------
class TestExactPerIndexKind:
    def test_a_sorted_range_is_exact(self):
        index = SortedIndex("r")
        for op in ("<", "<=", ">", ">="):
            assert index.exact(op, 3) and index.exact(op, "m")

    @pytest.mark.parametrize("kind", [HashIndex, KeyIndex])
    def test_equality_is_exact_unless_a_constant_is_not_equal_to_itself(self, kind):
        index = kind("h")
        assert index.exact("=", 1) and index.exact("=", None) and index.exact("=", "a")
        assert index.exact("in", [1, None, "a"]) and index.exact("in", [])
        assert not index.exact("=", NAN)
        assert not index.exact("in", [1, NAN])

    def test_a_lookup_finds_a_nan_that_equality_rejects(self):
        """Why NaN is not exact: the bucket holds the row, the test fails it."""
        index = HashIndex("h")
        index.insert(NAN, 0)
        assert list(index.ids("=", NAN)) == [0] and not NAN == NAN


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
CITIES = ["SF", "Oakland", "Austin"]
scalar = st.one_of(
    st.just(NAN), st.none(), st.booleans(), st.integers(-1, 3), st.sampled_from([0.5, 2.5]),
    st.sampled_from(["a", "b", ""]),
)
value = st.one_of(
    scalar,
    st.lists(st.sampled_from([1, "a"]), max_size=2),
    st.fixed_dictionaries({"k": scalar}),
)
FIELDS = {
    "city": st.sampled_from(CITIES),
    "x": value,
    "y": value,
    "sub": st.fixed_dictionaries({}, optional={"x": value}),  # a dotted path's parent
}


@st.composite
def documents(draw):
    present = draw(st.lists(st.sampled_from(sorted(FIELDS)), unique=True))
    return {field: draw(FIELDS[field]) for field in present}  # a missing field is absent


doc_field = st.sampled_from(["x", "y", "sub.x", "city", "nope"])
bound = st.one_of(st.integers(-1, 3), st.sampled_from([1.5, True, "a", NAN, None]))
compare = st.sampled_from(["$gt", "$gte", "$lt", "$lte"])
conditions = st.one_of(
    value,  # plain equality (containers included: never sargable)
    value.map(lambda v: {"$eq": v}),
    st.lists(scalar, max_size=3).map(lambda vs: {"$in": vs}),  # NaN and None members
    st.tuples(compare, bound).map(lambda c: {c[0]: c[1]}),
    # multi-operator entries: all answered, or one left to test
    st.tuples(bound, bound).map(lambda b: {"$gte": b[0], "$lt": b[1]}),
    bound.map(lambda b: {"$gte": b, "$regex": "a"}),
    st.tuples(st.lists(scalar, max_size=2), scalar).map(lambda c: {"$in": c[0], "$ne": c[1]}),
    scalar.map(lambda v: {"$eq": v, "$exists": True}),
)
doc_filters = st.dictionaries(doc_field, conditions, max_size=3)
doc_plans = st.dictionaries(
    st.sampled_from(["x", "y", "sub.x", "city"]), st.sampled_from(["hash", "sorted"]),
    min_size=1,
)
doc_steps = st.lists(
    st.one_of(
        st.tuples(st.just("find"), doc_filters),
        st.tuples(st.just("update"), doc_filters, st.fixed_dictionaries({"y": value})),
        st.tuples(st.just("delete"), doc_filters),
    ),
    min_size=1,
    max_size=6,
)


def doc_trio(n_shards, plan):
    """No index, the drawn plan, the drawn plan re-checked: single-node for
    ``n_shards`` 0, else clustered and partitioned by ``city``."""
    if n_shards == 0:
        trio = [Collection("people") for _ in range(3)]
    else:
        trio = [
            ClusteredDocumentStore(f"s{i}", n_shards=n_shards, n_replicas=1, clock=SimClock())
            .create_collection("people", partition_field="city")
            for i in range(3)
        ]
    for collection in trio[1:]:
        for field, kind in plan.items():
            collection.create_index(field, kind=kind)
    return trio


def doc_call(collection, step):
    kind, filter_spec, *rest = step
    if kind == "find":
        return collection.find(filter_spec)
    if kind == "update":
        return collection.update(filter_spec, rest[0])
    return collection.delete(filter_spec)


class TestDocumentResidual:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(documents(), min_size=2, max_size=16), doc_plans, doc_steps,
           st.sampled_from([0, 1, 3]))
    # one of each case the rule turns on, whatever the draw finds
    @example([{"x": NAN}, {"x": 1}], {"x": "hash"}, [("find", {"x": NAN})], 0)
    @example([{"x": "b", "city": "SF"}], {"x": "sorted"},
             [("find", {"x": {"$gte": "a", "$regex": "a"}})], 3)
    @example([{"sub": {"x": 1}}, {"sub": {"x": 2}}], {"sub.x": "hash"},
             [("delete", {"sub.x": {"$in": [1, 2], "$ne": 2}}), ("find", {})], 1)
    def test_the_residual_answers_what_the_full_recheck_answers(
        self, bodies, plan, script, n_shards
    ):
        plain, indexed, rechecked = doc_trio(n_shards, plan)
        for collection in (plain, indexed, rechecked):
            collection.insert_many(bodies)
        for step in script:
            expected = outcome(doc_call, plain, step)
            with full_recheck():
                assert outcome(doc_call, rechecked, step) == expected, (step, plan)
            assert outcome(doc_call, indexed, step) == expected, (step, plan)
        # pruned (city pinned) and fan-out reads over every shard agree too
        for city in CITIES:
            for spec in ({"city": city, "x": 1}, {"x": {"$gte": 0}}, {"city": {"$in": [city]}}):
                assert indexed.find(spec) == plain.find(spec)

    def test_an_entry_is_dropped_only_when_every_operator_was_answered(self):
        people = Collection("people")
        people.create_index("name", kind="sorted")
        people.insert_many({"name": name} for name in ["ab", "b", "a", "bc"])
        both = {"name": {"$gte": "b", "$lt": "c"}}
        answered = find_selection([people], both, ["name"], None, False, None)
        assert (answered.rows, answered.examined, answered.tested) == (
            [{"name": "b"}, {"name": "bc"}], 2, 0
        )
        half = {"name": {"$gte": "a", "$regex": "b"}}
        tested = find_selection([people], half, ["name"], None, False, None)
        assert (tested.rows, tested.examined, tested.tested) == (
            [{"name": "ab"}, {"name": "b"}, {"name": "bc"}], 4, 4
        )

    def test_a_nan_constant_keeps_its_test(self):
        """``==`` rejects the NaN the lookup found; ``$in`` (list membership)
        accepts it by identity, as the lookup did — either way, tested."""
        people = Collection("people")
        people.create_index("x")
        people.insert_many([{"x": NAN}, {"x": 1}])
        equal = find_selection([people], {"x": NAN}, None, None, False, None)
        assert (equal.rows, equal.examined, equal.tested) == ([], 1, 1)
        member = find_selection([people], {"x": {"$in": [NAN, 1]}}, ["x"], None, False, None)
        assert (member.rows, member.tested) == ([{"x": NAN}, {"x": 1}], 2)


class TestUnhashableTupleValues:
    """A tuple holding a list is not hashable; an index leaves it out as it
    leaves out a list, so the index changes neither a write nor a read."""

    def test_an_indexed_insert_stores_it_and_finds_it(self):
        people = Collection("people")
        people.create_index("x")
        doc_id = people.insert({"x": (1, [2])})
        assert people.get(doc_id)["x"] == (1, [2])
        assert [d["_id"] for d in people.find({"x": (1, [2])})] == [doc_id]
        assert len(people) == 1

    def test_find_answers_as_it_does_without_the_index(self):
        plain, indexed = Collection("a"), Collection("b")
        indexed.create_index("x")
        for collection in (plain, indexed):
            collection.insert({"x": 1})
        assert indexed.find({"x": (1, [2])}) == plain.find({"x": (1, [2])}) == []


# ----------------------------------------------------------------------
# SQL
# ----------------------------------------------------------------------
T = TableSchema(
    "t",
    [
        Column("id", ColumnType.INT, primary_key=True),
        Column("city", ColumnType.TEXT),
        Column("x", ColumnType.INT),
        Column("score", ColumnType.FLOAT),
    ],
)
O = TableSchema(  # ``x`` in both tables: unqualified under a JOIN, it is ambiguous
    "o", [Column("oid", ColumnType.INT, primary_key=True), Column("tid", ColumnType.INT),
          Column("x", ColumnType.INT)],
)
ATOMS = [
    "city = :city", "city IN ('SF', :city)", "city = NULL", "city IN ('SF', NULL)",
    "x = :n", "x IN (1, NULL)", "x = NULL", "x >= :n", ":n < x", "x <= 2", "t.x > 0",
    "score = :nan", "score IN (:nan, 1.5)", "score > 1.0", "score = 2.5", "score = :n",
    "id IN (1, 2, 3)", "id = :n", "id > 2",
    "x <> 1", "x IS NULL", "(x = 1 OR city = 'SF')",
    "10 / x > 1",  # raises on x = 0
]
TEMPLATES = [
    "SELECT id FROM t{where}",
    "SELECT COUNT(*) AS n FROM t{where}",
    "SELECT id FROM t{where} LIMIT 2",
    "SELECT t.id, o.oid FROM t JOIN o ON o.tid = t.id{where}",
    "SELECT t.id, o.oid FROM t LEFT JOIN o ON o.tid = t.id{where}",
    "UPDATE t SET x = x + 1{where}",
    "DELETE FROM t{where}",
]
JOINED = ATOMS + ["o.x = 1", "o.oid > 1"]
t_rows = st.lists(
    st.tuples(
        st.sampled_from(CITIES),
        st.one_of(st.none(), st.integers(0, 3)),
        st.one_of(st.none(), st.just(NAN), st.sampled_from([0.5, 1.5, 2.5])),
    ),
    min_size=2,
    max_size=12,
)
sql_plans = st.dictionaries(
    st.sampled_from(["city", "x", "score"]), st.sampled_from(["hash", "sorted"]), min_size=1
)


@st.composite
def statements(draw):
    template = draw(st.sampled_from(TEMPLATES))
    atoms = draw(st.lists(st.sampled_from(JOINED if "JOIN" in template else ATOMS),
                          max_size=3, unique=True))
    parameters = {
        "city": draw(st.sampled_from([*CITIES, None])),
        "n": draw(st.one_of(st.none(), st.integers(0, 3))),
        "nan": NAN,
    }
    return template.format(where=" WHERE " + " AND ".join(atoms) if atoms else ""), parameters


def sql_twins(n_shards, plan):
    """Two databases under *plan*: single-node for ``n_shards`` 0, else
    sharded and partitioned by ``city``."""
    twins = [
        Database(f"d{i}") if n_shards == 0
        else ShardedDatabase(f"d{i}", n_shards=n_shards, n_replicas=1, clock=SimClock())
        for i in range(2)
    ]
    for db in twins:
        db.create_table(T, **({} if n_shards == 0 else {"partition_column": "city"}))
        db.create_table(O)
        for column, kind in plan.items():
            db.table("t").create_index(column, kind=kind)
        db.table("o").create_index("x")
    return twins


def answer(database, sql, parameters):
    result = database.execute(sql, parameters)
    return result.rows, result.rowcount


class TestSQLResidual:
    @settings(max_examples=300, deadline=None)
    @given(t_rows, sql_plans, st.lists(statements(), min_size=1, max_size=6),
           st.sampled_from([0, 1, 3]))
    @example([("SF", 1, NAN)], {"score": "hash"},
             [("SELECT id FROM t WHERE score = :nan", {"nan": NAN})], 0)
    @example([("SF", None, None)], {"x": "hash"},
             [("DELETE FROM t WHERE x = :n", {"n": None}), ("SELECT id FROM t", {})], 3)
    @example([("SF", 1, None), ("SF", 2, None)], {"x": "sorted"},
             [("SELECT t.id, o.oid FROM t JOIN o ON o.tid = t.id WHERE x >= 1", {})], 1)
    def test_the_residual_answers_what_the_full_recheck_answers(
        self, rows, plan, script, n_shards
    ):
        indexed, rechecked = sql_twins(n_shards, plan)
        for db in (indexed, rechecked):
            db.table("t").insert_many(
                {"id": i, "city": city, "x": x, "score": score}
                for i, (city, x, score) in enumerate(rows)
            )
            db.table("o").insert_many(
                {"oid": i, "tid": i % 4, "x": i % 3} for i in range(6)
            )
        for sql, parameters in script:
            with full_recheck():
                expected = outcome(answer, rechecked, sql, parameters)
            assert outcome(answer, indexed, sql, parameters) == expected, (sql, plan)

    @pytest.fixture
    def db(self):
        db = Database("d")
        db.create_table(T)
        db.create_table(O)
        db.table("t").create_index("x")
        db.table("t").create_index("city")
        db.table("t").insert_many(
            {"id": i, "city": "SF", "x": x, "score": None} for i, x in enumerate([0, 1, 1, None])
        )
        db.table("o").insert_many([{"oid": 0, "tid": 1, "x": 1}])
        return db

    def test_an_ambiguous_unqualified_column_still_raises_under_a_join(self, db):
        sql = "SELECT t.id FROM t JOIN o ON o.tid = t.id WHERE x = 1"
        with pytest.raises(SQLError, match="ambiguous column 'x'"):
            db.execute(sql)
        qualified = db.execute(sql.replace("x = 1", "t.x = 1"))
        assert qualified.rows == [{"id": 1}] and qualified.stats.rows_tested == 0

    def test_a_null_conjunct_does_not_stop_a_later_error(self, db):
        """``score > 1`` is NULL on every row, so ``10 / x`` is still reached
        — and raises on ``x = 0`` — though ``city`` was answered."""
        with pytest.raises(SQLError, match="division by zero"):
            db.execute("SELECT id FROM t WHERE city = 'SF' AND score > 1 AND 10 / x > 1")
        # FALSE stops it: x = 0 fails ``x > 0`` before the division
        assert db.execute("SELECT id FROM t WHERE x > 0 AND 10 / x > 1").rows == [
            {"id": 1}, {"id": 2}
        ]

    def test_a_null_constant_keeps_its_test(self, db):
        for where in ("x = NULL", "x IN (1, NULL)", "x = :p"):
            result = db.execute(f"SELECT id FROM t WHERE {where}", {"p": None})
            assert result.stats.used_index == "t.x" and result.stats.rows_tested > 0
        assert db.execute("SELECT id FROM t WHERE x = NULL").rows == []
        assert db.execute("SELECT id FROM t WHERE x IN (1, NULL)").rows == [{"id": 1}, {"id": 2}]


where_leaves = st.lists(st.sampled_from(ATOMS), min_size=1, max_size=4)


class TestResidualIsTheAnd:
    """Leaving out leaves that are TRUE on a row — what an exact answer
    guarantees — tests the row as the whole WHERE did: same value, same
    error type, including NULLs that do not stop the AND."""

    @settings(max_examples=400, deadline=None)
    @given(where_leaves, st.one_of(st.none(), st.integers(0, 3)),
           st.one_of(st.none(), st.sampled_from([0.5, 1.5, NAN])), st.sampled_from(CITIES),
           st.one_of(st.none(), st.integers(0, 3)), st.integers(0, 15))
    @example(["city = NULL", "10 / x > 1"], 0, None, "SF", None, 0)
    def test_dropping_true_leaves_keeps_the_outcome(self, atoms, x, score, city, n, mask):
        where = parse("SELECT id FROM t WHERE " + " AND ".join(atoms)).where
        parameters = {"city": city, "n": n, "nan": NAN}
        executor = Executor(Database("empty"), parameters)
        env = {"t": {"id": 1, "city": city, "x": x, "score": score}}
        whole = outcome(lambda: _truthy(compile_expr(where)(executor, env, None)))
        conjuncts, residual = executor._filter(where, "t")  # a test of t's rows
        sargable_leaves = [leaf for leaf in _conjuncts(where) if sargable(leaf, "t", parameters)]
        assert len(sargable_leaves) == len(conjuncts)
        true = [
            position for position, leaf in enumerate(sargable_leaves)
            if outcome(compile_expr(leaf), executor, env, None) is True
        ]
        exact = {position for bit, position in enumerate(true) if mask >> bit & 1}
        passes = residual(exact)
        assert outcome(lambda: True if passes is None else _truthy(passes(env["t"]))) == whole


# ----------------------------------------------------------------------
# Counters
# ----------------------------------------------------------------------
SEEKERS = TableSchema(
    "seekers",
    [Column("id", ColumnType.INT, primary_key=True), Column("city", ColumnType.TEXT),
     Column("years", ColumnType.INT)],
)


class TestRowsTested:
    """``rows_tested`` / ``docs_tested``: the candidates a residual test ran
    on — none when the indexes answered the whole predicate."""

    FULL_SQL = "SELECT COUNT(*) AS n FROM seekers WHERE city = 'SF' AND years >= 2"
    OPEN_SQL = "SELECT COUNT(*) AS n FROM seekers WHERE years + 0 >= 2"

    @pytest.mark.parametrize("n_shards", [0, 3])
    def test_sql(self, n_shards):
        if n_shards:
            db = ShardedDatabase("s", n_shards=n_shards, n_replicas=1, clock=SimClock())
            db.create_table(SEEKERS, partition_column="city")
        else:
            db = Database("d")
            db.create_table(SEEKERS)
        db.table("seekers").create_index("city")
        db.table("seekers").create_index("years", kind="sorted")
        db.table("seekers").insert_many(
            {"id": i, "city": CITIES[i % 3], "years": i % 5} for i in range(30)
        )
        full = db.execute(self.FULL_SQL)
        assert (full.scalar(), full.stats.rows_tested) == (6, 0)
        assert full.stats.used_index == "seekers.city+seekers.years"
        unindexed = db.execute(self.OPEN_SQL)
        assert unindexed.scalar() == 18
        assert unindexed.stats.rows_tested == unindexed.stats.rows_scanned == 30

    @pytest.mark.parametrize("n_shards", [0, 3])
    def test_documents(self, n_shards):
        if n_shards:
            store = ClusteredDocumentStore("s", n_shards=n_shards, n_replicas=1, clock=SimClock())
            people = store.create_collection("people", partition_field="city")
        else:
            people = Collection("people")
        people.create_index("city")
        people.create_index("years", kind="sorted")
        people.insert_many({"city": CITIES[i % 3], "years": i % 5} for i in range(30))
        slices = people._slices() if n_shards else [people]
        for spec, found, tested in (
            ({"city": "SF", "years": {"$gte": 2}}, 6, 0),  # pruned when clustered
            ({"years": {"$gte": 2}}, 18, 0),  # fan-out
            ({"n": {"$exists": False}}, 30, 30),  # no index: every document
        ):
            selection = find_selection(slices, spec, None, None, False, None)
            assert (len(selection.rows), selection.tested) == (found, tested)
            if n_shards:
                people.find(spec)
                assert people.last_find_stats["docs_tested"] == tested
                assert people.last_find_stats["rows"] == found
