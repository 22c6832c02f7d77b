"""Differential property tests for compiled predicates and index access paths.

Three oracles, one per thing ``src/`` no longer does the slow way:

* a compiled Mongo-style filter (``document.query.compile_filter``) answers
  what the per-document interpreter answered — ``reference_matches``;
* a compiled SQL expression (``sql.executor.compile_expr``) evaluates to
  what the tree-walking ``_eval`` evaluated to — ``reference_eval``;
* a ``SELECT`` under any subset and kind of secondary indexes returns what
  the same statement returns with none, row order included, single-node and
  sharded (the document twin lives in ``test_clustered_find_properties.py``)
  — writes included, a colliding key change too — and after every step no
  table or shard primary holds a stale index entry (``row_heaps``).

"The same" is the same value of the same type, or the same exception type.
One difference is allowed and pinned: a malformed filter is refused when it
is compiled, even if no document would have reached the bad clause.
"""

from collections.abc import Mapping

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference_interpreters import reference_eval, reference_matches
from row_heaps import stale_entries

from repro.clock import SimClock
from repro.errors import QueryError
from repro.storage import ColumnType, Database, ShardedDatabase, quick_table
from repro.storage.document.query import compile_filter, matches
from repro.storage.document.store import Collection
from repro.storage.relational.sql import ast, parse
from repro.storage.relational.sql.executor import Executor, compile_expr
from repro.storage.relational.sql.functions import SCALAR_FUNCTIONS
from repro.storage.schema import Column, TableSchema


def outcome(call, *args):
    """What a call did: its value with its type, or the type it raised."""
    try:
        value = call(*args)
    except Exception as error:  # the property is *which* error
        return type(error)
    return type(value), value


# ----------------------------------------------------------------------
# 1. Compiled filter == reference interpreter
# ----------------------------------------------------------------------
scalars = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 5),
    st.sampled_from([1.0, 2.5]),
    st.sampled_from(["a", "b", "Ab", "2", ""]),
)
values = st.one_of(
    scalars,
    st.lists(st.sampled_from([1, 2, "a"]), max_size=2),
    st.sampled_from([{"x": 1}, {"x": "a", "y": 2}, {}]),
)
documents = st.dictionaries(st.sampled_from(["a", "b", "c", "sub"]), values, max_size=4)
paths = st.sampled_from(["a", "b", "c", "sub", "sub.x", "sub.y", "a.x", "nope"])

OPERATORS = [
    "$eq", "$ne", "$gt", "$gte", "$lt", "$lte", "$in", "$nin",
    "$contains", "$regex", "$size", "$exists",
]
operands = {
    "$in": st.one_of(st.lists(values, max_size=3), st.just("ab"), st.just(5)),
    "$nin": st.one_of(st.lists(values, max_size=3), st.just("ab"), st.just(5)),
    "$regex": st.sampled_from(["a", "^A", "b$", ".", "2|x"]),
    "$size": st.integers(0, 2),
    "$exists": st.sampled_from([True, False, 0, 1, None]),
}
operator_entries = st.sampled_from(OPERATORS + ["$bogus"]).flatmap(
    lambda op: st.tuples(st.just(op), operands.get(op, values))
)
conditions = st.one_of(
    values,  # plain equality, sub-document and list equality included
    st.lists(operator_entries, min_size=1, max_size=3).map(dict),
    st.just({"$gt": 1, "x": 2}),  # operators and plain keys mixed: refused
)
filters = st.recursive(
    st.dictionaries(paths, conditions, max_size=3),
    lambda inner: st.one_of(
        st.tuples(st.sampled_from(["$or", "$and"]), st.lists(inner, max_size=3)).map(
            lambda pair: {pair[0]: pair[1]}
        ),
        st.tuples(inner, st.sampled_from(["$or", "$and"]), st.lists(inner, max_size=2)).map(
            lambda triple: {**triple[0], triple[1]: triple[2]}
        ),
        inner.map(lambda clause: {"$not": clause}),
        st.sampled_from([
            {"$or": "not-a-list"}, {"$and": [1]}, {"$not": [{"a": 1}]}, {"$nor": []},
        ]),
    ),
    max_leaves=4,
)


def malformed(filter_spec) -> bool:
    """Whether the filter has a clause the language does not define — an
    independent reading of the grammar, not of either evaluator."""
    for key, condition in filter_spec.items():
        if key in ("$or", "$and"):
            if not isinstance(condition, list) or not all(
                isinstance(clause, Mapping) for clause in condition
            ):
                return True
            if any(malformed(clause) for clause in condition):
                return True
        elif key == "$not":
            if not isinstance(condition, Mapping) or malformed(condition):
                return True
        elif key.startswith("$"):
            return True
        elif isinstance(condition, Mapping) and any(k.startswith("$") for k in condition):
            if any(op not in OPERATORS for op in condition):
                return True
    return False


class TestCompiledFilter:
    @settings(max_examples=600, deadline=None)
    @given(filters, st.lists(documents, max_size=6))
    def test_matches_what_the_interpreter_matched(self, filter_spec, docs):
        compiled = outcome(compile_filter, filter_spec)
        # refused exactly when malformed, whatever the documents are
        assert (compiled is QueryError) == malformed(filter_spec)
        for document in docs:
            expected = outcome(reference_matches, document, filter_spec)
            if compiled is QueryError:
                # The interpreter refused it too, unless it never reached the
                # bad clause: a short-circuit, or an operand error on the way.
                assert expected is QueryError or expected is TypeError or expected[0] is bool
                assert outcome(matches, document, filter_spec) is QueryError
                continue
            assert expected is not QueryError
            got = outcome(compiled[1], document)
            if isinstance(expected, type):
                assert got is expected
            else:
                assert not isinstance(got, type) and bool(got[1]) is expected[1]

    def test_every_operator_on_every_pair_of_values(self):
        """The leaves, exhaustively: hypothesis above covers the structure."""
        pool = [
            None, True, False, 0, 1, 2, 1.0, 2.5, "", "a", "Ab", "2",
            [], [1], [1, "a"], {"x": 1}, {},
        ]
        absent = object()
        for op in OPERATORS:
            for operand in pool + (["^a", "ab", 5] if op in ("$regex", "$in", "$nin") else []):
                filter_spec = {"f": {op: operand}}
                if (op, operand) in (("$regex", []), ("$regex", [1])):
                    continue  # "[]" is no pattern: re.error, now when compiled
                compiled = compile_filter(filter_spec)
                for value in pool + [absent]:
                    document = {} if value is absent else {"f": value}
                    expected = outcome(reference_matches, document, filter_spec)
                    got = outcome(compiled, document)
                    if isinstance(expected, type):
                        assert got is expected, (filter_spec, document)
                    else:
                        assert bool(got[1]) is expected[1], (filter_spec, document)
        for condition in pool:  # plain equality
            compiled = compile_filter({"f": condition})
            for value in pool + [absent]:
                document = {} if value is absent else {"f": value}
                assert bool(compiled(document)) is reference_matches(document, {"f": condition})

    @pytest.mark.parametrize("filter_spec", [
        {"a": {"$bogus": 1}},
        {"a": 1, "b": {"$bogus": 1}},  # the interpreter short-circuited on ``a``
        {"$or": [{"a": 1}, {"$nope": 1}]},
        {"$or": "not-a-list"},
        {"$not": [{"a": 1}]},
        {"a": {"$gt": 1, "x": 2}},
    ])
    def test_a_malformed_filter_is_refused_before_any_document_is_read(self, filter_spec):
        """On an empty collection, with or without an index, for every verb."""
        for indexed in (False, True):
            people = Collection("people")
            if indexed:
                people.create_index("a")
            for call in (people.find, people.count, people.delete):
                with pytest.raises(QueryError):
                    call(filter_spec)
            with pytest.raises(QueryError):
                people.update(filter_spec, {"c": 1})
            people.insert({"a": 2})  # no document reaches ``b`` / the second clause
            with pytest.raises(QueryError):
                people.find(filter_spec)


# ----------------------------------------------------------------------
# 2. Compiled SQL expression == reference _eval
# ----------------------------------------------------------------------
SUBQUERY_DB = Database("sub")
quick_table(
    SUBQUERY_DB,
    "k",
    [Column("id", ColumnType.INT, primary_key=True), Column("v", ColumnType.INT)],
    [{"id": 1, "v": 1}, {"id": 2, "v": None}, {"id": 3, "v": 3}],
)
SUBSELECTS = [
    parse(sql)
    for sql in (
        "SELECT v FROM k WHERE id = 1",
        "SELECT v FROM k",
        "SELECT v FROM k WHERE id > 99",
        "SELECT v FROM k WHERE id = :p",  # a parameter inside: maybe missing
        "SELECT nope FROM k",  # fails inside the subquery
    )
]
COUNT_STAR = ast.FunctionCall("COUNT", (ast.Star(),))
SUM_X = ast.FunctionCall("SUM", (ast.ColumnRef("x"),))

sql_values = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.sampled_from([0.0, 1.5, -2.0]),
    st.sampled_from(["", "a", "Ab", "a%", "_b", "10"]),
)
leaves = st.one_of(
    sql_values.map(ast.Literal),
    st.sampled_from([
        ast.ColumnRef("x"), ast.ColumnRef("s"), ast.ColumnRef("x", "t"),
        ast.ColumnRef("y", "u"), ast.ColumnRef("y"),
        ast.ColumnRef("id"),  # in both bindings: ambiguous
        ast.ColumnRef("nope"), ast.ColumnRef("x", "zz"), ast.ColumnRef("nope", "t"),
        ast.Parameter("p"), ast.Parameter("q"), ast.Parameter("missing"),
        COUNT_STAR, SUM_X, ast.Star(),
    ]),
    st.sampled_from(SUBSELECTS).map(ast.Subquery),
    st.tuples(st.sampled_from(SUBSELECTS), st.booleans()).map(lambda a: ast.Exists(*a)),
)
BINARY_OPS = ["=", "<>", "<", "<=", ">", ">=", "+", "-", "*", "/", "%", "AND", "OR", "LIKE", "||"]


def compound(inner):
    return st.one_of(
        st.tuples(st.sampled_from(["-", "NOT"]), inner).map(lambda a: ast.Unary(*a)),
        st.tuples(st.sampled_from(BINARY_OPS), inner, inner).map(lambda a: ast.Binary(*a)),
        st.tuples(inner, st.lists(inner, max_size=3).map(tuple), st.booleans()).map(
            lambda a: ast.InList(*a)
        ),
        st.tuples(inner, inner, inner, st.booleans()).map(lambda a: ast.Between(*a)),
        st.tuples(inner, st.booleans()).map(lambda a: ast.IsNull(*a)),
        st.tuples(inner, st.sampled_from(SUBSELECTS), st.booleans()).map(
            lambda a: ast.InSubquery(*a)
        ),
        st.tuples(
            st.sampled_from(sorted(SCALAR_FUNCTIONS) + ["BOGUS"]),
            st.lists(inner, max_size=3).map(tuple),
        ).map(lambda a: ast.FunctionCall(*a)),
        st.tuples(
            st.lists(st.tuples(inner, inner), min_size=1, max_size=2).map(tuple),
            st.one_of(st.none(), inner),
        ).map(lambda a: ast.CaseWhen(*a)),
    )


expressions = st.recursive(leaves, compound, max_leaves=8)
environments = st.fixed_dictionaries({
    "t": st.fixed_dictionaries({"id": st.integers(0, 3), "x": sql_values, "s": sql_values}),
    "u": st.fixed_dictionaries({"id": st.integers(0, 3), "y": sql_values}),
})
aggregates = st.one_of(
    st.none(),
    st.just({}),
    st.fixed_dictionaries({COUNT_STAR: st.integers(0, 3), SUM_X: sql_values}),
)
bindings = st.dictionaries(st.sampled_from(["p", "q"]), sql_values)


class TestCompiledExpression:
    @settings(max_examples=1000, deadline=None)
    @given(expressions, environments, bindings, aggregates)
    def test_evaluates_to_what_the_tree_walk_evaluated_to(self, expr, env, parameters, aggs):
        executor = Executor(SUBQUERY_DB, parameters)
        expected = outcome(reference_eval, executor, expr, env, aggs)
        assert outcome(compile_expr(expr), executor, env, aggs) == expected

    def test_a_node_compiles_once_and_captures_no_execution(self):
        where = parse("SELECT id FROM k WHERE v = :p OR id IN (SELECT id FROM k WHERE v = :p)").where
        assert compile_expr(where) is compile_expr(where)
        assert compile_expr(where) is compile_expr(
            parse("SELECT v FROM k WHERE v = :p OR id IN (SELECT id FROM k WHERE v = :p)").where
        )  # an equal node of another statement
        env = {"k": {"id": 3, "v": 3}}
        for value, found in ((3, True), (1, False), (None, None)):
            assert compile_expr(where)(Executor(SUBQUERY_DB, {"p": value}), env, None) is found

    def test_literals_of_equal_value_and_unlike_type_are_distinct_nodes(self):
        """``1 == 1.0 == True``: keyed by plain equality, the cache would hand
        ``SELECT 1.0`` the closure compiled for ``SELECT 1``."""
        one, real, true = ast.Literal(1), ast.Literal(1.0), ast.Literal(True)
        assert len({one, real, true, ast.Literal(1)}) == 3
        results = [
            SUBQUERY_DB.execute(f"SELECT {text} * v AS n FROM k WHERE id = 3").scalar()
            for text in ("1", "1.0", "TRUE")
        ]
        assert [type(n) for n in results] == [int, float, int] and results == [3, 3.0, 3]


# ----------------------------------------------------------------------
# 3. SELECT under any indexes == SELECT under none
# ----------------------------------------------------------------------
EMP = TableSchema(
    "emp",
    [
        Column("id", ColumnType.INT, primary_key=True),
        Column("city", ColumnType.TEXT),
        Column("dept", ColumnType.TEXT),
        Column("age", ColumnType.INT),
        Column("score", ColumnType.FLOAT),
    ],
)
CITIES = ["Oakland", "Austin", "Denver"]
DEPTS = ["eng", "ops", "hr"]
ATOMS = (
    [f"city = '{city}'" for city in CITIES]
    + [f"dept = '{dept}'" for dept in DEPTS]
    + ["city = :city", "city IN ('Austin', :city)", "dept IN ('eng', 'hr')", "'ops' = dept"]
    + [f"age {op} :low" for op in ("=", "<", "<=", ">", ">=")]
    + [":low <= age", "age < 40", "age = 30", "age BETWEEN 20 AND :low", "age IS NULL"]
    + ["score > 1.5", "score <= :low", "score = 2.0", "score = 2"]
    + ["id = 3", "id IN (1, 2, 3)", "id > 4"]
    + ["dept <> 'eng'", "dept LIKE 'e%'", "(dept = 'ops' OR age > 30)", "age + 1 > :low"]
)
TEMPLATES = [
    "SELECT * FROM emp{where}",
    "SELECT id, age FROM emp e{where}",
    "SELECT id FROM emp{where} LIMIT 3",
    "SELECT id FROM emp{where} LIMIT 2 OFFSET 1",
    "SELECT COUNT(*) AS n, SUM(age) AS s FROM emp{where}",
    "SELECT dept, COUNT(*) AS n FROM emp{where} GROUP BY dept",
    "SELECT id FROM emp{where} ORDER BY age DESC",  # ties keep the base order
    "SELECT DISTINCT city FROM emp{where}",
]
WRITES = [
    "UPDATE emp SET age = age + 5 WHERE dept = 'eng'",
    "UPDATE emp SET age = NULL WHERE id = 2",
    "UPDATE emp SET score = 2.0 WHERE age IS NULL",
    "UPDATE emp SET dept = 'ops' WHERE age >= 40",
    "DELETE FROM emp WHERE age < 25",
    "DELETE FROM emp WHERE city = 'Denver' AND score > 1.5",
    "UPDATE emp SET id = id + 1 WHERE age > 30",  # collides while id + 1 is held
    "UPDATE emp SET age = age + 1 WHERE age < 30",  # the index it reads moves
]
index_plans = st.dictionaries(
    st.sampled_from(["city", "dept", "age", "score"]), st.sampled_from(["hash", "sorted"])
)
emp_rows = st.lists(
    st.tuples(
        st.sampled_from(CITIES),
        st.sampled_from(DEPTS),
        st.one_of(st.none(), st.integers(18, 45)),
        st.one_of(st.none(), st.sampled_from([0.5, 1.5, 2.0, 3.25])),
    ),
    max_size=24,
)
selects = st.tuples(
    st.sampled_from(TEMPLATES),
    st.lists(st.sampled_from(ATOMS), max_size=3, unique=True),
    st.fixed_dictionaries({"city": st.sampled_from(CITIES), "low": st.integers(15, 50)}),
).map(
    lambda drawn: (
        drawn[0].format(where=" WHERE " + " AND ".join(drawn[1]) if drawn[1] else ""),
        drawn[2],
    )
)
sql_steps = st.lists(
    st.one_of(selects, st.sampled_from(WRITES).map(lambda sql: (sql, {}))),
    min_size=2,
    max_size=10,
)


def answer(database, sql, parameters):
    result = database.execute(sql, parameters)
    return result.rows, result.columns, result.rowcount


def heaps(database):
    """``emp``'s row heap, or each shard primary's of a sharded database."""
    if isinstance(database, ShardedDatabase):
        return [state.table("emp")._heap for state in database.cluster.primary_states()]
    return [database.table("emp")._heap]


def populate(database, rows, plan, **table_options):
    table = database.create_table(EMP, **table_options)
    for column, kind in plan.items():
        table.create_index(column, kind=kind)
    table.insert_many(
        {"id": i, "city": city, "dept": dept, "age": age, "score": score}
        for i, (city, dept, age, score) in enumerate(rows)
    )


class TestIndexesNeverChangeASelect:
    @settings(max_examples=150, deadline=None)
    @given(emp_rows, index_plans, sql_steps, st.sampled_from([1, 3]))
    def test_rows_columns_and_order(self, rows, plan, script, n_shards):
        def sharded():
            return ShardedDatabase(
                "prop", n_shards=n_shards, n_replicas=3, clock=SimClock(), seed=1
            )

        pairs = [(Database("plain"), Database("indexed")), (sharded(), sharded())]
        for (plain, indexed), options in zip(pairs, ({}, {"partition_column": "city"})):
            populate(plain, rows, {}, **options)
            populate(indexed, rows, plan, **options)
        for sql, parameters in script:
            for plain, indexed in pairs:
                expected = outcome(answer, plain, sql, parameters)
                assert outcome(answer, indexed, sql, parameters) == expected, (sql, plan)
                for heap in heaps(plain) + heaps(indexed):
                    assert stale_entries(heap) == [], (sql, plan)

    def test_every_index_intersected_is_named(self):
        database = Database("named")
        populate(
            database,
            [(CITIES[i % 3], DEPTS[i % 2], 20 + i, 1.5) for i in range(12)],
            {"city": "hash", "age": "sorted"},
        )
        both = database.execute("SELECT id FROM emp WHERE age >= 26 AND city = 'Oakland'")
        assert both.stats.used_index == "emp.age+emp.city"
        assert (both.stats.index_lookups, both.stats.rows_scanned) == (2, 0)
        assert [row["id"] for row in both.rows] == [6, 9]
        one = database.execute("SELECT id FROM emp WHERE city = 'Oakland' AND dept = 'eng'")
        assert one.stats.used_index == "emp.city"
