"""One value order under both stores.

``repro.storage.relational.index`` answers "how do two values order" once:
``order_key`` places a value for range operators and sorted indexes,
``sort_key`` extends it to the total order ``ORDER BY``, ``find(sort=)`` and
the data plan's rank read, and ``group_key`` is what ``DISTINCT``,
``GROUP BY`` and ``Collection.distinct`` dedupe on.

The tables pin, per store, what sort, range and sorted index answer over one
list of values of every bracket.  A cell the one order changed says, in a
comment, what it answered before.  The properties at the end say the same
in general: a sorted index answers exactly what a scan does (exception type
included), and ``find(sort=f)`` is ``sorted(…, key=sort_key)``.
"""

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.document.store import Collection, find_in
from repro.storage.relational import Database, quick_table
from repro.storage.relational.index import MISSING, group_key, sort_key
from repro.storage.schema import ColumnType

NAN = float("nan")
#: One value of every bracket, by label; ``missing`` is a field a document lacks.
CELLS = {
    "None": None, "missing": MISSING, "True": True, "1": 1, "1.5": 1.5, "nan": NAN,
    "Z": "Z", "b": "b", "[1]": [1], "{a:1}": {"a": 1},
}
UNORDERED = [None, NAN, [1], {"a": 1}]  # constants no range matches


def outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except Exception as error:  # the contract is *which* error
        return type(error)


# ----------------------------------------------------------------------
# Documents
# ----------------------------------------------------------------------
def collection(indexed):
    people = Collection("cells")
    if indexed:
        people.create_index("v", kind="sorted")
    for label, value in CELLS.items():
        people.insert({"label": label} if value is MISSING else {"label": label, "v": value})
    return people


def labels(documents):
    return [document["label"] for document in documents]


class TestDocumentCells:
    def test_sort(self):
        people = collection(indexed=False)
        # was: nan sorted among the numbers (where the sort happened to leave
        # it), and [1] / {a:1} as their ``str`` among the text — "[1]" between
        # "Z" and "b".  Now the unordered are last, tied, in scan order.
        assert labels(people.find(sort="v")) == [
            "None", "missing", "True", "1", "1.5", "Z", "b", "nan", "[1]", "{a:1}",
        ]
        # was: {a:1}, b, [1], Z, 1.5, True, 1, nan, None, missing
        assert labels(people.find(sort="v", descending=True)) == [
            "nan", "[1]", "{a:1}", "b", "Z", "1.5", "True", "1", "None", "missing",
        ]

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("op, constant, expected", [
        ("$gt", 1, ["1.5"]),
        ("$gte", 1, ["True", "1", "1.5"]),  # True == 1
        ("$lt", 1, []),
        ("$lte", 1, ["True", "1"]),
        ("$gte", True, ["True", "1", "1.5"]),  # bool is a number
        ("$gt", "b", []),
        ("$gte", "b", ["b"]),
        ("$lt", "b", ["Z"]),
        ("$lte", "b", ["Z", "b"]),
        *(("$gte", constant, []) for constant in UNORDERED),
        *(("$lt", constant, []) for constant in UNORDERED),
    ])
    def test_range_and_sorted_index(self, indexed, op, constant, expected):
        """Unchanged: ranges compare within a bracket, index or not."""
        assert labels(collection(indexed).find({"v": {op: constant}})) == expected

    def test_a_bracket_the_index_does_not_hold_is_a_scan(self):
        people = Collection("c")
        people.create_index("v", kind="sorted")
        for value in (1, 2, [3], None):
            people.insert({"v": value})
        # was: ([], 0, ["v"]) — the index answered with an empty span
        assert find_in([people], {"v": {"$gt": "a"}}, None, None, False, None) == ([], 4, [])
        found, examined, used = find_in([people], {"v": {"$gt": 1}}, None, None, False, None)
        assert ([d["v"] for d in found], examined, used) == ([2], 1, ["v"])


# ----------------------------------------------------------------------
# SQL
# ----------------------------------------------------------------------
#: The cells a typed column can hold, one row each (NULL elsewhere).
TYPED = {"x": ["None", "1", "1.5", "nan"], "s": ["Z", "b"], "f": ["True"]}


def database(indexed):
    db = Database("cells")
    rows = []
    for position, label in enumerate(["None", "True", "1", "1.5", "nan", "Z", "b"]):
        row = {"id": position, "label": label, "x": None, "s": None, "f": None}
        for column, held in TYPED.items():
            if label in held:
                row[column] = CELLS[label]
        rows.append(row)
    quick_table(db, "t", [("id", ColumnType.INT), ("label", ColumnType.TEXT),
                          ("x", ColumnType.FLOAT), ("s", ColumnType.TEXT),
                          ("f", ColumnType.BOOL)], rows)
    if indexed:
        for column in TYPED:
            db.table("t").create_index(column, kind="sorted")
    return db


def select(db, where, constant):
    rows = db.execute(f"SELECT label FROM t WHERE {where} ORDER BY id", {"c": constant}).rows
    return [row["label"] for row in rows]


class TestSqlCells:
    def test_sort(self):
        """Every cell through one CASE over parameters (``missing`` is the
        branch-less NULL)."""
        db = Database("cells")
        quick_table(db, "u", [("id", ColumnType.INT)], [{"id": i} for i in range(len(CELLS))])
        names = list(CELLS)
        case = " ".join(
            f"WHEN id = {i} THEN :v{i}" for i, label in enumerate(names) if label != "missing"
        )
        parameters = {f"v{i}": value for i, value in enumerate(CELLS.values())}

        def order(direction):
            rows = db.execute(f"SELECT id FROM u ORDER BY CASE {case} END {direction}", parameters)
            return [names[row["id"]] for row in rows.rows]

        # was: TypeError ('<' between int and str), both ways
        assert order("ASC") == [
            "None", "missing", "True", "1", "1.5", "Z", "b", "nan", "[1]", "{a:1}",
        ]
        assert order("DESC") == [
            "nan", "[1]", "{a:1}", "b", "Z", "1.5", "True", "1", "None", "missing",
        ]

    @pytest.mark.parametrize("indexed", [False, True])
    @pytest.mark.parametrize("where, constant, expected", [
        ("x > :c", 1, ["1.5"]),
        ("x >= :c", True, ["1", "1.5"]),
        ("x < :c", 1.5, ["1"]),
        ("x <= :c", 1.5, ["1", "1.5"]),
        ("x > :c", "b", TypeError),  # both ways: an ill-typed constant raises
        ("x > :c", [1], TypeError),
        ("x > :c", None, []),
        ("x > :c", NAN, []),
        ("s > :c", "Z", ["b"]),
        ("s < :c", 2, TypeError),
        ("f >= :c", 1, ["True"]),
        # was, with the index: TypeError — a sorted index answered ``=`` by
        # bisecting ('Z',) into (1.0,) entries; ``=`` is a scan's now
        ("x = :c", "Z", []),
        ("x = :c", 1, ["1"]),
        # was, with the index: TypeError
        ("s = :c", 1, []),
    ])
    def test_range_and_sorted_index(self, indexed, where, constant, expected):
        assert outcome(select, database(indexed), where, constant) == expected

    def test_only_ranges_with_entries_in_their_bracket_use_the_index(self):
        db = database(indexed=True)
        for where, constant, used in [
            ("x > :c", 1, "t.x"),
            ("x = :c", 1, None),  # was: "t.x"
            ("x > :c", None, None),  # was: "t.x", an empty span
            ("f < :c", "b", None),  # the bracket is empty: the scan raises
        ]:
            result = outcome(db.execute, f"SELECT id FROM t WHERE {where}", {"c": constant})
            stats = None if isinstance(result, type) else result.stats.used_index
            assert stats == used, where

    def test_a_nan_entry_does_not_change_a_range_answer(self):
        """Typed ``(value,)`` entries sorted a NaN wherever the sort left it,
        which broke the bisect's invariant: with the index, ``x > 1.5`` was
        ``[3, 4, 5]``.  Under ``order_key`` a NaN is never indexed."""
        answers = []
        for indexed in (False, True):
            db = Database("n")
            table = quick_table(db, "t", [("id", ColumnType.INT), ("x", ColumnType.FLOAT)], [
                {"id": i, "x": x} for i, x in enumerate([3.0, NAN, 1.0, 5.0, 2.0, 4.0, NAN, 0.5])
            ])
            if indexed:
                table.create_index("x", kind="sorted")
            result = db.execute("SELECT id FROM t WHERE x > 1.5")
            answers.append(([row["id"] for row in result.rows], result.stats.used_index))
        assert answers == [([0, 3, 4, 5], None), ([0, 3, 4, 5], "t.x")]

    def test_order_by_nan_and_null(self):
        db = Database("n")
        quick_table(db, "t", [("id", ColumnType.INT), ("x", ColumnType.FLOAT)],
                    [{"id": i, "x": x} for i, x in enumerate([1.0, NAN, 2.0, 0.5, None])])

        def xs(direction):
            rows = db.query(f"SELECT x FROM t ORDER BY x {direction}")
            return ["nan" if x is not None and math.isnan(x) else x for x in (r["x"] for r in rows)]

        # was: [1.0, nan, 2.0, 0.5, None] descending — NaN compares false both ways
        assert xs("DESC") == ["nan", 2.0, 1.0, 0.5, None]
        assert xs("ASC") == [None, 0.5, 1.0, 2.0, "nan"]

    def test_order_by_mixed_types(self):
        db = Database("m")
        quick_table(db, "t", [("id", ColumnType.INT), ("s", ColumnType.TEXT)],
                    [{"id": i, "s": s} for i, s in enumerate(["b", "a", None, "c", "d"])])
        rows = db.query("SELECT id FROM t ORDER BY CASE WHEN id > 2 THEN id ELSE s END, id DESC")
        # was: TypeError; numbers sort before text, NULL first
        assert [row["id"] for row in rows] == [2, 3, 4, 1, 0]


# ----------------------------------------------------------------------
# One dedupe key
# ----------------------------------------------------------------------
GROUPS = [
    {"a": 1, "b": 2}, {"b": 2, "a": 1},  # equal dicts, keys in another order
    [1], [1.0],  # equal lists
    1, 1.0, True,  # equal numbers
    {1, 2}, {2, 1},  # sets (a TypeError in Collection.distinct)
    float("nan"), float("nan"),  # two NaN objects
    "1", [1, [2]], [1, [2.0]], (1,),
]
FIRSTS = [{"a": 1, "b": 2}, [1], 1, {1, 2}, "nan", "1", [1, [2]], (1,)]


def nan_named(values):
    return ["nan" if isinstance(v, float) and math.isnan(v) else v for v in values]


class TestOneDedupeKey:
    def test_group_key(self):
        assert group_key({"a": 1, "b": 2}) == group_key({"b": 2, "a": 1})
        assert group_key([1]) == group_key([1.0]) != group_key((1,))
        assert group_key(1) == group_key(1.0) == group_key(True)
        assert group_key(float("nan")) == group_key(float("nan")) != group_key(None)
        assert group_key([float("nan")]) == group_key([float("nan")])
        assert group_key({1, 2}) == group_key(frozenset({2, 1}))
        assert group_key({"a": [1]}) != group_key({"a": [2]})
        assert group_key("1") != group_key(1)

    def test_collection_distinct(self):
        people = Collection("c")
        for value in GROUPS:
            people.insert({"v": value})
        people.insert({"w": 1})  # missing: not a value
        # was: both dicts and both lists came back, the set raised TypeError,
        # and each NaN was its own value
        assert nan_named(people.distinct("v")) == FIRSTS

    def test_sql_distinct_and_group_by(self):
        db = Database("g")
        quick_table(db, "t", [("id", ColumnType.INT), ("x", ColumnType.FLOAT)],
                    [{"id": i, "x": x} for i, x in enumerate([float("nan"), 1.0, float("nan"), None])])
        # was: two NaN rows / groups
        assert nan_named(r["x"] for r in db.query("SELECT DISTINCT x FROM t")) == ["nan", 1.0, None]
        groups = db.query("SELECT x, COUNT(*) AS n FROM t GROUP BY x")
        assert [(nan_named([g["x"]])[0], g["n"]) for g in groups] == [("nan", 2), (1.0, 1), (None, 1)]
        case = " ".join(f"WHEN id = {i} THEN :v{i}" for i in range(len(GROUPS)))
        quick_table(db, "u", [("id", ColumnType.INT)], [{"id": i} for i in range(len(GROUPS))])
        rows = db.query(f"SELECT DISTINCT CASE {case} END AS v FROM u",
                        {f"v{i}": value for i, value in enumerate(GROUPS)})
        # was: both dicts and both lists came back (``repr`` keys)
        assert nan_named(row["v"] for row in rows) == FIRSTS


# ----------------------------------------------------------------------
# Properties
# ----------------------------------------------------------------------
RANGES = ["<", "<=", ">", ">="]
numbers = st.one_of(st.booleans(), st.integers(-3, 3), st.sampled_from([0.5, 1.5, NAN, math.inf]))
texts = st.sampled_from(["", "a", "m", "z"])


@st.composite
def range_predicates(draw):
    """``(column, [(op, constant), ...])``: one conjunct with a constant of
    any bracket (the scan's ``TypeError`` included), or a window of two the
    column's type compares with.  With two, an ill-typed one raises only on
    the rows the other lets through, and an index may let none through — as
    a hash index on another conjunct may."""
    column = draw(st.sampled_from(["x", "s"]))
    if draw(st.booleans()):
        constants = st.one_of(st.none(), numbers, texts)
        return column, [draw(st.tuples(st.sampled_from(RANGES), constants))]
    typed = numbers if column == "x" else texts
    return column, draw(st.lists(st.tuples(st.sampled_from(RANGES), typed), min_size=2, max_size=2))
float_cells = st.one_of(st.none(), st.integers(-3, 3).map(float), st.just(NAN), st.just(1.5))
text_cells = st.one_of(st.none(), st.sampled_from(["a", "b", "m", "zz"]))


class TestOneOrderProperties:
    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(float_cells, text_cells), max_size=12), range_predicates()
    )
    def test_sql_sorted_index_answers_what_a_scan_does(self, rows, predicate):
        """Over typed columns holding NaN and NULL, for constants of every
        bracket: the same rows in the same order, or the same exception."""
        column, conjuncts = predicate
        answers = []
        for indexed in (False, True):
            db = Database("p")
            table = quick_table(db, "t", [("id", ColumnType.INT), ("x", ColumnType.FLOAT),
                                          ("s", ColumnType.TEXT)],
                                [{"id": i, "x": x, "s": s} for i, (x, s) in enumerate(rows)])
            if indexed:
                table.create_index(column, kind="sorted")
            where = " AND ".join(f"{column} {op} :c{i}" for i, (op, _) in enumerate(conjuncts))
            parameters = {f"c{i}": constant for i, (_, constant) in enumerate(conjuncts)}
            result = outcome(db.execute, f"SELECT id FROM t WHERE {where}", parameters)
            answers.append(result if isinstance(result, type) else result.rows)
        assert answers[0] == answers[1]

    document_values = st.one_of(
        st.just(MISSING), st.none(), st.booleans(), st.integers(-2, 2),
        st.sampled_from([0.5, NAN, -math.inf]), st.sampled_from(["", "a", "B", "b"]),
        st.lists(st.integers(0, 1), max_size=2), st.just({"a": 1}),
    )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(document_values, max_size=12),
        st.lists(st.tuples(st.sampled_from(["$gt", "$gte", "$lt", "$lte"]), document_values),
                 min_size=1, max_size=2),
        st.booleans(),
    )
    def test_document_sorted_index_and_sort(self, values, bounds, descending):
        """A sorted index over mixed brackets answers what a scan does, and
        ``find(sort=)`` is ``sorted(documents, key=sort_key)``."""
        plain, indexed = Collection("p"), Collection("p")
        indexed.create_index("v", kind="sorted")
        documents = [{"n": n} if v is MISSING else {"n": n, "v": v} for n, v in enumerate(values)]
        for collection in (plain, indexed):
            collection.insert_many(documents)
        condition = {op: (None if bound is MISSING else bound) for op, bound in bounds}
        assert indexed.find({"v": condition}) == plain.find({"v": condition})
        expected = sorted(documents, key=lambda d: sort_key(d.get("v", MISSING)), reverse=descending)
        for collection in (plain, indexed):
            found = collection.find(sort="v", descending=descending)
            assert [d["n"] for d in found] == [d["n"] for d in expected]
