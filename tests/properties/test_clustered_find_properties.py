"""Differential property tests for the one document ``find`` path.

Three collections take the same inserts, updates and deletes: a plain
single-node ``Collection`` (the oracle: no index, no shards), the same with
field indexes, and a ``ClusteredCollection`` over 1 / 2 / 4 shards,
partitioned by ``city`` or not, indexed or not.  Every ``find`` must agree
with the oracle — exactly where the sort key is total, as a multiset where
there is no limit, and otherwise as *some* valid top-k — and raise the same
exception type when the oracle raises.  Writes must report the same counts
and refuse the same duplicate ids, and no index may keep an emptied bucket.

A conjunction puts its sargable entry first: ``matches`` short-circuits in
filter order, so only then do an index or a pruned fan-out skip exactly the
documents the scan would have rejected before reaching a raising operator.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.errors import StorageError
from repro.storage.cluster import ClusteredDocumentStore
from repro.storage.document.store import Collection

CITIES = ["SF", "Oakland", "Austin", "Denver"]
INDEXED = ["city", "rank", "mix", "tags", "sub", "sub.x"]
SUBS = [{"x": 1, "y": 2}, {"y": 2, "x": 1}, {"x": 1}, {"x": 2, "y": 2}]

city = st.one_of(st.none(), st.sampled_from(CITIES), st.just(7))
rank = st.one_of(st.none(), st.integers(0, 3))
tags = st.lists(st.sampled_from(["a", "b", "c"]), max_size=2)
mix = st.one_of(st.none(), st.integers(0, 3), st.sampled_from(["a", "2"]), tags)
FIELDS = {"city": city, "rank": rank, "mix": mix, "tags": tags, "sub": st.sampled_from(SUBS)}


@st.composite
def bodies(draw):
    """A document body: every field may be absent (``n`` is added on insert)."""
    present = draw(st.lists(st.sampled_from(sorted(FIELDS)), unique=True))
    return {field: draw(FIELDS[field]) for field in present}


# ----------------------------------------------------------------------
# The filter family
# ----------------------------------------------------------------------
doc_ids = st.integers(0, 29).map("d{:02d}".format)
sargable_entries = st.one_of(
    city.map(lambda c: {"city": c}),
    city.map(lambda c: {"city": {"$eq": c}}),
    st.lists(city, max_size=3).map(lambda cs: {"city": {"$in": cs}}),
    rank.map(lambda r: {"rank": r}),
    st.lists(rank, max_size=2).map(lambda rs: {"rank": {"$in": rs}}),
    mix.map(lambda m: {"mix": m}),  # list equality included
    mix.map(lambda m: {"mix": {"$eq": m}}),
    st.lists(mix, max_size=2).map(lambda ms: {"mix": {"$in": ms}}),
    tags.map(lambda t: {"tags": t}),
    st.sampled_from(SUBS).map(lambda s: {"sub": s}),  # sub-document equality
    st.sampled_from(SUBS).map(lambda s: {"sub": {"$eq": s}}),
    st.sampled_from(SUBS).map(lambda s: {"sub": {"$in": [s, {"x": 9}]}}),
    st.just({"sub.x": 1}),
    doc_ids.map(lambda i: {"_id": i}),
)
scan_entries = st.one_of(
    st.sampled_from(CITIES).map(lambda c: {"city": {"$ne": c}}),
    st.tuples(st.sampled_from(["$gt", "$gte", "$lt", "$lte"]), st.integers(0, 12)).map(
        lambda pair: {"n": {pair[0]: pair[1]}}
    ),
    st.integers(0, 3).map(lambda r: {"rank": {"$gte": r}}),
    st.integers(0, 3).map(lambda m: {"mix": {"$gt": m}}),  # raises on a str / list
    st.sampled_from(["a", "b"]).map(lambda t: {"tags": {"$contains": t}}),
    st.tuples(st.sampled_from(["city", "rank", "nope"]), st.booleans()).map(
        lambda pair: {pair[0]: {"$exists": pair[1]}}
    ),
    st.just({"rank": {"$bogus": 1}}),  # QueryError, on a document that has the field
)
entries = st.one_of(sargable_entries, scan_entries)
filters = st.one_of(
    st.none(),
    st.just({}),
    entries,
    st.tuples(sargable_entries, entries).map(lambda pair: {**pair[0], **pair[1]}),
    st.lists(entries, min_size=1, max_size=2).map(lambda clauses: {"$or": clauses}),
    st.tuples(sargable_entries, st.lists(entries, min_size=1, max_size=2)).map(
        lambda pair: {**pair[0], "$or": pair[1]}
    ),
)
queries = st.fixed_dictionaries({
    "filter_spec": filters,
    "sort": st.sampled_from([None, "n", "rank", "mix", "nope"]),
    "descending": st.booleans(),
    "limit": st.sampled_from([None, 0, 1, 3]),
    "fields": st.sampled_from([None, ["n"], ["city", "rank"], ["sub.x", "_id"]]),
})

# A write never names the partition field (refused, see test_cluster.py) or ``n``.
changes = st.one_of(
    rank.map(lambda r: {"rank": r}),
    mix.map(lambda m: {"mix": m}),
    tags.map(lambda t: {"tags": t}),
    st.sampled_from(SUBS).map(lambda s: {"sub": s}),
)
steps = st.lists(
    st.one_of(
        st.tuples(st.just("find"), queries),
        st.tuples(st.just("update"), sargable_entries, changes),
        st.tuples(st.just("delete"), sargable_entries),
        st.tuples(st.just("insert"), doc_ids, bodies()),
    ),
    min_size=1,
    max_size=8,
)
topologies = st.tuples(st.sampled_from([1, 2, 4]), st.booleans(), st.booleans())


# ----------------------------------------------------------------------
# Comparison
# ----------------------------------------------------------------------
def canonical(documents):
    return sorted(json.dumps(d, sort_keys=True, default=str) for d in documents)


def outcome(call, *args, **kwargs):
    try:
        return call(*args, **kwargs)
    except Exception as error:  # the property is *which* error
        return type(error)


def assert_same_answer(got, expected, query, oracle):
    if isinstance(expected, type) or isinstance(got, type):
        assert got is expected
    elif query["sort"] == "n":  # unique and always present: a total order
        assert got == expected
    elif query["limit"] is None:
        assert canonical(got) == canonical(expected)
    else:  # some top-k: as many, out of the unlimited answer, on equal keys
        assert len(got) == len(expected)
        pool = canonical(oracle.find(**{**query, "limit": None}))
        for document in canonical(got):
            pool.remove(document)
        if query["sort"] == "rank" and query["fields"] is None:
            assert [d.get("rank") for d in got] == [d.get("rank") for d in expected]


def empty_buckets(collection):
    return [
        (field, key)
        for field, index in collection._field_indices.items()
        for key, bucket in getattr(index, "_buckets", index).items()
        if not bucket
    ]


def build(topology):
    n_shards, partitioned, clustered_indexes = topology
    plain, indexed = Collection("people"), Collection("people")
    store = ClusteredDocumentStore("prop", n_shards=n_shards, n_replicas=3,
                                   clock=SimClock(), seed=3)
    clustered = store.create_collection(
        "people", partition_field="city" if partitioned else None
    )
    for field in INDEXED:
        indexed.create_index(field)
        if clustered_indexes:
            clustered.create_index(field)
    return plain, indexed, clustered


class TestOneFindPath:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(bodies(), max_size=16), topologies, steps)
    def test_clustered_and_indexed_match_the_plain_scan(self, seed_docs, topology, script):
        plain, indexed, clustered = build(topology)
        collections = (plain, indexed, clustered)
        inserted = 0

        def insert(doc_id, body):
            nonlocal inserted
            inserted += 1
            document = {**body, "n": inserted}
            results = [outcome(c.insert, document, doc_id=doc_id) for c in collections]
            assert results in ([doc_id] * 3, [StorageError] * 3)

        for position, body in enumerate(seed_docs):
            insert(f"d{position:02d}", body)
        for kind, *args in script:
            if kind == "find":
                (query,) = args
                expected = outcome(plain.find, **query)
                for other in (indexed, clustered):
                    assert_same_answer(outcome(other.find, **query), expected, query, plain)
            elif kind == "insert":
                insert(*args)
            else:
                counts = [outcome(getattr(c, kind), *args) for c in collections]
                assert counts[0] == counts[1] == counts[2]
            assert len(plain) == len(indexed) == len(clustered)

        assert canonical(clustered.find()) == canonical(indexed.find()) == canonical(plain.find())
        assert empty_buckets(indexed) == []
        for state in clustered._cluster.primary_states():
            assert empty_buckets(state.collection("people")) == []

    def test_equal_values_that_key_differently_stay_a_scan(self):
        """Sub-document and list equality is ``==``: no index key reproduces
        it (``repr`` keys missed every case below but the first)."""
        people = Collection("people")
        people.create_index("a")
        people.insert({"a": {"y": 2, "x": 1}}, doc_id="sub")
        people.insert({"a": [1, {"q": 1, "r": 2}]}, doc_id="list")
        for filter_spec, found in [
            ({"a": {"x": 1, "y": 2}}, "sub"),
            ({"a": {"$eq": {"x": 1, "y": 2}}}, "sub"),
            ({"a": {"$in": [{"x": 1, "y": 2}]}}, "sub"),
            ({"a": [1.0, {"r": 2, "q": 1}]}, "list"),
        ]:
            assert [d["_id"] for d in people.find(filter_spec)] == [found]

    def test_an_emptied_bucket_is_dropped(self):
        people = Collection("people")
        people.create_index("y")
        people.insert({"y": 3})
        assert people.update({"y": 3}, {"y": 4}) == 1
        assert people.delete({"y": 4}) == 1
        assert empty_buckets(people) == []
        assert people.find({"y": {"$in": [3, 4]}}) == []
