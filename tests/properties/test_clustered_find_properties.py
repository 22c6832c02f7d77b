"""Differential property tests for the one document ``find`` path.

Three collections take the same inserts, updates and deletes: a plain
single-node ``Collection`` (the oracle: no index, no shards), the same under
a drawn *index plan* — any subset of the fields, each hash or sorted, so one,
two or three indexes answer a filter and intersect — and a
``ClusteredCollection`` over 1 / 2 / 4 shards, partitioned by ``city`` or
not, under its own index plan.  An index never changes an answer: the
indexed collection returns the oracle's list, order and ``limit`` cut
included.  The clustered one reads shards in shard order, so it agrees
exactly where the sort key is total, as a multiset where there is no limit,
and otherwise as *some* valid top-k.  Both raise the same exception type
when the oracle raises.  Writes must report the same counts and refuse the
same duplicate ids, and no index may keep an emptied bucket or a stale
sorted entry.  Replicas die and restart mid-script, so replay of the logged
documents is part of the differential: once the cluster settles, every
replica of every shard holds its primary's documents in order.

A malformed filter is refused when it is compiled, before any document is
read, so the oracle, the indexes and the shards cannot disagree on it; range
operators never raise (unlike types are "no match").
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st
from row_heaps import stale_entries

from repro.clock import SimClock
from repro.errors import StorageError
from repro.storage.cluster import ClusteredDocumentStore, ReplicaStatus
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
    st.lists(doc_ids, max_size=3).map(lambda ids: {"_id": {"$in": ids}}),
)
compare = st.sampled_from(["$gt", "$gte", "$lt", "$lte"])
# Sargable too, answered by a sorted index: every bracket of constant —
# number (bool and float included), text, and the ones that match nothing.
bound = st.one_of(
    st.integers(-1, 4), st.sampled_from([1.5, True, "a", "2", "SF", None]), tags
)
range_entries = st.one_of(
    st.tuples(st.sampled_from(["rank", "mix", "city", "sub.x", "nope"]), compare, bound).map(
        lambda e: {e[0]: {e[1]: e[2]}}
    ),
    st.tuples(st.sampled_from(["rank", "mix"]), st.integers(0, 3), st.integers(0, 3)).map(
        lambda e: {e[0]: {"$gte": e[1], "$lt": e[2]}}  # a window: two spans of one index
    ),
)
scan_entries = st.one_of(
    st.sampled_from(CITIES).map(lambda c: {"city": {"$ne": c}}),
    st.tuples(st.sampled_from(["$gt", "$gte", "$lt", "$lte"]), st.integers(0, 12)).map(
        lambda pair: {"n": {pair[0]: pair[1]}}
    ),
    range_entries,  # on a str / list value: no match, never a TypeError
    st.sampled_from(["a", "b"]).map(lambda t: {"tags": {"$contains": t}}),
    st.tuples(st.sampled_from(["city", "rank", "nope"]), st.booleans()).map(
        lambda pair: {pair[0]: {"$exists": pair[1]}}
    ),
    st.just({"rank": {"$bogus": 1}}),  # QueryError, with or without a document
)
entries = st.one_of(sargable_entries, scan_entries)
filters = st.one_of(
    st.none(),
    st.just({}),
    entries,
    st.tuples(sargable_entries, entries).map(lambda pair: {**pair[0], **pair[1]}),
    # up to three indexable entries on distinct fields: the intersection
    st.lists(st.one_of(sargable_entries, range_entries), min_size=2, max_size=3).map(
        lambda found: {k: v for entry in found for k, v in entry.items()}
    ),
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
        st.tuples(st.just("update"), st.one_of(sargable_entries, range_entries), changes),
        st.tuples(st.just("delete"), st.one_of(sargable_entries, range_entries)),
        st.tuples(st.just("insert"), doc_ids, bodies()),
        st.tuples(st.just("kill"), st.integers(0, 11)),  # then a tick: the clustered side
    ),
    min_size=1,
    max_size=8,
)
index_plans = st.dictionaries(st.sampled_from(INDEXED), st.sampled_from(["hash", "sorted"]))
#: One filter per way an index can answer (and ``{}``: the scan).
SWEEP = [
    {},
    *({"city": c} for c in CITIES),
    {"city": {"$in": ["SF", "Austin", 7]}},
    {"rank": {"$gte": 0}},
    {"rank": {"$in": [0, 1, 2, 3]}},
    {"mix": {"$lt": 9}},
    {"mix": {"$gte": ""}},
    {"sub.x": {"$lte": 1}},
    {"city": "SF", "rank": {"$gte": 1}, "mix": {"$gt": 0}},
]
topologies = st.tuples(st.sampled_from([1, 2, 4]), st.booleans(), index_plans)


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
    """What a clustered ``find`` owes the oracle (shard order is not insertion order)."""
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


def build(topology, index_plan):
    n_shards, partitioned, clustered_plan = topology
    plain, indexed = Collection("people"), Collection("people")
    store = ClusteredDocumentStore("prop", n_shards=n_shards, n_replicas=3,
                                   clock=SimClock(), seed=3)
    clustered = store.create_collection(
        "people", partition_field="city" if partitioned else None
    )
    for collection, plan in ((indexed, index_plan), (clustered, clustered_plan)):
        for field, kind in plan.items():
            collection.create_index(field, kind=kind)
    return plain, indexed, clustered


def kill_and_tick(cluster, victim):
    """Kill a replica where its shard keeps a quorum, then tick once."""
    replicas = cluster.all_replicas()
    replica = replicas[victim % len(replicas)]
    shard = cluster.shards[replica.shard_index]
    if all(r.status is ReplicaStatus.ALIVE and r.applied == shard.acked for r in shard.replicas):
        cluster.kill_replica(replica.replica_id)
    cluster.tick()


class TestOneFindPath:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(bodies(), max_size=16), topologies, index_plans, steps)
    def test_clustered_and_indexed_match_the_plain_scan(
        self, seed_docs, topology, index_plan, script
    ):
        plain, indexed, clustered = build(topology, index_plan)
        collections = (plain, indexed, clustered)
        inserted = 0

        def insert(doc_id, body):
            nonlocal inserted
            inserted += 1
            document = {**body, "n": inserted}
            results = [outcome(c.insert, document, doc_id=doc_id) for c in collections]
            assert results in ([doc_id] * 3, [StorageError] * 3)

        for position, body in enumerate(seed_docs):
            # descending ids: insertion order is never the sorted order an
            # index used to return its candidates in
            insert(f"d{29 - position:02d}", body)
        for kind, *args in script:
            if kind == "find":
                (query,) = args
                expected = outcome(plain.find, **query)
                assert outcome(indexed.find, **query) == expected  # order and cut included
                assert_same_answer(outcome(clustered.find, **query), expected, query, plain)
            elif kind == "insert":
                insert(*args)
            elif kind == "kill":
                kill_and_tick(clustered._cluster, *args)
            else:
                counts = [outcome(getattr(c, kind), *args) for c in collections]
                assert counts[0] == counts[1] == counts[2]
            assert len(plain) == len(indexed) == len(clustered)

        for filter_spec in SWEEP:  # whatever the script drew, every index answers once
            expected = plain.find(filter_spec)
            assert indexed.find(filter_spec) == expected
            assert canonical(clustered.find(filter_spec)) == canonical(expected)
        assert stale_entries(indexed._heap) == []
        cluster = clustered._cluster
        cluster.settle()  # killed replicas replay their logs and catch up
        for shard, primary in zip(cluster.shards, cluster.primary_states()):
            expected = primary.collection("people")._heap.select(())[0]
            for replica in shard.replicas:
                heap = replica.state.collection("people")._heap
                assert heap.select(())[0] == expected  # in order
                assert stale_entries(heap) == []

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
        assert stale_entries(people._heap) == []
        assert people.find({"y": {"$in": [3, 4]}}) == []


numbers = st.sampled_from([0, 1, 2, 0.0, 1.0, 2.0, True, False, 2.5, "1", 10**20, 1e20])


class TestNumericPartitionValues:
    """Routing keys were ``str(value)``: a document partitioned under ``1``
    was invisible to a filter spelling it ``1.0`` or ``True``."""

    @settings(max_examples=100, deadline=None)
    @given(st.lists(numbers, max_size=12), st.lists(numbers, min_size=1, max_size=3),
           st.sampled_from([2, 4]))
    def test_equal_numbers_prune_to_the_document(self, keys, constants, n_shards):
        plain = Collection("people")
        store = ClusteredDocumentStore("prop", n_shards=n_shards, n_replicas=3,
                                       clock=SimClock(), seed=3)
        clustered = store.create_collection("people", partition_field="k")
        for position, key in enumerate(keys):
            for collection in (plain, clustered):
                collection.insert({"k": key, "n": position}, doc_id=f"d{position}")
        for filter_spec in (
            {"k": constants[0]}, {"k": {"$eq": constants[0]}}, {"k": {"$in": constants}},
        ):
            assert clustered.find(filter_spec, sort="n") == plain.find(filter_spec, sort="n")
            assert clustered.last_find_stats["pruned"]

