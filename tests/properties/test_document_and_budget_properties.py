"""Property-based tests: document filters, KV TTLs, budgets."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.core.budget import Budget
from repro.core.qos import QoSSpec
from repro.storage.document import Collection, matches
from repro.storage.keyvalue import KeyValueStore

DOC = st.fixed_dictionaries(
    {
        "n": st.integers(min_value=-100, max_value=100),
        "tag": st.sampled_from(["a", "b", "c"]),
        "skills": st.lists(st.sampled_from(["x", "y", "z"]), max_size=3),
    }
)


class TestFilterProperties:
    @given(st.lists(DOC, max_size=25), st.integers(min_value=-100, max_value=100))
    @settings(max_examples=40, deadline=None)
    def test_gt_filter_is_python_filter(self, docs, threshold):
        collection = Collection("c")
        collection.insert_many(docs)
        found = collection.find({"n": {"$gt": threshold}})
        assert len(found) == sum(1 for d in docs if d["n"] > threshold)

    @given(st.lists(DOC, max_size=25))
    @settings(max_examples=40, deadline=None)
    def test_not_is_complement(self, docs):
        collection = Collection("c")
        collection.insert_many(docs)
        spec = {"tag": "a"}
        positive = collection.count(spec)
        negative = collection.count({"$not": spec})
        assert positive + negative == len(docs)

    @given(DOC, st.sampled_from(["a", "b", "c"]))
    @settings(max_examples=60, deadline=None)
    def test_or_equivalence(self, doc, tag):
        direct = matches(doc, {"tag": tag}) or matches(doc, {"n": {"$gte": 0}})
        via_or = matches(doc, {"$or": [{"tag": tag}, {"n": {"$gte": 0}}]})
        assert direct == via_or

    @given(st.lists(DOC, max_size=25))
    @settings(max_examples=30, deadline=None)
    def test_and_is_intersection(self, docs):
        collection = Collection("c")
        collection.insert_many(docs)
        both = collection.count({"$and": [{"tag": "a"}, {"n": {"$gte": 0}}]})
        manual = sum(1 for d in docs if d["tag"] == "a" and d["n"] >= 0)
        assert both == manual


class TestKVProperties:
    @given(
        st.lists(st.tuples(st.text(max_size=6), st.integers()), max_size=20),
    )
    @settings(max_examples=40, deadline=None)
    def test_last_write_wins(self, writes):
        kv = KeyValueStore("kv")
        expected: dict[str, int] = {}
        for key, value in writes:
            kv.put("ns", key, value)
            expected[key] = value
        for key, value in expected.items():
            assert kv.get("ns", key) == value
        assert kv.keys("ns") == sorted(expected)

    @given(st.floats(min_value=0.1, max_value=100), st.floats(min_value=0, max_value=200))
    @settings(max_examples=60, deadline=None)
    def test_ttl_expiry_boundary(self, ttl, elapsed):
        clock = SimClock()
        kv = KeyValueStore("kv", clock=clock)
        kv.put("ns", "k", 1, ttl=ttl)
        clock.advance(elapsed)
        alive = kv.contains("ns", "k")
        assert alive == (elapsed < ttl)


class TestBudgetProperties:
    @given(st.lists(st.floats(min_value=0, max_value=1), max_size=15))
    @settings(max_examples=40, deadline=None)
    def test_cost_additive_and_quality_multiplicative(self, charges):
        budget = Budget()
        expected_cost = 0.0
        expected_quality = 1.0
        for i, amount in enumerate(charges):
            quality = 0.5 + amount / 2  # in [0.5, 1.0]
            budget.charge(f"s{i}", cost=amount, quality=quality)
            expected_cost += amount
            expected_quality *= quality
        assert abs(budget.spent_cost() - expected_cost) < 1e-9
        assert abs(budget.quality_estimate() - expected_quality) < 1e-9

    @given(
        st.lists(
            st.tuples(
                st.booleans(),  # True: charge(), False: restore() of one entry
                st.one_of(st.none(), st.floats(min_value=0.01, max_value=1)),
            ),
            max_size=25,
        )
    )
    @settings(max_examples=60, deadline=None)
    def test_running_quality_is_the_product_over_the_ledger(self, steps):
        budget = Budget()
        for i, (charged, quality) in enumerate(steps):
            if charged:
                budget.charge(f"s{i}", cost=0.1, quality=quality)
            else:
                budget.restore([{"source": f"r{i}", "cost": 0.1, "quality": quality}])
            recomputed = 1.0
            for entry in budget.charges():
                if entry.quality is not None:
                    recomputed *= entry.quality
            assert budget.quality_estimate() == recomputed  # bit-identical
        assert budget.summary()["charges"] == float(len(steps))

    @given(
        st.floats(min_value=0, max_value=10),
        st.floats(min_value=0, max_value=10),
    )
    @settings(max_examples=60, deadline=None)
    def test_violation_iff_over(self, limit, spend):
        budget = Budget(QoSSpec(max_cost=limit))
        budget.charge("x", cost=spend)
        assert (budget.violation() == "cost") == (spend > limit)
