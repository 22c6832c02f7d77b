"""Tests for data-planner shard pruning over the sharded substrate."""

import pytest

from repro.clock import SimClock
from repro.core.planners.data_planner import DataPlanner
from repro.hr.data import build_sharded_enterprise
from repro.llm import ModelCatalog


@pytest.fixture(scope="module")
def enterprise():
    return build_sharded_enterprise(
        seed=7, n_jobs=60, n_seekers=600, n_shards=4, n_replicas=3
    )


@pytest.fixture
def planner(enterprise):
    return DataPlanner(
        enterprise.registry, ModelCatalog(clock=SimClock())
    )


class TestDocShardAnnotation:
    def test_partition_filter_stays_exact_match(self, planner):
        plan = planner.plan_retrieval(
            "seeker profile documents", {"city": "Austin"}, limit=5
        )
        doc_filter = plan.operator("fetch").params["filter"]
        # partition keys must stay exact-match — a $contains filter
        # could not be routed to a shard
        assert doc_filter["city"] == "Austin"

    def test_executed_plan_results_respect_filter(self, planner):
        plan = planner.plan_retrieval(
            "seeker profile documents", {"city": "Austin"}, limit=5
        )
        documents = planner.execute(plan).final()
        assert documents
        assert all(doc["city"] == "Austin" for doc in documents)

    def test_pruned_execution_scans_fewer_shards(self, planner, enterprise):
        profiles = enterprise.profiles
        plan = planner.plan_retrieval(
            "seeker profile documents", {"city": "Austin"}, limit=5
        )
        planner.execute(plan)
        stats = profiles.last_find_stats
        assert stats["pruned"]
        assert stats["shards_scanned"] < stats["shards_total"]

    def test_pruned_and_unpruned_results_agree(self, planner, enterprise):
        profiles = enterprise.profiles
        pruned = profiles.find({"city": "Austin"}, sort="seeker_id")
        full = [
            doc for doc in profiles.find(sort="seeker_id")
            if doc["city"] == "Austin"
        ]
        assert [d["seeker_id"] for d in pruned] == \
            [d["seeker_id"] for d in full]


class TestSQLPruningThroughPlanner:
    def test_relational_plan_prunes_transparently(self, planner, enterprise):
        plan = planner.plan_retrieval("open job postings", {"city": "Austin"})
        rows = planner.execute(plan).final()
        assert all(row["city"] == "Austin" for row in rows)
        stats = enterprise.database.last_execute_stats
        assert stats["pruned"]
        assert stats["shards_scanned"] < stats["shards_total"]
