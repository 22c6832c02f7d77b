"""Unit tests for the registry search memos and the table data versions."""

import sys
import threading

import pytest

from repro.clock import SimClock
from repro.core.registries import AgentRegistry
from repro.storage import ColumnType, Database, ShardedDatabase, quick_table
from repro.storage.schema import Column, TableSchema

DESCRIPTIONS = {
    "FRAUD_CHECK": "detects fraud and anomalies in transactions",
    "BILLING": "handles invoices and billing",
    "MATCHER": "matches candidates with job postings",
    "PROFILER": "builds a seeker profile from criteria",
    "PRESENTER": "presents matched jobs to the user",
}
QUERY = "fraud in job billing"


def _registry(approximate: bool = False) -> AgentRegistry:
    registry = AgentRegistry(approximate=approximate)
    for name, description in DESCRIPTIONS.items():
        registry.register_metadata(name, description)
    return registry


def _hits(registry: AgentRegistry, query: str = QUERY) -> list[tuple[str, float]]:
    return [(hit.entry.name, hit.score) for hit in registry.search(query, k=5)]


def _fresh(registry: AgentRegistry, query: str = QUERY) -> list[tuple[str, float]]:
    """The answer of a new registry holding the same entries (registration
    order, texts and usage): no memo of *registry*'s can reach it."""
    fresh = AgentRegistry(approximate=registry.approximate)
    for entry in registry._entries.values():
        copy = fresh.register_metadata(entry.name, entry.description)
        copy.usage_count, copy.usage_successes = entry.usage_count, entry.usage_successes
    return _hits(fresh, query)


def _count_embeds(registry: AgentRegistry, hook=None) -> list[str]:
    """Record every text the registry's embedder embeds (and run *hook*)."""
    texts: list[str] = []
    embed = registry._embedder.embed

    def counting(text):
        texts.append(text)
        if hook is not None:
            hook()
        return embed(text)

    registry._embedder.embed = counting
    return texts


class TestSearchMemo:
    def test_one_embed_per_distinct_text(self):
        registry = _registry()
        texts = _count_embeds(registry)
        for _ in range(3):
            for method in ("vector", "hybrid", "keyword"):
                registry.search(QUERY, k=2, method=method)
            registry.search("another query", k=1)
        assert sorted(texts) == ["another query", QUERY]

    def test_usage_boost_applies_on_a_memo_hit(self):
        registry = _registry()
        before = _hits(registry)
        texts = _count_embeds(registry)
        registry.record_usage("PRESENTER")
        registry.record_usage("PRESENTER", success=False)
        after = _hits(registry)
        assert texts == []  # record_usage leaves the content version alone
        assert after == _fresh(registry)
        assert dict(after)["PRESENTER"] > dict(before)["PRESENTER"]

    def test_query_vectors_are_read_only(self):
        registry = _registry()
        before = _hits(registry)
        vector = registry._query_vector(QUERY)
        with pytest.raises(ValueError):
            vector[0] = 1.0
        with pytest.raises(ValueError):
            registry.embedding_of("BILLING")[0] = 1.0
        assert _hits(registry) == before


class TestUpdateMetadataIndex:
    def test_one_update_costs_one_embed(self):
        registry = _registry()
        texts = _count_embeds(registry)
        registry.update_metadata("BILLING", description="pays the invoices")
        assert texts == ["BILLING pays the invoices"]

    @pytest.mark.parametrize("approximate", [False, True])
    def test_search_during_an_update_sees_a_whole_index(self, approximate):
        """A search run from inside the update (the embedder's hook) answers
        from the old state, fully: never a half-rebuilt index."""
        registry = _registry(approximate)
        seen: list[bool] = []
        hooking = []

        def search_now():
            if hooking:  # the search's own embed
                return
            hooking.append(True)
            query = f"{QUERY} {len(seen)}"  # fresh text: a memo miss, a real search
            seen.append(_hits(registry, query) == _fresh(registry, query))
            hooking.pop()

        _count_embeds(registry, hook=search_now)
        registry.update_metadata("FRAUD_CHECK", description="a generic service")
        assert seen == [True]
        assert _hits(registry) == _fresh(registry)

    @pytest.mark.parametrize("approximate", [False, True])
    def test_concurrent_searches_see_the_old_or_the_new_index(self, approximate):
        registry = _registry(approximate)
        texts = [DESCRIPTIONS["FRAUD_CHECK"], "a generic service"]
        answers = []
        for text in texts:
            registry.update_metadata("FRAUD_CHECK", description=text)
            answers.append(_hits(registry))
        assert answers[0] != answers[1]
        seen: list[list[tuple[str, float]]] = []
        stop = threading.Event()

        def searcher():
            while not stop.is_set():
                seen.append(_hits(registry))

        threads = [threading.Thread(target=searcher) for _ in range(3)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for round_ in range(300):
                registry.update_metadata("FRAUD_CHECK", description=texts[round_ % 2])
        finally:
            stop.set()
            for thread in threads:
                thread.join(timeout=30)
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert seen and all(answer in answers for answer in seen)


class TestDataVersions:
    def test_table_version_moves_on_every_row_change_only(self):
        database = Database("db")
        table = quick_table(database, "t", [("city", ColumnType.TEXT)], [{"city": "A"}])
        versions = [database.data_version("t")]
        database.execute("INSERT INTO t (city) VALUES ('B')")
        versions.append(database.data_version("t"))
        database.execute("UPDATE t SET city = 'C' WHERE city = 'B'")
        versions.append(database.data_version("t"))
        database.execute("DELETE FROM t WHERE city = 'C'")
        versions.append(database.data_version("t"))
        assert len(set(versions)) == len(versions)
        database.execute("UPDATE t SET city = 'Z' WHERE city = 'nowhere'")
        database.execute("DELETE FROM t WHERE city = 'nowhere'")
        table.create_index("city")
        assert database.data_version("t") == versions[-1]

    def test_sharded_version_is_the_acked_sequences(self):
        database = ShardedDatabase("db", n_shards=2, n_replicas=3, clock=SimClock())
        database.create_table(
            TableSchema.build("t", [Column("id", ColumnType.INT, primary_key=True)])
        )
        before = database.data_version("t")
        database.execute("INSERT INTO t (id) VALUES (1)")
        written = database.data_version("t")
        assert written != before
        assert written == tuple(shard.acked for shard in database.cluster.shards)
        primary = database.cluster.shards[0]
        database.cluster.kill_replica(primary.replicas[primary.primary_index].replica_id)
        database.tick()
        assert database.data_version("t") == written  # failover moves no data
        assert database.query("SELECT id FROM t") == [{"id": 1}]
