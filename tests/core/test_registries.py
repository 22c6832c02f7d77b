"""Tests for the agent and data registries."""

import pytest

from repro.core.agent import FunctionAgent
from repro.core.params import Parameter
from repro.core.registries import AgentRegistry, DataRegistry
from repro.errors import RegistryError
from repro.storage import ColumnType, Database, DocumentStore, GraphStore, KeyValueStore, quick_table


def make_agent(name="JOB_MATCHER", description="Match job seekers with job postings"):
    return FunctionAgent(
        name,
        lambda i: None,
        inputs=(Parameter("PROFILE", "profile"), Parameter("JOBS", "jobs", required=False)),
        outputs=(Parameter("MATCHES", "matches"),),
        description=description,
    )


class TestAgentRegistry:
    def test_register_agent_instance(self):
        registry = AgentRegistry()
        entry = registry.register_agent(make_agent())
        assert entry.kind == "agent"
        assert registry.has("JOB_MATCHER")
        metadata = registry.get("JOB_MATCHER").metadata
        assert [p["name"] for p in metadata["inputs"]] == ["PROFILE", "JOBS"]
        assert [p["name"] for p in metadata["outputs"]] == ["MATCHES"]

    def test_duplicate_rejected(self):
        registry = AgentRegistry()
        registry.register_agent(make_agent())
        with pytest.raises(RegistryError):
            registry.register_agent(make_agent())

    def test_register_metadata_only(self):
        registry = AgentRegistry()
        registry.register_metadata(
            "LEGACY_API",
            "A legacy REST scoring endpoint",
            outputs=(Parameter("SCORE", "number"),),
            deployment={"image": "legacy:v2"},
        )
        entry = registry.get("LEGACY_API")
        assert entry.metadata["deployment"]["image"] == "legacy:v2"

    def test_search_vector(self):
        registry = AgentRegistry()
        registry.register_agent(make_agent())
        registry.register_agent(
            make_agent("SUMMARIZER", "Summarize long documents into short texts")
        )
        hits = registry.search("match seekers with postings", k=1)
        assert hits[0].entry.name == "JOB_MATCHER"

    def test_search_keyword(self):
        registry = AgentRegistry()
        registry.register_agent(make_agent())
        hits = registry.search("match", k=1, method="keyword")
        assert hits[0].entry.name == "JOB_MATCHER"

    def test_search_unknown_method(self):
        registry = AgentRegistry()
        with pytest.raises(RegistryError):
            registry.search("x", method="psychic")

    def test_approximate_registry_finds_relevant(self):
        registry = AgentRegistry(approximate=True)
        for i in range(40):
            registry.register_metadata(f"SVC_{i}", f"service number {i} for shard {i % 5}")
        registry.register_agent(make_agent())
        hits = registry.search("match job seekers with postings", k=3, method="vector")
        assert "JOB_MATCHER" in [h.entry.name for h in hits]

    def test_usage_boosts_ranking(self):
        registry = AgentRegistry()
        registry.register_agent(make_agent("MATCH_A", "match jobs"))
        registry.register_agent(make_agent("MATCH_B", "match jobs"))
        for _ in range(50):
            registry.record_usage("MATCH_B")
        hits = registry.search("match jobs", k=2)
        assert hits[0].entry.name == "MATCH_B"

    def test_failed_usage_does_not_boost(self):
        registry = AgentRegistry()
        registry.register_agent(make_agent("ONLY", "match jobs"))
        registry.record_usage("ONLY", success=False)
        entry = registry.get("ONLY")
        assert entry.usage_count == 1
        assert entry.success_rate() == 0.0

    def test_derive(self):
        registry = AgentRegistry()
        registry.register_agent(make_agent())
        derived = registry.derive(
            "JOB_MATCHER", "SENIOR_MATCHER", description="Match senior candidates"
        )
        assert derived.description == "Match senior candidates"


class TestDataRegistry:
    @pytest.fixture
    def registry(self):
        return DataRegistry()

    @pytest.fixture
    def db(self):
        database = Database("hr")
        quick_table(
            database,
            "jobs",
            [("id", ColumnType.INT), ("title", ColumnType.TEXT), ("city", ColumnType.TEXT)],
            [{"id": 1, "title": "DS", "city": "SF"}],
            description="job postings",
        )
        return database

    def test_register_table(self, registry, db):
        entry = registry.register_table(db, "jobs", description="Open jobs")
        assert entry.name == "JOBS"
        assert entry.kind == "relational_table"
        assert entry.metadata["row_count"] == 1
        assert registry.handle("JOBS") is db

    def test_register_collection(self, registry):
        store = DocumentStore("docs")
        collection = store.create_collection("profiles", "seeker profiles")
        collection.insert({"name": "a"})
        entry = registry.register_collection(collection, fields=("name",))
        assert entry.kind == "document_collection"
        assert entry.metadata["document_count"] == 1

    def test_register_graph(self, registry):
        graph = GraphStore("tax", "title taxonomy")
        graph.add_node("a", "title", name="A")
        entry = registry.register_graph(graph)
        assert entry.kind == "graph"
        assert entry.metadata["nodes"] == 1

    def test_register_keyvalue(self, registry):
        entry = registry.register_keyvalue(KeyValueStore("kv"))
        assert entry.kind == "keyvalue"

    def test_register_llm_as_source(self, registry):
        entry = registry.register_llm("mega-xl", knowledge_domains=("geography",))
        assert entry.kind == "llm"
        assert registry.handle(entry.name) == "mega-xl"

    def test_handle_missing(self, registry):
        with pytest.raises(RegistryError):
            registry.handle("NOPE")

    def test_by_modality(self, registry, db):
        registry.register_table(db, "jobs")
        registry.register_llm("mega-s")
        assert len(registry.by_modality("relational")) == 1
        assert len(registry.by_modality("parametric")) == 1

    def test_discover_finds_relevant_source(self, registry, db):
        registry.register_table(
            db, "jobs", description="Open job postings", keywords=("jobs", "openings")
        )
        graph = GraphStore("tax", "job title taxonomy")
        graph.add_node("a", "title", name="A")
        registry.register_graph(graph, keywords=("taxonomy", "titles"))
        hits = registry.discover("job postings openings")
        assert hits[0].entry.name == "JOBS"
        hits = registry.discover("title taxonomy hierarchy")
        assert hits[0].entry.name == "TAX"
