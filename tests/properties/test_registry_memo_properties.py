"""Differential properties for the planners' two memos (DESIGN §8).

* Registry search is memoized on a *content version*: query embeddings by
  text, pre-boost candidate scores by ``(query, k, method)``, field
  vectors for fine discovery once per version.  The oracle is the search
  as it ran before (``reference_search`` / ``reference_discover_fine``:
  every entry, field and query re-embedded on every call), driven by the
  repository's first hypothesis ``RuleBasedStateMachine`` through
  interleaved registrations, derivations, metadata updates, usage records
  and searches — exact and approximate (IVF) indexes alike.
* The data planner's known-city probe is memoized on the jobs table's
  data version.  The oracle is a fresh planner (no memo) over the same
  registry and catalog: the same plan, plan id aside, under interleaved
  INSERT / UPDATE / DELETE on the jobs table — single-node and sharded,
  the sharded one across replica kills and promotions.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.stateful import RuleBasedStateMachine, invariant, rule
from reference_interpreters import reference_discover_fine, reference_search

from repro.clock import SimClock
from repro.core.planners.data_planner import DataPlanner
from repro.core.registries import AgentRegistry, DataRegistry
from repro.embedding import HashingEmbedder
from repro.hr.data import build_enterprise, build_sharded_enterprise
from repro.llm import ModelCatalog
from repro.storage import (
    Collection,
    ColumnType,
    Database,
    GraphStore,
    KeyValueStore,
    quick_table,
)
from repro.storage.cluster.replica import ReplicaStatus

# ----------------------------------------------------------------------
# 1. Memoized registry search == the unmemoized reference
# ----------------------------------------------------------------------
DIM = 64  # small, so hashed features collide and scores tie more often
VOCAB = (
    "job", "postings", "salary", "city", "skills", "fraud", "billing",
    "match", "profile", "resume", "taxonomy", "title", "world", "scratch",
    "data", "engineer", "candidates", "service",
)
NAMES = (
    "ALPHA", "BETA", "JOB_POSTINGS", "BILLING_API", "FRAUD", "PROFILE_STORE",
    "TAXONOMY", "WORLD", "SCRATCH_SPACE", "MATCHER",
)
AGENT_KINDS = ("agent",)
DATA_KINDS = ("relational_table", "document_collection", "graph", "keyvalue", "llm")

texts = st.lists(st.sampled_from(VOCAB), max_size=4).map(" ".join)
#: Few query texts, so a search is often asked again after a write.
queries = st.sampled_from(
    ["job postings", "fraud billing service", "candidates profile resume", "world data",
     "title taxonomy engineer", "salary city", ""]
)
keywords = st.lists(st.sampled_from(VOCAB), max_size=3).map(tuple)
names = st.sampled_from(NAMES)
methods = st.sampled_from(["vector", "keyword", "hybrid"])
ks = st.integers(1, 4)


def _sources():
    """One source of each data modality (read-only once registered)."""
    database = Database("db")
    quick_table(
        database, "postings",
        [("title", ColumnType.TEXT), ("city", ColumnType.TEXT), ("salary", ColumnType.INT)],
        [{"title": "engineer", "city": "Oakland", "salary": 1}],
        description="job postings by city",
    )
    quick_table(
        database, "invoices", [("amount", ColumnType.INT), ("status", ColumnType.TEXT)],
        description="billing invoices",
    )
    profiles = Collection("profiles", "candidate profile documents")
    profiles.insert({"name": "a", "skills": "sql"})
    graph = GraphStore("titles", "title taxonomy")
    graph.add_node("t1", "Title", name="engineer")
    return {
        "table": database,
        "collection": profiles,
        "graph": graph,
        "keyvalue": KeyValueStore("scratch", description="scratch space"),
    }


def hits_of(results):
    return [(hit.entry.name, hit.score) for hit in results]


class RegistryMemoMachine(RuleBasedStateMachine):
    """An agent registry and a data registry under random operations;
    every search-side answer is checked against the reference."""

    approximate = False

    def __init__(self) -> None:
        super().__init__()
        self.agents = AgentRegistry(embedding_dim=DIM, approximate=self.approximate)
        self.data = DataRegistry(embedding_dim=DIM, approximate=self.approximate)
        self.sources = _sources()

    def _registry(self, agents: bool):
        return self.agents if agents else self.data

    # -- writes --------------------------------------------------------
    @rule(name=names, description=texts, words=keywords)
    def register_agent(self, name, description, words):
        if self.agents.has(name):
            return
        self.agents.register_metadata(name, description, keywords=words)

    @rule(base=names, name=names, description=st.none() | texts, words=keywords)
    def derive(self, base, name, description, words):
        if not self.agents.has(base) or self.agents.has(name):
            return
        self.agents.derive(base, name, description=description, keywords=list(words))

    @rule(
        modality=st.sampled_from(["table", "table2", "collection", "graph", "keyvalue", "llm"]),
        name=names, description=texts, words=keywords,
    )
    def register_data(self, modality, name, description, words):
        if self.data.has(name):
            return
        if modality.startswith("table"):
            table = "postings" if modality == "table" else "invoices"
            self.data.register_table(
                self.sources["table"], table, name=name, description=description, keywords=words
            )
        elif modality == "collection":
            self.data.register_collection(
                self.sources["collection"], name=name, description=description,
                fields=("name", "skills"), keywords=words,
            )
        elif modality == "graph":
            self.data.register_graph(
                self.sources["graph"], name=name, description=description, keywords=words
            )
        elif modality == "keyvalue":
            self.data.register_keyvalue(
                self.sources["keyvalue"], name=name, description=description, keywords=words
            )
        else:
            self.data.register_llm("mega-s", name=name, description=description)

    @rule(agents=st.booleans(), name=names, description=st.none() | texts,
          words=st.none() | keywords)
    def update_metadata(self, agents, name, description, words):
        registry = self._registry(agents)
        if not registry.has(name):
            return
        updates = {} if words is None else {"keywords": list(words)}
        registry.update_metadata(name, description=description, **updates)

    @rule(agents=st.booleans(), name=names, success=st.booleans())
    def record_usage(self, agents, name, success):
        registry = self._registry(agents)
        if registry.has(name):
            registry.record_usage(name, success=success)

    # -- reads ---------------------------------------------------------
    @rule(agents=st.booleans(), query=queries, k=ks, method=methods, data=st.data())
    def search(self, agents, query, k, method, data):
        registry = self._registry(agents)
        kind = data.draw(st.none() | st.sampled_from(AGENT_KINDS if agents else DATA_KINDS))
        expected = reference_search(registry, query, k, method, kind)
        assert hits_of(registry.search(query, k=k, method=method, kind=kind)) == expected

    @rule(query=queries, k=ks)
    def discover(self, query, k):
        expected = reference_search(self.data, query, k, "hybrid", None)
        assert hits_of(self.data.discover(query, k=k)) == expected

    @rule(query=queries, k=st.integers(1, 40))
    def discover_fine(self, query, k):
        assert self.data.discover_fine(query, k=k) == reference_discover_fine(
            self.data, query, k
        )

    @invariant()
    def a_repeated_search_is_fresh(self):
        """One fixed search after every step: whatever the step changed,
        an answer memoized before it must not be served after it."""
        for registry in (self.agents, self.data):
            expected = reference_search(registry, "job postings", 3, "hybrid", None)
            assert hits_of(registry.search("job postings", k=3, method="hybrid")) == expected

    @rule(query=texts)
    def embed_query(self, query):
        vector = self.data.embed_query(query)
        assert not vector.flags.writeable
        assert np.array_equal(vector, HashingEmbedder(dim=DIM).embed(query))


class ApproximateRegistryMemoMachine(RegistryMemoMachine):
    approximate = True


_MACHINE_SETTINGS = settings(max_examples=60, stateful_step_count=40, deadline=None)
TestRegistryMemoExact = RegistryMemoMachine.TestCase
TestRegistryMemoExact.settings = _MACHINE_SETTINGS
TestRegistryMemoApproximate = ApproximateRegistryMemoMachine.TestCase
TestRegistryMemoApproximate.settings = _MACHINE_SETTINGS


def test_memos_stay_bounded_and_exact(monkeypatch):
    """More distinct queries than the bound: the maps stay within it and
    every answer (including re-asked, evicted ones) stays exact."""
    monkeypatch.setattr(AgentRegistry, "MEMO_ENTRIES", 8)
    registry = AgentRegistry(embedding_dim=DIM)
    for index, name in enumerate(NAMES):
        registry.register_metadata(name, " ".join(VOCAB[index: index + 3]))
    queries = [f"{a} {b}" for a in VOCAB[:6] for b in VOCAB[6:10]]
    for query in queries + queries[:5]:
        for method in ("vector", "hybrid"):
            assert hits_of(registry.search(query, k=3, method=method)) == reference_search(
                registry, query, 3, method, None
            )
        assert len(registry._query_vectors) <= 8
        assert len(registry._candidates) <= 8


# ----------------------------------------------------------------------
# 2. Memoized known-city probe == a fresh planner's
# ----------------------------------------------------------------------
#: Known (Oakland: one row), unknown and region locations.
LOCATIONS = ("Seattle", "Bellevue", "Oakland", "sf bay area")
JOB_COLUMNS = (
    "id, title, company, city, salary, remote, posted_days_ago, skills, description"
)

writes = st.one_of(
    st.tuples(st.just("insert"), st.sampled_from(LOCATIONS[:3])),  # maybe a new city
    st.tuples(st.just("delete"), st.sampled_from(LOCATIONS[:3])),  # a city's last rows
    st.tuples(st.just("recase"), st.sampled_from(LOCATIONS[:3])),  # Seattle -> SEATTLE
    st.tuples(st.just("move"), st.sampled_from(LOCATIONS[:3])),  # Oakland -> Bellevue
)
failovers = st.tuples(st.sampled_from(["kill", "settle"]), st.integers(0, 1))


def payload_of(plan):
    payload = plan.to_payload()
    payload.pop("plan_id")
    return payload


def _apply(enterprise, op, next_id):
    database = enterprise.database
    kind, arg = op[0], op[1]
    if kind == "insert":
        database.execute(
            f"INSERT INTO jobs ({JOB_COLUMNS}) VALUES "
            "(:id, 'Data Scientist', 'Acme', :city, 100000, FALSE, 1, 'python', 'x')",
            {"id": next_id, "city": arg},
        )
    elif kind == "delete":
        database.execute("DELETE FROM jobs WHERE LOWER(city) = LOWER(:city)", {"city": arg})
    elif kind in ("recase", "move"):  # a recased city is the same city to LOWER()
        to = arg.upper() if kind == "recase" else "Oakland" if arg == "Bellevue" else "Bellevue"
        database.execute(
            "UPDATE jobs SET city = :to WHERE LOWER(city) = LOWER(:city)",
            {"city": arg, "to": to},
        )
    elif kind == "kill":
        cluster = database.cluster
        shard = cluster.shards[arg % cluster.n_shards]
        if all(r.status is ReplicaStatus.ALIVE and r.reachable for r in shard.replicas):
            cluster.kill_replica(shard.replicas[shard.primary_index].replica_id)
            cluster.tick()  # the dead primary is replaced
    elif kind == "settle":
        database.cluster.settle()


def _check_planner(enterprise, ops, verify):
    """Before and after every operation, every location plans as a fresh
    planner plans it."""
    catalog = ModelCatalog(clock=SimClock())
    memoized = DataPlanner(enterprise.registry, catalog)
    for next_id, op in enumerate([("none", None), *ops], start=10_000):
        _apply(enterprise, op, next_id)
        for location in LOCATIONS:
            text = f"I am looking for a data scientist position in {location}."
            fresh = DataPlanner(enterprise.registry, catalog)
            assert payload_of(memoized.plan_job_query(text, verify=verify)) == payload_of(
                fresh.plan_job_query(text, verify=verify)
            )


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(writes, max_size=10), verify=st.booleans())
def test_planner_memo_matches_fresh_planner_single_node(ops, verify):
    _check_planner(build_enterprise(seed=3, n_jobs=40, n_seekers=20), ops, verify)


@settings(max_examples=30, deadline=None)
@given(ops=st.lists(st.one_of(writes, failovers), max_size=12), verify=st.booleans())
def test_planner_memo_matches_fresh_planner_sharded(ops, verify):
    enterprise = build_sharded_enterprise(seed=3, n_jobs=40, n_seekers=20, n_shards=2)
    _check_planner(enterprise, ops, verify)


def test_probe_runs_once_per_data_version():
    """Same location, same data: one SQL statement; a write re-probes."""
    enterprise = build_sharded_enterprise(seed=3, n_jobs=40, n_seekers=20, n_shards=2)
    database = enterprise.database
    statements = []
    run = database._run
    database._run = lambda sql, params, span: statements.append(sql) or run(sql, params, span)
    planner = DataPlanner(enterprise.registry, ModelCatalog(clock=SimClock()))
    jobs = enterprise.registry.get("JOBS")
    for _ in range(3):
        assert planner._location_is_known_city(jobs, "city", "Bellevue") is False
    assert len(statements) == 1
    _apply(enterprise, ("insert", "Bellevue"), 10_000)
    assert planner._location_is_known_city(jobs, "city", "bellevue") is True
    assert planner._location_is_known_city(jobs, "city", "Bellevue") is True
    assert len(statements) == 4  # the INSERT and one probe per location text


def test_known_city_memo_is_bounded(monkeypatch):
    monkeypatch.setattr(DataPlanner, "MEMO_ENTRIES", 4)
    enterprise = build_enterprise(seed=3, n_jobs=40, n_seekers=20)
    planner = DataPlanner(enterprise.registry, ModelCatalog(clock=SimClock()))
    jobs = enterprise.registry.get("JOBS")
    cities = {row["city"] for row in enterprise.database.query("SELECT city FROM jobs")}
    for location in [*LOCATIONS, "Austin", "Denver", "Chicago", "Nowhere", *LOCATIONS]:
        assert planner._location_is_known_city(jobs, "city", location) == (
            location.lower() in {city.lower() for city in cities}
        )
        assert len(planner._known_cities) <= 4

