"""Agent and data registries: the enterprise touch points (Sections V-C/D).

Registries map existing enterprise assets — models, APIs, databases,
collections, graphs, even LLMs-as-data-sources — into searchable metadata
that planners consult.  Both registries share the same search machinery:

* **keyword** search scores query-word overlap with entry text,
* **vector** search embeds entry text with the deterministic hashing
  embedder and ranks by cosine similarity,
* historical **usage** counts boost frequently useful entries, the
  "learned representations ... leveraging historical usage data" hook.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, field, replace
from typing import Any, Iterable, Mapping

import numpy as np

from ..embedding import HashingEmbedder, keyword_overlap
from ..errors import AccessDeniedError, RegistryError
from ..llm.windows import LiveLRU
from ..storage import Collection, Database, GraphStore, KeyValueStore
from ..storage.vector import FlatIndex, IVFIndex
from .agent import Agent
from .params import Parameter

#: Principal used by trusted platform components (planners, optimizers).
SYSTEM_PRINCIPAL = "__system__"


@dataclass
class RegistryEntry:
    """One registered asset (agent or data source)."""

    name: str
    kind: str
    description: str
    metadata: dict[str, Any] = field(default_factory=dict)
    usage_count: int = 0
    usage_successes: int = 0

    def text(self) -> str:
        """The searchable text of this entry."""
        parts = [self.name.replace("_", " "), self.description]
        parts.extend(str(v) for v in self.metadata.get("keywords", ()))
        return " ".join(parts)

    def success_rate(self) -> float:
        if self.usage_count == 0:
            return 1.0
        return self.usage_successes / self.usage_count


@dataclass(frozen=True)
class SearchHit:
    entry: RegistryEntry
    score: float


class SearchableRegistry:
    """Shared store + search machinery for both registries.

    ``approximate=True`` swaps the exact flat index for an IVF index —
    the trade a very large enterprise registry makes: probed clusters
    instead of brute force, slightly lossy, much cheaper per query.

    Planners search with the same few texts on every turn, so what a
    search derives from the entries is memoized under a *content version*
    (DESIGN §8 "Planner decision memos"); answers equal an unmemoized
    search's exactly.
    """

    #: Bound on each search memo (distinct query texts / search keys).
    MEMO_ENTRIES = 1024

    def __init__(
        self,
        registry_name: str,
        embedding_dim: int = 256,
        approximate: bool = False,
    ) -> None:
        self.registry_name = registry_name
        self.approximate = approximate
        self._entries: dict[str, RegistryEntry] = {}
        self._embedder = HashingEmbedder(dim=embedding_dim)
        #: Each entry's text embedding (read-only), in registration order.
        self._vectors: dict[str, np.ndarray] = {}
        self._index = self._new_index()
        self._lock = threading.RLock()
        #: Bumped whenever an entry's searchable text may change (``_add``,
        #: :meth:`update_metadata`) — not by :meth:`record_usage`.
        self._version = 0
        self._query_vectors = LiveLRU(self.MEMO_ENTRIES)
        self._candidates = LiveLRU(self.MEMO_ENTRIES)

    def _new_index(self) -> FlatIndex | IVFIndex:
        if self.approximate:
            return IVFIndex(
                dim=self._embedder.dim, metric="cosine", n_clusters=16, n_probes=4
            )
        return FlatIndex(dim=self._embedder.dim, metric="cosine")

    # ------------------------------------------------------------------
    # Entry management
    # ------------------------------------------------------------------
    def _add(self, entry: RegistryEntry) -> RegistryEntry:
        with self._lock:
            if entry.name in self._entries:
                raise RegistryError(
                    f"{self.registry_name}: entry already registered: {entry.name!r}"
                )
            vector = self._embed(entry.text())
            self._entries[entry.name] = entry
            self._vectors[entry.name] = vector
            self._index.add(entry.name, vector)
            self._version += 1
            return entry

    def _embed(self, text: str) -> np.ndarray:
        """*text*'s embedding, read-only: stored vectors are shared."""
        vector = self._embedder.embed(text)
        vector.flags.writeable = False
        return vector

    def _query_vector(self, text: str) -> np.ndarray:
        """*text*'s embedding, memoized: the embedder is deterministic."""
        vector = self._query_vectors.recall(text)
        if vector is None:
            vector = self._embed(text)
            self._query_vectors.remember(text, vector)
        return vector

    def get(self, name: str) -> RegistryEntry:
        with self._lock:
            entry = self._entries.get(name)
        if entry is None:
            raise RegistryError(f"{self.registry_name}: unknown entry: {name!r}")
        return entry

    def has(self, name: str) -> bool:
        with self._lock:
            return name in self._entries

    def names(self) -> list[str]:
        with self._lock:
            return sorted(self._entries)

    def entries(self) -> list[RegistryEntry]:
        with self._lock:
            return [self._entries[name] for name in sorted(self._entries)]

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    # ------------------------------------------------------------------
    # Search
    # ------------------------------------------------------------------
    def search(
        self,
        query: str,
        k: int = 5,
        method: str = "vector",
        kind: str | None = None,
    ) -> list[SearchHit]:
        """Top-*k* entries for *query*; methods: vector, keyword, hybrid.

        The pre-boost candidate scores are memoized by ``(query, k,
        method)`` under the content version; the usage boost, the *kind*
        filter and the cut are applied on every call, since usage moves
        between calls without changing the version.
        """
        if method not in {"vector", "keyword", "hybrid"}:
            raise RegistryError(f"unknown search method: {method!r}")
        key = (query, k, method)
        with self._lock:
            memo = self._candidates.recall(key)
            if memo is not None and memo[0] == self._version:
                candidates = memo[1]
            else:
                candidates = self._candidate_scores(query, k, method)
                self._candidates.remember(key, (self._version, candidates))
            hits = []
            for name, score in candidates:
                entry = self._entries[name]
                if kind is not None and entry.kind != kind:
                    continue
                boosted = score + 0.02 * math.log1p(entry.usage_count) * entry.success_rate()
                hits.append(SearchHit(entry, boosted))
        hits.sort(key=lambda hit: (-hit.score, hit.entry.name))
        return hits[:k]

    def _candidate_scores(
        self, query: str, k: int, method: str
    ) -> tuple[tuple[str, float], ...]:
        """(name, best score) of every candidate: the vector index's top
        ``max(4k, 16)`` and/or every entry whose text overlaps *query*.
        The caller holds the lock (an IVF index builds lazily in here)."""
        scores: dict[str, float] = {}
        if method in {"vector", "hybrid"}:
            query_vector = self._query_vector(query)
            for name, score in self._index.search(query_vector, k=max(k * 4, 16)):
                scores[name] = max(scores.get(name, 0.0), score)
        if method in {"keyword", "hybrid"}:
            for entry in self.entries():
                score = keyword_overlap(query, entry.text())
                if score > 0:
                    scores[entry.name] = max(scores.get(entry.name, 0.0), score)
        return tuple(scores.items())

    def record_usage(self, name: str, success: bool = True) -> None:
        """Log one use of an entry (feeds search ranking and planners)."""
        entry = self.get(name)
        with self._lock:
            entry.usage_count += 1
            if success:
                entry.usage_successes += 1

    def update_metadata(
        self,
        name: str,
        description: str | None = None,
        **metadata_updates: Any,
    ) -> RegistryEntry:
        """Update an entry's description/metadata (the registry web UI's
        "update metadata" operation).  Only this entry is re-embedded;
        the replacement index is built from the stored vectors and swapped
        in whole under the lock, so a search sees the old index or the new
        one, never a partial one, and reflects the new text immediately."""
        entry = self.get(name)
        with self._lock:
            revised = replace(
                entry,
                description=entry.description if description is None else description,
                metadata={**entry.metadata, **metadata_updates},
            )
            self._vectors[name] = self._embed(revised.text())
            entry.description = revised.description
            entry.metadata.update(metadata_updates)
            index = self._new_index()
            index.add_many(self._vectors.items())
            self._index = index
            self._version += 1
        return entry

    def embedding_of(self, name: str) -> np.ndarray:
        """The stored representation of an entry (for diagnostics; read-only)."""
        self.get(name)  # raises on unknown entries
        with self._lock:
            return self._vectors[name]


# ======================================================================
# Agent registry
# ======================================================================
class AgentRegistry(SearchableRegistry):
    """Metadata store for agents: descriptions, parameters, deployment."""

    def __init__(self, embedding_dim: int = 256, approximate: bool = False) -> None:
        super().__init__("agent-registry", embedding_dim, approximate)

    def register_agent(
        self,
        agent_or_class: Agent | type[Agent],
        deployment: Mapping[str, Any] | None = None,
        keywords: tuple[str, ...] = (),
    ) -> RegistryEntry:
        """Register an agent instance or class from its own metadata."""
        if isinstance(agent_or_class, Agent):
            described = agent_or_class.describe()
        else:
            instance_free = agent_or_class
            described = {
                "name": instance_free.name,
                "description": instance_free.description,
                "inputs": [p.describe() for p in instance_free.inputs],
                "outputs": [p.describe() for p in instance_free.outputs],
                "listen_tags": list(instance_free.listen_tags),
                "exclude_tags": list(instance_free.exclude_tags),
                "properties": {},
            }
        metadata = {
            "inputs": described["inputs"],
            "outputs": described["outputs"],
            "listen_tags": described["listen_tags"],
            "exclude_tags": described["exclude_tags"],
            "deployment": dict(deployment or {"image": f"{described['name'].lower()}:latest"}),
            "keywords": list(keywords),
        }
        return self._add(
            RegistryEntry(
                name=described["name"],
                kind="agent",
                description=described["description"],
                metadata=metadata,
            )
        )

    def register_metadata(
        self,
        name: str,
        description: str,
        inputs: tuple[Parameter, ...] = (),
        outputs: tuple[Parameter, ...] = (),
        deployment: Mapping[str, Any] | None = None,
        keywords: tuple[str, ...] = (),
    ) -> RegistryEntry:
        """Register an external asset (API/model) by hand-written metadata."""
        metadata = {
            "inputs": [p.describe() for p in inputs],
            "outputs": [p.describe() for p in outputs],
            "listen_tags": [],
            "exclude_tags": [],
            "deployment": dict(deployment or {}),
            "keywords": list(keywords),
        }
        return self._add(
            RegistryEntry(name=name, kind="agent", description=description, metadata=metadata)
        )

    def derive(
        self, base_name: str, new_name: str, description: str | None = None, **metadata_overrides: Any
    ) -> RegistryEntry:
        """Derive a new agent entry from an existing one (registry UI op)."""
        base = self.get(base_name)
        metadata = dict(base.metadata)
        metadata.update(metadata_overrides)
        return self._add(
            RegistryEntry(
                name=new_name,
                kind="agent",
                description=description or base.description,
                metadata=metadata,
            )
        )


# ======================================================================
# Data registry
# ======================================================================
class DataRegistry(SearchableRegistry):
    """Metadata store for enterprise data sources across modalities.

    Each entry records the source's kind, schema-level metadata, available
    indices, and a live handle so planners can execute against it.  LLMs
    register here too: the paper's Figure-7 plan uses GPT *as a data
    source* for world knowledge.
    """

    def __init__(self, embedding_dim: int = 256, approximate: bool = False) -> None:
        super().__init__("data-registry", embedding_dim, approximate)
        self._handles: dict[str, Any] = {}
        self._acls: dict[str, frozenset[str]] = {}
        self._vector_indices: dict[str, tuple[FlatIndex, str]] = {}
        #: ``(content version, fields)`` last built by :meth:`_fine_fields`.
        self._fine: tuple[int, tuple[tuple[str, str, str, np.ndarray], ...]] = (-1, ())

    def handle(self, name: str, principal: str | None = None) -> Any:
        """The live source object behind an entry.

        When the entry carries an ACL, *principal* must be one of the
        allowed agents — the data-governance hook of Section VII
        ("agents with different privileges").
        """
        if name not in self._handles:
            raise RegistryError(f"no live handle for data source {name!r}")
        if not self.authorized(name, principal):
            raise AccessDeniedError(
                f"principal {principal!r} may not access data source {name!r}"
            )
        return self._handles[name]

    # -- governance -------------------------------------------------------
    def set_acl(self, name: str, allowed: Iterable[str]) -> None:
        """Restrict a source to the given principals (agents/components)."""
        self.get(name)  # raises on unknown entries
        self._acls[name] = frozenset(allowed)

    def clear_acl(self, name: str) -> None:
        self._acls.pop(name, None)

    def acl(self, name: str) -> frozenset[str] | None:
        return self._acls.get(name)

    def authorized(self, name: str, principal: str | None) -> bool:
        """Whether *principal* may access *name* (open sources allow all).

        The system principal (planners, optimizers — trusted platform
        components that inspect sources to plan, not to exfiltrate) is
        always authorized.
        """
        if principal == SYSTEM_PRINCIPAL:
            return True
        allowed = self._acls.get(name)
        if allowed is None:
            return True
        return principal is not None and principal in allowed

    def register_table(
        self,
        database: Database,
        table_name: str,
        name: str | None = None,
        description: str = "",
        keywords: tuple[str, ...] = (),
    ) -> RegistryEntry:
        table = database.table(table_name)
        entry_name = name or table_name.upper()
        schema_meta = table.schema.describe()
        column_names = [c["name"] for c in schema_meta["columns"]]
        metadata = {
            "modality": "relational",
            "database": database.name,
            "table": table.name,
            "schema": schema_meta,
            "indices": table.indexed_columns(),
            "row_count": len(table),
            "keywords": list(keywords) + column_names,
        }
        entry = self._add(
            RegistryEntry(
                name=entry_name,
                kind="relational_table",
                description=description or table.schema.description,
                metadata=metadata,
            )
        )
        self._handles[entry_name] = database
        return entry

    def register_collection(
        self,
        collection: Collection,
        name: str | None = None,
        description: str = "",
        fields: tuple[str, ...] = (),
        keywords: tuple[str, ...] = (),
        embed_field: str | None = None,
    ) -> RegistryEntry:
        """Register a document collection.

        With *embed_field*, the registry also builds a vector index over
        that field's text — the retrieval backbone for RAG plans
        (``Op.VECTOR_SEARCH``).
        """
        entry_name = name or collection.name.upper()
        metadata = {
            "modality": "document",
            "collection": collection.name,
            "fields": list(fields),
            "indexed_fields": collection.indexed_fields(),
            "document_count": len(collection),
            "embed_field": embed_field,
            "keywords": list(keywords) + list(fields),
        }
        entry = self._add(
            RegistryEntry(
                name=entry_name,
                kind="document_collection",
                description=description or collection.description,
                metadata=metadata,
            )
        )
        self._handles[entry_name] = collection
        if embed_field is not None:
            index = FlatIndex(dim=self._embedder.dim, metric="cosine")
            for document in collection.find():
                text = str(document.get(embed_field, ""))
                index.add(document["_id"], self._embedder.embed(text))
            self._vector_indices[entry_name] = (index, embed_field)
        return entry

    def vector_index(self, name: str) -> tuple[FlatIndex, str]:
        """(index, embedded field) for a collection registered with one."""
        if name not in self._vector_indices:
            raise RegistryError(f"data source {name!r} has no vector index")
        return self._vector_indices[name]

    def embed_query(self, text: str) -> np.ndarray:
        """Embed *text* with the registry's embedder (query side of RAG);
        memoized with the search queries' embeddings, read-only."""
        return self._query_vector(text)

    def register_graph(
        self,
        graph: GraphStore,
        name: str | None = None,
        description: str = "",
        keywords: tuple[str, ...] = (),
    ) -> RegistryEntry:
        entry_name = name or graph.name.upper()
        described = graph.describe()
        metadata = {
            "modality": "graph",
            "graph": graph.name,
            "nodes": described["nodes"],
            "edges": described["edges"],
            "labels": described["labels"],
            "keywords": list(keywords) + list(described["labels"]),
        }
        entry = self._add(
            RegistryEntry(
                name=entry_name,
                kind="graph",
                description=description or graph.description,
                metadata=metadata,
            )
        )
        self._handles[entry_name] = graph
        return entry

    def register_keyvalue(
        self,
        store: KeyValueStore,
        name: str | None = None,
        description: str = "",
        keywords: tuple[str, ...] = (),
    ) -> RegistryEntry:
        entry_name = name or store.name.upper()
        metadata = {
            "modality": "keyvalue",
            "store": store.name,
            "namespaces": store.namespaces(),
            "keywords": list(keywords),
        }
        entry = self._add(
            RegistryEntry(
                name=entry_name,
                kind="keyvalue",
                description=description or store.description,
                metadata=metadata,
            )
        )
        self._handles[entry_name] = store
        return entry

    def register_llm(
        self,
        model_name: str,
        name: str | None = None,
        description: str = "",
        knowledge_domains: tuple[str, ...] = ("world knowledge", "general"),
    ) -> RegistryEntry:
        """Register a model endpoint as a *data source* (Figure 7)."""
        entry_name = name or f"LLM:{model_name}"
        metadata = {
            "modality": "parametric",
            "model": model_name,
            "knowledge_domains": list(knowledge_domains),
            "keywords": list(knowledge_domains),
        }
        entry = self._add(
            RegistryEntry(
                name=entry_name,
                kind="llm",
                description=description
                or f"Parametric knowledge served by model {model_name}",
                metadata=metadata,
            )
        )
        self._handles[entry_name] = model_name
        return entry

    # -- planner support -------------------------------------------------
    def by_modality(self, modality: str) -> list[RegistryEntry]:
        return [e for e in self.entries() if e.metadata.get("modality") == modality]

    def discover(self, concept: str, k: int = 3) -> list[SearchHit]:
        """Hybrid search used by the data planner's DISCOVER operator."""
        return self.search(concept, k=k, method="hybrid")

    def discover_fine(self, concept: str, k: int = 5) -> list[tuple[str, str, float]]:
        """Coarse-to-fine discovery: rank (source, field) pairs for *concept*.

        The coarse level is the registry entry; the fine level is the
        entry's columns (relational) or fields (document) — the
        granularity hierarchy of Section V-D ("data at various levels of
        granularity") and the authors' CMDBench framing.
        """
        query_vector = self._query_vector(concept)
        # One dot per field, not one matrix product: gemv sums in another
        # order, moves scores by an ulp and could reorder near-ties.
        scored = [
            (source, name, float(np.dot(query_vector, vector)) + keyword_overlap(concept, text))
            for source, name, text, vector in self._fine_fields()
        ]
        scored.sort(key=lambda item: (-item[2], item[0], item[1]))
        return scored[:k]

    def _fine_fields(self) -> tuple[tuple[str, str, str, np.ndarray], ...]:
        """(source, field, text, vector) of every column and document
        field, embedded once per content version."""
        with self._lock:
            if self._fine[0] == self._version:
                return self._fine[1]
            fields = []
            for entry in self.entries():
                if entry.kind == "relational_table":
                    fine_items = [
                        (column["name"], f"{column['name']} {column.get('description', '')}")
                        for column in entry.metadata.get("schema", {}).get("columns", [])
                    ]
                elif entry.kind == "document_collection":
                    fine_items = [(name, name) for name in entry.metadata.get("fields", [])]
                else:
                    continue
                for name, text in fine_items:
                    vector = self._embedder.embed(f"{text} {entry.name.replace('_', ' ')}")
                    fields.append((entry.name, name, text, vector))
            self._fine = (self._version, tuple(fields))
            return self._fine[1]
