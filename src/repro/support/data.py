"""A second enterprise: customer support for a software vendor.

The paper stresses that "the proposed architecture is not specific to any
industry but rather to [the] enterprise setting" (Section II).  This
package proves it: the same registries, planners, coordinator, and agent
machinery drive a support desk — tickets in a relational table, a
knowledge base as an embedded document collection, and a product
dependency graph.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.registries import DataRegistry
from ..storage import ColumnType, Database, DocumentStore, GraphStore
from ..storage.schema import Column, TableSchema

PRODUCTS = ("SearchCloud", "MatchEngine", "ProfileStore", "InsightBoard")

COMPONENTS = {
    "SearchCloud": ("query-api", "indexer", "ranking"),
    "MatchEngine": ("scorer", "feature-store"),
    "ProfileStore": ("ingest", "dedupe"),
    "InsightBoard": ("dashboards", "exports"),
}

SEVERITIES = ("low", "medium", "high", "critical")
STATUSES = ("open", "triaged", "waiting_on_customer", "resolved")

#: Knowledge-base articles: (title, product, text).
KB_ARTICLES = (
    ("Resetting the indexer checkpoint", "SearchCloud",
     "If the indexer falls behind, reset its checkpoint from the admin "
     "console and re-run the backfill job. Monitor lag until it reaches zero."),
    ("Query API returns 429 errors", "SearchCloud",
     "429 responses mean the query api rate limit was hit. Raise the tenant "
     "quota or enable request batching in the client SDK."),
    ("Ranking looks stale after deploys", "SearchCloud",
     "Stale ranking usually means the ranking model cache was not invalidated. "
     "Flush the ranking cache and verify the model version tag."),
    ("Scorer timeouts under load", "MatchEngine",
     "Scorer timeouts under heavy load are mitigated by enabling the batch "
     "scoring endpoint and raising the feature-store connection pool size."),
    ("Feature store consistency warnings", "MatchEngine",
     "Consistency warnings appear when the feature-store replication lags. "
     "Check replication status and fail over to the standby if lag exceeds 5m."),
    ("Duplicate profiles after import", "ProfileStore",
     "Run the dedupe job with fuzzy matching enabled; review the merge report "
     "before committing merges to the profile store."),
    ("Ingest job stuck in pending", "ProfileStore",
     "A pending ingest job usually indicates a schema mismatch. Validate the "
     "import file against the published ingest schema and resubmit."),
    ("Exports missing recent data", "InsightBoard",
     "Exports read from the nightly snapshot. For fresher data enable "
     "incremental exports in the dashboards settings."),
    ("Dashboard widgets render blank", "InsightBoard",
     "Blank widgets are caused by expired data source credentials. Rotate the "
     "credentials and refresh the dashboards."),
)

_SUBJECT_TEMPLATES = (
    "{component} issues on {product}",
    "{product} {component} degraded",
    "Problems with {product}: {component}",
)


@dataclass
class SupportEnterprise:
    """The support vendor's substrates plus its data registry."""

    database: Database
    documents: DocumentStore
    products: GraphStore
    registry: DataRegistry


def generate_tickets(n: int, rng: np.random.Generator) -> list[dict]:
    tickets = []
    for ticket_id in range(1, n + 1):
        product = str(rng.choice(PRODUCTS))
        component = str(rng.choice(COMPONENTS[product]))
        template = _SUBJECT_TEMPLATES[int(rng.integers(len(_SUBJECT_TEMPLATES)))]
        tickets.append(
            {
                "id": ticket_id,
                "subject": template.format(product=product, component=component),
                "product": product,
                "component": component,
                "severity": str(rng.choice(SEVERITIES, p=[0.3, 0.4, 0.2, 0.1])),
                "status": str(rng.choice(STATUSES)),
                "days_open": int(rng.integers(0, 30)),
            }
        )
    return tickets


def build_support_enterprise(seed: int = 21, n_tickets: int = 80) -> SupportEnterprise:
    rng = np.random.default_rng(seed)
    database = Database("support", description="Support desk relational database")
    schema = TableSchema(
        "tickets",
        (
            Column("id", ColumnType.INT, primary_key=True),
            Column("subject", ColumnType.TEXT),
            Column("product", ColumnType.TEXT, description="affected product"),
            Column("component", ColumnType.TEXT),
            Column("severity", ColumnType.TEXT),
            Column("status", ColumnType.TEXT),
            Column("days_open", ColumnType.INT),
        ),
        description="Customer support tickets",
    )
    tickets = database.create_table(schema)
    tickets.insert_many(generate_tickets(n_tickets, rng))
    tickets.create_index("product", kind="hash")
    tickets.create_index("severity", kind="hash")

    documents = DocumentStore("support-docs")
    kb = documents.create_collection("kb_articles", "Knowledge base articles")
    for i, (title, product, text) in enumerate(KB_ARTICLES, start=1):
        kb.insert(
            {"title": title, "product": product, "text": f"{title}. {text}"},
            doc_id=f"kb-{i}",
        )

    products = GraphStore("products", "Product and component dependency graph")
    for product in PRODUCTS:
        products.add_node(f"product:{product}", "product", name=product)
        for component in COMPONENTS[product]:
            node_id = f"component:{product}:{component}"
            products.add_node(node_id, "component", name=component, product=product)
            products.add_edge(node_id, f"product:{product}", "part_of")

    registry = DataRegistry()
    registry.register_table(
        database, "tickets", name="TICKETS",
        description="Customer support tickets with product, severity, and status",
        keywords=("tickets", "issues", "cases", "support"),
    )
    registry.register_collection(
        kb, name="KB",
        description="Knowledge base articles with remediation steps per product",
        fields=("title", "product", "text"),
        keywords=("knowledge", "articles", "runbooks", "remediation"),
        embed_field="text",
    )
    registry.register_graph(
        products, name="PRODUCT_GRAPH",
        description="Products and their components",
        keywords=("products", "components", "dependencies"),
    )
    registry.register_llm(
        "mega-xl", name="LLM:SUPPORT",
        description="General troubleshooting knowledge served by an LLM",
        knowledge_domains=("troubleshooting", "general"),
    )
    return SupportEnterprise(
        database=database, documents=documents, products=products, registry=registry
    )
