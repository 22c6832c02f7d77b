"""The data planner (Section V-G, Figure 7).

"Data planner's job is to provide agents with the right data":

1. agents invoke it to find and query data sources, and
2. the task coordinator invokes it to transform data flowing between
   agents (``PROFILER.CRITERIA <- USER.TEXT``).

Its signature move is *decomposition*: a query like "data scientist
position in SF bay area" cannot run as one SQL statement because the data
is split across modalities — "SF bay area" is no city in the JOBS table
(an LLM must expand the region), and "data scientist" under-covers titles
(a graph taxonomy expands it).  The planner detects both situations,
injects ``Q2NL``/``LLM_CALL``/``TAXONOMY`` operators, and wires their
outputs into an ``NL2Q`` + ``SQL`` tail — exactly the Figure-7 plan.

Every LLM-backed operator carries the full set of catalog models as
alternatives so the optimizer can trade cost/latency/quality under QoS.
"""

from __future__ import annotations

from typing import Any

from ...errors import PlanningError
from ...ids import IdGenerator
from ...llm import ModelCatalog, prompts
from ...llm.windows import LiveLRU
from ..budget import Budget
from ..optimizer import CostModel, PlanOptimizer
from ..plan.data_plan import DataPlan, Op, OperatorChoice
from ..qos import QoSSpec
from ..registries import SYSTEM_PRINCIPAL, DataRegistry, RegistryEntry
from .data_executor import DataPlanExecutor, ExecutionResult

#: Column-name heuristics for locating the semantic columns of a jobs table.
TITLE_COLUMNS = ("title", "job_title", "position")
CITY_COLUMNS = ("city", "location")


class DataPlanner:
    """Plans and executes multi-source data retrieval and transformation."""

    #: Bound on the known-city memo (distinct probed locations).
    MEMO_ENTRIES = 1024

    def __init__(
        self,
        registry: DataRegistry,
        catalog: ModelCatalog,
        planner_model: str = "hr-ft",
    ) -> None:
        self.registry = registry
        self.catalog = catalog
        self.planner_model = planner_model
        self._ids = IdGenerator()
        self._cost_model = CostModel(catalog)
        self.optimizer = PlanOptimizer(self._cost_model)
        self.executor = DataPlanExecutor(registry, catalog)
        #: (source, table, column, location) -> (data version, known city?).
        self._known_cities = LiveLRU(self.MEMO_ENTRIES)

    # ------------------------------------------------------------------
    # Request interpretation
    # ------------------------------------------------------------------
    def parse_request(self, text: str) -> dict[str, Any]:
        """Extract the criteria from a free-text request (an LLM call)."""
        client = self.catalog.client(self.planner_model)
        response = client.complete(prompts.extract(text, ("title", "location")))
        parsed = response.structured if isinstance(response.structured, dict) else {}
        return {"title": parsed.get("title"), "location": parsed.get("location")}

    # ------------------------------------------------------------------
    # Planning: job search (the running example)
    # ------------------------------------------------------------------
    def plan_job_query(
        self,
        text: str,
        qos: QoSSpec | None = None,
        optimize: bool = True,
        verify: bool = False,
    ) -> DataPlan:
        """Decomposed multi-source plan for a job-search query (Figure 7).

        With ``verify=True`` the planner injects VERIFY operators after
        each LLM-backed expansion (the paper's fact-verifier module):
        city answers are checked against the JOBS table's city column,
        so hallucinated cities from cheap models never reach the query.
        """
        criteria = self.parse_request(text)
        title = criteria.get("title")
        location = criteria.get("location")
        jobs = self._find_jobs_table()
        title_col = self._pick_column(jobs, TITLE_COLUMNS)
        city_col = self._pick_column(jobs, CITY_COLUMNS)
        plan = DataPlan(self._ids.next("dplan"), goal=text)
        nl2q_inputs: list[str] = []
        column_bindings: dict[str, str] = {}
        base_filters: dict[str, Any] = {}

        if title and title_col:
            taxonomy = self._find_taxonomy_graph()
            choices = tuple(
                [OperatorChoice(source=taxonomy.name, note="graph taxonomy")]
                if taxonomy is not None
                else []
            ) + self._model_choices(domain="hr")
            plan.add_op(
                "expand_title",
                Op.TAXONOMY,
                params={"concept": title, "domain": "hr"},
                choices=choices,
            )
            nl2q_inputs.append("expand_title")
            column_bindings["expand_title"] = title_col

        if location and city_col:
            if self._location_is_known_city(jobs, city_col, location):
                base_filters[city_col] = location
            else:
                # "SF bay area" matches no city: inject Q2NL + LLM-as-source.
                plan.add_op(
                    "q2nl_location",
                    Op.Q2NL,
                    params={"fragment": f"cities in the {location}"},
                )
                plan.add_op(
                    "cities",
                    Op.LLM_CALL,
                    params={"prompt_kind": "cities", "arg": location},
                    inputs=("q2nl_location",),
                    choices=self._model_choices(domain="general"),
                )
                cities_source = "cities"
                if verify:
                    plan.add_op(
                        "verify_cities",
                        Op.VERIFY,
                        params={"table": jobs.metadata["table"], "column": city_col},
                        inputs=("cities",),
                        choices=(OperatorChoice(source=jobs.name),),
                    )
                    cities_source = "verify_cities"
                nl2q_inputs.append(cities_source)
                column_bindings[cities_source] = city_col

        plan.add_op(
            "nl2q",
            Op.NL2Q,
            params={
                "table": jobs.metadata["table"],
                "column_bindings": column_bindings,
                "base_filters": base_filters,
            },
            inputs=tuple(nl2q_inputs),
            choices=self._model_choices(domain="hr"),
        )
        plan.add_op(
            "query_jobs",
            Op.SQL,
            inputs=("nl2q",),
            choices=(OperatorChoice(source=jobs.name),),
        )
        plan.validate()
        if optimize:
            self.optimizer.optimize(plan, qos)
        return plan

    def plan_direct_query(self, text: str, optimize: bool = True) -> DataPlan:
        """Baseline: direct NL2Q without decomposition.

        Uses the extracted criteria as literal filters — the approach the
        paper says "may not always work" because regions and title synonyms
        never match database values.
        """
        criteria = self.parse_request(text)
        jobs = self._find_jobs_table()
        title_col = self._pick_column(jobs, TITLE_COLUMNS)
        city_col = self._pick_column(jobs, CITY_COLUMNS)
        base_filters: dict[str, Any] = {}
        if criteria.get("title") and title_col:
            base_filters[title_col] = criteria["title"]
        if criteria.get("location") and city_col:
            base_filters[city_col] = criteria["location"]
        plan = DataPlan(self._ids.next("dplan"), goal=f"direct: {text}")
        plan.add_op(
            "nl2q",
            Op.NL2Q,
            params={"table": jobs.metadata["table"], "base_filters": base_filters},
            choices=self._model_choices(domain="hr"),
        )
        plan.add_op(
            "query_jobs",
            Op.SQL,
            inputs=("nl2q",),
            choices=(OperatorChoice(source=jobs.name),),
        )
        if optimize:
            self.optimizer.optimize(plan)
        return plan

    # ------------------------------------------------------------------
    # Planning: retrieval-augmented generation (§III-A's RAG component)
    # ------------------------------------------------------------------
    def plan_rag(
        self,
        question: str,
        corpus: str | None = None,
        k: int = 3,
        qos: QoSSpec | None = None,
        optimize: bool = True,
    ) -> DataPlan:
        """Answer *question* grounded in retrieved documents.

        VECTOR_SEARCH pulls the k most similar documents from an embedded
        collection (named by *corpus*, or discovered), then SUMMARIZE
        condenses them — "conditioning generation with retrieval to
        improve accuracy and relevance".
        """
        entry = None
        if corpus is not None:
            entry = self.registry.get(corpus)
        else:
            for hit in self.registry.discover(question, k=5):
                if hit.entry.metadata.get("embed_field"):
                    entry = hit.entry
                    break
        if entry is None or not entry.metadata.get("embed_field"):
            raise PlanningError(
                f"no embedded document corpus available for {question!r}"
            )
        plan = DataPlan(self._ids.next("dplan"), goal=f"rag: {question}")
        plan.add_op(
            "retrieve",
            Op.VECTOR_SEARCH,
            params={"query": question, "k": k},
            choices=(OperatorChoice(source=entry.name),),
        )
        plan.add_op(
            "answer",
            Op.SUMMARIZE,
            params={"intro": f"Documents relevant to: {question}"},
            inputs=("retrieve",),
            choices=self._model_choices(domain="general"),
        )
        plan.validate()
        if optimize:
            self.optimizer.optimize(plan, qos)
        return plan

    # ------------------------------------------------------------------
    # Planning: generic multi-modal retrieval
    # ------------------------------------------------------------------
    def plan_retrieval(
        self,
        concept: str,
        filters: dict[str, Any] | None = None,
        limit: int | None = 20,
        optimize: bool = True,
    ) -> DataPlan:
        """Retrieve from whichever modality best answers *concept*.

        Discovery picks the source; the plan then uses the operator that
        modality speaks: ``SQL`` for relational tables, ``DOC_FIND`` for
        document collections, ``GRAPH_QUERY``/``TAXONOMY`` for graphs, and
        ``LLM_CALL`` for parametric (model) sources.  Filters are mapped
        into the source's own filter language.
        """
        filters = dict(filters or {})
        hits = self.registry.discover(concept, k=3)
        if not hits:
            raise PlanningError(f"no data source discovered for {concept!r}")
        entry = hits[0].entry
        plan = DataPlan(self._ids.next("dplan"), goal=f"retrieve: {concept}")
        if entry.kind == "relational_table":
            base_filters = {
                column: value
                for column, value in filters.items()
                if self._pick_column(entry, (column,)) is not None
            }
            plan.add_op(
                "nl2q", Op.NL2Q,
                params={"table": entry.metadata["table"], "base_filters": base_filters},
                choices=self._model_choices(domain="hr"),
            )
            plan.add_op(
                "fetch", Op.SQL, inputs=("nl2q",),
                choices=(OperatorChoice(source=entry.name),),
            )
            if limit is not None:
                plan.add_op("limit", Op.LIMIT, params={"n": limit}, inputs=("fetch",))
        elif entry.kind == "document_collection":
            partition_field = self._partition_field(entry.name)
            doc_filter = {
                field: (
                    value
                    # Partition keys are exact-match by definition — keep
                    # equality so the router can prune the shard fan-out.
                    if field == partition_field
                    else {"$contains": value} if isinstance(value, str) else value
                )
                for field, value in filters.items()
            }
            plan.add_op(
                "fetch", Op.DOC_FIND,
                params={"filter": doc_filter, "limit": limit},
                choices=(OperatorChoice(source=entry.name),),
            )
        elif entry.kind == "graph":
            plan.add_op(
                "fetch", Op.TAXONOMY,
                params={"concept": filters.get("concept", concept)},
                choices=(OperatorChoice(source=entry.name),),
            )
        elif entry.kind == "llm":
            plan.add_op(
                "fetch", Op.LLM_CALL,
                params={"prompt_kind": filters.get("prompt_kind", "generate"),
                        "arg": filters.get("arg", concept)},
                choices=self._model_choices(domain="general"),
            )
        else:
            raise PlanningError(
                f"no retrieval strategy for source kind {entry.kind!r}"
            )
        plan.validate()
        if optimize:
            self.optimizer.optimize(plan)
        return plan

    # ------------------------------------------------------------------
    # Planning: transformations between agent parameters
    # ------------------------------------------------------------------
    def plan_transform(
        self,
        text: str,
        fields: tuple[str, ...],
        qos: QoSSpec | None = None,
        optimize: bool = True,
    ) -> DataPlan:
        """EXTRACT plan turning free text into structured fields.

        This is the coordinator's ``PROFILER.CRITERIA <- USER.TEXT`` path.
        """
        plan = DataPlan(self._ids.next("dplan"), goal=f"extract {fields} from text")
        plan.add_op(
            "extract",
            Op.EXTRACT,
            params={"text": text, "fields": fields, "domain": "hr"},
            choices=self._model_choices(domain="hr"),
        )
        if optimize:
            self.optimizer.optimize(plan, qos)
        return plan

    def plan_knowledge(
        self, prompt_kind: str, arg: str, qos: QoSSpec | None = None, optimize: bool = True
    ) -> DataPlan:
        """Single LLM-as-data-source lookup (cities/titles/skills)."""
        domain = "hr" if prompt_kind in {"titles", "skills"} else "general"
        plan = DataPlan(self._ids.next("dplan"), goal=f"{prompt_kind}({arg})")
        plan.add_op(
            "knowledge",
            Op.LLM_CALL,
            params={"prompt_kind": prompt_kind, "arg": arg, "domain": domain},
            choices=self._model_choices(domain=domain),
        )
        if optimize:
            self.optimizer.optimize(plan, qos)
        return plan

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def execute(
        self,
        plan: DataPlan,
        budget: Budget | None = None,
        principal: str | None = None,
        parallel: bool = False,
    ) -> ExecutionResult:
        return self.executor.execute(
            plan, budget=budget, principal=principal, parallel=parallel
        )

    def run_job_query(
        self,
        text: str,
        qos: QoSSpec | None = None,
        budget: Budget | None = None,
        principal: str | None = None,
        verify: bool = False,
    ) -> ExecutionResult:
        """Plan, optimize, and execute in one call (the agent-facing API)."""
        plan = self.plan_job_query(text, qos=qos, verify=verify)
        return self.execute(plan, budget=budget, principal=principal)

    # ------------------------------------------------------------------
    # Source discovery helpers
    # ------------------------------------------------------------------
    def _find_jobs_table(self) -> RegistryEntry:
        hits = self.registry.discover("job postings openings positions", k=5)
        for hit in hits:
            if hit.entry.kind == "relational_table":
                return hit.entry
        relational = self.registry.by_modality("relational")
        if relational:
            return relational[0]
        raise PlanningError("no relational jobs source registered")

    def _find_taxonomy_graph(self) -> RegistryEntry | None:
        hits = self.registry.discover("job title taxonomy hierarchy", k=5)
        for hit in hits:
            if hit.entry.kind == "graph":
                return hit.entry
        graphs = self.registry.by_modality("graph")
        return graphs[0] if graphs else None

    def _location_is_known_city(
        self, jobs: RegistryEntry, city_col: str, location: str
    ) -> bool:
        """Whether *location* is a value of the jobs table's city column —
        probed once per table data version, not once per plan."""
        database = self.registry.handle(jobs.name, principal=SYSTEM_PRINCIPAL)
        table = jobs.metadata["table"]
        key = (jobs.name, table, city_col, location)
        version = database.data_version(table)
        memo = self._known_cities.recall(key)
        if memo is not None and memo[0] == version:
            return memo[1]
        result = database.execute(
            f"SELECT COUNT(*) AS n FROM {table} "
            f"WHERE LOWER({city_col}) = LOWER(:loc)",
            {"loc": location},
        )
        known = bool(result.scalar())
        self._known_cities.remember(key, (version, known))
        return known

    def _partition_field(self, source_name: str) -> str | None:
        """The collection's shard key, when it is a clustered collection."""
        try:
            handle = self.registry.handle(source_name, principal=SYSTEM_PRINCIPAL)
        except Exception:
            return None
        return getattr(handle, "partition_field", None)

    @staticmethod
    def _pick_column(entry: RegistryEntry, candidates: tuple[str, ...]) -> str | None:
        columns = {
            c["name"].lower() for c in entry.metadata.get("schema", {}).get("columns", [])
        }
        for candidate in candidates:
            if candidate in columns:
                return candidate
        return None

    def _model_choices(self, domain: str) -> tuple[OperatorChoice, ...]:
        """All catalog models as alternatives, best-for-domain first."""
        specs = sorted(
            self.catalog.specs(), key=lambda s: -s.quality_for(domain)
        )
        return tuple(OperatorChoice(model=spec.name) for spec in specs)
