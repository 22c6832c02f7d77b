"""Execution engine for data plans.

Runs a :class:`~repro.core.plan.data_plan.DataPlan` operator by operator in
topological order, dispatching each to its handler.  LLM-backed operators
call the chosen model through the catalog (metering real token usage);
storage-backed operators charge the cost model's micro-costs.  All charges
land on the budget, which is how the coordinator observes data-plan spend.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass, field
from typing import Any, Mapping

from ...errors import PlanError
from ...llm import ModelCatalog, prompts
from ...storage import Collection, Database, GraphStore, KeyValueStore
from ...storage.document.query import compile_filter
from ...storage.relational.index import sort_key
from ..budget import Budget
from ..optimizer.cost_model import CostModel
from ..plan.data_plan import DataOperator, DataPlan, Op
from ..registries import DataRegistry
from ..scheduler import VirtualTimeline


@dataclass
class ExecutionResult:
    """Outcome of executing a data plan."""

    plan_id: str
    outputs: dict[str, Any] = field(default_factory=dict)  # op_id -> value
    cost: float = 0.0
    latency: float = 0.0
    quality: float = 1.0

    def final(self) -> Any:
        """Value of the last leaf operator (the plan's answer)."""
        if not self.outputs:
            return None
        return self.outputs[self._final_key]

    @property
    def _final_key(self) -> str:
        return next(reversed(self.outputs))


class DataPlanExecutor:
    """Executes data plans against registered sources and models."""

    def __init__(
        self,
        registry: DataRegistry,
        catalog: ModelCatalog,
        budget: Budget | None = None,
    ) -> None:
        self._registry = registry
        self._catalog = catalog
        self._budget = budget
        self._local = threading.local()  # per-thread principal
        self._cost_model = CostModel(catalog)

    @property
    def _principal(self) -> str | None:
        return getattr(self._local, "principal", None)

    @_principal.setter
    def _principal(self, value: str | None) -> None:
        self._local.principal = value

    def execute(
        self,
        plan: DataPlan,
        budget: Budget | None = None,
        principal: str | None = None,
        parallel: bool = False,
    ) -> ExecutionResult:
        """Run *plan*; returns per-operator outputs plus aggregate metrics.

        *principal* names the requesting agent for data-governance checks:
        ACL-protected sources raise :class:`AccessDeniedError` for
        unauthorized principals.

        With *parallel*, independent operator branches execute on
        :class:`VirtualTimeline` branches and ``result.latency`` is the
        plan's **critical path** instead of the serial sum of operator
        latencies; per-operator outputs, costs, and quality are identical
        either way.
        """
        plan.validate()
        budget = budget or self._budget
        clock = budget.clock if budget is not None else self._catalog.clock
        self._principal = principal
        self._local.no_cache = plan.no_cache
        result = ExecutionResult(plan_id=plan.plan_id)
        timeline = (
            VirtualTimeline(clock) if parallel and clock is not None else None
        )
        ends: dict[str, float] = {}
        try:
            for operator in plan.order():
                inputs = [result.outputs[op_id] for op_id in operator.inputs]
                if timeline is not None:
                    ready = max(
                        (ends[op_id] for op_id in operator.inputs if op_id in ends),
                        default=timeline.origin,
                    )
                    timeline.open(ready)
                clock_before = clock.now() if clock is not None else 0.0
                value, cost, latency, quality = self._run(operator, inputs)
                result.outputs[operator.op_id] = value
                result.cost += cost
                result.latency += latency
                result.quality *= quality
                if budget is not None:
                    # LLM clients sharing the budget's clock already advanced
                    # it during the call; charge only the latency shortfall so
                    # simulated time is never double-counted.
                    already_elapsed = budget.clock.now() - clock_before
                    budget.charge(
                        source=f"data-plan/{operator.op.value}",
                        cost=cost,
                        latency=max(0.0, latency - already_elapsed),
                        quality=quality,
                    )
                elif timeline is not None:
                    # No budget to advance the clock through: branch time
                    # must still cover the operator's modeled latency.
                    already_elapsed = clock.now() - clock_before
                    clock.advance(max(0.0, latency - already_elapsed))
                if timeline is not None:
                    ends[operator.op_id] = timeline.close()
        finally:
            self._local.no_cache = False
            if timeline is not None:
                timeline.commit()
        if timeline is not None:
            # Aggregate latency is the critical path, not the serial sum.
            result.latency = timeline.elapsed()
        # Re-key outputs so the final leaf is last even if insertion order
        # differed from leaf order (single-leaf plans are the common case).
        leaves = plan.leaves()
        if leaves:
            final_id = leaves[-1].op_id
            final_value = result.outputs.pop(final_id)
            result.outputs[final_id] = final_value
        return result

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def _run(
        self, operator: DataOperator, inputs: list[Any]
    ) -> tuple[Any, float, float, float]:
        handler = {
            Op.DISCOVER: self._op_discover,
            Op.Q2NL: self._op_q2nl,
            Op.LLM_CALL: self._op_llm_call,
            Op.TAXONOMY: self._op_taxonomy,
            Op.NL2Q: self._op_nl2q,
            Op.SQL: self._op_sql,
            Op.DOC_FIND: self._op_doc_find,
            Op.GRAPH_QUERY: self._op_graph_query,
            Op.KV_GET: self._op_kv_get,
            Op.SELECT: self._op_select,
            Op.PROJECT: self._op_project,
            Op.JOIN: self._op_join,
            Op.UNION: self._op_union,
            Op.EXTRACT: self._op_extract,
            Op.SUMMARIZE: self._op_summarize,
            Op.VERIFY: self._op_verify,
            Op.VECTOR_SEARCH: self._op_vector_search,
            Op.RANK: self._op_rank,
            Op.LIMIT: self._op_limit,
        }.get(operator.op)
        if handler is None:
            raise PlanError(f"no handler for operator {operator.op}")
        return handler(operator, inputs)

    def _storage_metrics(self, operator: DataOperator, rows: int) -> tuple[float, float, float]:
        estimate = self._cost_model.estimate(operator, operator.choice(), rows_in=rows)
        return estimate.cost, estimate.latency, estimate.quality

    def _llm_call(
        self, operator: DataOperator, prompt: str
    ) -> tuple[Any, str, float, float, float]:
        choice = operator.choice()
        if choice.model is None:
            raise PlanError(f"operator {operator.op_id!r} needs a model choice")
        client = self._catalog.client(choice.model)
        response = client.complete(
            prompt, no_cache=getattr(self._local, "no_cache", False)
        )
        quality = client.spec.quality_for(response.domain)
        return response.structured, response.text, response.usage.cost, response.usage.latency, quality

    # ------------------------------------------------------------------
    # Operator handlers
    # ------------------------------------------------------------------
    def _op_discover(self, operator: DataOperator, inputs: list[Any]):
        concept = operator.params["concept"]
        hits = self._registry.discover(concept, k=operator.params.get("k", 3))
        names = [hit.entry.name for hit in hits]
        cost, latency, quality = self._storage_metrics(operator, len(self._registry))
        return names, cost, latency, quality

    def _op_q2nl(self, operator: DataOperator, inputs: list[Any]):
        fragment = operator.params.get("fragment") or (inputs[0] if inputs else "")
        choice = operator.choice()
        if choice.model is not None:
            structured, text, cost, latency, quality = self._llm_call(
                operator, prompts.q2nl(str(fragment))
            )
            return (structured or text), cost, latency, quality
        text = f"List the {str(fragment).strip()}."
        estimate = self._cost_model.estimate(operator, choice)
        return text, estimate.cost, estimate.latency, estimate.quality

    def _op_llm_call(self, operator: DataOperator, inputs: list[Any]):
        kind = operator.params.get("prompt_kind", "generate")
        arg = operator.params.get("arg")
        if arg is None and inputs:
            arg = inputs[0]
        if kind == "cities":
            prompt = prompts.list_cities(str(arg))
        elif kind == "titles":
            prompt = prompts.related_titles(str(arg))
        elif kind == "skills":
            prompt = prompts.list_skills(str(arg))
        else:
            prompt = prompts.generate(str(arg))
        structured, text, cost, latency, quality = self._llm_call(operator, prompt)
        value = structured if structured is not None else text
        return value, cost, latency, quality

    def _op_taxonomy(self, operator: DataOperator, inputs: list[Any]):
        concept = operator.params.get("concept") or (inputs[0] if inputs else "")
        choice = operator.choice()
        if choice.model is not None:
            structured, text, cost, latency, quality = self._llm_call(
                operator, prompts.related_titles(str(concept))
            )
            return (structured or [text]), cost, latency, quality
        graph = self._require_handle(operator, GraphStore)
        names = _expand_taxonomy(graph, str(concept))
        cost, latency, quality = self._storage_metrics(operator, graph.node_count())
        return names, cost, latency, quality

    def _op_nl2q(self, operator: DataOperator, inputs: list[Any]):
        """Synthesize parameterized SQL from bindings + upstream value lists."""
        table = operator.params["table"]
        columns = operator.params.get("column_bindings", {})  # op_id -> column
        base_filters = operator.params.get("base_filters", {})
        conditions: list[str] = []
        parameters: dict[str, Any] = {}
        counter = 0
        for op_id, column in columns.items():
            position = list(operator.inputs).index(op_id)
            values = inputs[position]
            if not isinstance(values, (list, tuple)):
                values = [values]
            placeholders = []
            for value in values:
                name = f"p{counter}"
                counter += 1
                parameters[name] = value
                placeholders.append(f":{name}")
            if placeholders:
                conditions.append(f"{column} IN ({', '.join(placeholders)})")
        for column, value in base_filters.items():
            name = f"p{counter}"
            counter += 1
            parameters[name] = value
            if isinstance(value, str) and "%" in value:
                conditions.append(f"{column} LIKE :{name}")
            else:
                conditions.append(f"{column} = :{name}")
        sql = f"SELECT * FROM {table}"
        if conditions:
            sql += " WHERE " + " AND ".join(conditions)
        query = {"sql": sql, "parameters": parameters}
        estimate = self._cost_model.estimate(operator, operator.choice())
        return query, estimate.cost, estimate.latency, estimate.quality

    def _op_sql(self, operator: DataOperator, inputs: list[Any]):
        database = self._require_handle(operator, Database)
        if inputs and isinstance(inputs[0], Mapping) and "sql" in inputs[0]:
            sql = inputs[0]["sql"]
            parameters = dict(inputs[0].get("parameters", {}))
        else:
            sql = operator.params["sql"]
            parameters = dict(operator.params.get("parameters", {}))
        result = database.execute(sql, parameters)
        cost, latency, quality = self._storage_metrics(operator, max(len(result.rows), 1))
        return result.rows, cost, latency, quality

    def _op_doc_find(self, operator: DataOperator, inputs: list[Any]):
        collection = self._require_handle(operator, Collection)
        documents = collection.find(
            operator.params.get("filter", {}),
            fields=operator.params.get("fields"),
            sort=operator.params.get("sort"),
            descending=operator.params.get("descending", False),
            limit=operator.params.get("limit"),
        )
        cost, latency, quality = self._storage_metrics(operator, len(documents))
        return documents, cost, latency, quality

    def _op_graph_query(self, operator: DataOperator, inputs: list[Any]):
        graph = self._require_handle(operator, GraphStore)
        start = operator.params["start"]
        nodes = graph.traverse(
            start,
            edge_label=operator.params.get("edge_label"),
            direction=operator.params.get("direction", "out"),
            max_depth=operator.params.get("max_depth"),
        )
        value = [dict(node.properties, _id=node.node_id, _label=node.label) for node in nodes]
        cost, latency, quality = self._storage_metrics(operator, len(value))
        return value, cost, latency, quality

    def _op_kv_get(self, operator: DataOperator, inputs: list[Any]):
        store = self._require_handle(operator, KeyValueStore)
        value = store.get(operator.params["namespace"], operator.params["key"])
        cost, latency, quality = self._storage_metrics(operator, 1)
        return value, cost, latency, quality

    def _op_select(self, operator: DataOperator, inputs: list[Any]):
        """The rows matching ``{column: {"$" + op: value}}``, as ``find`` would."""
        rows = _rows_input(operator, inputs)
        params = operator.params
        condition = {"$" + params.get("op", "eq"): params.get("value")}
        kept = list(filter(compile_filter({params["column"]: condition}), rows))
        cost, latency, quality = self._storage_metrics(operator, len(rows))
        return kept, cost, latency, quality

    def _op_project(self, operator: DataOperator, inputs: list[Any]):
        rows = _rows_input(operator, inputs)
        columns = operator.params["columns"]
        projected = [{c: row.get(c) for c in columns} for row in rows]
        cost, latency, quality = self._storage_metrics(operator, len(rows))
        return projected, cost, latency, quality

    def _op_join(self, operator: DataOperator, inputs: list[Any]):
        if len(inputs) != 2:
            raise PlanError(f"JOIN operator {operator.op_id!r} needs two inputs")
        left, right = inputs
        left_on = operator.params["left_on"]
        right_on = operator.params["right_on"]
        buckets: dict[Any, list[dict]] = {}
        for row in right:
            buckets.setdefault(row.get(right_on), []).append(row)
        joined = []
        for row in left:
            for match in buckets.get(row.get(left_on), ()):
                merged = dict(match)
                merged.update(row)
                joined.append(merged)
        cost, latency, quality = self._storage_metrics(operator, len(left) + len(right))
        return joined, cost, latency, quality

    def _op_union(self, operator: DataOperator, inputs: list[Any]):
        merged: list[Any] = []
        for value in inputs:
            merged.extend(value if isinstance(value, list) else [value])
        cost, latency, quality = self._storage_metrics(operator, len(merged))
        return merged, cost, latency, quality

    def _op_extract(self, operator: DataOperator, inputs: list[Any]):
        text = operator.params.get("text") or (inputs[0] if inputs else "")
        fields = operator.params.get("fields", ())
        structured, rendered, cost, latency, quality = self._llm_call(
            operator, prompts.extract(str(text), fields)
        )
        return (structured if structured is not None else rendered), cost, latency, quality

    def _op_summarize(self, operator: DataOperator, inputs: list[Any]):
        source = inputs[0] if inputs else operator.params.get("text", "")
        if isinstance(source, list):
            prompt = prompts.describe_rows(source, intro=operator.params.get("intro", "Results"))
        else:
            prompt = prompts.summarize(str(source))
        structured, rendered, cost, latency, quality = self._llm_call(operator, prompt)
        return (structured if structured is not None else rendered), cost, latency, quality

    def _op_verify(self, operator: DataOperator, inputs: list[Any]):
        """Keep only answer items confirmed by a trusted enterprise source.

        The paper's automatic-fact-verifier module (Section III-A) as a
        data-plan operator: an LLM's list answer is checked against the
        distinct values of a relational column (or a graph's node names),
        filtering hallucinations before they reach downstream operators.
        """
        if not inputs:
            raise PlanError(f"operator {operator.op_id!r} needs a list input")
        answer = inputs[0] if isinstance(inputs[0], list) else [inputs[0]]
        choice = operator.choice()
        if choice.source is None:
            raise PlanError(f"operator {operator.op_id!r} needs a source choice")
        handle = self._registry.handle(choice.source, principal=self._principal)
        if isinstance(handle, Database):
            table = operator.params["table"]
            column = operator.params["column"]
            result = handle.execute(f"SELECT DISTINCT {column} FROM {table}")
            trusted = {str(row[column]).lower() for row in result.rows if row[column] is not None}
        elif isinstance(handle, GraphStore):
            trusted = {
                str(node.get("name", "")).lower() for node in handle.nodes()
            }
        else:
            raise PlanError(
                f"operator {operator.op_id!r} cannot verify against "
                f"{type(handle).__name__}"
            )
        verified = [item for item in answer if str(item).lower() in trusted]
        cost, latency, quality = self._storage_metrics(operator, len(answer) + len(trusted))
        return verified, cost, latency, quality

    def _op_vector_search(self, operator: DataOperator, inputs: list[Any]):
        """Embedding retrieval over a collection registered with a vector
        index (the RAG retriever)."""
        choice = operator.choice()
        if choice.source is None:
            raise PlanError(f"operator {operator.op_id!r} needs a source choice")
        collection = self._require_handle(operator, Collection)
        index, field = self._registry.vector_index(choice.source)
        query = operator.params.get("query") or (inputs[0] if inputs else "")
        k = operator.params.get("k", 5)
        hits = index.search(self._registry.embed_query(str(query)), k=k)
        # a stored document is read-only: each hit is a scored copy
        documents = [
            {**collection.get(doc_id), "_score": round(float(score), 4)} for doc_id, score in hits
        ]
        cost, latency, quality = self._storage_metrics(operator, len(index))
        return documents, cost, latency, quality

    def _op_rank(self, operator: DataOperator, inputs: list[Any]):
        rows = _rows_input(operator, inputs)
        by = operator.params["by"]
        descending = operator.params.get("descending", True)
        ranked = sorted(rows, key=lambda row: sort_key(row.get(by)), reverse=descending)
        cost, latency, quality = self._storage_metrics(operator, len(rows))
        return ranked, cost, latency, quality

    def _op_limit(self, operator: DataOperator, inputs: list[Any]):
        rows = _rows_input(operator, inputs)
        n = operator.params["n"]
        cost, latency, quality = self._storage_metrics(operator, len(rows))
        return rows[:n], cost, latency, quality

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _require_handle(self, operator: DataOperator, expected: type) -> Any:
        choice = operator.choice()
        if choice.source is None:
            raise PlanError(f"operator {operator.op_id!r} needs a source choice")
        handle = self._registry.handle(choice.source, principal=self._principal)
        if not isinstance(handle, expected):
            raise PlanError(
                f"operator {operator.op_id!r} expected a {expected.__name__} "
                f"source, got {type(handle).__name__}"
            )
        return handle


def _rows_input(operator: DataOperator, inputs: list[Any]) -> list[dict]:
    if not inputs:
        raise PlanError(f"operator {operator.op_id!r} needs a row-set input")
    rows = inputs[0]
    if not isinstance(rows, list):
        raise PlanError(f"operator {operator.op_id!r} input is not a row set")
    return rows


def _expand_taxonomy(graph: GraphStore, concept: str) -> list[str]:
    """Titles related to *concept* in a title-taxonomy graph.

    Matches a node whose ``name`` equals the concept (case-insensitive),
    then collects the node itself, its ``related`` neighborhood (both
    directions), and its ``specializes`` subtree.
    """
    lowered = concept.strip().lower()
    matches = graph.find_nodes(predicate=lambda n: str(n.get("name", "")).lower() == lowered)
    if not matches:
        matches = graph.find_nodes(
            predicate=lambda n: lowered in str(n.get("name", "")).lower()
        )
    names: list[str] = []
    for node in matches:
        for found in [node, *graph.neighbors(node.node_id, "related", direction="both"),
                      *graph.traverse(node.node_id, "specializes", direction="in")]:
            name = found.get("name")
            if name and name not in names:
                names.append(name)
    return names
