"""Cost model: estimated cost/latency/quality per data-plan operator.

The optimizer needs pre-execution estimates; the executor needs actual
charges.  Both draw on the same constants here so that estimates track
actuals — the property that makes budget projections meaningful.

LLM-backed operators derive their numbers from the chosen model's spec
(token pricing, latency model, quality).  Storage-backed operators use
per-row micro-costs calibrated to an in-memory engine.
"""

from __future__ import annotations

from dataclasses import dataclass

from ...errors import OptimizationError
from ...llm import ModelCatalog
from ..plan.data_plan import DataOperator, Op, OperatorChoice

#: Fixed per-operator latencies (seconds) for storage-backed operators.
BASE_LATENCY = {
    Op.DISCOVER: 0.002,
    Op.SQL: 0.001,
    Op.DOC_FIND: 0.001,
    Op.GRAPH_QUERY: 0.001,
    Op.TAXONOMY: 0.001,
    Op.KV_GET: 0.0002,
    Op.SELECT: 0.0005,
    Op.PROJECT: 0.0002,
    Op.JOIN: 0.002,
    Op.UNION: 0.0002,
    Op.RANK: 0.0005,
    Op.LIMIT: 0.0001,
    Op.VERIFY: 0.001,
    Op.VECTOR_SEARCH: 0.002,
}

#: Marginal latency per input/output row for storage-backed operators.
PER_ROW_LATENCY = 1e-5

#: Infrastructure cost (dollars) per storage operator execution — tiny but
#: nonzero so cost-optimal plans still prefer fewer operators.
STORAGE_OP_COST = 1e-6

#: Typical token footprints for LLM-backed operators, used for estimation
#: (actual calls meter real tokens).
LLM_TOKEN_ESTIMATES = {
    Op.LLM_CALL: (24, 40),
    Op.Q2NL: (20, 15),
    Op.NL2Q: (60, 30),
    Op.EXTRACT: (50, 25),
    Op.SUMMARIZE: (220, 60),
    # TAXONOMY is storage-backed when its choice names a graph source and
    # LLM-backed when it names a model; the estimator dispatches on that.
    Op.TAXONOMY: (20, 30),
}

#: Operators that run on a model when their choice names one.
LLM_OPS = frozenset(LLM_TOKEN_ESTIMATES)


@dataclass(frozen=True)
class OpEstimate:
    """Estimated execution profile of one operator under one choice."""

    cost: float
    latency: float
    quality: float

    def dominates(self, other: "OpEstimate") -> bool:
        """Pareto dominance: at least as good everywhere, better somewhere."""
        at_least = (
            self.cost <= other.cost
            and self.latency <= other.latency
            and self.quality >= other.quality
        )
        strictly = (
            self.cost < other.cost
            or self.latency < other.latency
            or self.quality > other.quality
        )
        return at_least and strictly


class CostModel:
    """Estimates operator execution profiles from catalog + registry stats."""

    def __init__(self, catalog: ModelCatalog) -> None:
        self._catalog = catalog

    def estimate(
        self,
        operator: DataOperator,
        choice: OperatorChoice,
        rows_in: int = 100,
    ) -> OpEstimate:
        """Profile of running *operator* with *choice* on ~rows_in rows."""
        if operator.op in LLM_OPS and choice.model is not None:
            return self._estimate_llm(operator, choice)
        if operator.op in BASE_LATENCY:
            latency = BASE_LATENCY[operator.op] + rows_in * PER_ROW_LATENCY
            return OpEstimate(cost=STORAGE_OP_COST, latency=latency, quality=1.0)
        if operator.op in LLM_OPS:
            # LLM-shaped operator without a model: treated as a pure
            # rule-based transform (e.g. deterministic Q2NL templating).
            return OpEstimate(cost=STORAGE_OP_COST, latency=0.0005, quality=1.0)
        raise OptimizationError(f"no cost model for operator {operator.op}")

    def _estimate_llm(self, operator: DataOperator, choice: OperatorChoice) -> OpEstimate:
        spec = self._catalog.spec(choice.model)
        input_tokens, output_tokens = LLM_TOKEN_ESTIMATES[operator.op]
        domain = operator.params.get("domain", "general")
        return OpEstimate(
            cost=spec.cost_of(input_tokens, output_tokens),
            latency=spec.latency_of(input_tokens, output_tokens),
            quality=spec.quality_for(domain),
        )

    def estimates_for(self, operator: DataOperator) -> list[tuple[OperatorChoice, OpEstimate]]:
        """All (choice, estimate) pairs for an operator."""
        choices = operator.choices or (operator.choice(),)
        return [(choice, self.estimate(operator, choice)) for choice in choices]
