"""Tests for QoS specs and budgets."""

import math

import pytest

from repro.clock import SimClock
from repro.core.budget import Budget
from repro.core.qos import QoSSpec


class TestQoSSpec:
    def test_defaults_unconstrained(self):
        qos = QoSSpec.unconstrained()
        assert qos.max_cost == math.inf
        assert qos.admits(1e9, 1e9, 0.0)

    def test_admits(self):
        qos = QoSSpec(max_cost=1.0, max_latency=10.0, min_quality=0.8)
        assert qos.admits(0.5, 5.0, 0.9)
        assert not qos.admits(1.5, 5.0, 0.9)
        assert not qos.admits(0.5, 15.0, 0.9)
        assert not qos.admits(0.5, 5.0, 0.7)

    def test_validation(self):
        with pytest.raises(ValueError):
            QoSSpec(max_cost=-1)
        with pytest.raises(ValueError):
            QoSSpec(min_quality=1.5)
        with pytest.raises(ValueError):
            QoSSpec(objective="vibes")

    def test_factory_methods(self):
        assert QoSSpec.unconstrained() == QoSSpec()
        assert QoSSpec.unconstrained().admits(cost=1e9, latency=1e9, quality=0.0)


class TestBudget:
    def test_charge_accumulates(self):
        budget = Budget()
        budget.charge("a", cost=0.1)
        budget.charge("b", cost=0.2)
        assert budget.spent_cost() == pytest.approx(0.3)

    def test_charge_advances_clock(self):
        clock = SimClock()
        budget = Budget(clock=clock)
        budget.charge("a", latency=1.5)
        assert clock.now() == 1.5
        assert budget.elapsed_latency() == 1.5

    def test_negative_charge_rejected(self):
        with pytest.raises(ValueError):
            Budget().charge("a", cost=-1)

    def test_quality_compounds(self):
        budget = Budget()
        budget.charge("a", quality=0.9)
        budget.charge("b", quality=0.8)
        budget.charge("c")  # no quality recorded
        assert budget.quality_estimate() == pytest.approx(0.72)

    def test_remaining(self):
        budget = Budget(QoSSpec(max_cost=1.0))
        budget.charge("a", cost=0.3)
        assert budget.remaining_cost() == pytest.approx(0.7)

    def test_by_source(self):
        budget = Budget()
        budget.charge("llm", cost=0.1)
        budget.charge("llm", cost=0.1)
        budget.charge("sql", cost=0.05)
        totals = budget.by_source()
        assert totals["llm"] == pytest.approx(0.2)

    def test_violation_cost(self):
        budget = Budget(QoSSpec(max_cost=0.1))
        budget.charge("a", cost=0.2)
        assert budget.violation() == "cost"

    def test_violation_latency(self):
        budget = Budget(QoSSpec(max_latency=1.0))
        budget.charge("a", latency=2.0)
        assert budget.violation() == "latency"

    def test_violation_quality(self):
        budget = Budget(QoSSpec(min_quality=0.9))
        budget.charge("a", quality=0.5)
        assert budget.violation() == "quality"

    def test_no_violation(self):
        budget = Budget(QoSSpec(max_cost=1.0, max_latency=10.0, min_quality=0.5))
        budget.charge("a", cost=0.1, latency=1.0, quality=0.9)
        assert budget.violation() is None

    def test_summary(self):
        budget = Budget()
        budget.charge("a", cost=0.1, quality=0.9)
        summary = budget.summary()
        assert summary["cost"] == pytest.approx(0.1)
        assert summary["charges"] == 1.0

    def test_latency_measured_from_budget_start(self):
        clock = SimClock()
        clock.advance(100.0)
        budget = Budget(clock=clock)
        clock.advance(2.0)
        assert budget.elapsed_latency() == pytest.approx(2.0)
