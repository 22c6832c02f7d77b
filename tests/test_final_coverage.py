"""Last-mile coverage for small public surfaces."""

import pytest

from repro.core.budget import Budget
from repro.core.context import AgentContext
from repro.core.deployment import ResourceProfile
from repro.core.params import Parameter


class TestContextExtras:
    def test_charge_noop_without_budget(self, store, session, clock):
        context = AgentContext(store=store, session=session, clock=clock)
        context.charge("x", cost=1.0)  # silently ignored, no budget attached

    def test_charge_records_with_budget(self, store, session, clock):
        budget = Budget(clock=clock)
        context = AgentContext(
            store=store, session=session, clock=clock, budget=budget
        )
        context.charge("x", cost=0.5)
        assert budget.spent_cost() == 0.5


class TestResourceProfileEdges:
    def test_exact_fit(self):
        profile = ResourceProfile(cpu=2, gpu=1, memory_gb=4)
        assert profile.fits_into(ResourceProfile(cpu=2, gpu=1, memory_gb=4))

    def test_zero_profile_fits_anywhere(self):
        zero = ResourceProfile(cpu=0, gpu=0, memory_gb=0)
        assert zero.fits_into(ResourceProfile(cpu=1, gpu=0, memory_gb=1))


class TestParameterDefaults:
    def test_non_required_default_none(self):
        parameter = Parameter("X", "text", required=False)
        assert parameter.default is None

    def test_describe_round(self):
        parameter = Parameter("X", "rows", "many rows", required=False, default=[])
        described = parameter.describe()
        assert described == {
            "name": "X", "type": "rows", "description": "many rows",
            "required": False, "default": [],
        }


class TestSessionEnsureStreamAfterClose:
    def test_ensure_existing_on_closed_session_ok(self, session):
        stream = session.create_stream("keep")
        session.close()
        # Existing streams remain reachable; creating new ones fails.
        assert session.ensure_stream("keep") is stream
        from repro.errors import SessionError

        with pytest.raises(SessionError):
            session.ensure_stream("brand-new")
