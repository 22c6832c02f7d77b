"""Integration: failure injection and recovery (Section VII, Reliability)."""

import pytest

from repro.core.agent import FunctionAgent
from repro.core.context import AgentContext
from repro.core.deployment import Cluster, ResourceProfile, Supervisor
from repro.core.factory import AgentFactory
from repro.core.params import Parameter
from repro.errors import LLMError
from repro.hr.apps import AgenticEmployerApp
from repro.llm import ModelCatalog


class TestContainerRecovery:
    def test_pipeline_survives_restart(self, store, session, clock, catalog):
        """Kill the middle of a tag chain; the supervisor restores service."""
        factory = AgentFactory()
        factory.register(
            "UPPER",
            lambda **kw: FunctionAgent(
                "UPPER", lambda i: {"OUT": i["IN"].upper()},
                inputs=(Parameter("IN", "text"),), outputs=(Parameter("OUT", "text"),),
                listen_tags=("RAW",), **kw,
            ),
        )

        def context_factory():
            return AgentContext(store=store, session=session, clock=clock, catalog=catalog)

        cluster = Cluster("c")
        cluster.add_node(ResourceProfile(cpu=4, gpu=0, memory_gb=8))
        container = cluster.deploy("upper", factory, context_factory, (("UPPER", {}),))
        supervisor = Supervisor(cluster)

        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, "a", tags=("RAW",))
        container.fail()
        store.publish_data(user.stream_id, "b", tags=("RAW",))  # lost: crashed
        supervisor.tick()
        store.publish_data(user.stream_id, "c", tags=("RAW",))
        out = store.get_stream(session.stream_id("upper:out"))
        assert out.data_payloads() == ["A", "C"]
        assert supervisor.recoveries == 1

    def test_repeated_failures(self, store, session, clock, catalog):
        factory = AgentFactory()
        factory.register(
            "ECHO",
            lambda **kw: FunctionAgent(
                "ECHO", lambda i: {"OUT": i["IN"]},
                inputs=(Parameter("IN", "text"),), outputs=(Parameter("OUT", "text"),),
                listen_tags=("GO",), **kw,
            ),
        )

        def context_factory():
            return AgentContext(store=store, session=session, clock=clock, catalog=catalog)

        cluster = Cluster("c")
        cluster.add_node(ResourceProfile(cpu=4, gpu=0, memory_gb=8))
        container = cluster.deploy("echo", factory, context_factory, (("ECHO", {}),))
        supervisor = Supervisor(cluster)
        for _ in range(3):
            container.fail()
            supervisor.tick()
        assert container.restarts == 3
        assert container.state == "running"


class TestLLMFailures:
    def test_flaky_model_raises_transiently(self, clock):
        catalog = ModelCatalog(clock=clock)
        catalog.default_failure_rate = 0.4
        flaky = catalog.client("mega-s")
        outcomes = []
        for i in range(30):
            try:
                flaky.complete(f"prompt {i}")
                outcomes.append(True)
            except LLMError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)

    def test_agent_error_does_not_crash_the_app(self, enterprise):
        """An agent whose processor raises reports AGENT_ERROR; the app
        keeps serving later turns."""
        app = AgenticEmployerApp(enterprise=enterprise)

        original = app.nl2q.processor
        calls = {"n": 0}

        def flaky_processor(inputs):
            calls["n"] += 1
            if calls["n"] == 1:
                raise RuntimeError("transient NL2Q outage")
            return original(inputs)

        app.nl2q.processor = flaky_processor
        first = app.say("how many applicants have python skills?")
        assert first == "(no response)"
        assert app.nl2q.failures == 1 or app.nl2q.last_error is not None
        second = app.say("how many applicants have python skills?")
        assert "row" in second

    def test_coordinator_retry_recovers_flaky_agent(self, store, session, clock, catalog):
        from repro.core.coordinator import TaskCoordinator
        from repro.core.plan import Binding, TaskPlan

        attempts = {"n": 0}

        def flaky(inputs):
            attempts["n"] += 1
            if attempts["n"] < 2:
                raise RuntimeError("boom")
            return {"OUT": "recovered"}

        agent = FunctionAgent(
            "FLAKY", flaky, inputs=(Parameter("IN", "text"),),
            outputs=(Parameter("OUT", "text"),),
        )
        coordinator = TaskCoordinator(max_node_retries=2)
        for a in (agent, coordinator):
            a.attach(AgentContext(store=store, session=session, clock=clock, catalog=catalog))
        plan = TaskPlan("p")
        plan.add_step("s1", "FLAKY", {"IN": Binding.const("x")})
        run = coordinator.execute_plan(plan)
        assert run.status == "completed"
        assert run.final_outputs() == {"OUT": "recovered"}
        assert attempts["n"] == 2
