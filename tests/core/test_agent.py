"""Tests for the Agent base class: activation, triggering, emission."""

import pytest

from repro.core.agent import Agent, FunctionAgent
from repro.core.context import AgentContext
from repro.core.params import Parameter
from repro.errors import AgentError
from repro.streams import Instruction


@pytest.fixture
def doubler(context):
    agent = FunctionAgent(
        "DOUBLER",
        lambda i: {"RESULT": i["VALUE"] * 2},
        inputs=(Parameter("VALUE", "number"),),
        outputs=(Parameter("RESULT", "number"),),
        listen_tags=("NUM",),
    )
    agent.attach(context)
    return agent


class TestLifecycle:
    def test_attach_enters_session(self, doubler, session):
        assert "DOUBLER" in session.participants()

    def test_double_attach_rejected(self, doubler, context):
        with pytest.raises(AgentError):
            doubler.attach(context)

    def test_detach_exits_and_unsubscribes(self, doubler, session, store):
        doubler.detach()
        assert "DOUBLER" not in session.participants()
        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, 5, tags=("NUM",))
        assert doubler.activations == 0

    def test_unattached_agent_cannot_emit(self):
        agent = FunctionAgent("X", lambda i: None)
        with pytest.raises(AgentError):
            agent.emit("OUT", 1)

    def test_crash_stops_listening_without_exit(self, doubler, session, store):
        doubler.crash()
        assert "DOUBLER" in session.participants()  # zombie: no exit signal
        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, 5, tags=("NUM",))
        assert doubler.activations == 0


class TestTagActivation:
    def test_fires_on_matching_tag(self, doubler, session, store):
        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, 21, tags=("NUM",), producer="user")
        out = store.get_stream(session.stream_id("doubler:result"))
        assert out.data_payloads() == [42]
        assert doubler.activations == 1

    def test_ignores_non_matching_tag(self, doubler, session, store):
        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, 21, tags=("TEXT",))
        assert doubler.activations == 0

    def test_ignores_own_output(self, context, session, store):
        """An agent listening to a tag it also emits must not self-trigger."""
        agent = FunctionAgent(
            "ECHO",
            lambda i: {"OUT": i["IN"]},
            inputs=(Parameter("IN", "text"),),
            outputs=(Parameter("OUT", "text"),),
            listen_tags=("OUT",),
        )
        agent.attach(context)
        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, "x", tags=("OUT",), producer="user")
        assert agent.activations == 1  # only the user message, not its own

    def test_exclude_tags(self, context, session, store):
        agent = FunctionAgent(
            "PICKY",
            lambda i: {"OUT": 1},
            inputs=(Parameter("IN", "text"),),
            outputs=(Parameter("OUT", "number"),),
            listen_tags=("GO",),
            exclude_tags=("DRAFT",),
        )
        agent.attach(context)
        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, "x", tags=("GO", "DRAFT"))
        store.publish_data(user.stream_id, "y", tags=("GO",))
        assert agent.activations == 1

    def test_session_scoping(self, doubler, store):
        """Messages in another session never reach this agent."""
        other = store.create_stream("othersession:user")
        store.publish_data(other.stream_id, 5, tags=("NUM",))
        assert doubler.activations == 0


class TestControlActivation:
    def test_execute_agent_instruction(self, doubler, session, store):
        store.publish_control(
            session.session_stream.stream_id,
            Instruction.EXECUTE_AGENT,
            agent="DOUBLER",
            inputs={"VALUE": 5},
        )
        out = store.get_stream(session.stream_id("doubler:result"))
        assert out.data_payloads() == [10]

    def test_addressed_to_other_agent_ignored(self, doubler, session, store):
        store.publish_control(
            session.session_stream.stream_id,
            Instruction.EXECUTE_AGENT,
            agent="OTHER",
            inputs={"VALUE": 5},
        )
        assert doubler.activations == 0

    def test_input_refs_resolved_from_stream(self, doubler, session, store):
        data = session.create_stream("data", creator="user")
        store.publish_data(data.stream_id, 50)
        store.publish_control(
            session.session_stream.stream_id,
            Instruction.EXECUTE_AGENT,
            agent="DOUBLER",
            input_refs={"VALUE": data.stream_id},
        )
        out = store.get_stream(session.stream_id("doubler:result"))
        assert out.data_payloads() == [100]

    def test_node_metadata_propagates_to_outputs(self, doubler, session, store):
        store.publish_control(
            session.session_stream.stream_id,
            Instruction.EXECUTE_AGENT,
            agent="DOUBLER",
            inputs={"VALUE": 1},
            node="step3",
        )
        out = store.get_stream(session.stream_id("doubler:result"))
        assert out.last().metadata["node"] == "step3"

    def test_output_stream_override(self, doubler, session, store):
        target = session.create_stream("target", creator="user")
        store.publish_control(
            session.session_stream.stream_id,
            Instruction.EXECUTE_AGENT,
            agent="DOUBLER",
            inputs={"VALUE": 2},
            output_stream=target.stream_id,
        )
        assert target.data_payloads() == [4]


class TestAddressedActivation:
    """A control message reaches only the agent it names: the route table
    drops the rest, so ``_on_control`` never sees a message to ignore."""

    @pytest.fixture
    def agents(self, context):
        names = ("A1", "A2", "A3", "A4")
        return [FunctionAgent(name, lambda inputs: None).attach(context) for name in names]

    @staticmethod
    def deliveries(store, publish):
        before = store._delivery_count
        publish()
        return store._delivery_count - before

    def test_only_the_addressee_is_delivered(self, agents, session, store):
        session_stream = session.session_stream.stream_id
        ceremony = [
            lambda: session.enter("LATECOMER"),
            lambda: session.create_stream("extra"),
            lambda: store.publish_control(session_stream, "AGENT_ERROR", agent="A1", error="x"),
            lambda: store.publish_control(
                session_stream, Instruction.EXECUTE_AGENT, agent="ELSEWHERE"
            ),
        ]
        assert [self.deliveries(store, publish) for publish in ceremony] == [0, 0, 0, 0]
        addressed = self.deliveries(
            store,
            lambda: store.publish_control(session_stream, Instruction.EXECUTE_AGENT, agent="A3"),
        )
        assert addressed == 1
        assert [agent.activations for agent in agents] == [0, 0, 1, 0]

    def test_fleet_deliveries_are_activations_plus_data(self, monkeypatch):
        """The golden's 6-plan serial fleet delivers nothing no agent acts on."""
        from repro.cli import _fleet_agents, _fleet_plan
        from repro.core.fleet import FleetSubmission
        from repro.core.runtime import Blueprint

        data_deliveries = []
        on_data = Agent._on_data
        monkeypatch.setattr(
            Agent, "_on_data", lambda self, m: (data_deliveries.append(m), on_data(self, m))
        )
        blueprint = Blueprint()
        submissions = [
            FleetSubmission(plan=_fleet_plan(index), agents=_fleet_agents(blueprint.catalog, index))
            for index in range(6)
        ]
        blueprint.run_fleet(submissions, max_inflight=3, single_flight=False, backend="serial")
        snapshot = blueprint.observability.metrics.snapshot()
        activations = sum(
            value for key, value in snapshot.items() if key.startswith("agent.activations")
        )
        assert activations == 24
        assert snapshot["stream.deliveries"] == activations + len(data_deliveries)


class TestErrorHandling:
    def test_processor_error_reported_not_raised(self, context, session, store):
        def boom(inputs):
            raise ValueError("kaput")

        agent = FunctionAgent(
            "BOOM", boom, inputs=(Parameter("IN", "text"),), listen_tags=("GO",)
        )
        agent.attach(context)
        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, "x", tags=("GO",))
        assert agent.failures == 1
        assert agent.last_error == "kaput"
        errors = [
            m for m in store.trace()
            if m.is_control and m.instruction() == "AGENT_ERROR"
        ]
        assert len(errors) == 1

    def test_undeclared_output_rejected(self, context, session, store):
        agent = FunctionAgent(
            "SNEAKY",
            lambda i: {"UNDECLARED": 1},
            inputs=(Parameter("IN", "text"),),
            outputs=(Parameter("OUT", "number"),),
            listen_tags=("GO",),
        )
        agent.attach(context)
        user = session.create_stream("user", creator="user")
        with pytest.raises(AgentError, match="undeclared"):
            store.publish_data(user.stream_id, "x", tags=("GO",))

    def test_validation_failure_counts_as_failure(self, doubler, session, store):
        store.publish_control(
            session.session_stream.stream_id,
            Instruction.EXECUTE_AGENT,
            agent="DOUBLER",
            inputs={"WRONG_PARAM": 5},
        )
        assert doubler.failures == 1


class TestWorkerPool:
    def test_threaded_execution_with_drain(self, context, session, store):
        agent = FunctionAgent(
            "WORKER",
            lambda i: {"OUT": i["IN"] + 1},
            inputs=(Parameter("IN", "number"),),
            outputs=(Parameter("OUT", "number"),),
            listen_tags=("GO",),
            workers=2,
        )
        agent.attach(context)
        user = session.create_stream("user", creator="user")
        for i in range(5):
            store.publish_data(user.stream_id, i, tags=("GO",))
        agent.drain()
        out = store.get_stream(session.stream_id("worker:out"))
        assert sorted(out.data_payloads()) == [1, 2, 3, 4, 5]

    def test_negative_workers_rejected(self):
        with pytest.raises(AgentError):
            FunctionAgent("X", lambda i: None, workers=-1)


class TestLLMAccess:
    def test_complete_charges_budget(self, store, session, clock, catalog):
        from repro.core.budget import Budget

        budget = Budget(clock=clock)
        context = AgentContext(
            store=store, session=session, clock=clock, catalog=catalog, budget=budget
        )

        class Asker(Agent):
            name = "ASKER"
            inputs = (Parameter("Q", "text"),)
            outputs = (Parameter("A", "text"),)
            listen_tags = ("ASK",)

            def processor(self, inputs):
                response = self.complete("hello model")
                return {"A": response.text}

        agent = Asker()
        agent.attach(context)
        user = session.create_stream("user", creator="user")
        store.publish_data(user.stream_id, "hi", tags=("ASK",))
        assert budget.spent_cost() > 0
        assert budget.charges()[0].quality is not None

    def test_complete_without_catalog(self, store, session, clock):
        context = AgentContext(store=store, session=session, clock=clock)
        agent = FunctionAgent("X", lambda i: None)
        agent.attach(context)
        with pytest.raises(AgentError, match="catalog"):
            agent.complete("hi")


class TestDescribe:
    def test_describe_shape(self, doubler):
        described = doubler.describe()
        assert described["name"] == "DOUBLER"
        assert described["inputs"][0]["name"] == "VALUE"
        assert described["listen_tags"] == ["NUM"]
