"""Tests for the message model."""

import pytest

from repro.clock import SimClock
from repro.streams import Instruction, Message, MessageKind, StreamStore, control_payload
from repro.streams.persistence import export_store


def make(kind=MessageKind.DATA, payload="hello", tags=frozenset(), **kwargs):
    return Message(
        message_id="msg-1",
        stream_id="s-1",
        kind=kind,
        payload=payload,
        tags=frozenset(tags),
        **kwargs,
    )


class TestMessage:
    def test_kind_predicates(self):
        assert make(MessageKind.DATA).is_data
        assert make(MessageKind.CONTROL).is_control
        assert make(MessageKind.EOS).is_eos
        assert not make(MessageKind.DATA).is_control

    def test_instruction_on_control(self):
        message = make(MessageKind.CONTROL, control_payload(Instruction.EXECUTE_AGENT, agent="A"))
        assert message.instruction() == Instruction.EXECUTE_AGENT

    def test_instruction_on_data_is_none(self):
        assert make(MessageKind.DATA).instruction() is None

    def test_instruction_on_non_mapping_control(self):
        assert make(MessageKind.CONTROL, payload="raw").instruction() is None

    def test_has_tag(self):
        message = make(tags={"SQL", "NLQ"})
        assert message.has_tag("SQL")
        assert not message.has_tag("PLAN")

    def test_describe_renders_one_line(self):
        line = make(tags={"B", "A"}, producer="P", timestamp=1.25).describe()
        assert "msg-1" in line
        assert "A,B" in line  # tags sorted
        assert "producer=P" in line

    def test_immutability(self):
        message = make()
        try:
            message.payload = "other"
            raised = False
        except AttributeError:
            raised = True
        assert raised

    def test_control_payload_builder(self):
        payload = control_payload("X", a=1, b="two")
        assert payload == {"instruction": "X", "a": 1, "b": "two"}


class TestMessageContract:
    """A message is one slotted, immutable object compared by its fields."""

    def test_assignment_and_deletion_raise(self):
        message = make()
        with pytest.raises(AttributeError):
            message.producer = "other"
        with pytest.raises(AttributeError):
            message.extra = 1
        with pytest.raises(AttributeError):
            del message.payload
        assert message.payload == "hello"

    def test_no_instance_dict(self):
        assert not hasattr(make(), "__dict__")

    def test_equality_compares_fields(self):
        assert make(producer="p", metadata={"a": 1}) == make(producer="p", metadata={"a": 1})
        assert make(producer="p") != make(producer="q")
        assert make(metadata={"a": 1}) != make(metadata={"a": 2})
        assert make() != make(MessageKind.CONTROL)

    def test_absent_metadata_exports_as_empty_dict(self):
        store = StreamStore(SimClock())
        store.create_stream("s")
        message = store.publish_data("s", 1)
        assert dict(message.metadata) == {}
        with pytest.raises(TypeError):
            message.metadata["node"] = "n1"  # read-only, and shared by every such message
        assert export_store(store)["messages"][0]["metadata"] == {}

    def test_caller_metadata_is_copied(self):
        store = StreamStore(SimClock())
        store.create_stream("s")
        metadata = {"node": "n1"}
        message = store.publish_data("s", 1, metadata=metadata)
        metadata["node"] = "changed"
        metadata["extra"] = True
        assert dict(message.metadata) == {"node": "n1"}
        assert export_store(store)["messages"][0]["metadata"] == {"node": "n1"}

    def test_addressee_is_the_agent_an_execute_names(self):
        execute = make(MessageKind.CONTROL, control_payload(Instruction.EXECUTE_AGENT, agent="A"))
        assert execute.addressee() == "A"
        for other in (
            make(MessageKind.CONTROL, control_payload(Instruction.ENTER_SESSION, agent="A")),
            make(MessageKind.CONTROL, control_payload("AGENT_ERROR", agent="A")),
            make(MessageKind.DATA, {"instruction": Instruction.EXECUTE_AGENT, "agent": "A"}),
            make(MessageKind.CONTROL, payload="raw"),
        ):
            assert other.addressee() is None
