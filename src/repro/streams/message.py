"""Messages: the unit of data and control exchanged over streams.

The paper (Section V-A) models everything flowing between components as
messages on streams.  Two kinds exist:

* **data** messages carry payloads between components (user text, rows,
  summaries, plans, ...),
* **control** messages carry instructions (e.g. *execute the SQL agent with
  this input*), letting coordinators drive agents without point-to-point
  coupling.

Messages are immutable once created; tags enable selective consumption
(an agent may listen only to messages tagged ``SQL``).
"""

from __future__ import annotations

import enum
from collections.abc import Mapping  # typing.Mapping's isinstance is ~10x dearer
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Any


class MessageKind(enum.Enum):
    """The role a message plays on a stream."""

    __hash__ = object.__hash__  # singletons: hash by identity, in C, not by Enum's name

    DATA = "data"
    CONTROL = "control"
    EOS = "eos"  # end-of-stream marker


#: Well-known control instructions used by the coordinator and agents.
class Instruction:
    """Names of control instructions exchanged between components."""

    EXECUTE_AGENT = "EXECUTE_AGENT"
    ABORT_PLAN = "ABORT_PLAN"
    REPLAN = "REPLAN"
    ENTER_SESSION = "ENTER_SESSION"
    EXIT_SESSION = "EXIT_SESSION"
    CREATE_STREAM = "CREATE_STREAM"
    BUDGET_VIOLATION = "BUDGET_VIOLATION"


_NO_METADATA: Mapping[str, Any] = MappingProxyType({})


@dataclass(slots=True, init=False)
class Message:
    """An immutable message on a stream.

    Attributes:
        message_id: unique identifier (``msg-000001``).
        stream_id: the stream this message was appended to.
        kind: data, control, or end-of-stream.
        payload: arbitrary content; for control messages a mapping with an
            ``instruction`` key.
        tags: labels enabling selective consumption (e.g. ``{"SQL"}``).
        producer: name of the component that emitted the message.
        timestamp: simulated time of emission.
        metadata: free-form annotations (session id, plan node id, ...): a
            read-only copy of the caller's, or one shared empty mapping.
    """

    message_id: str
    stream_id: str
    kind: MessageKind
    payload: Any
    tags: frozenset[str] = frozenset()
    producer: str = ""
    timestamp: float = 0.0
    metadata: Mapping[str, Any] = field(default_factory=lambda: _NO_METADATA)

    def __init__(
        self, message_id: str, stream_id: str, kind: MessageKind, payload: Any,
        tags: frozenset[str] = frozenset(), producer: str = "", timestamp: float = 0.0,
        metadata: Mapping[str, Any] | None = None,
    ) -> None:
        # ``__setattr__`` refuses: set each slot by its descriptor (the cheapest way).
        s0, s1, s2, s3, s4, s5, s6, s7 = _SLOT_SETTERS
        s0(self, message_id)
        s1(self, stream_id)
        s2(self, kind)
        s3(self, payload)
        s4(self, tags)
        s5(self, producer)
        s6(self, timestamp)
        s7(self, MappingProxyType(dict(metadata)) if metadata else _NO_METADATA)

    def __setattr__(self, name: str, *value: Any) -> None:
        raise AttributeError(f"Message is immutable: cannot set or delete {name!r}")

    __delattr__ = __setattr__

    @property
    def is_data(self) -> bool:
        return self.kind is MessageKind.DATA

    @property
    def is_control(self) -> bool:
        return self.kind is MessageKind.CONTROL

    @property
    def is_eos(self) -> bool:
        return self.kind is MessageKind.EOS

    def instruction(self) -> str | None:
        """Return the control instruction name, or None for data messages."""
        if self.kind is not MessageKind.CONTROL:
            return None
        if isinstance(self.payload, Mapping):
            value = self.payload.get("instruction")
            return str(value) if value is not None else None
        return None

    def addressee(self) -> str | None:
        """The agent an ``EXECUTE_AGENT`` names (a route key), else None."""
        if self.instruction() != Instruction.EXECUTE_AGENT:
            return None
        return self.payload.get("agent")

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    def describe(self) -> str:
        """One-line human-readable rendering, used by traces and examples."""
        tag_text = ",".join(sorted(self.tags)) if self.tags else "-"
        return (
            f"[{self.timestamp:8.3f}s] {self.message_id} {self.kind.value:<7} "
            f"stream={self.stream_id} tags={tag_text} producer={self.producer}"
        )


_SLOT_SETTERS = tuple(getattr(Message, name).__set__ for name in Message.__slots__)


def control_payload(instruction: str, **fields: Any) -> dict[str, Any]:
    """Build the payload mapping for a control message.

    Example:
        >>> control_payload(Instruction.EXECUTE_AGENT, agent="SUMMARIZER")
        {'instruction': 'EXECUTE_AGENT', 'agent': 'SUMMARIZER'}
    """
    payload = {"instruction": instruction}
    payload.update(fields)
    return payload
