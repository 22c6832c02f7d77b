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
from typing import Any


class MessageKind(enum.Enum):
    """The role a message plays on a stream."""

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


@dataclass(frozen=True)
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
        metadata: free-form annotations (session id, plan node id, ...).
    """

    message_id: str
    stream_id: str
    kind: MessageKind
    payload: Any
    tags: frozenset[str] = frozenset()
    producer: str = ""
    timestamp: float = 0.0
    metadata: Mapping[str, Any] = field(default_factory=dict)

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

    def has_tag(self, tag: str) -> bool:
        return tag in self.tags

    def describe(self) -> str:
        """One-line human-readable rendering, used by traces and examples."""
        tag_text = ",".join(sorted(self.tags)) if self.tags else "-"
        return (
            f"[{self.timestamp:8.3f}s] {self.message_id} {self.kind.value:<7} "
            f"stream={self.stream_id} tags={tag_text} producer={self.producer}"
        )


def control_payload(instruction: str, **fields: Any) -> dict[str, Any]:
    """Build the payload mapping for a control message.

    Example:
        >>> control_payload(Instruction.EXECUTE_AGENT, agent="SUMMARIZER")
        {'instruction': 'EXECUTE_AGENT', 'agent': 'SUMMARIZER'}
    """
    payload = {"instruction": instruction}
    payload.update(fields)
    return payload
