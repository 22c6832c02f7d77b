"""Flow tracing: turning the raw message trace into readable step sequences.

Figures 9 and 10 in the paper show numbered flows ("Step 1: user clicks ...,
Step 2: Agentic Employer emits ...").  :class:`FlowTrace` reconstructs such
sequences from the stream store's global trace so the benchmarks can print
and assert on the same steps the figures show.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable

from .message import Message
from .store import StreamStore


@dataclass(frozen=True)
class FlowStep:
    """One numbered step in a reconstructed flow."""

    index: int
    actor: str
    action: str
    stream_id: str
    message_id: str
    timestamp: float

    def render(self) -> str:
        return f"Step {self.index}: {self.actor} {self.action} (stream={self.stream_id})"


class FlowTrace:
    """Reconstructs actor/action step sequences from a message trace."""

    def __init__(self, store: StreamStore) -> None:
        self._store = store
        self._mark = store.mark()

    def mark(self) -> None:
        """Restart the window: only messages published after this are traced."""
        self._mark = self._store.mark()

    def window(self) -> list[Message]:
        """Messages published since construction (or the last mark)."""
        return self._store.trace_since(self._mark)

    def steps(
        self,
        describe: Callable[[Message], str | None] | None = None,
        producers: Iterable[str] | None = None,
    ) -> list[FlowStep]:
        """Turn the window into numbered steps.

        Args:
            describe: optional mapper from message to an action string;
                returning None drops the message from the flow.  Defaults to
                a generic description from kind/tags.
            producers: if given, only messages from these producers are kept.
        """
        wanted = set(producers) if producers is not None else None
        steps: list[FlowStep] = []
        for message in self.window():
            if wanted is not None and message.producer not in wanted:
                continue
            if describe is not None:
                action = describe(message)
                if action is None:
                    continue
            else:
                action = self._default_action(message)
            steps.append(
                FlowStep(
                    index=len(steps) + 1,
                    actor=message.producer or "?",
                    action=action,
                    stream_id=message.stream_id,
                    message_id=message.message_id,
                    timestamp=message.timestamp,
                )
            )
        return steps

    def render(self, **kwargs) -> str:
        """Multi-line rendering of the numbered flow."""
        return "\n".join(step.render() for step in self.steps(**kwargs))

    def actors(self) -> list[str]:
        """Distinct producers in window order of first appearance."""
        seen: list[str] = []
        for message in self.window():
            if message.producer and message.producer not in seen:
                seen.append(message.producer)
        return seen

    @staticmethod
    def _default_action(message: Message) -> str:
        if message.is_control:
            instruction = message.instruction() or "control"
            return f"emits control {instruction}"
        if message.is_eos:
            return "closes stream"
        tag_text = ",".join(sorted(message.tags)) if message.tags else "untagged"
        return f"emits data [{tag_text}]"
