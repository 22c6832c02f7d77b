"""Streams: ordered, persisted sequences of messages.

A stream is "a sequence of messages, containing data or instructions, that
can be dynamically produced, distributed, monitored, and consumed"
(Section V-A).  Streams are first-class data resources: the full message
history stays readable after consumption, which is what gives the
architecture its observability.
"""

from __future__ import annotations

from typing import Any, Callable, Iterator

from ..errors import StreamClosedError
from .message import Message, MessageKind


class Stream:
    """An append-only message log with offset-based readers.

    Streams are created through a :class:`~repro.streams.store.StreamStore`,
    which owns id generation and subscriber dispatch; the stream itself only
    stores messages and its own lifecycle state.  The store is the one
    writer and appends under its own lock; a read is one list operation,
    atomic under the GIL, so it needs no lock of the stream's own.
    """

    def __init__(
        self,
        stream_id: str,
        tags: frozenset[str] = frozenset(),
        creator: str = "",
        created_at: float = 0.0,
    ) -> None:
        self.stream_id = stream_id
        self.tags = tags
        self.creator = creator
        self.created_at = created_at
        self._messages: list[Message] = []
        self._closed = False

    @property
    def closed(self) -> bool:
        return self._closed

    def __len__(self) -> int:
        return len(self._messages)

    def ensure_open(self) -> None:
        """Raise :class:`StreamClosedError` once the stream has seen its EOS."""
        if self._closed:
            raise StreamClosedError(
                f"cannot append to closed stream {self.stream_id!r}"
            )

    def append(self, message: Message) -> int:
        """Append *message*; returns its offset. Raises if the stream closed."""
        self.ensure_open()
        self._messages.append(message)
        if message.kind is MessageKind.EOS:
            self._closed = True
        return len(self._messages) - 1

    def read(self, offset: int = 0, limit: int | None = None) -> list[Message]:
        """Messages starting at *offset* (persisted history stays readable)."""
        if offset < 0:
            raise ValueError(f"offset must be non-negative: {offset}")
        if limit is None:
            return self._messages[offset:]
        return self._messages[offset : offset + limit]

    def last(self) -> Message | None:
        """The most recent message, or None on an empty stream."""
        return self._messages[-1] if self._messages else None

    def messages(self) -> list[Message]:
        """A snapshot of the full history."""
        return self.read(0)

    def data_payloads(self) -> list[Any]:
        """Payloads of all data messages, in order."""
        return [m.payload for m in self.messages() if m.is_data]

    def filter(self, predicate: Callable[[Message], bool]) -> list[Message]:
        """Messages satisfying *predicate*."""
        return [m for m in self.messages() if predicate(m)]

    def __iter__(self) -> Iterator[Message]:
        return iter(self.messages())


class StreamReader:
    """A stateful cursor over a stream for polling consumers.

    Event-driven components subscribe through the store; batch components
    (tests, renderers, summarizers over history) use a reader instead:

        >>> # doctest setup omitted; usage shape:
        >>> # reader = StreamReader(stream)
        >>> # new_messages = reader.poll()
    """

    def __init__(self, stream: Stream) -> None:
        self._stream = stream
        self._offset = 0

    @property
    def offset(self) -> int:
        return self._offset

    def poll(self, limit: int | None = None) -> list[Message]:
        """Return (and consume) messages appended since the last poll."""
        batch = self._stream.read(self._offset, limit)
        self._offset += len(batch)
        return batch
