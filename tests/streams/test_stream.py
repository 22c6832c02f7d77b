"""Tests for streams and readers."""

import pytest

from repro.errors import StreamClosedError
from repro.streams import Message, MessageKind, Stream, StreamReader


def message(i: int, kind=MessageKind.DATA, payload=None) -> Message:
    return Message(
        message_id=f"msg-{i}",
        stream_id="s",
        kind=kind,
        payload=payload if payload is not None else i,
    )


class TestStream:
    def test_append_returns_offsets(self):
        stream = Stream("s")
        assert stream.append(message(1)) == 0
        assert stream.append(message(2)) == 1

    def test_len(self):
        stream = Stream("s")
        stream.append(message(1))
        assert len(stream) == 1

    def test_read_from_offset(self):
        stream = Stream("s")
        for i in range(5):
            stream.append(message(i))
        assert [m.payload for m in stream.read(2)] == [2, 3, 4]

    def test_read_with_limit(self):
        stream = Stream("s")
        for i in range(5):
            stream.append(message(i))
        assert [m.payload for m in stream.read(1, limit=2)] == [1, 2]

    def test_read_negative_offset_rejected(self):
        stream = Stream("s")
        for i in range(3):
            stream.append(message(i))
        with pytest.raises(ValueError):
            stream.read(-1)
        with pytest.raises(ValueError):
            stream.read(-2, limit=1)

    def test_history_persists_after_read(self):
        stream = Stream("s")
        stream.append(message(1))
        stream.read(0)
        assert len(stream) == 1  # reading never consumes

    def test_last(self):
        stream = Stream("s")
        assert stream.last() is None
        stream.append(message(1))
        stream.append(message(2))
        assert stream.last().payload == 2

    def test_eos_closes(self):
        stream = Stream("s")
        stream.append(message(1, MessageKind.EOS))
        assert stream.closed
        with pytest.raises(StreamClosedError):
            stream.append(message(2))

    def test_data_payloads_skips_control(self):
        stream = Stream("s")
        stream.append(message(1))
        stream.append(message(2, MessageKind.CONTROL, {"instruction": "X"}))
        stream.append(message(3))
        assert stream.data_payloads() == [1, 3]

    def test_filter(self):
        stream = Stream("s")
        for i in range(4):
            stream.append(message(i))
        assert len(stream.filter(lambda m: m.payload % 2 == 0)) == 2

    def test_iteration(self):
        stream = Stream("s")
        stream.append(message(1))
        assert [m.payload for m in stream] == [1]


class TestStreamReader:
    def test_poll_consumes_incrementally(self):
        stream = Stream("s")
        reader = StreamReader(stream)
        stream.append(message(1))
        assert [m.payload for m in reader.poll()] == [1]
        assert reader.poll() == []
        stream.append(message(2))
        assert [m.payload for m in reader.poll()] == [2]

    def test_poll_with_limit(self):
        stream = Stream("s")
        for i in range(5):
            stream.append(message(i))
        reader = StreamReader(stream)
        assert len(reader.poll(limit=2)) == 2
        assert reader.offset == 2
