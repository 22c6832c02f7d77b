"""Stream persistence: export and replay of the streams database.

The blueprint's streams are durable ("represent and persist the flow [of]
data and control", Section III-B).  This module serializes a store's full
state to JSON-able records and rebuilds a store from them — replayed
stores reproduce every stream and message for post-hoc analysis without
re-triggering subscribers.
"""

from __future__ import annotations

import json
from typing import Any, Mapping

from ..clock import SimClock
from .message import Message, MessageKind
from .store import StreamStore


def message_record(message: Message) -> dict[str, Any]:
    """One message as a JSON-able record: the export's and a replica log's form."""
    return {
        "message_id": message.message_id,
        "stream_id": message.stream_id,
        "kind": message.kind.value,
        "payload": message.payload,
        "tags": sorted(message.tags),
        "producer": message.producer,
        "timestamp": message.timestamp,
        "metadata": dict(message.metadata),
    }


def message_from(record: Mapping[str, Any]) -> Message:
    """The :class:`Message` a :func:`message_record` holds."""
    return Message(
        message_id=record["message_id"],
        stream_id=record["stream_id"],
        kind=MessageKind(record["kind"]),
        payload=record["payload"],
        tags=frozenset(record.get("tags", ())),
        producer=record.get("producer", ""),
        timestamp=record.get("timestamp", 0.0),
        metadata=dict(record.get("metadata", {})),
    )


def export_store(store: StreamStore) -> dict[str, Any]:
    """All streams and messages as one JSON-able mapping."""
    streams = []
    for stream_id in store.list_streams():
        stream = store.get_stream(stream_id)
        streams.append(
            {
                "stream_id": stream.stream_id,
                "tags": sorted(stream.tags),
                "creator": stream.creator,
                "created_at": stream.created_at,
            }
        )
    messages = [message_record(message) for message in store.trace()]
    return {"clock": store.clock.now(), "streams": streams, "messages": messages}


def export_json(store: StreamStore) -> str:
    """The export as a JSON string (for files and logs)."""
    return json.dumps(export_store(store), default=str)


def replay_store(snapshot: Mapping[str, Any]) -> StreamStore:
    """Rebuild a store from an export.

    Messages are appended directly to their streams and the trace —
    subscribers are *not* re-triggered; a replayed store is an archive,
    not a live re-execution.
    """
    store = StreamStore(SimClock(float(snapshot.get("clock", 0.0))))
    for spec in snapshot.get("streams", []):
        stream = store.create_stream(
            spec["stream_id"], tags=spec.get("tags", ()), creator=spec.get("creator", "")
        )
        stream.created_at = spec.get("created_at", 0.0)
    for record in snapshot.get("messages", []):
        message = message_from(record)
        store.ensure_stream(message.stream_id).append(message)
        store._record(message)  # archive path: bypass live dispatch
    return store


def replay_json(text: str) -> StreamStore:
    return replay_store(json.loads(text))
