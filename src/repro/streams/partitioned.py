"""Partitioned, replicated streams: durable publish over a store cluster.

:class:`PartitionedStreamStore` keeps the whole :class:`StreamStore`
contract — synchronous depth-first dispatch, the trace, metrics —
and adds a durability layer underneath it: every message record is
quorum-appended to the stream's partition (``ring.shard_for(stream_id)``
on a :class:`~repro.storage.cluster.StoreCluster`) *before* it touches
any in-memory structure.  If no quorum of replicas can store the record,
the publish raises :class:`~repro.errors.ClusterUnavailableError` and the
store is left exactly as it was: un-acked messages never reach a
subscriber, the trace, or the stream.

A replica log holds each message in :mod:`.persistence`'s record form
(``message_record`` / ``message_from``), the same record
:func:`~.persistence.export_store` writes; that module owns the format.
:func:`export_partitioned` rebuilds the global message log purely from
replica logs — the proof artifact for the zero-acked-loss property: after
any kill/partition schedule, the rebuilt log must equal the in-memory
trace of every message whose publish returned.
"""

from __future__ import annotations

from typing import Any

from ..clock import SimClock
from ..storage.cluster import StoreCluster
from .message import Message
from .persistence import message_from, message_record
from .store import StreamStore


def _apply_stream(state: list[dict[str, Any]], op: dict[str, Any]) -> Any:
    state.append(op["message"])
    return len(state)


class PartitionedStreamStore(StreamStore):
    """A ``StreamStore`` whose messages are replicated before delivery."""

    def __init__(
        self,
        clock: SimClock | None = None,
        n_partitions: int = 4,
        n_replicas: int = 3,
        seed: int = 0,
        **cluster_options: Any,
    ) -> None:
        super().__init__(clock)
        self.cluster = StoreCluster(
            "streams",
            n_partitions,
            n_replicas,
            list,
            _apply_stream,
            clock=self.clock,
            seed=seed,
            **cluster_options,
        )

    def _persist(self, message: Message) -> None:
        self.cluster.append(
            message.stream_id, {"op": "publish", "message": message_record(message)}
        )

    def tick(self, advance: float | None = None) -> None:
        self.cluster.tick(advance=advance)


def _message_seq(record: dict[str, Any]) -> int:
    """Global publish order from the id (``msg-000042`` -> 42)."""
    return int(record["message_id"].rsplit("-", 1)[-1])


def export_partitioned(store: PartitionedStreamStore) -> dict[str, Any]:
    """The global message log rebuilt from replica logs alone.

    Reads each partition's quorum state (so it reflects exactly the acked
    history) and merges partitions back into publish order by message id.
    """
    records: list[dict[str, Any]] = []
    for shard_index in store.cluster.ring.all_shards():
        records.extend(store.cluster.quorum_state_of(shard_index))
    records.sort(key=_message_seq)
    return {
        "clock": store.clock.now(),
        "partitions": store.cluster.n_shards,
        "messages": records,
    }


def replayed_messages(snapshot: dict[str, Any]) -> list[Message]:
    """Materialize exported records back into :class:`Message` objects."""
    return [message_from(record) for record in snapshot["messages"]]
