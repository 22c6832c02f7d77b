"""The streams database: creation, publication, subscription, dispatch.

The blueprint deploys a "streams database [that] manages the flow of data
and control messages among components" (Section IV).  :class:`StreamStore`
is that database: it owns every stream, assigns message ids and timestamps,
persists the global trace, and delivers messages to subscribers.

The trace is an append-only log with one windowed read: a component that
wants "what was published since" takes a cursor (:meth:`StreamStore.mark`)
before it acts and reads the tail (:meth:`StreamStore.trace_since`) after —
one slice under the lock, O(new messages).  :meth:`StreamStore.trace`
copies the whole log and is for whole-log consumers (exports, flow
graphs, recovery reports, tests) only.

Delivery is synchronous and depth-first: when a subscriber's callback
publishes further messages (the normal case — agents react to messages by
emitting more), those are delivered immediately before the publish returns.
This gives coordinators read-your-writes semantics over agent outputs; a
dispatch-depth guard catches accidental agent loops.
"""

from __future__ import annotations

import threading
from typing import Any, Iterable, Mapping, TYPE_CHECKING

from ..clock import SimClock
from ..errors import StreamError
from ..ids import IdGenerator
from .message import Message, MessageKind, control_payload
from .stream import Stream
from .subscription import SCANNED, Subscription, SubscriberCallback, TagRule

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..observability import Observability


_NO_TAGS: frozenset[str] = frozenset()


class _DispatchDepth(threading.local):
    depth = 0  # the calling thread's dispatch nesting; a class default, no getattr miss


class StreamStore:
    """In-process streams database with pub/sub and full observability."""

    def __init__(self, clock: SimClock | None = None) -> None:
        self.clock = clock or SimClock()
        self._ids = IdGenerator()
        self._streams: dict[str, Stream] = {}
        self._subscriptions: dict[str, Subscription] = {}
        # Route table (DESIGN §15 "Stream dispatch"): a publish finds its
        # subscribers through the compiled ``(probe, key)`` of their stream
        # pattern (``compile_pattern``), never by testing them all.
        # Literals and ``literal*`` prefixes are keyed ``[probe][key]`` —
        # one ``stream_id[:probe]`` lookup per distinct probe present — and
        # only match-all / regex patterns sit in the scanned bucket.  Every
        # bucket maps subscribe sequence -> subscription, so merged buckets
        # sort back into global subscribe order.
        self._keyed_routes: dict[int | None, dict[str, dict[int, Subscription]]] = {}
        self._scanned_routes: dict[int, Subscription] = {}
        self._sub_order: dict[str, int] = {}
        self._sub_counter = 0
        # (stream_id, tags, kind, addressee) -> ordered targets; cleared by
        # every subscribe / unsubscribe, so a hit is as good as a fresh lookup.
        self._route_memo: dict[tuple, tuple[Subscription, ...]] = {}
        self._trace: list[Message] = []
        self._lock = threading.RLock()
        self._dispatching = _DispatchDepth()
        self.max_dispatch_depth = 500
        # Plain tallies, pulled into a metrics snapshot by the collector
        # below: publishing is the hottest path in the runtime, so it
        # must not pay a registry update per message.
        self._message_counts: dict[MessageKind, int] = {}
        self._delivery_count = 0
        self._observability: "Observability | None" = None

    @property
    def observability(self) -> "Observability | None":
        """Optional metrics sink (settable; the Blueprint wires its own).

        Reports ``stream.messages`` per kind and ``stream.deliveries`` —
        the fan-out factor the A2 scaling study cares about.
        """
        return self._observability

    @observability.setter
    def observability(self, value: "Observability | None") -> None:
        if value is self._observability:
            return
        self._observability = value
        if value is not None:
            value.metrics.register_collector(self._collect_metrics)

    def _collect_metrics(self, sink) -> None:
        for kind, count in self._message_counts.items():
            sink.inc("stream.messages", float(count), kind=kind.value)
        if self._delivery_count:
            sink.inc("stream.deliveries", float(self._delivery_count))

    # ------------------------------------------------------------------
    # Stream lifecycle
    # ------------------------------------------------------------------
    def create_stream(
        self,
        stream_id: str | None = None,
        tags: Iterable[str] = (),
        creator: str = "",
    ) -> Stream:
        """Create and register a new stream.

        Raises:
            StreamError: if *stream_id* already exists.
        """
        with self._lock:
            if stream_id is None:
                stream_id = self._ids.next("stream")
            if stream_id in self._streams:
                raise StreamError(f"stream already exists: {stream_id!r}")
            stream = Stream(
                stream_id,
                tags=frozenset(tags),
                creator=creator,
                created_at=self.clock.now(),
            )
            self._streams[stream_id] = stream
            return stream

    def get_stream(self, stream_id: str) -> Stream:
        with self._lock:
            stream = self._streams.get(stream_id)
        if stream is None:
            raise StreamError(f"unknown stream: {stream_id!r}")
        return stream

    def has_stream(self, stream_id: str) -> bool:
        with self._lock:
            return stream_id in self._streams

    def ensure_stream(self, stream_id: str, creator: str = "") -> Stream:
        """Return the stream, creating it if it does not exist yet."""
        with self._lock:
            if stream_id in self._streams:
                return self._streams[stream_id]
            return self.create_stream(stream_id, creator=creator)

    def list_streams(self) -> list[str]:
        with self._lock:
            return sorted(self._streams)

    # ------------------------------------------------------------------
    # Publishing
    # ------------------------------------------------------------------
    def publish(
        self,
        stream_id: str,
        payload: Any,
        kind: MessageKind = MessageKind.DATA,
        tags: Iterable[str] = (),
        producer: str = "",
        metadata: Mapping[str, Any] | None = None,
    ) -> Message:
        """Append a message to *stream_id* and dispatch it to subscribers.

        One critical section looks the stream up and mints, persists,
        appends, logs and routes the message (DESIGN §15 "Stream dispatch").
        Delivery runs after it, to the target tuple taken under the lock;
        ``active`` is re-checked per delivery.
        """
        tags = frozenset(tags) if tags else _NO_TAGS  # one shared GC-tracked empty set
        with self._lock:
            stream = self._streams.get(stream_id)
            if stream is None:
                raise StreamError(f"unknown stream: {stream_id!r}")
            message_id, now = self._ids.next("msg"), self.clock.now()
            message = Message(message_id, stream_id, kind, payload, tags, producer, now, metadata)
            # Refused before the durability hook: a publish the stream will
            # reject must not reach a replica log the trace never sees.
            stream.ensure_open()
            self._persist(message)
            stream.append(message)
            self._record(message)
            key = (stream_id, tags, kind, message.addressee())
            targets = self._route_memo.get(key)
            if targets is None:
                targets = self._route_memo[key] = self._route(*key)
        dispatching = self._dispatching
        depth = dispatching.depth
        if depth >= self.max_dispatch_depth:
            raise StreamError(
                f"dispatch depth exceeded {self.max_dispatch_depth} "
                f"(agent loop?) on stream {stream_id!r}"
            )
        if not targets:
            return message
        dispatching.depth = depth + 1
        delivered = 0
        try:
            for subscription in targets:
                if not subscription.active:
                    continue
                delivered += 1
                subscription.callback(message)
        finally:
            dispatching.depth = depth
            # One locked add per publish that delivered, none otherwise; a
            # raising callback still counts its own delivery.
            if delivered:
                with self._lock:
                    self._delivery_count += delivered
        return message

    def _record(self, message: Message) -> None:
        """Log *message* in the trace and the per-kind tallies.  The caller holds
        the lock, or owns the store alone (``persistence.replay_store``)."""
        self._trace.append(message)
        counts = self._message_counts
        counts[message.kind] = counts.get(message.kind, 0) + 1

    def _persist(self, message: Message) -> None:
        """Durability hook, called before the message touches any in-memory
        structure.  The base store is purely in-memory (no-op); the
        partitioned store overrides this to replicate the message — and by
        raising refuses the publish outright when no quorum can store it,
        leaving trace, stream, and subscribers untouched."""

    def publish_data(self, stream_id: str, payload: Any, **kwargs: Any) -> Message:
        return self.publish(stream_id, payload, kind=MessageKind.DATA, **kwargs)

    def publish_control(
        self, stream_id: str, instruction: str, producer: str = "", tags: Iterable[str] = (), **fields: Any
    ) -> Message:
        """Publish a control message carrying *instruction* and *fields*."""
        return self.publish(
            stream_id,
            control_payload(instruction, **fields),
            kind=MessageKind.CONTROL,
            tags=tags,
            producer=producer,
        )

    def close_stream(self, stream_id: str, producer: str = "") -> Message:
        """Append an end-of-stream marker, closing the stream."""
        return self.publish(stream_id, None, kind=MessageKind.EOS, producer=producer)

    # ------------------------------------------------------------------
    # Subscriptions
    # ------------------------------------------------------------------
    def subscribe(
        self,
        subscriber: str,
        callback: SubscriberCallback,
        stream_pattern: str = "*",
        include_tags: Iterable[str] = (),
        exclude_tags: Iterable[str] = (),
        control_only: bool = False,
        data_only: bool = False,
        addressee: str | None = None,
    ) -> Subscription:
        """Register *callback* for matching messages; returns the subscription."""
        subscription = Subscription(
            subscription_id=self._ids.next("sub"),
            subscriber=subscriber,
            callback=callback,
            stream_pattern=stream_pattern,
            tag_rule=TagRule.of(include_tags, exclude_tags),
            control_only=control_only,
            data_only=data_only,
            addressee=addressee,
        )
        with self._lock:
            self._subscriptions[subscription.subscription_id] = subscription
            self._sub_counter = seq = self._sub_counter + 1
            self._sub_order[subscription.subscription_id] = seq
            probe, key = subscription.route
            if probe == SCANNED:
                bucket = self._scanned_routes
            else:
                bucket = self._keyed_routes.setdefault(probe, {}).setdefault(key, {})
            bucket[seq] = subscription
            self._route_memo.clear()
        return subscription

    def unsubscribe(self, subscription_id: str) -> None:
        with self._lock:
            subscription = self._subscriptions.pop(subscription_id, None)
            if subscription is not None:
                self._unroute(subscription, self._sub_order.pop(subscription_id))
                self._route_memo.clear()
        if subscription is not None:
            subscription.active = False

    def subscriptions(self) -> list[Subscription]:
        with self._lock:
            return list(self._subscriptions.values())

    def _unroute(self, subscription: Subscription, seq: int) -> None:
        """Drop *subscription* and any keyed bucket it empties.  Caller holds the lock."""
        probe, key = subscription.route
        if probe == SCANNED:
            del self._scanned_routes[seq]
            return
        by_key = self._keyed_routes[probe]
        del by_key[key][seq]
        if not by_key[key]:
            del by_key[key]
            if not by_key:
                del self._keyed_routes[probe]

    def _route(
        self, stream_id: str, tags: frozenset[str], kind: MessageKind, addressee: str | None
    ) -> tuple[Subscription, ...]:
        """Exactly the subscriptions a linear ``wants()`` scan would pick
        (liveness aside), in subscribe order.  Caller holds the lock."""
        matched: dict[int, Subscription] = {}
        for probe, by_key in self._keyed_routes.items():
            matched.update(by_key.get(stream_id[:probe], ()))
        for seq, subscription in self._scanned_routes.items():
            match = subscription.route[1]
            if match is None or match(stream_id):
                matched[seq] = subscription
        return tuple(
            subscription
            for _, subscription in sorted(matched.items())
            if subscription.accepts(kind, tags, addressee)
        )

    # ------------------------------------------------------------------
    # Observability
    # ------------------------------------------------------------------
    def trace(self) -> list[Message]:
        """The global, append-ordered log of every message ever published."""
        with self._lock:
            return list(self._trace)

    def mark(self) -> int:
        """A cursor at the log's current end, for :meth:`trace_since`."""
        with self._lock:
            return len(self._trace)

    def trace_since(self, mark: int) -> list[Message]:
        """Messages published since *mark* was taken, in publish order."""
        if mark < 0:
            raise ValueError(f"mark must be non-negative: {mark}")
        with self._lock:
            return self._trace[mark:]

    def trace_by_tag(self, tag: str) -> list[Message]:
        """Messages carrying *tag*, in publish order (one scan of the log)."""
        with self._lock:
            return [message for message in self._trace if tag in message.tags]

    def trace_by_producer(self, producer: str) -> list[Message]:
        """Messages from *producer*, in publish order (one scan of the log)."""
        with self._lock:
            return [message for message in self._trace if message.producer == producer]

    def stats(self) -> dict[str, Any]:
        """Counts for dashboards and benches."""
        with self._lock:
            return {
                "streams": len(self._streams),
                "subscriptions": len(self._subscriptions),
                "messages": len(self._trace),
                "by_kind": {kind.value: n for kind, n in self._message_counts.items()},
            }
