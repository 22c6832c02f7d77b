"""Structured tracing: spans over the plan -> node -> agent -> call tree.

A span is one timed unit of work.  The coordinator opens a ``plan`` span,
each DAG node opens a ``node`` span under it, the driven agent opens an
``agent`` span under that, and LLM completions / storage queries open leaf
spans — so one case-study conversation dumps as a single tree whose shape
*is* the execution.

Spans are stamped from the shared :class:`~repro.clock.SimClock` and get
sequential ids, so traces of a seeded run are deterministic and replay
byte-for-byte — the same property the resilience subsystem guarantees for
stream exports, extended to the instrumentation itself.

Parenting is implicit: each thread keeps a stack of open spans, and a new
span attaches under whatever is open on *its* thread (worker-pool agents
start fresh roots rather than guessing a cross-thread parent).

Everything here sits on the runtime's hottest paths, so the structure is
a *lazy ledger*: the tracer appends compact slotted records (the
:class:`Span` handles themselves — callers hold list identity into the
ledger), span names are interned, attribute dicts are allocated only for
spans that carry attributes, and the parent/children index plus the
materialized span view are built once per ledger generation and cached
until the ledger grows.  Spans act as their own context managers (no
wrapper allocation) and ids stay integers until export renders them as
``sp00042``.
"""

from __future__ import annotations

import itertools
import math
import sys
import threading
from typing import Any

from ..clock import SimClock


def sanitize_value(value: Any) -> Any:
    """Make one attribute JSON-safe and finite.

    Non-finite floats become their string names (``"inf"``/``"nan"``) so
    exports never carry tokens a strict JSON parser rejects; containers
    are sanitized recursively; everything non-primitive is stringified.
    """
    if isinstance(value, bool) or value is None:
        return value
    if isinstance(value, float):
        return value if math.isfinite(value) else str(value)
    if isinstance(value, (int, str)):
        return value
    if isinstance(value, dict):
        return {str(k): sanitize_value(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [sanitize_value(v) for v in value]
    return str(value)


def render_span_id(span_id: int | None) -> str | None:
    """The external form of a span id (``sp00042``)."""
    return None if span_id is None else f"sp{span_id:05d}"


class _ThreadState:
    """A thread's innermost open span, plus the tracer's clock.

    Open spans form a linked chain through ``Span._prev`` rather than an
    explicit stack: opening a span is one pointer swap, closing it swaps
    back.  Carrying the clock (and its pre-bound ``now`` method) here
    lets ``Span.__exit__`` stamp the end time without a back-reference
    to the tracer.
    """

    __slots__ = ("current", "clock", "now")

    def __init__(self) -> None:
        self.current: Span | None = None


class Span:
    """One timed, attributed unit of work in the trace tree.

    A span is its own context manager: ``__exit__`` stamps the end time,
    records an in-flight exception as the span's error (and lets it
    propagate), and pops the tracer's thread-local stack.
    """

    __slots__ = (
        "span_id", "name", "kind", "parent_id", "start", "end",
        "error", "_attrs", "_state", "_prev",
    )

    def __init__(
        self,
        span_id: int = 0,
        name: str = "",
        kind: str = "internal",  # plan | node | agent | llm | storage | internal
        parent_id: int | None = None,
        start: float = 0.0,
        attributes: dict[str, Any] | None = None,
    ) -> None:
        self.span_id = span_id
        self.name = name
        self.kind = kind
        self.parent_id = parent_id
        self.start = start
        self.end: float | None = None
        self.error: str | None = None
        self._attrs: dict[str, Any] | None = attributes if attributes else None
        self._state: _ThreadState | None = None
        self._prev: Span | None = None

    @property
    def status(self) -> str:
        """``"error"`` once an error is recorded, else ``"ok"``."""
        return "ok" if self.error is None else "error"

    @property
    def duration(self) -> float:
        """Simulated seconds from start to end (0 while still open)."""
        if self.end is None:
            return 0.0
        return self.end - self.start

    @property
    def span_ref(self) -> str:
        """The exported id string, e.g. ``sp00042``."""
        return f"sp{self.span_id:05d}"

    @property
    def attributes(self) -> dict[str, Any]:
        """The span's attribute dict, allocated on first touch.

        Most spans never carry attributes, so the ledger record holds
        ``None`` until someone actually reads or writes one.
        """
        attrs = self._attrs
        if attrs is None:
            attrs = self._attrs = {}
        return attrs

    def set_attribute(self, key: str, value: Any) -> None:
        # Values are stored raw; ``to_dict`` sanitizes at the export
        # boundary (sanitize_value is idempotent, so eager callers that
        # pre-sanitize stay byte-identical).
        attrs = self._attrs
        if attrs is None:
            attrs = self._attrs = {}
        attrs[key] = value

    def set_error(self, error: str) -> None:
        self.error = error

    def __enter__(self) -> "Span":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if exc_type is not None:
            self.error = f"{exc_type.__name__}: {exc}"
        state = self._state
        if state is not None:
            # ``state.now`` is the clock's bound ``now`` (not ``_now``):
            # under the thread backend the closing thread may sit inside
            # a clock branch overlay, and the end stamp must be
            # branch-local time.
            self.end = state.now()
            if state.current is self:
                state.current = self._prev
            else:  # out-of-order close: also drop everything opened above
                walk = state.current
                while walk is not None and walk is not self:
                    walk = walk._prev
                if walk is self:
                    state.current = self._prev
        return False

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Span({self.span_ref}, name={self.name!r}, kind={self.kind!r}, "
            f"status={self.status!r}, duration={self.duration:.3f})"
        )

    def to_dict(self) -> dict[str, Any]:
        # Attributes are stored raw (the hot path cannot afford a
        # sanitizing loop per span); the export boundary is where the
        # no-``Infinity``/``NaN`` guarantee holds.
        attrs = self._attrs
        return {
            "span_id": self.span_ref,
            "name": self.name,
            "kind": self.kind,
            "parent_id": render_span_id(self.parent_id),
            "start": self.start,
            "end": self.end,
            "duration": self.duration,
            "status": self.status,
            "error": self.error,
            "attributes": (
                {} if attrs is None else {k: sanitize_value(v) for k, v in attrs.items()}
            ),
        }


class NoopSpan(Span):
    """The shared do-nothing span yielded while tracing is disabled."""

    __slots__ = ()

    def set_attribute(self, key: str, value: Any) -> None:
        pass

    def set_error(self, error: str) -> None:
        pass

    def __exit__(self, *exc_info: Any) -> bool:
        return False


#: Shared singleton: a disabled tracing site costs one attribute check
#: and no allocation.
NOOP_SPAN = NoopSpan(name="noop")


class _AdoptScope:
    """Makes a span current on this thread for one scope (see :meth:`Tracer.adopt`).

    It never touches ``span._prev``: the span stays chained on its opening
    thread, while the adopting thread only points its own thread-local
    ``current`` at it so children opened there parent correctly.  Several
    threads may adopt the same span concurrently.
    """

    __slots__ = ("_tracer", "_span", "_saved", "_noop")

    def __init__(self, tracer: "Tracer", span: "Span | None") -> None:
        self._tracer = tracer
        self._span = span
        self._noop = not tracer.enabled or span is None or span is NOOP_SPAN

    def __enter__(self) -> "Span | None":
        if self._noop:
            return self._span
        state = self._tracer._state()
        self._saved = state.current
        state.current = self._span
        return self._span

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        if self._noop:
            return False
        state = self._tracer._state()
        # Restore only while the span is still on this thread's chain:
        # closing it inside the scope (a plan's final step) on the thread
        # that opened it has already popped it.
        walk = state.current
        while walk is not None and walk is not self._span:
            walk = walk._prev
        if walk is self._span:
            state.current = self._saved
        return False


class Tracer:
    """Creates, nests, and retains spans over a simulated clock.

    Example:
        >>> clock = SimClock()
        >>> tracer = Tracer(clock)
        >>> with tracer.span("plan", kind="plan") as outer:
        ...     _ = clock.advance(1.0)
        ...     with tracer.span("node", kind="node") as inner:
        ...         _ = clock.advance(0.5)
        >>> inner.parent_id == outer.span_id
        True
        >>> (outer.duration, inner.duration)
        (1.5, 0.5)
    """

    def __init__(self, clock: SimClock | None = None, enabled: bool = True) -> None:
        self.clock = clock or SimClock()
        self.enabled = enabled
        self._spans: list[Span] = []
        # itertools.count and list.append are atomic under the GIL, so
        # span creation needs no lock of its own.
        self._ids = itertools.count()
        self._active = threading.local()
        # Generation-cached views: rebuilt only when the ledger has
        # grown since the last materialization (spans are append-only
        # and parent ids are fixed at creation, so length is the
        # generation counter).
        self._view: list[Span] = []
        self._view_len = 0
        self._roots_view: list[Span] = []
        self._children_view: dict[int, list[Span]] = {}

    # ------------------------------------------------------------------
    # Span lifecycle
    # ------------------------------------------------------------------
    def _state(self) -> _ThreadState:
        state = getattr(self._active, "state", None)
        if state is None:
            state = self._active.state = _ThreadState()
            state.clock = self.clock
            state.now = self.clock.now
        return state

    def start_span(
        self,
        name: str,
        kind: str = "internal",
        parent_id: int | None = None,
        **attributes: Any,
    ) -> Span:
        """Open a span under the current thread's innermost open span.

        The returned span is a context manager; ``with tracer.span(...)``
        is the usual way to close it again.  When the tracer is disabled
        the shared no-op span is returned (callers can still call
        ``set_attribute`` on it, which discards) and nothing is recorded.

        The body builds the span field-by-field rather than through
        ``Span.__init__``, and attribute kwargs are stored raw (exports
        sanitize): this runs for every traced unit of work, and every
        extra call frame is measurable against the <5% overhead budget.
        """
        if not self.enabled:
            return NOOP_SPAN
        state = getattr(self._active, "state", None)
        if state is None:
            state = self._active.state = _ThreadState()
            state.clock = self.clock
            state.now = self.clock.now
        parent = state.current
        if parent_id is None and parent is not None:
            parent_id = parent.span_id
        span = Span.__new__(Span)
        span.span_id = next(self._ids)
        # Names repeat heavily (one per node per plan), so interning
        # dedups the ledger's string storage and makes find()/export
        # comparisons pointer checks.
        span.name = sys.intern(name)
        span.kind = kind
        span.parent_id = parent_id
        span.start = state.now()
        span.end = None
        span.error = None
        span._attrs = attributes if attributes else None
        span._state = state
        span._prev = parent
        state.current = span
        self._spans.append(span)
        return span

    #: ``span`` is the context-manager spelling; both names open a span.
    span = start_span

    def end_span(self, span: Span) -> None:
        """Close *span* explicitly (the context-manager exit does this)."""
        span.__exit__(None, None, None)

    def current(self) -> Span | None:
        """The innermost open span on the calling thread, if any."""
        return self._state().current

    def suspend(self, span: Span) -> None:
        """Detach *span* from the open-span chain without closing it.

        The fleet runtime opens one plan span per admitted plan but
        interleaves their execution: a suspended span stays open (no end
        stamp) while other plans' spans take the stack, and is re-adopted
        (:meth:`adopt`) for each of its execution steps.  Anything opened
        above *span* is detached with it (there should be nothing).
        """
        if not self.enabled or span is NOOP_SPAN:
            return
        state = self._state()
        walk = state.current
        while walk is not None and walk is not span:
            walk = walk._prev
        if walk is span:
            state.current = span._prev

    def adopt(self, span: "Span | None") -> "_AdoptScope":
        """Context manager making *span* current on this thread for one scope.

        Spans opened inside parent under *span* — a suspended fleet plan
        span re-entered per step, or a wave's parent span on a pool worker
        (the active chain is thread-local).  The span's own chain links are
        never mutated, and closing it inside the scope is safe.
        ``adopt(None)`` is a no-op scope, so callers need not special-case
        rootless work.
        """
        return _AdoptScope(self, span)

    # ------------------------------------------------------------------
    # Trace access
    # ------------------------------------------------------------------
    def _materialize(self) -> list[Span]:
        """The cached span view, rebuilt only when the ledger has grown.

        One pass builds the creation-order snapshot, the root list, and
        the parent -> children index together, so exports and renderers
        (flamegraph, critical path) walk the tree in O(n) instead of
        scanning the full ledger per parent.
        """
        spans = self._spans
        if len(spans) != self._view_len:
            snapshot = list(spans)
            roots: list[Span] = []
            children: dict[int, list[Span]] = {}
            for s in snapshot:
                pid = s.parent_id
                if pid is None:
                    roots.append(s)
                else:
                    bucket = children.get(pid)
                    if bucket is None:
                        children[pid] = [s]
                    else:
                        bucket.append(s)
            self._roots_view = roots
            self._children_view = children
            self._view = snapshot
            self._view_len = len(snapshot)
        return self._view

    def spans(self) -> list[Span]:
        """Every span ever started, in creation order.

        The returned list is the cached materialized view — treat it as
        read-only (it is shared between callers until the ledger grows).
        """
        return self._materialize()

    def roots(self) -> list[Span]:
        self._materialize()
        return list(self._roots_view)

    def children(self, span_id: int) -> list[Span]:
        self._materialize()
        bucket = self._children_view.get(span_id)
        return list(bucket) if bucket else []

    def find(self, name: str | None = None, kind: str | None = None) -> list[Span]:
        """Spans matching a name and/or kind filter."""
        return [
            s
            for s in self._spans
            if (name is None or s.name == name) and (kind is None or s.kind == kind)
        ]

    def reset(self) -> None:
        """Forget every span (tests and fresh benchmark phases)."""
        self._spans = []
        self._ids = itertools.count()
        self._active = threading.local()
        self._view = []
        self._view_len = 0
        self._roots_view = []
        self._children_view = {}
