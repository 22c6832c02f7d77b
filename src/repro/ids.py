"""Deterministic identifier generation.

The architecture persists every message, stream, plan, and agent activation;
stable, readable identifiers make traces reproducible across runs (given the
same sequence of operations) and easy to assert on in tests.

Identifiers look like ``msg-000042`` — a short prefix naming the entity kind
plus a zero-padded per-kind counter. :class:`IdGenerator` instances are
independent, so separate runtimes never share counters.

Counters number ids in *arrival order*, which is deterministic only while
execution is single-threaded.  Under the concurrent backend two plans race
for ``msg-000042``, so worker tasks run inside an :func:`id_scope`: while a
scope named for the plan/node is active on the calling thread, every
generator numbers that owner's ids from the owner's own counter
(``msg-pp.m1-000003``) — the same thread interleaving no longer changes
which id any message gets.  Serial execution never enters a scope and is
byte-identical to the unscoped scheme.
"""

from __future__ import annotations

import itertools
import threading


class _Scope(threading.local):
    owner: str | None = None  # a class default: no ``getattr`` miss per id


#: The calling thread's active id-scope owner (None outside any scope).
#: Module-level so one scope covers every generator the task touches
#: (stream store, session manager, planners) without threading a handle
#: through each of them.
_SCOPE = _Scope()


class _IdScope:
    """Context manager installing an owner on the calling thread."""

    __slots__ = ("_owner", "_saved")

    def __init__(self, owner: str) -> None:
        self._owner = owner

    def __enter__(self) -> "_IdScope":
        self._saved = _SCOPE.owner
        _SCOPE.owner = self._owner
        return self

    def __exit__(self, *exc_info: object) -> bool:
        _SCOPE.owner = self._saved
        return False


def id_scope(owner: str) -> _IdScope:
    """Scope id sequences to *owner* (e.g. ``"plan.node"``) on this thread."""
    return _IdScope(owner)


def current_id_scope() -> str | None:
    """The calling thread's active id-scope owner, if any."""
    return _SCOPE.owner


class IdGenerator:
    """Thread-safe per-kind counter-based id factory.

    Example:
        >>> ids = IdGenerator()
        >>> ids.next("msg")
        'msg-000001'
        >>> ids.next("msg")
        'msg-000002'
        >>> ids.next("stream")
        'stream-000001'
    """

    def __init__(self) -> None:
        self._counters: dict[str, itertools.count] = {}
        self._lock = threading.Lock()

    def next(self, kind: str) -> str:
        """Return the next identifier for *kind*.

        Inside an :func:`id_scope`, the sequence and the rendered id are
        both owner-qualified, so concurrent owners can never collide nor
        steal each other's sequence numbers.
        """
        owner = _SCOPE.owner
        with self._lock:
            key = kind if owner is None else f"{owner}\x00{kind}"
            counter = self._counters.get(key)
            if counter is None:
                counter = itertools.count(1)
                self._counters[key] = counter
            if owner is None:
                return f"{kind}-{next(counter):06d}"
            return f"{kind}-{owner}-{next(counter):06d}"

    def reset(self) -> None:
        """Forget all counters (fresh numbering for a new run)."""
        with self._lock:
            self._counters.clear()


_GLOBAL = IdGenerator()


def new_id(kind: str) -> str:
    """Return a fresh identifier from the process-global generator."""
    return _GLOBAL.next(kind)
