"""The one bounded map under the cache, single-flight and the batcher.

Each reuse rung remembers physical calls in a keyed, LRU-bounded map;
what differs is how long an entry is *live* — still able to serve a
caller whose simulated start is yet to come.  :class:`LiveLRU` owns the
map, its lock, the bound and the one eviction rule: over budget, drop
least-recently-used first, but only entries whose ``live_until`` has
passed.  Evicting a live flight or window would silently turn would-be
joins into fresh physical calls and change traces under fleet load, so
the map may transiently exceed ``max_entries`` while many are live.

Who passes what to :meth:`LiveLRU._store`: ``LLMCache`` — never live
(``-inf``), a plain LRU; ``SingleFlight`` — live until the leader's
``end``, judged at the recording clock instant; ``LLMBatcher`` — live
until the batch's ``exec_end``, judged at the new window's ``start``.
A plain LRU needs nothing more than :meth:`LiveLRU.recall` /
:meth:`LiveLRU.remember`; the registries' and the data planner's memos
are bare ``LiveLRU`` instances used that way.
"""

from __future__ import annotations

import math
import threading
from collections import OrderedDict
from itertools import islice
from typing import Any, Hashable


class LiveLRU:
    """A lock, a bound, and ``key -> (payload, live_until)`` in LRU order.

    Subclasses hold :attr:`_lock` around every access to :attr:`_entries`
    and decide themselves what counts as a *use* (``move_to_end``).
    """

    def __init__(self, max_entries: int) -> None:
        if max_entries <= 0:
            raise ValueError(f"max_entries must be > 0: {max_entries}")
        self._max_entries = max_entries
        self._entries: OrderedDict[Hashable, tuple[Any, float]] = OrderedDict()
        self._lock = threading.Lock()

    def _peek(self, key: Hashable) -> Any:
        """The payload under *key* (or None) without counting as a use.
        The caller holds the lock."""
        entry = self._entries.get(key)
        return None if entry is None else entry[0]

    def _store(self, key: Hashable, payload: Any, live_until: float, now: float) -> None:
        """Insert as most recent, then evict what is over budget and not
        live at *now*.  The caller holds the lock."""
        entries = self._entries
        entries[key] = (payload, live_until)
        entries.move_to_end(key)
        excess = len(entries) - self._max_entries
        if excess > 0:
            stale = (k for k, (_, until) in entries.items() if until <= now)
            for stale_key in list(islice(stale, excess)):
                del entries[stale_key]

    def recall(self, key: Hashable) -> Any:
        """The payload under *key* (or None), counted as a use."""
        with self._lock:
            payload = self._peek(key)
            if payload is not None:
                self._entries.move_to_end(key)
            return payload

    def remember(self, key: Hashable, payload: Any) -> None:
        """Store *payload* under *key*, never live: the plain LRU rule."""
        with self._lock:
            self._store(key, payload, -math.inf, 0.0)

    def clear(self) -> None:
        """Drop all entries (tallies survive: they describe history)."""
        with self._lock:
            self._entries.clear()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)
