"""Key-value store with namespaces and simulated-time TTLs.

Sessions and budgets persist scratch state here; the data registry lists it
as one of the enterprise data modalities.
"""

from __future__ import annotations

import threading
from typing import Any, Iterator

from ...clock import SimClock
from ...errors import StorageError


class KeyValueStore:
    """Namespaced KV store; entries may expire on the simulated clock."""

    def __init__(self, name: str, clock: SimClock | None = None, description: str = "") -> None:
        self.name = name
        self.description = description
        self._clock = clock or SimClock()
        self._data: dict[str, dict[str, Any]] = {}
        self._expiry: dict[tuple[str, str], float] = {}
        self._lock = threading.RLock()

    def put(self, namespace: str, key: str, value: Any, ttl: float | None = None) -> None:
        """Store *value*; with *ttl*, it expires after that many sim-seconds."""
        if ttl is not None and ttl <= 0:
            raise StorageError(f"ttl must be positive: {ttl}")
        with self._lock:
            self._data.setdefault(namespace, {})[key] = value
            if ttl is not None:
                self._expiry[(namespace, key)] = self._clock.now() + ttl
            else:
                self._expiry.pop((namespace, key), None)

    def get(self, namespace: str, key: str, default: Any = None) -> Any:
        with self._lock:
            if self._expired(namespace, key):
                self._evict(namespace, key)
                return default
            return self._data.get(namespace, {}).get(key, default)

    def contains(self, namespace: str, key: str) -> bool:
        sentinel = object()
        return self.get(namespace, key, sentinel) is not sentinel

    def delete(self, namespace: str, key: str) -> bool:
        """Whether a live entry was deleted: an expired one is absent (and evicted)."""
        with self._lock:
            live = key in self._data.get(namespace, {}) and not self._expired(namespace, key)
            self._evict(namespace, key)
            return live

    def keys(self, namespace: str) -> list[str]:
        with self._lock:
            bucket = self._data.get(namespace, {})
            expired = [k for k in bucket if self._expired(namespace, k)]
            for key in expired:
                self._evict(namespace, key)
            return sorted(bucket)

    def items(self, namespace: str) -> Iterator[tuple[str, Any]]:
        with self._lock:
            sentinel = object()
            pairs = [
                (key, self.get(namespace, key, sentinel))
                for key in self.keys(namespace)
            ]
        for key, value in pairs:
            if value is not sentinel:
                yield key, value

    def namespaces(self) -> list[str]:
        with self._lock:
            return sorted(
                ns
                for ns in list(self._data)
                if any(
                    not self._expired(ns, key) for key in self._data.get(ns, {})
                )
            )

    def clear(self, namespace: str) -> int:
        with self._lock:
            live = len(self.keys(namespace))
            bucket = self._data.pop(namespace, {})
            for key in bucket:
                self._expiry.pop((namespace, key), None)
            return live

    def describe(self) -> dict[str, Any]:
        return {
            "store": self.name,
            "description": self.description,
            "namespaces": {ns: len(self.keys(ns)) for ns in self.namespaces()},
        }

    def _expired(self, namespace: str, key: str) -> bool:
        deadline = self._expiry.get((namespace, key))
        return deadline is not None and self._clock.now() >= deadline

    def _evict(self, namespace: str, key: str) -> None:
        self._data.get(namespace, {}).pop(key, None)
        self._expiry.pop((namespace, key), None)
