"""Consistent-hash ring: deterministic key -> shard placement.

Placement must be a pure function of the key so that the router, the
planner's shard pruning, and a rebuilt router after a crash all agree on
where a key lives.  The ring hashes each shard under ``virtual_nodes``
points (md5, like every other deterministic draw in the repo) and sends a
key to the first shard point at or after the key's own hash.

Virtual nodes keep placement balanced: with 64 points per shard the
largest shard holds within a few percent of ``1/n_shards`` of uniformly
hashed keys, and adding a shard moves only ``~1/n_shards`` of them.
"""

from __future__ import annotations

import bisect
import hashlib
from typing import Any, Iterable


def stable_hash(text: str) -> int:
    """64-bit md5-derived hash; stable across processes and runs."""
    digest = hashlib.md5(text.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little")


def routing_key(scope: str, value: Any) -> str:
    """``scope|value``, what a partitioned table or collection routes on.

    Numbers that are equal route alike: ``True``, ``1`` and ``1.0`` are one
    value to ``=`` / ``==``, so they must be one key, or a filter written
    with the other spelling prunes to a shard the row is not on.  An int
    and a string keep the key ``str`` gave them.
    """
    if isinstance(value, bool) or (isinstance(value, float) and value.is_integer()):
        value = int(value)
    return f"{scope}|{value}"


class HashRing:
    """Maps string keys onto ``n_shards`` buckets via consistent hashing."""

    def __init__(self, n_shards: int, virtual_nodes: int = 64) -> None:
        if n_shards < 1:
            raise ValueError(f"n_shards must be >= 1: {n_shards}")
        if virtual_nodes < 1:
            raise ValueError(f"virtual_nodes must be >= 1: {virtual_nodes}")
        self.n_shards = n_shards
        self.virtual_nodes = virtual_nodes
        points: list[tuple[int, int]] = []
        for shard in range(n_shards):
            for vnode in range(virtual_nodes):
                points.append((stable_hash(f"shard:{shard}:{vnode}"), shard))
        points.sort()
        self._hashes = [h for h, _ in points]
        self._shards = [s for _, s in points]

    def shard_for(self, key: str) -> int:
        """The shard owning *key* (first ring point at or after its hash)."""
        position = bisect.bisect_left(self._hashes, stable_hash(key))
        if position == len(self._hashes):
            position = 0
        return self._shards[position]

    def positions_by_shard(self, keys: Iterable[str]) -> list[tuple[int, list[int]]]:
        """``(shard, positions of the keys it owns)``, shards ascending; one hash per key."""
        owners, positions = {}, {}
        for position, key in enumerate(keys):
            shard = owners[key] if key in owners else owners.setdefault(key, self.shard_for(key))
            positions.setdefault(shard, []).append(position)
        return sorted(positions.items())

    def shards_for(self, keys) -> list[int]:
        """Distinct shards owning *keys*, in ascending shard order."""
        return sorted({self.shard_for(str(key)) for key in keys})

    def all_shards(self) -> list[int]:
        return list(range(self.n_shards))
