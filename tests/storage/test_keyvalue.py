"""Tests for the key-value store."""

import pytest

from repro.clock import SimClock
from repro.errors import StorageError
from repro.storage.keyvalue import KeyValueStore


@pytest.fixture
def clock():
    return SimClock()


@pytest.fixture
def kv(clock):
    return KeyValueStore("kv", clock=clock)


class TestKeyValueStore:
    def test_put_get(self, kv):
        kv.put("ns", "k", 42)
        assert kv.get("ns", "k") == 42

    def test_get_default(self, kv):
        assert kv.get("ns", "missing", "fallback") == "fallback"

    def test_contains(self, kv):
        kv.put("ns", "k", None)
        assert kv.contains("ns", "k")
        assert not kv.contains("ns", "other")

    def test_delete(self, kv):
        kv.put("ns", "k", 1)
        assert kv.delete("ns", "k")
        assert not kv.delete("ns", "k")

    def test_keys_sorted(self, kv):
        kv.put("ns", "b", 1)
        kv.put("ns", "a", 2)
        assert kv.keys("ns") == ["a", "b"]

    def test_items(self, kv):
        kv.put("ns", "a", 1)
        assert list(kv.items("ns")) == [("a", 1)]

    def test_namespaces_isolated(self, kv):
        kv.put("n1", "k", 1)
        kv.put("n2", "k", 2)
        assert kv.get("n1", "k") == 1
        assert kv.get("n2", "k") == 2
        assert kv.namespaces() == ["n1", "n2"]

    def test_clear(self, kv):
        kv.put("ns", "a", 1)
        kv.put("ns", "b", 2)
        assert kv.clear("ns") == 2
        assert kv.keys("ns") == []

    def test_ttl_expiry_on_sim_clock(self, kv, clock):
        kv.put("ns", "k", 1, ttl=5.0)
        assert kv.get("ns", "k") == 1
        clock.advance(5.0)
        assert kv.get("ns", "k") is None
        assert kv.keys("ns") == []

    def test_ttl_overwrite_removes_expiry(self, kv, clock):
        kv.put("ns", "k", 1, ttl=5.0)
        kv.put("ns", "k", 2)
        clock.advance(10.0)
        assert kv.get("ns", "k") == 2

    def test_ttl_must_be_positive(self, kv):
        with pytest.raises(StorageError):
            kv.put("ns", "k", 1, ttl=0)

    def test_describe(self, kv):
        kv.put("ns", "k", 1)
        assert kv.describe()["namespaces"] == {"ns": 1}


class TestTTLEnumerationConsistency:
    """Expired entries must be invisible to every enumeration API.

    Regression tests: ``keys``/``items``/``namespaces``/``clear`` used to
    report entries whose TTL had lapsed (``get`` already filtered them),
    so the store disagreed with itself about what it contained.
    """

    def test_keys_hides_expired(self, kv, clock):
        kv.put("ns", "live", 1)
        kv.put("ns", "dying", 2, ttl=5.0)
        clock.advance(5.0)
        assert kv.keys("ns") == ["live"]

    def test_items_hides_expired(self, kv, clock):
        kv.put("ns", "live", 1)
        kv.put("ns", "dying", 2, ttl=5.0)
        clock.advance(5.0)
        assert list(kv.items("ns")) == [("live", 1)]

    def test_items_expiring_mid_iteration_not_yielded(self, kv, clock):
        kv.put("ns", "a", 1, ttl=5.0)
        kv.put("ns", "z", 2)
        iterator = kv.items("ns")
        first = next(iterator)
        assert first == ("a", 1)
        clock.advance(5.0)
        # "a" was already yielded while live; the rest of the iteration
        # must still be consistent and not resurrect expired keys.
        assert list(iterator) == [("z", 2)]
        assert list(kv.items("ns")) == [("z", 2)]

    def test_namespaces_hides_fully_expired_namespace(self, kv, clock):
        kv.put("gone", "k", 1, ttl=5.0)
        kv.put("stays", "k", 2)
        clock.advance(5.0)
        assert kv.namespaces() == ["stays"]

    def test_clear_counts_only_live_keys(self, kv, clock):
        kv.put("ns", "live-a", 1)
        kv.put("ns", "live-b", 2)
        kv.put("ns", "dead", 3, ttl=5.0)
        clock.advance(5.0)
        assert kv.clear("ns") == 2
        assert kv.keys("ns") == []

    def test_describe_counts_match_keys(self, kv, clock):
        kv.put("ns", "live", 1)
        kv.put("ns", "dead", 2, ttl=1.0)
        clock.advance(1.0)
        assert kv.describe()["namespaces"] == {"ns": 1}


class TestAnswersTheClusteredStoreGives:
    """Two answers differed from ``ClusteredKeyValueStore`` on the same
    clock and calls: a refused TTL still wrote the value, and deleting an
    expired key reported a deletion."""

    def test_a_refused_ttl_writes_nothing(self, kv):
        kv.put("ns", "k", 1)
        with pytest.raises(StorageError):
            kv.put("ns", "k", 2, ttl=0)
        assert kv.get("ns", "k") == 1
        with pytest.raises(StorageError):
            kv.put("ns", "new", 3, ttl=-1.0)
        assert kv.keys("ns") == ["k"]

    def test_an_expired_key_deletes_as_absent(self, kv, clock):
        kv.put("ns", "k", 1, ttl=5.0)
        clock.advance(5.0)
        assert kv.delete("ns", "k") is False
        assert kv._data == {"ns": {}} and kv._expiry == {}  # evicted all the same
        kv.put("ns", "k", 2)
        assert kv.delete("ns", "k") is True
