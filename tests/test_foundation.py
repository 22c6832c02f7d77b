"""Tests for the foundation modules: clock, ids, errors."""

import pytest

from repro.clock import SimClock
from repro.errors import ReproError, StreamError
from repro.ids import IdGenerator


class TestSimClock:
    def test_starts_at_zero(self):
        assert SimClock().now() == 0.0

    def test_custom_start(self):
        assert SimClock(5.0).now() == 5.0

    def test_negative_start_rejected(self):
        with pytest.raises(ValueError):
            SimClock(-1.0)

    def test_advance_accumulates(self):
        clock = SimClock()
        clock.advance(1.5)
        clock.advance(0.5)
        assert clock.now() == 2.0

    def test_advance_returns_new_time(self):
        assert SimClock().advance(3.0) == 3.0

    def test_advance_backwards_rejected(self):
        with pytest.raises(ValueError):
            SimClock().advance(-0.1)

    def test_advance_to_future(self):
        clock = SimClock()
        clock.advance_to(4.0)
        assert clock.now() == 4.0

    def test_advance_to_past_is_noop(self):
        clock = SimClock(10.0)
        clock.advance_to(4.0)
        assert clock.now() == 10.0


class TestIdGenerator:
    def test_sequential_per_kind(self):
        ids = IdGenerator()
        assert ids.next("msg") == "msg-000001"
        assert ids.next("msg") == "msg-000002"

    def test_kinds_are_independent(self):
        ids = IdGenerator()
        ids.next("msg")
        assert ids.next("stream") == "stream-000001"

    def test_instances_are_independent(self):
        a, b = IdGenerator(), IdGenerator()
        a.next("x")
        assert b.next("x") == "x-000001"

    def test_reset(self):
        ids = IdGenerator()
        ids.next("x")
        ids.reset()
        assert ids.next("x") == "x-000001"


class TestErrors:
    def test_all_derive_from_repro_error(self):
        assert issubclass(StreamError, ReproError)
