"""Tests for model concurrency limits and single-flight coalescing."""

import pytest

from repro.clock import SimClock
from repro.llm import (
    LLMResponse,
    LLMUsage,
    ModelCapacity,
    ModelCatalog,
    ModelSpec,
    SingleFlight,
)


def spec(**overrides):
    defaults = dict(
        name="cap-model",
        tier="m",
        quality=1.0,
        cost_per_1k_input=0.01,
        cost_per_1k_output=0.02,
        latency_base=1.0,
        latency_per_token=0.0,
        context_window=4000,
    )
    defaults.update(overrides)
    return ModelSpec(**defaults)


def client(clock, **plumbing):
    """The cap-model client of a one-spec catalog with *plumbing* assigned."""
    catalog = ModelCatalog(specs=(spec(),), clock=clock)
    for attribute, value in plumbing.items():
        setattr(catalog, attribute, value)
    return catalog.client("cap-model")


class TestModelCapacity:
    def test_under_limit_starts_immediately(self):
        capacity = ModelCapacity({"m": 2})
        assert capacity.reserve("m", 0.0, 1.0) == 0.0
        assert capacity.reserve("m", 0.0, 1.0) == 0.0

    def test_over_limit_queues_to_next_free_slot(self):
        capacity = ModelCapacity({"m": 2})
        capacity.reserve("m", 0.0, 1.0)
        capacity.reserve("m", 0.0, 2.0)
        # Third call waits for the 1.0 end; fourth for the 2.0 end.
        assert capacity.reserve("m", 0.0, 1.0) == 1.0
        assert capacity.reserve("m", 0.0, 1.0) == 2.0

    def test_half_open_intervals_hand_off_exactly(self):
        capacity = ModelCapacity({"m": 1})
        capacity.reserve("m", 0.0, 1.0)
        # [0,1) frees the slot *at* 1.0.
        assert capacity.reserve("m", 1.0, 1.0) == 1.0

    def test_out_of_order_reservations_never_overbook(self):
        # Timeline branches rebase the clock, so reservations arrive in
        # execution order, not time order.  The invariant must hold anyway.
        capacity = ModelCapacity({"m": 2})
        starts = [capacity.reserve("m", t, 1.0) for t in (5.0, 0.0, 5.5, 0.2, 5.1)]
        assert capacity.max_concurrency("m") <= 2
        # The two early calls fit untouched; the three around t=5 queue.
        assert starts[1] == 0.0 and starts[3] == 0.2

    def test_unlimited_model_records_but_never_queues(self):
        capacity = ModelCapacity({"m": 1})
        for _ in range(5):
            assert capacity.reserve("other", 0.0, 1.0) == 0.0
        assert capacity.max_concurrency("other") == 5
        assert capacity.stats().queued == 0

    def test_default_slots_apply_to_unknown_models(self):
        capacity = ModelCapacity(default_slots=1)
        capacity.reserve("anything", 0.0, 1.0)
        assert capacity.reserve("anything", 0.0, 1.0) == 1.0

    def test_stats_and_validation(self):
        with pytest.raises(ValueError):
            ModelCapacity({"m": 0})
        with pytest.raises(ValueError):
            ModelCapacity(default_slots=-1)
        capacity = ModelCapacity({"m": 1})
        capacity.reserve("m", 0.0, 1.0)
        capacity.reserve("m", 0.0, 1.0)
        stats = capacity.stats()
        assert stats.reservations == 2
        assert stats.queued == 1
        assert stats.total_wait == stats.max_wait == 1.0


def leader_response(latency=2.0, cost=0.05):
    usage = LLMUsage(10, 5, cost=cost, latency=latency)
    return LLMResponse("answer", usage, model="m")


class TestSingleFlight:
    def test_join_mid_flight_pays_residual_only(self):
        flight = SingleFlight()
        flight.record("m", "p", 512, start=0.0, end=2.0, response=leader_response())
        joined, residual = flight.join("m", "p", 512, now=0.5)
        assert residual == 1.5
        assert joined.coalesced
        assert joined.text == "answer"
        assert joined.usage.cost == 0.0
        assert joined.usage.latency == residual

    def test_no_join_outside_flight_window(self):
        flight = SingleFlight()
        flight.record("m", "p", 512, start=1.0, end=2.0, response=leader_response())
        assert flight.join("m", "p", 512, now=0.5) is None  # before start
        assert flight.join("m", "p", 512, now=2.0) is None  # at/after end
        assert flight.join("m", "other", 512, now=1.5) is None
        assert flight.join("m", "p", 256, now=1.5) is None

    def test_stats_track_savings(self):
        flight = SingleFlight()
        flight.record("m", "p", 512, start=0.0, end=2.0, response=leader_response())
        flight.join("m", "p", 512, now=0.5)
        stats = flight.stats()
        assert (stats.leaders, stats.joins, stats.entries) == (1, 1, 1)
        assert stats.saved_cost == 0.05
        assert stats.saved_latency == pytest.approx(0.5)
        assert stats.hit_rate == 0.5

    def test_lru_bound_evicts_completed_flights(self):
        flight = SingleFlight(max_entries=2)
        for i in range(3):
            flight.record("m", f"p{i}", 512, 0.0, 9.0, leader_response())
        # Default horizon is each new entry's own end (9.0), so earlier
        # flights ending at 9.0 are already complete and evictable.
        assert len(flight) == 2
        assert flight.join("m", "p0", 512, now=1.0) is None
        assert flight.join("m", "p2", 512, now=1.0) is not None

    def test_lru_never_evicts_in_flight_leaders(self):
        """Regression: filling the LRU past capacity mid-flight used to
        drop a leader whose interval still covered later joiners' starts,
        silently turning would-be joins into fresh leaders (and changing
        traces under fleet load).  In-flight entries are eviction-exempt:
        the map may transiently exceed ``max_entries``."""
        flight = SingleFlight(max_entries=2)
        # A long-running leader: in flight over [0, 100).
        flight.record("m", "slow", 512, 0.0, 100.0, leader_response(latency=100.0))
        # Burst of short calls recorded at now=2.0 (all complete by then).
        for i in range(4):
            flight.record("m", f"quick{i}", 512, 1.0, 2.0,
                          leader_response(latency=1.0), now=2.0)
        # The slow leader survived the burst; a mid-flight joiner at
        # t=50 still coalesces instead of becoming a fresh leader.
        joined = flight.join("m", "slow", 512, now=50.0)
        assert joined is not None
        response, residual = joined
        assert response.coalesced
        assert residual == pytest.approx(50.0)
        # Completed quick flights were the ones evicted.
        assert len(flight) <= 3  # slow + at most max_entries quick ones

    def test_lru_overfull_when_everything_in_flight(self):
        flight = SingleFlight(max_entries=1)
        flight.record("m", "a", 512, 0.0, 10.0, leader_response(), now=1.0)
        flight.record("m", "b", 512, 0.0, 10.0, leader_response(), now=1.0)
        # Nothing is evictable: both intervals cover instants past now.
        assert len(flight) == 2
        assert flight.join("m", "a", 512, now=5.0) is not None
        assert flight.join("m", "b", 512, now=5.0) is not None


class TestSingleFlightBoundaries:
    """Interval semantics are [start, end): exact-boundary joiners."""

    def test_join_exactly_at_start_joins(self):
        flight = SingleFlight()
        flight.record("m", "p", 512, start=1.0, end=3.0, response=leader_response())
        joined = flight.join("m", "p", 512, now=1.0)
        assert joined is not None
        assert joined[1] == pytest.approx(2.0)

    def test_join_exactly_at_end_does_not_join(self):
        flight = SingleFlight()
        flight.record("m", "p", 512, start=1.0, end=3.0, response=leader_response())
        assert flight.join("m", "p", 512, now=3.0) is None

    def test_join_just_before_end_joins_with_tiny_residual(self):
        flight = SingleFlight()
        end = 3.0
        flight.record("m", "p", 512, start=1.0, end=end, response=leader_response())
        import math

        just_before = math.nextafter(end, 0.0)
        joined = flight.join("m", "p", 512, now=just_before)
        assert joined is not None
        response, residual = joined
        # Adjacent-float subtraction may round to zero; a residual (a
        # wait) must never be negative.
        assert residual >= 0.0
        assert response.usage.latency >= 0.0

    def test_join_just_after_end_does_not_join(self):
        import math

        flight = SingleFlight()
        end = 3.0
        flight.record("m", "p", 512, start=1.0, end=end, response=leader_response())
        just_after = math.nextafter(end, 10.0)
        assert flight.join("m", "p", 512, now=just_after) is None

    def test_saved_latency_never_negative(self):
        flight = SingleFlight()
        # Leader usage claims less latency than its recorded interval
        # spans (queue wait padded the interval): saved latency clamps
        # at zero rather than going negative.
        flight.record(
            "m", "p", 512, start=0.0, end=5.0,
            response=leader_response(latency=1.0),
        )
        flight.join("m", "p", 512, now=0.5)  # residual 4.5 > latency 1.0
        assert flight.stats().saved_latency == 0.0


class TestSimulatedLLMIntegration:
    def test_capacity_queues_and_charges_wait_on_clock(self):
        clock = SimClock()
        capacity = ModelCapacity({"cap-model": 1})
        llm = client(clock, capacity=capacity)
        first = llm.complete("TASK: ECHO one")
        assert clock.now() == pytest.approx(first.usage.latency)
        # Rewind to simulate a concurrent branch starting at t=0.
        clock.rebase(0.0)
        second = llm.complete("TASK: ECHO two")
        # Queue wait (first call's full latency) + own model latency.
        assert clock.now() == pytest.approx(
            first.usage.latency + second.usage.latency
        )
        # usage.latency stays model-only: the wait is clock time, not cost.
        assert capacity.stats().queued == 1

    def test_single_flight_joins_concurrent_identical_call(self):
        clock = SimClock()
        flight = SingleFlight()
        llm = client(clock, single_flight=flight)
        leader = llm.complete("TASK: ECHO hello")
        end = clock.now()
        clock.rebase(end / 2)
        joined = llm.complete("TASK: ECHO hello")
        assert joined.coalesced
        assert joined.text == leader.text
        assert joined.usage.cost == 0.0
        # The joiner lands exactly at the leader's completion instant.
        assert clock.now() == pytest.approx(end)

    def test_no_cache_bypasses_single_flight(self):
        clock = SimClock()
        flight = SingleFlight()
        llm = client(clock, single_flight=flight)
        llm.complete("TASK: ECHO hello")
        clock.rebase(0.1)
        again = llm.complete("TASK: ECHO hello", no_cache=True)
        assert not again.coalesced
        assert flight.stats().joins == 0

    def test_coalesced_joiner_waits_in_wall_time_too(self, monkeypatch):
        """Regression: with ``wall_latency_scale`` set, a single-flight
        joiner advanced the clock by its residual but never slept it —
        every way of spending simulated latency blocks for ``x scale``."""
        import repro.llm.model as model
        from repro.llm import LLMCache

        slept = []
        monkeypatch.setattr(model.time, "sleep", slept.append)
        clock = SimClock()
        llm = client(clock, single_flight=SingleFlight())
        llm.catalog.wall_latency_scale = 0.05
        leader = llm.complete("TASK: ECHO hello")
        clock.rebase(0.25)
        joiner = llm.complete("TASK: ECHO hello")
        assert joiner.coalesced
        assert joiner.usage.latency == pytest.approx(0.75)
        assert slept == [
            pytest.approx(leader.usage.latency * 0.05),
            pytest.approx(joiner.usage.latency * 0.05),
        ]
        # A cache hit spends no latency, so it sleeps nothing.
        llm.catalog.cache = LLMCache()
        clock.rebase(5.0)
        llm.complete("TASK: ECHO hello")
        del slept[:]
        assert llm.complete("TASK: ECHO hello").cached
        assert slept == []


class TestMaxQueueWait:
    """Regression: bounded queue wait rejects instead of queueing forever."""

    def test_wait_beyond_bound_raises_transient_capacity_error(self):
        from repro.core.resilience.retry import is_transient
        from repro.errors import CapacityExceededError, LLMError

        capacity = ModelCapacity({"m": 1}, max_queue_wait=0.5)
        capacity.reserve("m", 0.0, 2.0)
        with pytest.raises(CapacityExceededError) as exc:
            capacity.reserve("m", 0.0, 1.0)  # would wait 2.0s > 0.5s
        # A simulated 429: an LLMError the retry policy classifies
        # retryable, so callers back off and try again automatically.
        assert isinstance(exc.value, LLMError)
        assert exc.value.transient
        assert is_transient(exc.value)
        assert capacity.stats().rejected == 1

    def test_wait_within_bound_still_queues(self):
        capacity = ModelCapacity({"m": 1}, max_queue_wait=5.0)
        capacity.reserve("m", 0.0, 2.0)
        assert capacity.reserve("m", 0.0, 1.0) == 2.0
        assert capacity.stats().rejected == 0

    def test_rejected_call_does_not_hold_the_slot(self):
        from repro.errors import CapacityExceededError

        capacity = ModelCapacity({"m": 1}, max_queue_wait=0.5)
        capacity.reserve("m", 0.0, 2.0)
        with pytest.raises(CapacityExceededError):
            capacity.reserve("m", 0.0, 1.0)
        # The slot frees at 2.0 and is immediately claimable: the
        # rejected reservation left nothing behind.
        assert capacity.reserve("m", 2.0, 1.0) == 2.0
        assert capacity.max_concurrency("m") == 1

    def test_validates_bound(self):
        with pytest.raises(ValueError):
            ModelCapacity({"m": 1}, max_queue_wait=-0.1)
