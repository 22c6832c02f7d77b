"""Property-based tests: the LLM reuse ladder's contract.

Whatever rungs are attached and however calls land on the simulated
timeline, reuse never changes what the model says, every answered call
is exactly one of cached / coalesced / batched / physical and is charged
and timed accordingly, and the program's own tallies add up — the
accounting identity ``benchmarks/e2e/layers.py::cross_check`` checks from
outside.  Plus the one eviction rule under all three rungs
(:class:`repro.llm.windows.LiveLRU`) and the purity of the synthesizer.
"""

from collections import OrderedDict

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.clock import SimClock
from repro.errors import LLMError
from repro.llm import (
    LLMBatcher,
    LLMCache,
    LLMResponse,
    LLMUsage,
    ModelCapacity,
    ModelCatalog,
    ModelSpec,
    SimulatedLLM,
    SingleFlight,
    UsageTracker,
    count_tokens,
)
from repro.llm.answer import answer
from repro.llm.windows import LiveLRU
from repro.observability import Observability

SPEC = ModelSpec(
    name="ladder-model",
    tier="m",
    quality=0.7,
    cost_per_1k_input=0.01,
    cost_per_1k_output=0.02,
    latency_base=0.5,
    latency_per_token=0.02,  # distinct prompts take distinct times
    context_window=4000,
)
SEED = 3
MAX_OUT = 512


def seeded_client(clock=None, tracker=None, **plumbing) -> SimulatedLLM:
    """A SEED-seeded SPEC client of a catalog with *plumbing* assigned
    (a catalog's own clients are seed 0, so this one is built beside it)."""
    catalog = ModelCatalog(specs=(SPEC,), clock=clock, tracker=tracker)
    for attribute, value in plumbing.items():
        setattr(catalog, attribute, value)
    return SimulatedLLM(SPEC, catalog, seed=SEED)

PROMPTS = (
    "TASK: GENERATE\nwrite a short note about onboarding",
    "TASK: LIST_CITIES\nREGION: sf bay area",
    "TASK: SUMMARIZE\nTEXT: first row of results\nsecond row of results\nthird row",
    "TASK: CLASSIFY\nLABELS: rank, summarize, greeting\nTEXT: please rank the candidates",
)
UNANSWERABLE = "TASK: CLASSIFY\nTEXT: no labels, so the model cannot answer"

#: One call: (simulated start on a small grid, prompt, no_cache).
STEP = st.tuples(
    st.integers(min_value=0, max_value=16).map(lambda tick: tick * 0.25),
    st.sampled_from(PROMPTS + (UNANSWERABLE,)),
    st.sampled_from([False, False, False, True]),  # mostly let the rungs fire
)


def series(snapshot, name):
    """A labelled counter summed over its labels."""
    return sum(v for k, v in snapshot.items() if k.split("{")[0] == name)


class TestLadderContract:
    @given(
        steps=st.lists(STEP, min_size=1, max_size=14),
        with_cache=st.booleans(),
        with_flight=st.booleans(),
        with_batcher=st.booleans(),
        slots=st.sampled_from([None, 1, 2]),
        max_batch_size=st.integers(min_value=1, max_value=4),
        max_batch_wait=st.sampled_from([0.25, 1.0, 5.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_each_call_is_one_rung_and_the_tallies_add_up(
        self, steps, with_cache, with_flight, with_batcher, slots,
        max_batch_size, max_batch_wait,
    ):
        clock = SimClock()
        tracker = UsageTracker()
        observability = Observability(clock)
        cache = LLMCache() if with_cache else None
        flight = SingleFlight() if with_flight else None
        batcher = (
            LLMBatcher(max_batch_size=max_batch_size, max_batch_wait=max_batch_wait)
            if with_batcher else None
        )
        capacity = ModelCapacity({SPEC.name: slots}) if slots else None
        llm = seeded_client(
            clock, tracker, observability=observability, cache=cache,
            capacity=capacity, single_flight=flight, batcher=batcher,
        )
        answered, raised, physical, joins, cost = 0, 0, 0, 0, 0.0
        for start, prompt, no_cache in steps:
            clock.rebase(start)
            queued_before = capacity.stats().queued if capacity is not None else 0
            if prompt is UNANSWERABLE:
                with pytest.raises(LLMError):
                    llm.complete(prompt, MAX_OUT, no_cache=no_cache)
                raised += 1
                assert clock.now() == start  # nothing was spent
                continue
            response = llm.complete(prompt, MAX_OUT, no_cache=no_cache)
            answered += 1
            usage = response.usage
            cost += usage.cost
            span = observability.tracer.spans()[-1].attributes

            # Reuse never changes what the model says.
            said = (response.text, response.structured, response.domain)
            assert said == answer(SPEC, SEED, prompt)

            flags = (response.cached, response.coalesced, response.batched)
            assert sum(flags) <= 1
            if no_cache:
                assert not any(flags)
            own_in = count_tokens(prompt)
            own_out = min(count_tokens(response.text), MAX_OUT)
            if response.cached:
                assert usage == LLMUsage(0, 0, 0.0, 0.0)
                assert clock.now() == start
            elif response.coalesced:
                assert (usage.input_tokens, usage.output_tokens, usage.cost) == (0, 0, 0.0)
                assert clock.now() == start + usage.latency
            else:
                # Charged: own tokens and own cost, ridden or not.
                assert (usage.input_tokens, usage.output_tokens) == (own_in, own_out)
                assert usage.cost == SPEC.cost_of(own_in, own_out)
                if response.batched:
                    # Lands with the batch — possibly *later* than solo.
                    joins += 1
                    assert clock.now() == start + usage.latency
                    assert "queue_wait" not in span
                else:
                    physical += 1
                    assert usage.latency == SPEC.latency_of(own_in, own_out)
                    queued = capacity is not None and (
                        capacity.stats().queued > queued_before
                    )
                    assert ("queue_wait" in span) == queued
                    assert clock.now() == pytest.approx(
                        start + span.get("queue_wait", 0.0) + usage.latency
                    )

        # The accounting identity, from the program's own tallies.
        snapshot = observability.metrics.snapshot()
        hits = cache.stats().hits if cache is not None else 0
        coalesced = flight.stats().joins if flight is not None else 0
        assert joins == (batcher.stats().joins if batcher is not None else 0)
        assert answered == hits + coalesced + joins + physical
        assert series(snapshot, "llm.cache.hits") == hits
        assert series(snapshot, "llm.coalesced") == coalesced
        assert series(snapshot, "llm.batch.joins") == joins
        assert series(snapshot, "llm.calls") == physical
        assert series(snapshot, "llm.failures") == raised
        if cache is not None:
            assert series(snapshot, "llm.cache.misses") == cache.stats().misses
        # Every physical call — and nothing else — led a flight, opened a
        # window, and reserved a slot.
        if flight is not None:
            assert flight.stats().leaders == physical
        if batcher is not None:
            assert batcher.stats().batches == physical
            assert series(snapshot, "llm.batch.windows") == physical
            assert batcher.stats().peak_batch <= max_batch_size
        if capacity is not None:
            assert capacity.stats().reservations == physical
            assert capacity.max_concurrency(SPEC.name) <= slots
        assert tracker.calls == physical + joins
        assert tracker.cost == pytest.approx(cost)
        assert series(snapshot, "llm.cost") == pytest.approx(cost)


def reference_store(entries, max_entries, key, live_until, now):
    """The eviction loop single-flight and the batcher each used to carry."""
    entries[key] = live_until
    entries.move_to_end(key)
    for stale_key in list(entries):
        if len(entries) <= max_entries:
            break
        if entries[stale_key] <= now:
            del entries[stale_key]


class TestLiveLRU:
    @given(
        max_entries=st.integers(min_value=1, max_value=4),
        stores=st.lists(
            st.tuples(
                st.integers(min_value=0, max_value=6),  # key
                st.integers(min_value=0, max_value=8),  # live_until
                st.integers(min_value=0, max_value=8),  # now
            ),
            max_size=30,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_live_entries_survive_and_only_they_overfill(self, max_entries, stores):
        lru = LiveLRU(max_entries)
        reference = OrderedDict()
        for key, live_until, now in stores:
            live_before = {
                k for k, (_, until) in lru._entries.items() if until > now and k != key
            }
            lru._store(key, f"payload-{key}", float(live_until), float(now))
            survivors = {k: until for k, (_, until) in lru._entries.items()}
            assert live_before <= survivors.keys()
            if len(lru) > max_entries:
                assert all(until > now for until in survivors.values())
            reference_store(reference, max_entries, key, float(live_until), float(now))
            assert list(lru._entries) == list(reference)
            if key in survivors:
                assert lru._peek(key) == f"payload-{key}"

    def test_bound_must_be_positive(self):
        with pytest.raises(ValueError, match="max_entries must be > 0"):
            LiveLRU(0)

    def test_a_use_refreshes_recency_on_every_rung(self):
        """Each rung touches LRU order only on a hit / successful join:
        the stale entry that was *used* outlives the one that was not."""
        response = LLMResponse("answer", LLMUsage(1, 1, 0.01, 1.0), model="m")

        cache = LLMCache(max_entries=2)
        cache.put("m", "a", 512, response)
        cache.put("m", "b", 512, response)
        assert cache.get("m", "a", 512) is not None
        cache.put("m", "c", 512, response)
        assert cache.get("m", "a", 512) is not None
        assert cache.get("m", "b", 512) is None

        flight = SingleFlight(max_entries=2)
        flight.record("m", "a", 512, 0.0, 1.0, response)
        flight.record("m", "b", 512, 0.0, 1.0, response)
        assert flight.join("m", "a", 512, now=0.5) is not None
        flight.record("m", "c", 512, 9.0, 10.0, response, now=10.0)
        assert flight.join("m", "a", 512, now=0.5) is not None
        assert flight.join("m", "b", 512, now=0.5) is None

        batcher = LLMBatcher(max_batch_wait=0.5, max_entries=2)
        batcher.open("a", 512, start=0.0, exec_end=1.0)
        batcher.open("b", 512, start=0.0, exec_end=1.0)
        assert batcher.join("a", 512, now=0.25) is not None
        batcher.open("c", 512, start=9.0, exec_end=10.0)
        assert batcher.join("a", 512, now=0.25) is not None
        assert batcher.join("b", 512, now=0.25) is None


class TestAnswerIsPure:
    @given(prompt=st.sampled_from(PROMPTS), seed=st.integers(min_value=0, max_value=5))
    @settings(max_examples=40, deadline=None)
    def test_same_inputs_same_answer(self, prompt, seed):
        assert answer(SPEC, seed, prompt) == answer(SPEC, seed, prompt)

    @given(prompt=st.sampled_from(PROMPTS))
    @settings(max_examples=8, deadline=None)
    def test_clock_and_rungs_do_not_change_the_text(self, prompt):
        bare = seeded_client()
        wired = seeded_client(
            SimClock(), cache=LLMCache(), capacity=ModelCapacity({SPEC.name: 1}),
            single_flight=SingleFlight(), batcher=LLMBatcher(),
        )
        expected = bare.complete(prompt).text
        assert expected == answer(SPEC, SEED, prompt)[0]
        assert [wired.complete(prompt).text for _ in range(3)] == [expected] * 3
