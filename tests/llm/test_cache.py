"""Tests for the LLM result cache: free hits, metrics, no_cache override."""

import pytest

from repro.clock import SimClock
from repro.core.runtime import Blueprint
from repro.errors import LLMError
from repro.llm import LLMCache, ModelCatalog, UsageTracker


@pytest.fixture
def cached_catalog():
    clock = SimClock()
    catalog = ModelCatalog(clock=clock)
    catalog.cache = LLMCache()
    return clock, catalog


PROMPT = "TASK: GENERATE\nwrite me a haiku about streams"


class TestCacheHits:
    def test_repeat_call_is_free(self, cached_catalog):
        clock, catalog = cached_catalog
        client = catalog.client("mega-s")
        first = client.complete(PROMPT)
        after_first = clock.now()
        again = client.complete(PROMPT)
        assert not first.cached
        assert again.cached
        assert again.text == first.text
        assert again.structured == first.structured
        assert again.usage.cost == 0.0
        assert again.usage.latency == 0.0
        assert again.usage.input_tokens == 0
        # A hit advances nothing and meters nothing.
        assert clock.now() == after_first
        assert catalog.tracker.calls == 1

    def test_distinct_prompts_and_params_miss(self, cached_catalog):
        _, catalog = cached_catalog
        client = catalog.client("mega-s")
        client.complete(PROMPT)
        other_prompt = client.complete(PROMPT + " please")
        other_params = client.complete(PROMPT, max_output_tokens=16)
        assert not other_prompt.cached
        assert not other_params.cached
        assert catalog.cache.stats().misses == 3

    def test_models_do_not_share_entries(self, cached_catalog):
        _, catalog = cached_catalog
        catalog.client("mega-s").complete(PROMPT)
        cross = catalog.client("mega-nano").complete(PROMPT)
        assert not cross.cached

    def test_stats_track_savings(self, cached_catalog):
        _, catalog = cached_catalog
        client = catalog.client("mega-s")
        first = client.complete(PROMPT)
        client.complete(PROMPT)
        client.complete(PROMPT)
        stats = catalog.cache.stats()
        assert stats.hits == 2
        assert stats.misses == 1
        assert stats.entries == 1
        assert stats.hit_rate == pytest.approx(2 / 3)
        assert stats.saved_cost == pytest.approx(2 * first.usage.cost)
        assert stats.saved_latency == pytest.approx(2 * first.usage.latency)

    def test_stats_track_saved_tokens(self, cached_catalog):
        """Regression: hits stamp zeroed usage, so token-throughput reads
        of the tracker under-report work the prompts represent.  The
        would-have-been tokens land in the savings tallies instead —
        charged usage stays zero."""
        _, catalog = cached_catalog
        client = catalog.client("mega-s")
        first = client.complete(PROMPT)
        hit = client.complete(PROMPT)
        client.complete(PROMPT)
        stats = catalog.cache.stats()
        assert hit.usage.input_tokens == 0  # charged usage untouched
        assert hit.usage.output_tokens == 0
        assert stats.saved_input_tokens == 2 * first.usage.input_tokens
        assert stats.saved_output_tokens == 2 * first.usage.output_tokens
        assert stats.saved_input_tokens > 0
        assert stats.saved_output_tokens > 0

    def test_saved_tokens_exported_in_trace_artifact(self):
        import json

        from repro.core.runtime import Blueprint

        bp = Blueprint(llm_cache=True)
        client = bp.catalog.client("mega-s")
        client.complete(PROMPT)
        client.complete(PROMPT)
        payload = json.loads(bp.trace_export())
        cache_block = payload["llm_cache"]
        assert cache_block["hits"] == 1
        assert cache_block["saved_input_tokens"] > 0
        assert cache_block["saved_output_tokens"] > 0

    def test_lru_eviction(self):
        cache = LLMCache(max_entries=2)
        catalog = ModelCatalog()
        catalog.cache = cache
        client = catalog.client("mega-nano")
        client.complete("TASK: GENERATE\na")
        client.complete("TASK: GENERATE\nb")
        client.complete("TASK: GENERATE\na")  # refresh a
        client.complete("TASK: GENERATE\nc")  # evicts b
        assert len(cache) == 2
        assert client.complete("TASK: GENERATE\na").cached
        assert not client.complete("TASK: GENERATE\nb").cached

    def test_clear_drops_entries_keeps_history(self, cached_catalog):
        _, catalog = cached_catalog
        client = catalog.client("mega-s")
        client.complete(PROMPT)
        client.complete(PROMPT)
        catalog.cache.clear()
        assert len(catalog.cache) == 0
        assert catalog.cache.stats().hits == 1
        assert not client.complete(PROMPT).cached

    def test_max_entries_must_be_positive(self):
        with pytest.raises(ValueError):
            LLMCache(max_entries=0)


class TestNoCacheOverride:
    def test_no_cache_bypasses_lookup_and_store(self, cached_catalog):
        _, catalog = cached_catalog
        client = catalog.client("mega-s")
        client.complete(PROMPT)
        bypass = client.complete(PROMPT, no_cache=True)
        assert not bypass.cached
        assert bypass.usage.cost > 0
        assert catalog.cache.stats().hits == 0

    def test_hit_skips_failure_injection(self):
        # A cached success short-circuits the failure roll entirely: the
        # call index does not advance and no LLMError can surface.
        catalog = ModelCatalog(clock=SimClock())
        catalog.cache = LLMCache()
        client = catalog.client("mega-s")
        client.complete(PROMPT)
        client.failure_rate = 1.0
        assert client.complete(PROMPT).cached
        with pytest.raises(LLMError):
            client.complete(PROMPT, no_cache=True)


class TestCatalogRewiring:
    def test_swapped_tracker_receives_usage(self):
        """A client reads the catalog's tracker on every call — a client
        cached before the swap used to meter into the abandoned one."""
        catalog = ModelCatalog()
        client_before = catalog.client("mega-s")
        old_tracker = catalog.tracker
        client_before.complete(PROMPT + " one")
        assert old_tracker.calls == 1
        replacement = UsageTracker()
        catalog.tracker = replacement
        client_after = catalog.client("mega-s")
        assert client_after is client_before  # same cached instance...
        client_after.complete(PROMPT + " two")
        assert replacement.calls == 1  # ...but metering the new tracker
        assert old_tracker.calls == 1  # and no longer the old one

    def test_swapped_cache_and_clock_rewired(self):
        catalog = ModelCatalog()
        catalog.client("mega-s").complete(PROMPT)
        catalog.cache = LLMCache()
        catalog.clock = SimClock(start=7.0)
        response = catalog.client("mega-s").complete(PROMPT)
        assert len(catalog.cache) == 1
        assert catalog.clock.now() == pytest.approx(7.0 + response.usage.latency)

    def test_swaps_reach_a_held_client(self):
        """A client fetched before the catalog's cache and batcher are
        assigned uses both on its next call, with no re-fetch."""
        from repro.llm import LLMBatcher

        catalog = ModelCatalog(clock=SimClock())
        held = catalog.client("mega-s")
        held.complete(PROMPT + " warm-up")
        catalog.cache = LLMCache()
        catalog.batcher = LLMBatcher()
        first = held.complete(PROMPT)
        assert held.complete(PROMPT).cached
        assert not first.cached
        assert catalog.cache.stats().hits == 1
        assert catalog.batcher.stats().batches == 1


class TestBlueprintWiring:
    def test_cache_off_by_default(self):
        bp = Blueprint()
        assert bp.catalog.cache is None

    def test_llm_cache_true_builds_one(self):
        bp = Blueprint(llm_cache=True)
        assert isinstance(bp.catalog.cache, LLMCache)

    def test_configured_cache_is_assigned_on_the_catalog(self):
        cache = LLMCache(max_entries=3)
        bp = Blueprint()
        bp.catalog.cache = cache
        client = bp.catalog.client("mega-s")
        client.complete(PROMPT)
        assert client.complete(PROMPT).cached
        assert cache.stats().hits == 1

    def test_cache_metrics_recorded(self):
        bp = Blueprint(llm_cache=True)
        client = bp.catalog.client("mega-s")
        client.complete(PROMPT)
        client.complete(PROMPT)
        snapshot = bp.observability.metrics.snapshot()
        assert snapshot["llm.cache.hits{model=mega-s}"] == 1.0
        assert snapshot["llm.cache.misses{model=mega-s}"] == 1.0

    def test_cached_span_attribute(self):
        bp = Blueprint(llm_cache=True)
        client = bp.catalog.client("mega-s")
        client.complete(PROMPT)
        client.complete(PROMPT)
        llm_spans = [s for s in bp.observability.tracer.spans() if s.kind == "llm"]
        assert [s.attributes.get("cached") for s in llm_spans] == [None, True]
