"""Tests for the simulated LLM: tasks, degradation, accounting, failures."""

import pytest

from repro.clock import SimClock
from repro.errors import ContextWindowExceededError, LLMError
from repro.llm import ModelCatalog, ModelSpec, UsageTracker, prompts
from repro.llm.knowledge import REGION_CITIES


def spec(quality=1.0, **overrides):
    defaults = dict(
        name="test-model",
        tier="m",
        quality=quality,
        cost_per_1k_input=0.01,
        cost_per_1k_output=0.02,
        latency_base=1.0,
        latency_per_token=0.01,
        context_window=1000,
    )
    defaults.update(overrides)
    return ModelSpec(**defaults)


def model(quality=1.0, clock=None, tracker=None, failure_rate=0.0, **overrides):
    """The client of a one-spec catalog built around *spec(quality, ...)*."""
    catalog = ModelCatalog(
        specs=(spec(quality=quality, **overrides),), clock=clock, tracker=tracker
    )
    catalog.default_failure_rate = failure_rate
    return catalog.client("test-model")


class TestModelSpec:
    def test_cost_of(self):
        s = spec()
        assert s.cost_of(1000, 1000) == pytest.approx(0.03)

    def test_latency_of(self):
        s = spec()
        assert s.latency_of(50, 50) == pytest.approx(1.0 + 100 * 0.01)

    def test_quality_for_domain(self):
        ft = spec(quality=0.6, domain="hr", domain_quality=0.95)
        assert ft.quality_for("hr") == 0.95
        assert ft.quality_for("general") == 0.6

    def test_general_model_same_everywhere(self):
        s = spec(quality=0.9)
        assert s.quality_for("hr") == 0.9


class TestKnowledgeTasks:
    def test_perfect_model_lists_all_cities(self):
        response = model().complete(prompts.list_cities("sf bay area"))
        assert set(response.structured) == set(REGION_CITIES["sf bay area"])
        assert response.domain == "general"

    def test_unknown_region(self):
        response = model().complete(prompts.list_cities("atlantis"))
        assert response.structured == []

    def test_related_titles(self):
        response = model().complete(prompts.related_titles("data scientist"))
        assert "Machine Learning Engineer" in response.structured
        assert response.domain == "hr"

    def test_unknown_title_fallback(self):
        response = model().complete(prompts.related_titles("basket weaver"))
        assert response.structured == ["Basket Weaver"]

    def test_skills(self):
        response = model().complete(prompts.list_skills("data scientist"))
        assert "python" in response.structured

    def test_degradation_drops_items(self):
        perfect = model(1.0).complete(prompts.list_cities("sf bay area"))
        weak = model(0.3).complete(prompts.list_cities("sf bay area"))
        assert len(weak.structured) < len(perfect.structured)

    def test_degradation_deterministic(self):
        a = model(0.5).complete(prompts.list_cities("sf bay area"))
        b = model(0.5).complete(prompts.list_cities("sf bay area"))
        assert a.structured == b.structured

    def test_weak_model_still_answers_something(self):
        response = model(0.01).complete(prompts.list_cities("sf bay area"))
        assert len(response.structured) >= 1


class TestTextTasks:
    def test_extract(self):
        response = model().complete(
            prompts.extract(
                "I am looking for a data scientist position in SF bay area.",
                ("title", "location"),
            )
        )
        assert response.structured["title"] == "Data Scientist"
        assert response.structured["location"] == "sf bay area"

    def test_extract_city(self):
        response = model().complete(
            prompts.extract("software engineer roles in Oakland", ("title", "location"))
        )
        assert response.structured["location"] == "Oakland"

    def test_extract_skills(self):
        response = model().complete(
            prompts.extract("I know python and sql", ("skills",))
        )
        assert "python" in response.structured["skills"]

    def test_summarize_condenses(self):
        text = " ".join(f"word{i}" for i in range(100))
        response = model().complete(prompts.summarize(text))
        assert len(response.structured.split()) < 100

    def test_classify_heuristics(self):
        labels = ("open_query", "summarize", "greeting")
        assert model().complete(prompts.classify("how many applicants?", labels)).structured == "open_query"
        assert model().complete(prompts.classify("summarize job 3", labels)).structured == "summarize"
        assert model().complete(prompts.classify("hello there", labels)).structured == "greeting"

    def test_classify_requires_labels(self):
        with pytest.raises(LLMError):
            model().complete("TASK: CLASSIFY\nTEXT: hi")

    def test_q2nl(self):
        response = model().complete(prompts.q2nl("cities in the sf bay area"))
        assert "cities in the sf bay area" in response.text.lower()

    def test_freeform_generate(self):
        response = model().complete("just some chat text")
        assert "test-model" in response.text
        assert response.structured is None


class TestAccounting:
    def test_usage_metering(self):
        response = model().complete(prompts.list_cities("sf bay area"))
        usage = response.usage
        assert usage.input_tokens > 0
        assert usage.output_tokens > 0
        assert usage.cost > 0
        assert usage.latency > 1.0

    def test_clock_advances(self):
        clock = SimClock()
        m = model(clock=clock)
        response = m.complete("hello")
        assert clock.now() == pytest.approx(response.usage.latency)

    def test_tracker_records(self):
        tracker = UsageTracker()
        m = model(tracker=tracker)
        m.complete("one")
        m.complete("two")
        assert tracker.calls == 2
        assert tracker.cost > 0
        assert tracker.per_model["test-model"]["calls"] == 2

    def test_context_window_enforced(self):
        m = model(context_window=5)
        with pytest.raises(ContextWindowExceededError):
            m.complete("this prompt is definitely longer than five tokens")


class TestFailureInjection:
    def test_failure_rate_validation(self):
        with pytest.raises(LLMError):
            model(failure_rate=1.5)

    def test_failures_happen_at_high_rate(self):
        m = model(failure_rate=1.0)
        with pytest.raises(LLMError, match="transient"):
            m.complete("anything")

    def test_no_failures_at_zero_rate(self):
        m = model(failure_rate=0.0)
        for _ in range(5):
            m.complete("anything")

    def test_failures_intermittent(self):
        m = model(failure_rate=0.5)
        outcomes = []
        for i in range(20):
            try:
                m.complete(f"prompt {i}")
                outcomes.append(True)
            except LLMError:
                outcomes.append(False)
        assert any(outcomes) and not all(outcomes)
