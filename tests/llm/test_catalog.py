"""Tests for the model catalog."""

import pytest

from repro.clock import SimClock
from repro.errors import ModelNotFoundError
from repro.llm import DEFAULT_SPECS, ModelCatalog, ModelSpec


@pytest.fixture
def catalog():
    return ModelCatalog(clock=SimClock())


class TestCatalog:
    def test_default_fleet(self, catalog):
        assert set(catalog.names()) == {"mega-xl", "mega-m", "mega-s", "mega-nano", "hr-ft"}

    def test_spec_lookup(self, catalog):
        assert catalog.spec("mega-xl").tier == "xl"

    def test_unknown_model(self, catalog):
        with pytest.raises(ModelNotFoundError):
            catalog.spec("gpt-9000")

    def test_register_custom(self, catalog):
        catalog.register(
            ModelSpec("custom", "m", 0.5, 0.001, 0.002, 0.1, 0.001)
        )
        assert "custom" in catalog.names()

    def test_client_cached(self, catalog):
        assert catalog.client("mega-m") is catalog.client("mega-m")

    def test_client_failure_rate_variant(self, catalog):
        reliable = catalog.client("mega-m")
        flaky = catalog.client("mega-m", failure_rate=0.5)
        assert reliable is not flaky

    def test_client_shares_clock_and_tracker(self, catalog):
        client = catalog.client("mega-s")
        client.complete("hi")
        assert catalog.tracker.calls == 1
        assert catalog.clock.now() > 0

    def test_best_general(self, catalog):
        assert catalog.best().name == "mega-xl"

    def test_best_hr_domain(self, catalog):
        # quality_for("hr"): mega-xl 0.98 vs hr-ft 0.96 — xl still best.
        assert catalog.best("hr").name == "mega-xl"

    def test_default_specs_are_priced_sanely(self):
        for spec in DEFAULT_SPECS:
            assert spec.cost_per_1k_output >= spec.cost_per_1k_input
            assert 0 < spec.quality <= 1
