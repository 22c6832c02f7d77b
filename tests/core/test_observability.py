"""Unit tests for the observability subsystem and its satellite bugfixes:

* span nesting, error propagation, and deterministic ids;
* histogram percentiles (exact nearest-rank) and registry snapshots;
* exporter output (byte-comparable JSON, flamegraph, critical path);
* inf/nan hygiene — non-finite values never reach a snapshot or export;
* the Budget clock-advance/ledger-append atomicity regression;
* the CircuitBreaker abandoned-probe reclamation regression.
"""

import json
import math
import threading

import pytest

from repro.clock import SimClock
from repro.core.budget import Budget
from repro.core.context import AgentContext
from repro.core.qos import QoSSpec
from repro.core.resilience.breaker import (
    CLOSED,
    HALF_OPEN,
    OPEN,
    CircuitBreaker,
)
from repro.core.session import SessionManager
from repro.observability import (
    Observability,
    MetricsRegistry,
    Tracer,
    export_trace_json,
    render_critical_path,
    render_flamegraph,
)
from repro.observability.metrics import DROPPED_METRIC, Histogram
from repro.streams import StreamStore


# ----------------------------------------------------------------------
# Spans
# ----------------------------------------------------------------------
class TestSpanNesting:
    def test_children_nest_under_the_open_span(self):
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("plan", kind="plan") as plan:
            clock.advance(1.0)
            with tracer.span("node", kind="node") as node:
                with tracer.span("agent", kind="agent") as agent:
                    clock.advance(0.5)
        assert node.parent_id == plan.span_id
        assert agent.parent_id == node.span_id
        assert tracer.roots() == [plan]
        assert tracer.children(plan.span_id) == [node]
        assert plan.duration == pytest.approx(1.5)
        assert agent.duration == pytest.approx(0.5)

    def test_siblings_share_a_parent(self):
        tracer = Tracer(SimClock())
        with tracer.span("parent") as parent:
            with tracer.span("a"):
                pass
            with tracer.span("b"):
                pass
        names = [s.name for s in tracer.children(parent.span_id)]
        assert names == ["a", "b"]

    def test_span_ids_are_sequential_and_deterministic(self):
        tracer = Tracer(SimClock())
        with tracer.span("a"):
            with tracer.span("b"):
                pass
        assert [s.span_id for s in tracer.spans()] == [0, 1]
        assert [s.span_ref for s in tracer.spans()] == ["sp00000", "sp00001"]

    def test_exception_marks_span_error_and_reraises(self):
        tracer = Tracer(SimClock())
        with pytest.raises(RuntimeError):
            with tracer.span("boom"):
                raise RuntimeError("kaput")
        (span,) = tracer.spans()
        assert span.status == "error"
        assert "kaput" in span.error
        assert span.end is not None  # still closed

    def test_disabled_tracer_records_nothing_but_yields_a_span(self):
        tracer = Tracer(SimClock(), enabled=False)
        with tracer.span("plan", kind="plan") as span:
            span.set_attribute("goal", "x")  # must not explode
        assert tracer.spans() == []

    def test_threads_start_independent_roots(self):
        tracer = Tracer(SimClock())
        done = threading.Event()

        def worker():
            with tracer.span("worker-root"):
                pass
            done.set()

        with tracer.span("main-root"):
            thread = threading.Thread(target=worker)
            thread.start()
            thread.join()
        assert done.is_set()
        assert {s.name for s in tracer.roots()} == {"main-root", "worker-root"}


class TestTracerViewCache:
    def test_views_track_new_spans_between_reads(self):
        # Regression for the generation-counter view cache: a read
        # between writes must not freeze roots/children, and reads with
        # no intervening writes must return identical contents.
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("first", kind="plan") as first:
            with tracer.span("first-child") as first_child:
                pass
        assert tracer.roots() == [first]
        assert tracer.children(first.span_id) == [first_child]
        first_view = tracer.spans()
        assert list(first_view) == [first, first_child]
        # No writes since the last read: same contents again.
        assert list(tracer.spans()) == [first, first_child]
        with tracer.span("second", kind="plan") as second:
            pass
        assert tracer.roots() == [first, second]
        assert list(tracer.spans()) == [first, first_child, second]
        assert tracer.children(second.span_id) == []
        assert tracer.children("no-such-span") == []

    def test_find_sees_spans_opened_but_not_yet_closed(self):
        tracer = Tracer(SimClock())
        with tracer.span("outer", kind="plan") as outer:
            # The ledger records at open time, so an in-flight span is
            # already visible to queries.
            assert tracer.find(kind="plan") == [outer]
            assert list(tracer.spans()) == [outer]

    def test_reset_clears_cached_views(self):
        tracer = Tracer(SimClock())
        with tracer.span("root") as root:
            pass
        assert tracer.roots() == [root]
        tracer.reset()
        assert tracer.spans() == []
        assert tracer.roots() == []
        assert tracer.children(root.span_id) == []
        with tracer.span("fresh") as fresh:
            pass
        assert tracer.roots() == [fresh]

    def test_set_attribute_after_read_reaches_export(self):
        # Attribute dicts materialize lazily; mutating one after the
        # view cache was built must still land in the export.
        clock = SimClock()
        tracer = Tracer(clock)
        with tracer.span("root", kind="plan") as root:
            pass
        assert tracer.roots() == [root]
        root.set_attribute("late", 7)
        payload = json.loads(export_trace_json(tracer))
        assert payload["spans"][0]["attributes"] == {"late": 7}
        assert payload["spans"][0]["kind"] == "plan"


# ----------------------------------------------------------------------
# Metrics
# ----------------------------------------------------------------------
class TestHistogramPercentiles:
    def test_nearest_rank_is_exact(self):
        histogram = Histogram("latency")
        for value in range(1, 101):  # 1..100
            histogram.observe(float(value))
        assert histogram.percentile(50) == 50.0
        assert histogram.percentile(95) == 95.0
        assert histogram.percentile(99) == 99.0
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 100.0

    def test_empty_histogram(self):
        histogram = Histogram("empty")
        assert histogram.percentile(50) is None
        assert histogram.summary() == {"count": 0}

    def test_summary_fields(self):
        histogram = Histogram("h")
        for value in (3.0, 1.0, 2.0):
            histogram.observe(value)
        summary = histogram.summary()
        assert summary["count"] == 3
        assert summary["sum"] == pytest.approx(6.0)
        assert summary["min"] == 1.0
        assert summary["max"] == 3.0
        assert summary["p50"] == 2.0

    def test_percentile_out_of_range(self):
        with pytest.raises(ValueError):
            Histogram("h").percentile(101)

    def test_single_observation_is_every_percentile(self):
        histogram = Histogram("one")
        histogram.observe(7.0)
        for p in (0, 50, 95, 99, 99.9, 100):
            assert histogram.percentile(p) == 7.0
        summary = histogram.summary()
        assert (summary["p50"], summary["p95"], summary["p99"]) == (7.0, 7.0, 7.0)

    def test_two_observations_exact_ranks(self):
        # Nearest-rank: ceil(p/100 * 2) — p50 is rank 1 (the lower value),
        # anything above 50 is rank 2.
        histogram = Histogram("two")
        histogram.observe(10.0)
        histogram.observe(20.0)
        assert histogram.percentile(50) == 10.0
        assert histogram.percentile(50.1) == 20.0
        assert histogram.percentile(95) == 20.0
        assert histogram.percentile(99) == 20.0
        assert histogram.percentile(0) == 10.0
        summary = histogram.summary()
        assert (summary["p50"], summary["p95"], summary["p99"]) == (10.0, 20.0, 20.0)

    def test_float_rank_never_rounds_up_past_exact_product(self):
        # Regression: 99.9/100 * 1000 evaluates to 999.0000000000001 in
        # floating point, so a naive ceil picked rank 1000 instead of the
        # exact rank 999.
        histogram = Histogram("fp")
        for value in range(1, 1001):  # 1..1000
            histogram.observe(float(value))
        assert histogram.percentile(99.9) == 999.0
        assert histogram.percentile(99) == 990.0
        assert histogram.percentile(50) == 500.0

    def test_float_rank_regression_n2000(self):
        histogram = Histogram("fp2")
        for value in range(1, 2001):  # 1..2000
            histogram.observe(float(value))
        assert histogram.percentile(99.9) == 1998.0

    def test_sorted_cache_tracks_interleaved_observations(self):
        # Regression for the dirty-flag sorted buffer: reads between
        # writes must re-sort exactly when new observations arrived, and
        # every exact-rank answer must match a freshly sorted scan.
        histogram = Histogram("cached")
        for value in (5.0, 1.0):
            histogram.observe(value)
        assert histogram.percentile(0) == 1.0
        assert histogram.percentile(100) == 5.0
        # Repeated reads with no writes reuse the cached buffer.
        assert histogram.percentile(50) == histogram.percentile(50) == 1.0
        # A smaller value after a read must displace the cached minimum.
        histogram.observe(0.5)
        assert histogram.percentile(0) == 0.5
        assert histogram.summary()["min"] == 0.5
        histogram.observe(9.0)
        summary = histogram.summary()
        assert summary["count"] == 4
        assert summary["max"] == 9.0
        assert summary["sum"] == pytest.approx(15.5)
        assert histogram.percentile(100) == 9.0


class TestMetricsRegistry:
    def test_snapshot_is_sorted_and_label_flattened(self):
        metrics = MetricsRegistry()
        metrics.inc("llm.tokens", 5, model="b")
        metrics.inc("llm.tokens", 7, model="a")
        metrics.inc("agent.retries")
        keys = list(metrics.snapshot())
        assert keys == sorted(keys)
        assert metrics.snapshot()["llm.tokens{model=a}"] == 7.0

    def test_counters_cannot_decrease(self):
        with pytest.raises(ValueError):
            MetricsRegistry().inc("x", -1)

    def test_nonfinite_values_are_dropped_and_counted(self):
        metrics = MetricsRegistry()
        metrics.inc("a", float("inf"))
        metrics.set_gauge("b", float("nan"))
        metrics.observe("c", float("-inf"))
        snapshot = metrics.snapshot()
        assert "a" not in snapshot
        assert "b" not in snapshot
        assert "c.count" not in snapshot
        assert snapshot[f"{DROPPED_METRIC}{{metric=a}}"] == 1.0
        assert snapshot[f"{DROPPED_METRIC}{{metric=b}}"] == 1.0
        assert snapshot[f"{DROPPED_METRIC}{{metric=c}}"] == 1.0
        assert all(math.isfinite(v) for v in snapshot.values())

    def test_disabled_registry_records_nothing(self):
        metrics = MetricsRegistry(enabled=False)
        metrics.inc("a")
        metrics.set_gauge("b", 1.0)
        metrics.observe("c", 1.0)
        assert metrics.snapshot() == {}


# ----------------------------------------------------------------------
# Exporters
# ----------------------------------------------------------------------
class TestExport:
    def _traced_world(self):
        clock = SimClock()
        obs = Observability(clock)
        with obs.span("plan", kind="plan") as plan:
            plan.set_attribute("headroom", float("inf"))
            clock.advance(1.0)
            with obs.span("node", kind="node"):
                clock.advance(2.0)
            obs.metrics.inc("plan.runs")
        return obs

    def test_json_export_is_parseable_and_finite(self):
        obs = self._traced_world()
        text = obs.export_json()
        assert "Infinity" not in text and "NaN" not in text
        payload = json.loads(text)
        assert payload["spans"][1]["parent_id"] == payload["spans"][0]["span_id"]
        assert payload["spans"][0]["attributes"]["headroom"] == "inf"
        assert payload["metrics"]["plan.runs"] == 1.0

    def test_json_export_is_deterministic(self):
        first = self._traced_world().export_json()
        second = self._traced_world().export_json()
        assert first == second

    def test_flamegraph_shows_tree_and_shares(self):
        obs = self._traced_world()
        text = render_flamegraph(obs.tracer)
        lines = text.splitlines()
        assert lines[0].startswith("plan [plan] 3.000s")
        assert lines[1].startswith("  node [node] 2.000s")
        assert "100.0%" in lines[0]

    def test_critical_path_descends_to_the_latest_child(self):
        obs = self._traced_world()
        text = render_critical_path(obs.tracer)
        assert "critical path (3.000s end-to-end):" in text
        assert "-> node [node]" in text

    def test_empty_trace_renders_placeholders(self):
        tracer = Tracer(SimClock())
        assert render_flamegraph(tracer) == "(no spans recorded)"
        assert render_critical_path(tracer) == "(no spans recorded)"
        assert json.loads(export_trace_json(tracer))["spans"] == []


# ----------------------------------------------------------------------
# Satellite: Budget atomicity + inf hygiene
# ----------------------------------------------------------------------
class TestBudgetChargeAtomicity:
    def test_two_threads_ledger_order_matches_timestamps(self):
        """Regression: clock-advance and ledger-append must be one atomic
        step.  When they were separate, thread A could advance the clock,
        lose the ledger lock to thread B, and append an entry whose
        timestamp precedes its predecessor's."""
        clock = SimClock()
        budget = Budget(clock=clock)
        rounds, latency = 200, 0.25
        barrier = threading.Barrier(2)

        def worker(name):
            barrier.wait()
            for _ in range(rounds):
                budget.charge(name, cost=0.001, latency=latency)

        threads = [
            threading.Thread(target=worker, args=(f"t{i}",)) for i in range(2)
        ]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        charges = budget.charges()
        assert len(charges) == 2 * rounds
        timestamps = [entry.timestamp for entry in charges]
        assert timestamps == sorted(timestamps)
        # Each entry's timestamp is exactly the prefix-sum of latencies.
        prefix = 0.0
        for entry in charges:
            prefix += entry.latency
            assert entry.timestamp == pytest.approx(prefix)
        assert clock.now() == pytest.approx(2 * rounds * latency)

    def test_unconstrained_budget_emits_no_nonfinite_metrics(self):
        metrics = MetricsRegistry()
        budget = Budget(
            qos=QoSSpec.unconstrained(), clock=SimClock(), metrics=metrics
        )
        budget.charge("llm", cost=0.5, latency=1.0)
        snapshot = metrics.snapshot()
        assert snapshot["budget.cost{source=llm}"] == 0.5
        # inf headroom is simply not emitted — not even as a drop.
        assert "budget.remaining_cost" not in snapshot
        assert not any(DROPPED_METRIC in key for key in snapshot)
        assert all(math.isfinite(v) for v in snapshot.values())

    def test_constrained_budget_emits_remaining_gauges(self):
        metrics = MetricsRegistry()
        qos = QoSSpec(max_cost=10.0, max_latency=60.0, objective="cost")
        budget = Budget(qos=qos, clock=SimClock(), metrics=metrics)
        budget.charge("llm", cost=2.5, latency=1.0)
        snapshot = metrics.snapshot()
        assert snapshot["budget.remaining_cost"] == pytest.approx(7.5)
        assert snapshot["budget.remaining_latency"] == pytest.approx(59.0)


# ----------------------------------------------------------------------
# Satellite: breaker probe reclamation
# ----------------------------------------------------------------------
class TestBreakerProbeReclamation:
    def _half_open_breaker(self, metrics=None, probe_timeout=2.0):
        clock = SimClock()
        breaker = CircuitBreaker(
            name="flaky",
            failure_threshold=1,
            recovery_timeout=5.0,
            probe_timeout=probe_timeout,
            clock=clock,
            metrics=metrics,
        )
        breaker.record_failure()
        assert breaker.state() == OPEN
        clock.advance(5.0)
        assert breaker.state() == HALF_OPEN
        return clock, breaker

    def test_abandoned_probe_slot_is_reclaimed(self):
        """Regression: a caller admitted as the half-open probe that never
        reports (crashed, lost) used to hold the slot forever, wedging the
        breaker in half-open with every subsequent allow() refused."""
        metrics = MetricsRegistry()
        clock, breaker = self._half_open_breaker(metrics=metrics)
        assert breaker.allow() is True  # probe admitted... and abandoned
        assert breaker.allow() is False  # slot occupied
        assert breaker.outstanding_probes() == 1
        clock.advance(2.0)  # past probe_timeout
        assert breaker.allow() is True  # slot reclaimed, new probe admitted
        assert breaker.outstanding_probes() == 1
        assert (
            metrics.snapshot()["breaker.probes_reclaimed{breaker=flaky}"] == 1.0
        )

    def test_reporting_probe_frees_the_slot_normally(self):
        _, breaker = self._half_open_breaker()
        assert breaker.allow() is True
        breaker.record_success()
        assert breaker.state() == CLOSED
        assert breaker.outstanding_probes() == 0

    def test_probe_timeout_defaults_to_recovery_timeout(self):
        breaker = CircuitBreaker(recovery_timeout=30.0)
        assert breaker.probe_timeout == 30.0
        with pytest.raises(ValueError):
            CircuitBreaker(probe_timeout=0.0)

    def test_state_change_metrics(self):
        metrics = MetricsRegistry()
        clock, breaker = self._half_open_breaker(metrics=metrics)
        assert breaker.allow() is True
        breaker.record_success()
        snapshot = metrics.snapshot()
        assert snapshot["breaker.state_changes{breaker=flaky,state=open}"] == 1.0
        assert (
            snapshot["breaker.state_changes{breaker=flaky,state=half_open}"] == 1.0
        )
        assert snapshot["breaker.state_changes{breaker=flaky,state=closed}"] == 1.0


# ----------------------------------------------------------------------
# The AgentContext seam
# ----------------------------------------------------------------------
class TestContextSeam:
    def _context(self, observability=None):
        clock = SimClock()
        store = StreamStore(clock)
        session = SessionManager(store).create("obs-test")
        return AgentContext(
            store=store, session=session, clock=clock, observability=observability
        )

    def test_span_without_observability_is_a_safe_noop(self):
        context = self._context(observability=None)
        with context.span("agent:X", kind="agent") as span:
            span.set_attribute("node", "n1")  # must not explode
        context.metric_inc("agent.activations", agent="X")
        assert context.metrics is None

    def test_span_with_observability_records(self):
        observability = Observability()
        context = self._context(observability=observability)
        with context.span("agent:X", kind="agent"):
            context.metric_inc("agent.activations", agent="X")
        assert [s.name for s in observability.tracer.spans()] == ["agent:X"]
        assert (
            observability.metrics.snapshot()["agent.activations{agent=X}"] == 1.0
        )
