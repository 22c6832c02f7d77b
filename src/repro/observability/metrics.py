"""The metrics registry: counters, gauges, and histograms.

"You cannot optimize what you cannot measure": the blueprint's QoS loop
(Section V-H) records charges, but scaling decisions need *aggregates* —
how many tokens each model burned, how often breakers tripped, where the
p99 latency lives.  A :class:`MetricsRegistry` collects those aggregates
from every instrumented layer (coordinator, agents, budget, resilience,
LLM clients, streams, storage) into one deterministic snapshot.

Determinism rules:

* values are only ever derived from the :class:`~repro.clock.SimClock`
  and the (seeded) workload, never from wall time or global randomness;
* snapshots are sorted by metric name and label so two identical runs
  serialize byte-for-byte;
* non-finite observations (``inf``/``nan`` — e.g. the remaining headroom
  of an unconstrained budget) are **dropped**, not recorded, and tallied
  under the ``observability.dropped_nonfinite`` counter so silently-bad
  instrumentation stays visible.  Exports therefore never contain
  ``Infinity`` or ``NaN`` tokens.
"""

from __future__ import annotations

import math
import threading
from typing import Any, Callable, Mapping

#: Counter bumped (on the same registry) whenever a non-finite value is
#: offered to any instrument.
DROPPED_METRIC = "observability.dropped_nonfinite"


def _label_key(labels: Mapping[str, Any]) -> tuple[tuple[str, str], ...]:
    # Fast paths: instrument calls pass labels as kwargs, so keys are
    # already strings, and one label is by far the common case.
    if not labels:
        return ()
    if len(labels) == 1:
        [(k, v)] = labels.items()
        return ((k, v if type(v) is str else str(v)),)
    return tuple(sorted((str(k), str(v)) for k, v in labels.items()))


def render_key(name: str, **labels: Any) -> str:
    """The flattened ``name{k=v,...}`` form a snapshot uses for *name*."""
    return f"{name}{_render_labels(_label_key(labels))}"


def _render_labels(key: tuple[tuple[str, str], ...]) -> str:
    if not key:
        return ""
    return "{" + ",".join(f"{k}={v}" for k, v in key) + "}"


class Counter:
    """A monotonically increasing sum, optionally split by labels."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: dict[tuple[tuple[str, str], ...], float] = {}
        self._lock = threading.Lock()

    def inc(self, value: float = 1.0, **labels: Any) -> None:
        if value < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease: {value}")
        key = _label_key(labels)
        with self._lock:
            self._values[key] = self._values.get(key, 0.0) + value

    def value(self, **labels: Any) -> float:
        with self._lock:
            return self._values.get(_label_key(labels), 0.0)

    def total(self) -> float:
        with self._lock:
            return sum(self._values.values())

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            items = sorted(self._values.items())
        return {f"{self.name}{_render_labels(key)}": value for key, value in items}


class Gauge:
    """A point-in-time value (last write wins), optionally labeled."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._values: dict[tuple[tuple[str, str], ...], float] = {}
        self._lock = threading.Lock()

    def set(self, value: float, **labels: Any) -> None:
        with self._lock:
            self._values[_label_key(labels)] = float(value)

    def value(self, **labels: Any) -> float | None:
        with self._lock:
            return self._values.get(_label_key(labels))

    def snapshot(self) -> dict[str, float]:
        with self._lock:
            items = sorted(self._values.items())
        return {f"{self.name}{_render_labels(key)}": value for key, value in items}


def _nearest_rank(p: float, n: int) -> int:
    """1-based nearest-rank index: ``ceil(p/100 * n)``, clamped to [1, n].

    Computed as ``ceil(p * n / 100 - eps)`` because the naive float product
    can land epsilon *above* an exact integer and ceil one rank too high —
    e.g. ``99.9 / 100 * 1000`` is 999.0000000000001, so p99.9 of 1000
    observations would wrongly pick rank 1000 instead of 999.
    """
    return min(n, max(1, math.ceil(p * n / 100.0 - 1e-9)))


class Histogram:
    """A distribution with exact nearest-rank percentiles.

    Observations are kept in full (runs are bounded and simulated), which
    makes p50/p95/p99 exact and deterministic rather than bucketed
    approximations.
    """

    def __init__(self, name: str) -> None:
        self.name = name
        self._observations: list[float] = []
        self._lock = threading.Lock()
        # Cached sorted copy, valid while the observation count is
        # unchanged.  Observations are append-only, so the length *is*
        # the dirty flag: ``observe`` never touches the cache fields and
        # stays a single lock-free append.
        self._sorted: list[float] = []
        self._sorted_len = 0

    def observe(self, value: float) -> None:
        # list.append is atomic under the GIL; readers copy under the lock.
        self._observations.append(float(value))

    def __len__(self) -> int:
        with self._lock:
            return len(self._observations)

    def _ordered(self) -> list[float]:
        """The sorted observations, re-sorted only after new data.

        Callers must treat the result as read-only: repeated percentile
        pulls (metrics collectors, bench gates) share one sorted buffer
        until the next observation lands.
        """
        with self._lock:
            observations = self._observations
            if len(observations) != self._sorted_len:
                snapshot = list(observations)
                self._sorted = sorted(snapshot)
                self._sorted_len = len(snapshot)
            return self._sorted

    def percentile(self, p: float) -> float | None:
        """Nearest-rank percentile of everything observed (None if empty)."""
        if not 0.0 <= p <= 100.0:
            raise ValueError(f"percentile must be in [0, 100]: {p}")
        ordered = self._ordered()
        if not ordered:
            return None
        return ordered[_nearest_rank(p, len(ordered)) - 1]

    def summary(self) -> dict[str, float]:
        """count/sum/min/max plus the p50/p95/p99 the scaling studies use."""
        ordered = self._ordered()
        if not ordered:
            return {"count": 0}

        def rank(p: float) -> float:
            return ordered[_nearest_rank(p, len(ordered)) - 1]

        return {
            "count": len(ordered),
            "sum": sum(ordered),
            "min": ordered[0],
            "max": ordered[-1],
            "p50": rank(50.0),
            "p95": rank(95.0),
            "p99": rank(99.0),
        }

    def snapshot(self) -> dict[str, float]:
        return {f"{self.name}.{k}": v for k, v in sorted(self.summary().items())}


class CollectorSink:
    """One snapshot's worth of *pulled* series (see ``register_collector``).

    Counter-style series from different collectors sum on key collision;
    gauge-style series are last-write-wins.  Non-finite values are
    silently skipped — a collector reporting the headroom of an
    unconstrained budget is normal, not an instrumentation bug.
    """

    __slots__ = ("counters", "gauges")

    def __init__(self) -> None:
        self.counters: dict[str, float] = {}
        self.gauges: dict[str, float] = {}

    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        if math.isfinite(value):
            key = render_key(name, **labels)
            self.counters[key] = self.counters.get(key, 0.0) + value

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        if math.isfinite(value):
            self.gauges[render_key(name, **labels)] = float(value)


class MetricsRegistry:
    """Lazily-created named instruments behind one deterministic snapshot.

    High-frequency sources (the stream store, budgets) do not push an
    update per event — they register a *collector* that is pulled once
    per snapshot, keeping the hot path at a plain attribute increment.

    Example:
        >>> metrics = MetricsRegistry()
        >>> metrics.inc("llm.calls")
        >>> metrics.observe("llm.latency", 0.25)
        >>> metrics.snapshot()["llm.calls"]
        1.0
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}
        self._collectors: list[Callable[[CollectorSink], None]] = []
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Instrument access
    # ------------------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            instrument = self._counters.get(name)
            if instrument is None:
                instrument = self._counters[name] = Counter(name)
            return instrument

    def gauge(self, name: str) -> Gauge:
        with self._lock:
            instrument = self._gauges.get(name)
            if instrument is None:
                instrument = self._gauges[name] = Gauge(name)
            return instrument

    def histogram(self, name: str) -> Histogram:
        with self._lock:
            instrument = self._histograms.get(name)
            if instrument is None:
                instrument = self._histograms[name] = Histogram(name)
            return instrument

    # ------------------------------------------------------------------
    # Recording conveniences (the instrumented layers call these)
    # ------------------------------------------------------------------
    # Each gates on enabled, drops non-finite values (tallying them under
    # DROPPED_METRIC), and dodges the creation lock once the instrument
    # exists — a plain dict read is safe under the GIL.
    def inc(self, name: str, value: float = 1.0, **labels: Any) -> None:
        if not self.enabled:
            return
        if not math.isfinite(value):
            self.counter(DROPPED_METRIC).inc(1.0, metric=name)
            return
        counter = self._counters.get(name)
        if counter is None:
            counter = self.counter(name)
        counter.inc(value, **labels)

    def set_gauge(self, name: str, value: float, **labels: Any) -> None:
        if not self.enabled:
            return
        if not math.isfinite(value):
            self.counter(DROPPED_METRIC).inc(1.0, metric=name)
            return
        gauge = self._gauges.get(name)
        if gauge is None:
            gauge = self.gauge(name)
        gauge.set(value, **labels)

    def observe(self, name: str, value: float) -> None:
        if not self.enabled:
            return
        if not math.isfinite(value):
            self.counter(DROPPED_METRIC).inc(1.0, metric=name)
            return
        histogram = self._histograms.get(name)
        if histogram is None:
            histogram = self.histogram(name)
        histogram.observe(value)

    # ------------------------------------------------------------------
    # Collectors (pull-based sources)
    # ------------------------------------------------------------------
    def register_collector(self, collector: Callable[[CollectorSink], None]) -> None:
        """Pull *collector* at every snapshot.

        The hot-path alternative to pushing one ``inc`` per event: the
        source keeps plain tallies and reports them all when asked.
        """
        with self._lock:
            self._collectors.append(collector)

    # ------------------------------------------------------------------
    # Snapshot
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, float]:
        """Every instrument flattened to ``name{labels}`` -> value, sorted."""
        with self._lock:
            counters = list(self._counters.values())
            gauges = list(self._gauges.values())
            histograms = list(self._histograms.values())
            collectors = list(self._collectors)
        merged: dict[str, float] = {}
        for instrument in (*counters, *gauges, *histograms):
            merged.update(instrument.snapshot())
        if self.enabled and collectors:
            sink = CollectorSink()
            for collect in collectors:
                collect(sink)
            for key, value in sink.counters.items():
                merged[key] = merged.get(key, 0.0) + value
            merged.update(sink.gauges)
        return dict(sorted(merged.items()))

    def reset(self) -> None:
        """Drop every instrument (tests and fresh benchmark phases).

        Registered collectors are kept: they are wiring, not state — the
        sources they pull from keep their own tallies.
        """
        with self._lock:
            self._counters.clear()
            self._gauges.clear()
            self._histograms.clear()
