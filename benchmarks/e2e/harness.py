"""What every workload shares: the round protocol's data types and maths.

A *round* is one fresh set-up of the system under test followed by one
timed pass over the workload's fixed, seed-generated inputs.  A run
repeats rounds until its time budget is spent, so a faster program gets
more samples, never a different workload.
"""

from __future__ import annotations

import hashlib
import math
import random
import statistics
from dataclasses import dataclass, field
from typing import Any, Iterable, Sequence


def percentile(values: Sequence[float], q: float) -> float:
    """Nearest-rank quantile (0.0 for an empty sample)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    rank = max(0, min(len(ordered) - 1, math.ceil(q * len(ordered)) - 1))
    return ordered[rank]


def digest(rows: Iterable[tuple]) -> str:
    """SHA-256 over the sorted rows: the run's determinism fingerprint."""
    sha = hashlib.sha256()
    for row in sorted(repr(row) for row in rows):
        sha.update(row.encode("utf-8"))
        sha.update(b"\n")
    return sha.hexdigest()


def growth_ratio(values: Sequence[float]) -> float:
    """Median of the last decile over median of the first decile.

    1.0 means the per-call cost is flat over the run; > 1 means calls
    get slower as state accumulates.
    """
    decile = len(values) // 10
    if decile == 0:
        return 0.0
    first = statistics.median(values[:decile])
    return statistics.median(values[-decile:]) / first if first > 0 else 0.0


@dataclass
class Outcome:
    """One round's observable result, as the benchmark (not the program) saw it."""

    attempted: int
    completed: int
    #: Operations that ended in an error: a failed or aborted plan, a
    #: turn with no reply, a store op that raised or read a wrong value.
    errored: int
    #: Operations the program refused by policy (rate-limited, shed,
    #: expired): expected under overload, still a miss for the user.
    refused: int
    #: Per-op wall latencies in seconds, by op class.
    latencies: dict[str, list[float]]
    #: The same latencies in issue order, where order means something
    #: (closed loops: does an op get slower as state accumulates?).
    timeline: list[float] = field(default_factory=list)
    #: ``result_digest`` rows: (op id, outcome, sim finish | reply | result).
    digest_rows: list[tuple] = field(default_factory=list)
    #: The deterministic ``sim_*`` metrics this workload defines.
    sim: dict[str, float] = field(default_factory=dict)
    #: Hard correctness failures (empty = the round is correct).
    problems: list[str] = field(default_factory=list)

    @property
    def all_latencies(self) -> list[float]:
        return [x for series in self.latencies.values() for x in series]

    @property
    def failed_share(self) -> float:
        return (self.attempted - self.completed) / self.attempted


class Workload:
    """Base class: one named workload, parameterised by seed and scale.

    Subclasses build their inputs from ``self.rng`` in ``__init__`` (the
    program only ever sees generated inputs), construct a fresh system
    in :meth:`setup`, drive it in :meth:`run` (the timed region) and
    judge it in :meth:`outcome`.  The attributes below are what
    ``layers.py`` reads the program's public tallies from.
    """

    name = ""
    #: What one op is, for the report.
    op = "op"

    def __init__(self, seed: int, scale: float = 1.0) -> None:
        self.seed = seed
        self.scale = scale
        self.rng = random.Random(f"{self.name}|{seed}")
        #: Seconds spent generating inputs (arrival traces, op lists).
        self.generator_s = 0.0
        self.blueprints: list[Any] = []
        self.clusters: list[Any] = []
        self.fleet_result: Any = None
        self.brownout: Any = None
        self.wall_latency_scale = 0.0

    def sized(self, full: int, floor: int = 1) -> int:
        return max(floor, int(round(full * self.scale)))

    def setup(self) -> None:
        raise NotImplementedError

    def run(self, recorder: Any = None) -> None:
        raise NotImplementedError

    def outcome(self) -> Outcome:
        raise NotImplementedError

    def teardown(self) -> None:
        """Drop the system so the next round's set-up starts from nothing."""
        self.blueprints = []
        self.clusters = []
        self.fleet_result = None
        self.brownout = None
