"""Chaos injection: seeded, replayable fault scenarios.

The resilience benchmarks and tests need failures that are *realistic*
(container kills, LLM transient-error bursts, store replica crashes) yet
*deterministic* — two runs with the same seed must produce byte-identical
traces.  :class:`ChaosController` provides that: every fault decision is a
hash of ``(seed, key, per-key counter)``, never global randomness, so the
decision sequence for each fault site is independent of interleaving with
other sites.

A scenario advances in *steps* (one per plan, request, or supervision
tick).  LLM faults model provider brownouts: a base transient rate plus
occasional bursts during which the rate spikes — exactly the regime where
naive immediate-retry melts down and breakers/fallbacks pay off.
"""

from __future__ import annotations

import hashlib
import threading
from dataclasses import dataclass
from typing import Any, TYPE_CHECKING

from ...clock import SimClock
from ...errors import TransientError

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ...llm import ModelCatalog
    from ..deployment import Cluster


@dataclass(frozen=True)
class ChaosSpec:
    """What to inject, and how hard.

    Attributes:
        container_kill_rate: probability per step of killing each running
            container in a struck cluster.
        llm_transient_rate: baseline probability an LLM call fails
            transiently.
        llm_burst_rate: probability per step that a provider brownout
            starts.
        llm_burst_length: steps a brownout lasts.
        llm_burst_transient_rate: LLM transient rate during a brownout.
        agent_transient_rate: probability a guarded agent work item raises
            :class:`~repro.errors.TransientError` (via :meth:`agent_fault`).
        plan_kill_rate: probability per journal checkpoint barrier of
            hard-killing the coordinator mid-plan (via
            :meth:`kill_during_plan`, installed as the journal's barrier
            hook) — raised as
            :class:`~repro.errors.CoordinatorKilledError`.
        surge_rate: probability per step that a traffic surge starts —
            the overload analogue of an LLM brownout.  The traffic
            generator steps the controller once per arrival bucket and
            multiplies every tenant's offered rate by
            :meth:`traffic_multiplier` while the surge lasts.
        surge_length: steps a traffic surge lasts.
        surge_multiplier: factor applied to offered traffic during a
            surge (>= 1).
        replica_kill_rate: probability per :meth:`strike_store_cluster`
            call of crashing each live store replica (it restarts after
            the cluster's ``restart_delay_ticks``).
        shard_partition_rate: probability per strike of partitioning a
            minority of each shard's replicas away from the router.
        shard_partition_ticks: cluster ticks a partition lasts.
        replica_latency_rate: probability per strike of degrading each
            live replica's latency.
        replica_latency_seconds: extra simulated seconds a degraded
            replica adds to operations on its shard.
        replica_latency_ticks: cluster ticks the degradation lasts.
    """

    container_kill_rate: float = 0.0
    llm_transient_rate: float = 0.0
    llm_burst_rate: float = 0.0
    llm_burst_length: int = 5
    llm_burst_transient_rate: float = 0.9
    agent_transient_rate: float = 0.0
    plan_kill_rate: float = 0.0
    surge_rate: float = 0.0
    surge_length: int = 5
    surge_multiplier: float = 2.0
    replica_kill_rate: float = 0.0
    shard_partition_rate: float = 0.0
    shard_partition_ticks: int = 3
    replica_latency_rate: float = 0.0
    replica_latency_seconds: float = 1.0
    replica_latency_ticks: int = 3

    def __post_init__(self) -> None:
        for name in (
            "container_kill_rate",
            "llm_transient_rate",
            "llm_burst_rate",
            "llm_burst_transient_rate",
            "agent_transient_rate",
            "plan_kill_rate",
            "surge_rate",
            "replica_kill_rate",
            "shard_partition_rate",
            "replica_latency_rate",
        ):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} must be in [0, 1]: {rate}")
        if self.surge_multiplier < 1.0:
            raise ValueError(
                f"surge_multiplier must be >= 1: {self.surge_multiplier}"
            )


class ChaosController:
    """Deterministic fault injector driven by a seed and per-key counters."""

    def __init__(
        self,
        spec: ChaosSpec,
        seed: int = 0,
        clock: SimClock | None = None,
    ) -> None:
        self.spec = spec
        self.seed = seed
        self.clock = clock or SimClock()
        self.events: list[dict[str, Any]] = []
        self._counters: dict[str, int] = {}
        self._steps = 0
        self._burst_remaining = 0
        self._surge_remaining = 0
        self._lock = threading.Lock()

    # ------------------------------------------------------------------
    # Deterministic randomness
    # ------------------------------------------------------------------
    def roll(self, key: str) -> float:
        """Next deterministic uniform draw in [0, 1) for *key*."""
        with self._lock:
            count = self._counters.get(key, 0) + 1
            self._counters[key] = count
        digest = hashlib.md5(f"{self.seed}|{key}|{count}".encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little") / 2**64

    def _record(self, kind: str, **detail: Any) -> None:
        self.events.append({"time": self.clock.now(), "kind": kind, **detail})

    # ------------------------------------------------------------------
    # Scenario stepping
    # ------------------------------------------------------------------
    def step(self) -> int:
        """Advance one step; manages LLM brownout and traffic surge state."""
        with self._lock:
            self._steps += 1
            steps = self._steps
            if self._burst_remaining > 0:
                self._burst_remaining -= 1
            if self._surge_remaining > 0:
                self._surge_remaining -= 1
        if (
            self._burst_remaining == 0
            and self.spec.llm_burst_rate > 0
            and self.roll("llm-burst") < self.spec.llm_burst_rate
        ):
            with self._lock:
                self._burst_remaining = self.spec.llm_burst_length
            self._record("llm_burst", length=self.spec.llm_burst_length)
        if (
            self._surge_remaining == 0
            and self.spec.surge_rate > 0
            and self.roll("surge") < self.spec.surge_rate
        ):
            with self._lock:
                self._surge_remaining = self.spec.surge_length
            self._record(
                "traffic_surge",
                length=self.spec.surge_length,
                multiplier=self.spec.surge_multiplier,
            )
        return steps

    def in_burst(self) -> bool:
        with self._lock:
            return self._burst_remaining > 0

    def in_surge(self) -> bool:
        with self._lock:
            return self._surge_remaining > 0

    def current_llm_rate(self) -> float:
        """Effective LLM transient rate at this step (base or brownout)."""
        if self.in_burst():
            return self.spec.llm_burst_transient_rate
        return self.spec.llm_transient_rate

    def traffic_multiplier(self) -> float:
        """Offered-traffic factor at this step (``surge_multiplier`` or 1)."""
        if self.in_surge():
            return self.spec.surge_multiplier
        return 1.0

    # ------------------------------------------------------------------
    # Fault sites
    # ------------------------------------------------------------------
    def infect_catalog(self, catalog: "ModelCatalog") -> float:
        """Point the catalog's default failure rate at the current chaos
        level; call once per step.  Returns the applied rate."""
        rate = self.current_llm_rate()
        catalog.default_failure_rate = rate
        return rate

    def strike_cluster(self, cluster: "Cluster") -> list[str]:
        """Kill each running container with ``container_kill_rate``."""
        killed: list[str] = []
        for container in cluster.containers(state="running"):
            if self.roll(f"kill|{container.container_id}") < self.spec.container_kill_rate:
                container.fail()
                killed.append(container.container_id)
                self._record("container_kill", container=container.container_id)
        return killed

    def strike_store_cluster(self, cluster: Any) -> dict[str, list[Any]]:
        """Roll the storage faults against a :class:`StoreCluster`.

        Call once per cluster tick (before or after ``tick()`` — the
        per-key counters make the decision sequence independent of when).
        Kills roll per live replica; partitions and degradations roll per
        shard / replica with their own keys, so enabling one fault family
        never shifts another family's draws.
        """
        struck: dict[str, list[Any]] = {"killed": [], "partitioned": [], "degraded": []}
        spec = self.spec
        for shard in cluster.shards:
            for replica in shard.replicas:
                if replica.status.value == "dead":
                    continue
                if (
                    spec.replica_kill_rate > 0
                    and self.roll(f"replica-kill|{replica.replica_id}")
                    < spec.replica_kill_rate
                ):
                    cluster.kill_replica(replica.replica_id)
                    struck["killed"].append(replica.replica_id)
                    self._record("replica_kill", replica=replica.replica_id)
                    continue
                if (
                    spec.replica_latency_rate > 0
                    and self.roll(f"replica-latency|{replica.replica_id}")
                    < spec.replica_latency_rate
                ):
                    cluster.degrade_replica(
                        replica.replica_id,
                        spec.replica_latency_seconds,
                        spec.replica_latency_ticks,
                    )
                    struck["degraded"].append(replica.replica_id)
                    self._record("replica_degraded", replica=replica.replica_id)
            if (
                spec.shard_partition_rate > 0
                and self.roll(f"shard-partition|{shard.shard_index}")
                < spec.shard_partition_rate
            ):
                minority = len(shard.replicas) - shard.quorum
                if minority > 0:
                    # Deterministic victim choice: a rolled offset walks
                    # the replica ring so different shards/ticks hide
                    # different minorities.
                    offset = int(
                        self.roll(f"partition-members|{shard.shard_index}")
                        * len(shard.replicas)
                    )
                    members = tuple(
                        (offset + i) % len(shard.replicas) for i in range(minority)
                    )
                    cluster.partition_shard(
                        shard.shard_index, members, spec.shard_partition_ticks
                    )
                    struck["partitioned"].append(shard.shard_index)
                    self._record(
                        "shard_partition",
                        shard=shard.shard_index,
                        members=list(members),
                    )
        return struck

    def agent_fault(self, key: str) -> None:
        """Raise :class:`TransientError` with ``agent_transient_rate``.

        Agents under chaos call this at the top of their processor.
        """
        if (
            self.spec.agent_transient_rate > 0
            and self.roll(f"agent|{key}") < self.spec.agent_transient_rate
        ):
            self._record("agent_fault", key=key)
            raise TransientError(f"chaos-injected transient fault at {key}")

    def kill_during_plan(self, site: str) -> None:
        """Hard-kill the coordinator at a journal checkpoint barrier.

        Install as the journal's ``barrier_hook``; *site* names the
        barrier (``boundary:plan/node`` or ``midnode:plan/node``).  The
        kill is :class:`~repro.errors.CoordinatorKilledError` — a
        ``BaseException`` no runtime handler absorbs — so the whole plan
        unwinds exactly as a process death would, leaving only durable
        state behind.
        """
        from ...errors import CoordinatorKilledError

        if (
            self.spec.plan_kill_rate > 0
            and self.roll(f"plankill|{site}") < self.spec.plan_kill_rate
        ):
            self._record("plan_kill", site=site)
            raise CoordinatorKilledError(f"chaos kill at barrier {site}")

    def describe(self) -> dict[str, Any]:
        kinds: dict[str, int] = {}
        for event in self.events:
            kinds[event["kind"]] = kinds.get(event["kind"], 0) + 1
        return {"seed": self.seed, "steps": self._steps, "events": kinds}


class KillSwitch:
    """One-shot deterministic coordinator kill at the Nth barrier.

    Where :meth:`ChaosController.kill_during_plan` kills probabilistically,
    the kill switch kills at exactly barrier ``kill_at`` (0-based count of
    barriers crossed) — the primitive the kill/resume determinism suite
    sweeps: *for every* barrier index, kill there, resume, and compare the
    final export to the uninterrupted run's.  With ``kill_at`` beyond the
    run's barrier count it never fires and the run is uninterrupted.
    """

    def __init__(self, kill_at: int) -> None:
        self.kill_at = kill_at
        #: Barriers crossed so far (== barrier index about to execute).
        self.seen = 0
        #: The site the switch fired at, or None while armed.
        self.fired_site: str | None = None
        # Under the thread backend, wave siblings cross barriers
        # concurrently; the count-and-compare must be atomic or the
        # switch can skip its index (two threads reading the same
        # ``seen``) and never fire.
        self._lock = threading.Lock()

    @property
    def fired(self) -> bool:
        return self.fired_site is not None

    def __call__(self, site: str) -> None:
        from ...errors import CoordinatorKilledError

        with self._lock:
            index = self.seen
            self.seen += 1
            if self.fired or index != self.kill_at:
                return
            self.fired_site = site
        raise CoordinatorKilledError(
            f"kill switch fired at barrier {index} ({site})"
        )
