"""Simulated cluster deployment (Figure 2).

"In production setting, these components are distributed across different
clusters with varying compute and networking configurations ... deployed in
a distributed system with containers running each component, configured to
scale and restart on failure" (Sections IV, V-B).

This module simulates that story: a :class:`Cluster` of :class:`ClusterNode`
machines hosts :class:`Container` instances placed by resource profile;
each container runs an :class:`~repro.core.factory.AgentFactory` that spawns
its agents; a :class:`Supervisor` restarts failed containers, respawning
and re-attaching their agents.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Any, Callable, TYPE_CHECKING

from ..clock import SimClock
from ..errors import DeploymentError
from .agent import Agent
from .context import AgentContext
from .factory import AgentFactory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from .recovery import RecoveryManager

ContextFactory = Callable[[], AgentContext]


@dataclass(frozen=True)
class ResourceProfile:
    """Compute requirements/capacity (cpu cores, gpus, memory GB)."""

    cpu: float = 1.0
    gpu: int = 0
    memory_gb: float = 2.0

    def fits_into(self, capacity: "ResourceProfile") -> bool:
        return (
            self.cpu <= capacity.cpu
            and self.gpu <= capacity.gpu
            and self.memory_gb <= capacity.memory_gb
        )

    def minus(self, used: "ResourceProfile") -> "ResourceProfile":
        return ResourceProfile(
            cpu=self.cpu - used.cpu,
            gpu=self.gpu - used.gpu,
            memory_gb=self.memory_gb - used.memory_gb,
        )


class Container:
    """A container image running an AgentFactory with its agents."""

    def __init__(
        self,
        container_id: str,
        image: str,
        profile: ResourceProfile,
        factory: AgentFactory,
        context_factory: ContextFactory,
        agent_specs: tuple[tuple[str, dict[str, Any]], ...],
        restart_on_failure: bool = True,
    ) -> None:
        self.container_id = container_id
        self.image = image
        self.profile = profile
        self.restart_on_failure = restart_on_failure
        self._factory = factory
        self._context_factory = context_factory
        self._agent_specs = agent_specs
        self._agents: list[Agent] = []
        self.state = "created"  # created | running | failed | stopped
        self.restarts = 0
        self._lock = threading.RLock()

    def start(self) -> None:
        """Spawn and attach every configured agent.

        A failure partway through (an agent constructor or attach raising)
        rolls back the partially started agents and leaves the container
        ``failed`` — recoverable via :meth:`restart` — never stuck in
        ``created`` with orphaned agents.
        """
        with self._lock:
            if self.state == "running":
                raise DeploymentError(f"container {self.container_id} already running")
            self._agents = []
            try:
                for type_name, kwargs in self._agent_specs:
                    agent = self._factory.spawn(type_name, **kwargs)
                    self._agents.append(agent)
                    agent.attach(self._context_factory())
            except Exception:
                for agent in self._agents:
                    if agent.context is not None:
                        agent.crash()
                    self._factory.forget(agent)
                self._agents = []
                self.state = "failed"
                raise
            self.state = "running"

    def fail(self) -> None:
        """Simulate a crash: agents stop abruptly, no exit signals."""
        with self._lock:
            if self.state != "running":
                raise DeploymentError(
                    f"cannot fail container {self.container_id} in state {self.state}"
                )
            for agent in self._agents:
                agent.crash()
                self._factory.forget(agent)
            self._agents = []
            self.state = "failed"

    def stop(self) -> None:
        """Graceful shutdown: agents detach (exit their sessions)."""
        with self._lock:
            for agent in self._agents:
                agent.detach()
                self._factory.forget(agent)
            self._agents = []
            self.state = "stopped"

    def restart(self) -> None:
        """Respawn after a failure (the supervisor's recovery action).

        Re-entrant: ``restarts`` counts *attempts* and is committed under
        the lock before starting, and a failed start leaves the container
        ``failed`` so recovery can simply be tried again.  A ``stopped``
        container may also restart — that is how a quarantined container
        returns to service after :meth:`Supervisor.release`.
        """
        with self._lock:
            if self.state not in ("failed", "created", "stopped"):
                raise DeploymentError(
                    f"cannot restart container {self.container_id} in state {self.state}"
                )
            self.restarts += 1
            self.state = "created"
            self.start()

    def healthy(self) -> bool:
        """Liveness probe: running with every agent still attached."""
        with self._lock:
            return self.state == "running" and all(
                agent.context is not None for agent in self._agents
            )

    def agents(self) -> list[Agent]:
        with self._lock:
            return list(self._agents)


class ClusterNode:
    """One machine with fixed capacity."""

    def __init__(self, node_id: str, capacity: ResourceProfile) -> None:
        self.node_id = node_id
        self.capacity = capacity
        self.containers: list[Container] = []

    def available(self) -> ResourceProfile:
        remaining = self.capacity
        for container in self.containers:
            remaining = remaining.minus(container.profile)
        return remaining

    def can_host(self, profile: ResourceProfile) -> bool:
        return profile.fits_into(self.available())

    def host(self, container: Container) -> None:
        if not self.can_host(container.profile):
            raise DeploymentError(
                f"node {self.node_id} cannot host container {container.container_id}"
            )
        self.containers.append(container)


class Cluster:
    """Nodes plus first-fit placement by resource profile."""

    def __init__(self, name: str) -> None:
        self.name = name
        self._nodes: list[ClusterNode] = []
        self._containers: dict[str, Container] = {}
        self._counter = 0
        self._lock = threading.Lock()

    def add_node(self, capacity: ResourceProfile, node_id: str | None = None) -> ClusterNode:
        with self._lock:
            if node_id is None:
                node_id = f"{self.name}-node-{len(self._nodes) + 1}"
            node = ClusterNode(node_id, capacity)
            self._nodes.append(node)
            return node

    def nodes(self) -> list[ClusterNode]:
        with self._lock:
            return list(self._nodes)

    def deploy(
        self,
        image: str,
        factory: AgentFactory,
        context_factory: ContextFactory,
        agent_specs: tuple[tuple[str, dict[str, Any]], ...],
        profile: ResourceProfile | None = None,
        restart_on_failure: bool = True,
    ) -> Container:
        """Create, place (first fit), and start a container."""
        profile = profile or ResourceProfile()
        with self._lock:
            self._counter += 1
            container = Container(
                container_id=f"{self.name}-ctr-{self._counter}",
                image=image,
                profile=profile,
                factory=factory,
                context_factory=context_factory,
                agent_specs=agent_specs,
                restart_on_failure=restart_on_failure,
            )
            placed = False
            for node in self._nodes:
                if node.can_host(profile):
                    node.host(container)
                    placed = True
                    break
            if not placed:
                raise DeploymentError(
                    f"no node in cluster {self.name} can host profile {profile}"
                )
            self._containers[container.container_id] = container
        container.start()
        return container

    def container(self, container_id: str) -> Container:
        with self._lock:
            container = self._containers.get(container_id)
        if container is None:
            raise DeploymentError(f"unknown container: {container_id!r}")
        return container

    def containers(self, state: str | None = None) -> list[Container]:
        with self._lock:
            found = list(self._containers.values())
        if state is not None:
            found = [c for c in found if c.state == state]
        return found

    def placement(self) -> dict[str, list[str]]:
        """node id -> hosted container ids (the Figure-2 view)."""
        return {
            node.node_id: [c.container_id for c in node.containers]
            for node in self.nodes()
        }


class Supervisor:
    """Restarts failed containers (the 'restart on failure' loop).

    Beyond the naive restart loop, the supervisor implements the
    production discipline the blueprint's "configured to scale and restart
    on failure" implies:

    * **health probes** — running containers whose agents have silently
      crashed are marked failed so the restart path picks them up,
    * **crash-loop detection** — consecutive restart attempts per
      container are budgeted (``max_restarts``); a container that keeps
      dying is *quarantined* (stopped) instead of thrashing forever.  A
      container observed healthy again has its attempt counter reset.
    * **restart backoff** — with a clock, successive restart attempts are
      spaced exponentially (``backoff_base * multiplier^attempts``), so a
      crash-looping container does not consume every supervision pass.
    * **crash-loop discrimination** — with a clock and a
      ``crash_loop_window``, a container that ran for at least the window
      since its last restart is treated as externally killed (a chaos
      kill, a spot reclaim) rather than crash-looping: its attempt counter
      resets before the restart is counted.  Only rapid-fire deaths —
      uptime shorter than the window — accumulate toward quarantine.
    * **plan recovery handoff** — with a :class:`RecoveryManager`, each
      pass ends by resuming any journaled plans the crashed containers'
      coordinators left incomplete, instead of dropping them.
    """

    #: Cap on one restart backoff, in simulated seconds.
    BACKOFF_MAX = 60.0

    def __init__(
        self,
        cluster: Cluster,
        clock: "SimClock | None" = None,
        max_restarts: int = 5,
        backoff_base: float = 1.0,
        backoff_multiplier: float = 2.0,
        crash_loop_window: float | None = None,
        recovery: "RecoveryManager | None" = None,
    ) -> None:
        if max_restarts < 1:
            raise DeploymentError(f"max_restarts must be >= 1: {max_restarts}")
        self.cluster = cluster
        self.clock = clock
        self.max_restarts = max_restarts
        self.backoff_base = backoff_base
        self.backoff_multiplier = backoff_multiplier
        self.crash_loop_window = crash_loop_window
        self.recovery = recovery
        self.recoveries = 0
        #: Plan runs resumed through the recovery manager by tick().
        self.plan_recoveries = 0
        #: Containers whose restart budget ran out, now stopped.
        self.quarantined: list[str] = []
        self._attempts: dict[str, int] = {}
        self._not_before: dict[str, float] = {}
        self._last_restart_at: dict[str, float] = {}

    def probe(self, container: Container) -> bool:
        """Health-check one container; an unhealthy runner is failed."""
        if container.state != "running":
            return False
        if container.healthy():
            return True
        container.fail()
        return False

    def _backoff(self, attempts: int) -> float:
        return min(self.backoff_base * self.backoff_multiplier**attempts, self.BACKOFF_MAX)

    def release(self, container_id: str) -> None:
        """Lift a quarantine: restore the container's restart eligibility.

        The operator's intervention after fixing whatever crash-looped.
        All supervision state for the container is reset — attempt
        counter, backoff deadline, uptime bookkeeping — so it re-enters
        service with a clean slate instead of inheriting the stale
        counters that got it quarantined (it would otherwise be
        re-quarantined on its first post-release failure).  The container
        itself stays stopped; the caller (or the next failure path)
        restarts it.
        """
        if container_id not in self.quarantined:
            raise DeploymentError(f"container not quarantined: {container_id!r}")
        self.quarantined.remove(container_id)
        self._attempts.pop(container_id, None)
        self._not_before.pop(container_id, None)
        self._last_restart_at.pop(container_id, None)

    def tick(self) -> list[str]:
        """One supervision pass; returns the ids of restarted containers."""
        # Probe pass: demote unhealthy runners, clear attempt counters of
        # containers that stayed healthy (a recovered service is no longer
        # crash-looping).
        for container in self.cluster.containers(state="running"):
            if self.probe(container):
                self._attempts.pop(container.container_id, None)
                self._not_before.pop(container.container_id, None)
        restarted = []
        for container in self.cluster.containers(state="failed"):
            if not container.restart_on_failure:
                continue
            container_id = container.container_id
            if container_id in self.quarantined:
                continue
            now = self.clock.now() if self.clock is not None else None
            attempts = self._attempts.get(container_id, 0)
            if (
                attempts
                and now is not None
                and self.crash_loop_window is not None
                and now - self._last_restart_at.get(container_id, now)
                >= self.crash_loop_window
            ):
                # The container ran for at least the window before dying:
                # an external kill, not a crash loop.  Forgive its history.
                attempts = 0
                self._not_before.pop(container_id, None)
            if attempts >= self.max_restarts:
                container.stop()  # quarantine: stop thrashing
                self.quarantined.append(container_id)
                continue
            if now is not None and now < self._not_before.get(container_id, 0.0):
                continue  # still backing off
            self._attempts[container_id] = attempts + 1
            if now is not None:
                self._not_before[container_id] = now + self._backoff(attempts)
            try:
                container.restart()
            except Exception:  # noqa: BLE001 - a failed restart is an attempt
                continue
            if now is not None:
                self._last_restart_at[container_id] = now
            self.recoveries += 1
            restarted.append(container_id)
        # Recovery handoff, last so restarted coordinators are back in the
        # session: resume any journaled plans still incomplete.  (A re-kill
        # during resume unwinds this tick; later ticks converge.)
        if self.recovery is not None and self.recovery.has_incomplete():
            self.plan_recoveries += len(self.recovery.resume_incomplete())
        return restarted
