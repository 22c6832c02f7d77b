"""AgentFactory: spawns agent instances inside containers.

"Agents are deployed in containers ... where [the] container runs an
AgentFactory server, which spawns instances of agents" (Section V-B).
The factory maps agent *type names* to constructors; the deployment layer
(:mod:`repro.core.deployment`) runs one factory per container and respawns
agents after simulated failures.
"""

from __future__ import annotations

import threading
from typing import Any, Callable

from ..errors import DeploymentError
from .agent import Agent

AgentConstructor = Callable[..., Agent]


class AgentFactory:
    """Registry of agent constructors plus the instances spawned from them."""

    def __init__(self, factory_id: str = "factory") -> None:
        self.factory_id = factory_id
        self._constructors: dict[str, AgentConstructor] = {}
        self._spawned: list[Agent] = []
        self._lock = threading.Lock()

    def register(self, type_name: str, constructor: AgentConstructor) -> None:
        with self._lock:
            if type_name in self._constructors:
                raise DeploymentError(f"agent type already registered: {type_name!r}")
            self._constructors[type_name] = constructor

    def types(self) -> list[str]:
        with self._lock:
            return sorted(self._constructors)

    def spawn(self, type_name: str, **kwargs: Any) -> Agent:
        """Instantiate a new agent of *type_name*."""
        with self._lock:
            constructor = self._constructors.get(type_name)
        if constructor is None:
            raise DeploymentError(
                f"factory {self.factory_id!r} cannot spawn unknown type {type_name!r}"
            )
        agent = constructor(**kwargs)
        with self._lock:
            self._spawned.append(agent)
        return agent

    def spawned(self) -> list[Agent]:
        with self._lock:
            return list(self._spawned)

    def forget(self, agent: Agent) -> None:
        """Drop a dead instance from the spawned list."""
        with self._lock:
            if agent in self._spawned:
                self._spawned.remove(agent)
