"""LLM-backed plan stages the two fleet workloads are built from.

Rebuilt here from the public ``TaskPlan`` / ``Agent`` /
``FleetSubmission`` API rather than imported from ``repro.cli`` or
``repro.core.overload.demo``: the benchmark must keep measuring the
same plans when those demos change.
"""

from __future__ import annotations

from time import perf_counter
from typing import Any, Callable

from repro.core.agent import Agent
from repro.core.params import Parameter

#: Request topics: ~50 title x city combinations, so prompts repeat
#: across plans (the cache / single-flight / batch rungs see sharing)
#: without collapsing onto one hot key.
TITLES = (
    "data scientist", "machine learning engineer", "data analyst",
    "software engineer", "backend engineer", "frontend engineer",
    "data engineer", "product manager",
)
CITIES = (
    "San Francisco", "Oakland", "San Jose", "Palo Alto", "Seattle", "Austin",
)


class PlanTimer:
    """Wall-clock marks of one plan, taken by its own stage agents.

    The fleet API reports plans on the *simulated* timeline only; the
    stages are the workload's own code, so they can note when the
    plan's first stage started and its last stage finished — the wall
    time the plan occupied a fleet slot.
    """

    __slots__ = ("started", "finished")

    def __init__(self) -> None:
        self.started: float | None = None
        self.finished: float | None = None

    @property
    def seconds(self) -> float | None:
        if self.started is None or self.finished is None:
            return None
        return self.finished - self.started


class StageAgent(Agent):
    """One plan stage: a templated prompt through :meth:`Agent.complete`.

    The model resolves per call (explicit, then the plan node's hint,
    then the default), which is the seam brownout's downshift rewrites.
    """

    def __init__(
        self,
        name: str,
        default_model: str,
        template: Callable[[dict[str, Any]], str],
        inputs: tuple[Parameter, ...],
        timer: PlanTimer,
    ) -> None:
        self.name = name
        super().__init__()
        self.inputs = inputs
        self.outputs = (Parameter("OUT", "text"),)
        self.default_model = default_model
        self._template = template
        self._timer = timer

    def processor(self, inputs: dict[str, Any]) -> dict[str, Any]:
        timer = self._timer
        if timer.started is None:
            timer.started = perf_counter()
        text = self.complete(self._template(inputs)).text
        timer.finished = perf_counter()
        return {"OUT": text}


def text_input(*names: str) -> tuple[Parameter, ...]:
    return tuple(
        Parameter(name, "text", required=index == 0)
        for index, name in enumerate(names)
    )
