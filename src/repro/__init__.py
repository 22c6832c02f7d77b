"""repro: a working implementation of the blueprint architecture for
compound AI systems (Kandogan et al., ICDE 2025).

Subpackages:

* :mod:`repro.streams` — the streams database orchestrating data/control.
* :mod:`repro.storage` — relational/document/graph/KV/vector substrates.
* :mod:`repro.embedding` — deterministic text embeddings.
* :mod:`repro.llm` — the simulated LLM substrate with a model catalog.
* :mod:`repro.observability` — plan-level tracing and the metrics registry.
* :mod:`repro.core` — agents, registries, sessions, planners, budget,
  optimizer, coordinator, deployment, and the Blueprint runtime facade.
* :mod:`repro.hr` — the YourJourney HR domain: data, models, agents, apps.
"""

__version__ = "1.0.0"

from .clock import SimClock
from .core.qos import QoSSpec
from .core.runtime import Blueprint
from .errors import ReproError
from .ids import IdGenerator
from .observability import Observability

__all__ = [
    "SimClock",
    "QoSSpec",
    "Blueprint",
    "Observability",
    "ReproError",
    "IdGenerator",
    "__version__",
]
