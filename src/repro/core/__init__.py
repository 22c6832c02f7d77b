"""The blueprint core: agents, registries, sessions, planners, budget,
optimizer, coordinator, deployment, and the :class:`Blueprint` runtime."""

from .agent import Agent, FunctionAgent
from .budget import Budget, Charge, Projection
from .context import AgentContext
from .coordinator import TaskCoordinator
from .deployment import Cluster, Container, ResourceProfile, Supervisor
from .execution import NodeFailure, PlanRun
from .recovery import (
    CompensationRegistry,
    EffectTable,
    RecoveredPlan,
    RecoveryManager,
    WriteAheadJournal,
    idempotency_key,
)
from .resilience import (
    BreakerBoard,
    ChaosController,
    ChaosSpec,
    CircuitBreaker,
    DeadLetterQueue,
    KillSwitch,
    RetryPolicy,
)
from .factory import AgentFactory
from .guards import ModeratorAgent, ReflectionAgent, VerifierAgent
from .rendering import RendererRegistry, submit_form
from .params import Parameter
from .plan import Binding, DataPlan, Op, OperatorChoice, TaskNode, TaskPlan
from .planners import (
    DataPlanner,
    StepSpec,
    TaskPlanner,
    TaskPlannerAgent,
    TaskTemplate,
)
from .optimizer import CostModel, PlanOptimizer
from .qos import QoSSpec
from .registries import AgentRegistry, DataRegistry
from .runtime import Blueprint
from .session import Scope, Session, SessionManager
from .triggering import InputGate

__all__ = [
    "Agent",
    "FunctionAgent",
    "Budget",
    "Charge",
    "Projection",
    "AgentContext",
    "NodeFailure",
    "PlanRun",
    "TaskCoordinator",
    "BreakerBoard",
    "ChaosController",
    "ChaosSpec",
    "CircuitBreaker",
    "CompensationRegistry",
    "DeadLetterQueue",
    "EffectTable",
    "KillSwitch",
    "RecoveredPlan",
    "RecoveryManager",
    "RetryPolicy",
    "WriteAheadJournal",
    "idempotency_key",
    "Cluster",
    "Container",
    "ResourceProfile",
    "Supervisor",
    "AgentFactory",
    "ModeratorAgent",
    "ReflectionAgent",
    "VerifierAgent",
    "RendererRegistry",
    "submit_form",
    "Parameter",
    "Binding",
    "DataPlan",
    "Op",
    "OperatorChoice",
    "TaskNode",
    "TaskPlan",
    "DataPlanner",
    "StepSpec",
    "TaskPlanner",
    "TaskPlannerAgent",
    "TaskTemplate",
    "CostModel",
    "PlanOptimizer",
    "QoSSpec",
    "AgentRegistry",
    "DataRegistry",
    "Blueprint",
    "Scope",
    "Session",
    "SessionManager",
    "InputGate",
]
