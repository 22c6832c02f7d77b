"""Exception hierarchy for the blueprint architecture.

Every error raised by the library derives from :class:`ReproError`, so
callers can catch a single base class at application boundaries while the
subclasses keep failure modes distinguishable in tests and logs.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by this library.

    Attributes:
        transient: whether the failure is plausibly recoverable by retrying
            (network blips, model overload).  Retry policies consult this
            classification; fatal errors (schema violations, missing models,
            oversized prompts) fail fast instead of burning the budget.
    """

    transient: bool = False


class StreamError(ReproError):
    """A stream operation failed (unknown stream, closed stream, ...)."""


class StreamClosedError(StreamError):
    """A message was appended to, or read from, a closed stream."""


class StorageError(ReproError):
    """Base class for storage-substrate failures."""


class SchemaError(StorageError):
    """A schema definition or a row violating a schema was encountered."""


class SQLError(StorageError):
    """SQL text could not be lexed, parsed, planned, or executed."""


class QueryError(StorageError):
    """A document/graph/vector query was malformed or unanswerable."""


class ClusterUnavailableError(StorageError):
    """A sharded store could not assemble a quorum for an operation.

    Transient by design: replicas restart and partitions heal on later
    cluster ticks, so retrying after ticks usually succeeds.  Writes that
    raise this were **not** acknowledged — the zero-acked-loss invariant
    only covers writes that returned normally.
    """

    transient = True


class TransientError(ReproError):
    """A recoverable failure: retrying may succeed (the chaos harness and
    flaky agents raise this to signal 'try again')."""

    transient = True


class LLMError(ReproError):
    """The (simulated) language-model substrate failed.

    Plain LLM failures model provider-side blips (overload, 5xx) and are
    classified transient; structural subclasses below override that.
    """

    transient = True


class CapacityExceededError(LLMError):
    """A model's slot queue is too deep: the call was refused, not queued.

    Raised by :class:`~repro.llm.ModelCapacity` when a reservation's
    deterministic queue wait would exceed the configured
    ``max_queue_wait`` — the simulated analogue of a 429 with
    ``Retry-After``.  Transient by design: the retry policy backs the
    caller off and the reservation is attempted again once pressure
    drains.
    """


class ModelNotFoundError(LLMError):
    """A model name was not present in the model catalog."""

    transient = False


class ContextWindowExceededError(LLMError):
    """A prompt exceeded the model's context window."""

    transient = False


class RegistryError(ReproError):
    """A registry operation failed (duplicate or missing entries, ...)."""


class AccessDeniedError(RegistryError):
    """A principal requested a data source its ACL does not allow."""


class AgentError(ReproError):
    """An agent failed while processing input."""


class PlanError(ReproError):
    """A task or data plan was structurally invalid (cycles, dangling refs)."""


class PlanningError(ReproError):
    """A planner could not produce a plan for the given request."""


class CoordinationError(ReproError):
    """The task coordinator could not make progress on a plan."""


class DeadlineExceededError(ReproError):
    """A plan node's modeled latency exceeded its deadline slice."""


class CircuitOpenError(ReproError):
    """A call was short-circuited because the target's breaker is open.

    Transient by design: the breaker will probe again after its recovery
    timeout, so the caller may retry later (or route to a fallback now).
    """

    transient = True


class OptimizationError(ReproError):
    """The optimizer found no plan satisfying the QoS constraints."""


class DeploymentError(ReproError):
    """A simulated container/cluster operation failed."""


class SessionError(ReproError):
    """A session operation failed (closed session, unknown agent, ...)."""


class CoordinatorKilledError(BaseException):
    """Simulated hard process death (SIGKILL) of the coordinator.

    Deliberately *not* a :class:`ReproError` — not even an
    :class:`Exception` — so that no ``except Exception`` handler anywhere
    in the runtime (agent processors, retry policies, dispatch loops) can
    absorb it.  It unwinds the whole synchronous call stack exactly as a
    real process death would, leaving behind only the durable state: the
    stream store (including the write-ahead journal), the clock, and the
    id sequence.  Only crash-recovery harnesses — the chaos benchmarks,
    the kill/resume property suite, and supervisors — catch it.
    """
