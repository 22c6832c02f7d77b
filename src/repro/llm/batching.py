"""Cross-plan LLM call batching: distinct prompts, one model invocation.

Production inference stacks squeeze throughput out of shared model
endpoints by *batching*: requests that arrive within a short window are
executed as one forward pass, so a fleet of concurrent agent plans pays
roughly one call's latency — and one concurrency slot — for many calls.
:class:`LLMBatcher` models that lever on the simulated timeline.

It is the third member of the reuse ladder, each rung trading
generality for savings:

* :class:`~repro.llm.cache.LLMCache` — *identical* call, any time after
  the first completed: zero cost, zero latency, unbounded reuse window.
* :class:`~repro.llm.singleflight.SingleFlight` — *identical* call
  overlapping the leader's in-flight interval: zero cost, residual
  latency, shared response.
* :class:`LLMBatcher` — **distinct-but-batchable** call (same model,
  same params, *different prompt*) landing inside an open micro-batch
  window: the call still computes its own answer and is charged its own
  token cost (**per-call cost attribution**), but it rides the batch's
  single capacity slot and pays only the **residual** of the shared
  batch execution instead of a full solo latency (**amortized
  latency**).

Mechanics on the simulated clock: every physical call opens a batch
window at its (post-queueing) start ``t`` covering
``[t, t + max_batch_wait)`` and executing until ``t + latency``.  A
later call to the same ``(model, max_output_tokens)`` whose own start
falls inside the window — and before the batch execution completes, and
while the batch has spare ``max_batch_size`` room — joins instead of
invoking the model: no capacity reservation, no failure roll, latency =
``exec_end - now``.  Windows may be deterministically jittered from a
seed (``jitter``) so co-located fleets do not flush in lockstep.

Batching is opt-in like the cache (``Blueprint.run_fleet(batching=...)``
/ ``--batch``; single-flight is the one rung ``run_fleet`` turns on by
default), and plans that need call-for-call determinism bypass it via
``no_cache`` exactly as they bypass the other two rungs.  Windows sit in
a :class:`~repro.llm.windows.LiveLRU`, live until their ``exec_end``:
the bound never evicts a batch that may still admit members.  Under the
serial backend batch membership is a pure function of the submission
list; concurrent backends may interleave joins differently run to run
(the same caveat single-flight carries), while each join's accounting
stays individually consistent.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Mapping

from .windows import LiveLRU


@dataclass(frozen=True)
class BatchPolicy:
    """Per-model batching knobs.

    ``max_batch_size`` counts *members* (leader included); a window with
    a full complement stops accepting joins.  ``max_batch_wait`` is the
    window length in simulated seconds — how long after the leader's
    start a batchable call may still ride along (never past the batch's
    own completion).
    """

    max_batch_size: int = 8
    max_batch_wait: float = 0.25

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ValueError(
                f"max_batch_size must be >= 1: {self.max_batch_size}"
            )
        if self.max_batch_wait < 0:
            raise ValueError(
                f"max_batch_wait must be >= 0: {self.max_batch_wait}"
            )


@dataclass(frozen=True)
class BatchStats:
    """Point-in-time tallies of one :class:`LLMBatcher`."""

    #: Windows opened (every physical call opens one).
    batches: int
    #: Calls that rode an open window instead of invoking the model.
    joins: int
    #: Live windows currently tracked.
    entries: int
    #: Modeled latency the joins did not pay (solo latency minus the
    #: residual each join actually waited).
    saved_latency: float
    #: Token cost attributed to joins — *paid*, not saved: batching
    #: amortizes latency and capacity slots, never the bill.
    attributed_cost: float
    #: Largest batch observed (1 = no call ever joined).
    peak_batch: int = 1

    @property
    def mean_batch(self) -> float:
        return (self.batches + self.joins) / self.batches if self.batches else 0.0


class _Batch:
    """One open micro-batch window."""

    __slots__ = ("start", "window_end", "exec_end", "size")

    def __init__(self, start: float, window_end: float, exec_end: float) -> None:
        self.start = start
        self.window_end = window_end
        self.exec_end = exec_end
        self.size = 1  # the leader


class LLMBatcher(LiveLRU):
    """Coalesces batchable LLM calls into shared micro-batch windows.

    Example — a distinct prompt landing inside the window pays only the
    residual of the shared execution:
        >>> batcher = LLMBatcher(max_batch_wait=0.5)
        >>> batcher.open("mega-s", 512, start=0.0, exec_end=2.0)
        >>> batcher.join("mega-s", 512, now=0.25)  # a *different* prompt
        2.0
        >>> batcher.join("mega-s", 512, now=0.75) is None  # window closed
        True
    """

    def __init__(
        self,
        max_batch_size: int = 8,
        max_batch_wait: float = 0.25,
        per_model: Mapping[str, BatchPolicy] | None = None,
        jitter: float = 0.0,
        seed: int = 0,
        max_entries: int = 512,
    ) -> None:
        if not 0.0 <= jitter <= 1.0:
            raise ValueError(f"jitter must be in [0, 1]: {jitter}")
        super().__init__(max_entries)
        self._default = BatchPolicy(max_batch_size, max_batch_wait)
        self._per_model = dict(per_model or {})
        #: Fractional window-length jitter: each opened window's wait is
        #: scaled by ``1 + jitter * (u - 0.5)`` with ``u`` drawn
        #: deterministically from ``md5(seed | model | window-ordinal)``,
        #: so same-seed runs flush identically while distinct seeds
        #: de-synchronize their flush instants.
        self._jitter = jitter
        self._seed = seed
        self._batches = 0
        self._joins = 0
        self._saved_latency = 0.0
        self._attributed_cost = 0.0
        self._peak_batch = 0

    def policy_for(self, model: str) -> BatchPolicy:
        """The effective policy for *model* (per-model override or default)."""
        return self._per_model.get(model, self._default)

    # ------------------------------------------------------------------
    # Window lifecycle
    # ------------------------------------------------------------------
    def open(
        self, model: str, max_output_tokens: int, start: float, exec_end: float
    ) -> None:
        """Open a micro-batch window for a physical call's invocation.

        The window accepts joins over ``[start, start + wait)`` (wait
        possibly jittered, and never past *exec_end* — a completed batch
        cannot admit members).  Opening replaces any previous window for
        the same ``(model, max_output_tokens)`` key: the newest physical
        call is the one a later arrival could physically share a forward
        pass with.
        """
        policy = self.policy_for(model)
        with self._lock:
            self._batches += 1
            wait = policy.max_batch_wait
            if self._jitter > 0.0:
                digest = hashlib.md5(
                    f"{self._seed}|{model}|{self._batches}".encode("utf-8")
                ).digest()
                u = int.from_bytes(digest[:8], "little") / 2**64
                wait *= 1.0 + self._jitter * (u - 0.5)
            window_end = min(start + wait, exec_end)
            self._store(
                (model, max_output_tokens),
                _Batch(start, window_end, exec_end),
                live_until=exec_end,
                now=start,
            )
            if self._peak_batch < 1:
                self._peak_batch = 1

    def join(self, model: str, max_output_tokens: int, now: float) -> float | None:
        """Ride the open window covering *now*; returns the batch's
        completion instant (the joiner's modeled finish), or None.

        Window semantics are half-open like single-flight's: a call
        starting exactly at ``window_end`` (or at ``exec_end``) does not
        join.  A successful join consumes one of the batch's
        ``max_batch_size`` member slots.
        """
        key = (model, max_output_tokens)
        policy = self.policy_for(model)
        with self._lock:
            batch: _Batch | None = self._peek(key)
            if batch is None:
                return None
            if not batch.start <= now < batch.window_end:
                return None
            if now >= batch.exec_end or batch.size >= policy.max_batch_size:
                return None
            batch.size += 1
            self._joins += 1
            if batch.size > self._peak_batch:
                self._peak_batch = batch.size
            self._entries.move_to_end(key)
            return batch.exec_end

    def credit(self, saved_latency: float, cost: float) -> None:
        """Tally one join's amortization (called by the joining client)."""
        with self._lock:
            self._saved_latency += max(0.0, saved_latency)
            self._attributed_cost += cost

    # ------------------------------------------------------------------
    # Inspection
    # ------------------------------------------------------------------
    def stats(self) -> BatchStats:
        with self._lock:
            return BatchStats(
                batches=self._batches,
                joins=self._joins,
                entries=len(self._entries),
                saved_latency=self._saved_latency,
                attributed_cost=self._attributed_cost,
                peak_batch=self._peak_batch,
            )
