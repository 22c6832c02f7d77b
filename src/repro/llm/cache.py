"""LLM result cache: identical calls pay for the model once.

Enterprise compound-AI workloads repeat themselves — the same taxonomy
expansion, the same extraction prompt over the same profile, the same
NL→SQL translation — and every repeat of a deterministic call is pure
waste.  An :class:`LLMCache` memoizes completed calls keyed on
``(model, prompt, max_output_tokens)``; a hit returns the remembered
answer with **zero** cost and latency (nothing is charged to budgets,
nothing advances the simulated clock), and the cache tallies what the
hit would have cost so benchmarks can report the savings.

Caching is strictly opt-in:

* a catalog has no cache unless one is passed in (or the Blueprint is
  built with ``llm_cache=True``), so existing traces stay byte-identical;
* a plan may set ``no_cache`` to bypass an enabled cache — chaos and
  determinism suites need every call to exercise the real model path
  (a hit skips failure injection along with everything else).
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .model import LLMResponse, LLMUsage
from .windows import LiveLRU

#: Usage stamped onto cache hits: the call consumed nothing.
_ZERO_USAGE = LLMUsage(input_tokens=0, output_tokens=0, cost=0.0, latency=0.0)


@dataclass(frozen=True)
class CacheStats:
    """Point-in-time tallies of one :class:`LLMCache`."""

    hits: int
    misses: int
    entries: int
    #: What the hits would have cost had the model actually been called.
    saved_cost: float
    saved_latency: float
    #: Tokens the hits represent but did not consume.  Hits stamp zeroed
    #: usage (nothing is charged), which makes per-model token-throughput
    #: metrics under-report the work the prompts actually stand for —
    #: these tallies carry the would-have-been token counts so traces and
    #: bench artifacts can report true throughput without touching what
    #: was charged.
    saved_input_tokens: int = 0
    saved_output_tokens: int = 0

    @property
    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0


class LLMCache(LiveLRU):
    """An LRU memo of completed LLM calls, shared across a catalog.

    Example:
        >>> from repro.llm import ModelCatalog
        >>> catalog = ModelCatalog(cache=LLMCache())
        >>> client = catalog.client("mega-s")
        >>> first = client.complete("TASK: GENERATE\\nhello")
        >>> again = client.complete("TASK: GENERATE\\nhello")
        >>> again.cached, again.usage.cost, again.text == first.text
        (True, 0.0, True)
    """

    def __init__(self, max_entries: int = 1024) -> None:
        super().__init__(max_entries)
        self._hits = 0
        self._misses = 0
        self._saved_cost = 0.0
        self._saved_latency = 0.0
        self._saved_input_tokens = 0
        self._saved_output_tokens = 0

    def get(
        self, model: str, prompt: str, max_output_tokens: int
    ) -> LLMResponse | None:
        """The memoized response, re-stamped as a free call — or None.

        A hit moves the entry to most-recently-used and credits the
        original call's cost/latency to the savings tallies.
        """
        key = (model, prompt, max_output_tokens)
        with self._lock:
            stored: LLMResponse | None = self._peek(key)
            if stored is None:
                self._misses += 1
                return None
            self._entries.move_to_end(key)
            self._hits += 1
            self._saved_cost += stored.usage.cost
            self._saved_latency += stored.usage.latency
            self._saved_input_tokens += stored.usage.input_tokens
            self._saved_output_tokens += stored.usage.output_tokens
            return replace(stored, usage=_ZERO_USAGE, cached=True)

    def put(
        self, model: str, prompt: str, max_output_tokens: int, response: LLMResponse
    ) -> None:
        """Remember *response* (with its real usage, for savings tallies)."""
        self.remember((model, prompt, max_output_tokens), response)

    def stats(self) -> CacheStats:
        with self._lock:
            return CacheStats(
                hits=self._hits,
                misses=self._misses,
                entries=len(self._entries),
                saved_cost=self._saved_cost,
                saved_latency=self._saved_latency,
                saved_input_tokens=self._saved_input_tokens,
                saved_output_tokens=self._saved_output_tokens,
            )
