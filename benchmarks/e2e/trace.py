"""Timing shims the benchmark installs *around* a layer's public functions.

One decorator, :meth:`Recorder.wrap`, records ``(name, start, end,
parent, request_id)`` with ``perf_counter_ns`` into an in-memory list;
:meth:`Recorder.shim` puts it on a method of a class.  The parent comes
from a thread-local stack, so ``publish -> agent.processor ->
llm.complete -> publish`` nests correctly and worker threads keep their
own stacks.  Nothing is written until the run ends (:meth:`write`).

Shims go on *classes* and must be installed before the system under
test is constructed: the runtime pre-binds some bound methods at wiring
time, and a shim installed afterwards is silently bypassed (the counter
cross-check in ``layers.py`` is what catches that).
"""

from __future__ import annotations

import functools
import json
import threading
from collections import defaultdict
from time import perf_counter_ns
from typing import Any, Callable

# Span record layout (a list, completed in place when the call returns).
NAME, START, END, PARENT, REQUEST, THREAD = range(6)


class Recorder:
    """In-memory span ledger plus the class patches that feed it."""

    def __init__(self) -> None:
        self.spans: list[list[Any]] = []
        #: Tallies the ``after`` hooks add to (tokens, shards scanned,
        #: ...): counts taken at the same boundary as the span.
        self.counters: dict[str, float] = defaultdict(float)
        #: Request id given to root spans that cannot derive their own;
        #: the closed-loop workloads set it to the turn / op index.
        self.request: Any = None
        self._tls = threading.local()
        self._patches: list[tuple[type, str, Any]] = []

    # ------------------------------------------------------------------
    # Installing
    # ------------------------------------------------------------------
    def wrap(
        self,
        fn: Callable[..., Any],
        name: str,
        request_of: Callable[..., Any] | None = None,
        after: Callable[["Recorder", tuple, Any], None] | None = None,
    ) -> Callable[..., Any]:
        """*fn* with a span named *name* around every call.

        *request_of* derives the request id from the call's arguments
        when no enclosing span supplies one; *after* sees ``(recorder,
        args, result)`` once the call returned normally.
        """
        spans = self.spans
        tls = self._tls
        recorder = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                stack = tls.stack
            except AttributeError:
                stack = tls.stack = []
                tls.ident = threading.get_ident()
            parent = stack[-1] if stack else None
            request = parent[REQUEST] if parent is not None else None
            if request is None:
                request = (
                    request_of(*args, **kwargs)
                    if request_of is not None
                    else recorder.request
                )
            record = [name, 0, 0, parent, request, tls.ident]
            spans.append(record)
            stack.append(record)
            record[START] = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                recorder.counters[name + ".raised"] += 1
                raise
            finally:
                record[END] = perf_counter_ns()
                stack.pop()
            if after is not None:
                after(recorder, args, result)
            return result

        wrapper.__e2e_shim__ = True
        return wrapper

    def shim(
        self, cls: type, method: str, name: "str | Callable[[type], str]", **hooks: Any
    ) -> None:
        """Wrap ``cls.method`` — and every subclass override of it.

        Subclasses that define their own *method* (agents overriding
        ``processor``, clustered facades overriding ``get``) would
        otherwise bypass a wrapper placed on the base class only.
        *name* may be a function of the class that defines the override.
        """
        seen: set[type] = set()
        pending = [cls]
        while pending:
            klass = pending.pop()
            if klass in seen:
                continue
            seen.add(klass)
            pending.extend(klass.__subclasses__())
            original = klass.__dict__.get(method)
            if original is None or getattr(original, "__e2e_shim__", False):
                continue
            self._patches.append((klass, method, original))
            span_name = name(klass) if callable(name) else name
            setattr(klass, method, self.wrap(original, span_name, **hooks))

    def reset(self) -> None:
        """Forget what was recorded so far (set-up, warm-up); keep the shims."""
        self.spans.clear()
        self.counters.clear()

    def uninstall(self) -> None:
        """Restore every patched attribute."""
        for klass, method, original in reversed(self._patches):
            setattr(klass, method, original)
        self._patches.clear()

    # ------------------------------------------------------------------
    # Reading
    # ------------------------------------------------------------------
    def self_times(self) -> list[int]:
        """Per-span self time in ns: duration minus direct children.

        Children on other threads have no parent link (their stack is
        their own), so a span that waits on workers keeps that wait as
        self time — which is what the waiting layer should be billed.
        """
        position = {id(record): index for index, record in enumerate(self.spans)}
        own = [record[END] - record[START] for record in self.spans]
        for record in self.spans:
            parent = record[PARENT]
            if parent is not None:
                own[position[id(parent)]] -= record[END] - record[START]
        return own

    def by_name(self) -> dict[str, tuple[int, float]]:
        """``name -> (calls, self seconds)`` over every span."""
        totals: dict[str, list[float]] = defaultdict(lambda: [0, 0.0])
        for record, own in zip(self.spans, self.self_times()):
            entry = totals[record[NAME]]
            entry[0] += 1
            entry[1] += own / 1e9
        return {name: (int(calls), secs) for name, (calls, secs) in totals.items()}

    def entry_calls(self, name: str) -> int:
        """Calls of *name* not made from a span of the same name.

        A backend that delegates to another backend, or a planner that
        delegates to its executor, is one call of the layer, not two.
        """
        return sum(
            1
            for record in self.spans
            if record[NAME] == name
            and (record[PARENT] is None or record[PARENT][NAME] != name)
        )

    def root_seconds(self, thread_ident: int) -> float:
        """Total duration of the root spans of one thread."""
        return sum(
            record[END] - record[START]
            for record in self.spans
            if record[PARENT] is None and record[THREAD] == thread_ident
        ) / 1e9

    def write(self, path: str, meta: dict[str, Any]) -> None:
        """Dump the ledger as JSON: one object per span, id = position."""
        position = {id(record): index for index, record in enumerate(self.spans)}
        origin = self.spans[0][START] if self.spans else 0
        own = self.self_times()
        payload = {
            "meta": meta,
            "time_unit": "ns since the first span started",
            "counters": dict(self.counters),
            "spans": [
                {
                    "id": index,
                    "name": record[NAME],
                    "start": record[START] - origin,
                    "end": record[END] - origin,
                    "self": own[index],
                    "parent": (
                        position[id(record[PARENT])]
                        if record[PARENT] is not None
                        else None
                    ),
                    "request_id": record[REQUEST],
                    "thread": record[THREAD],
                }
                for index, record in enumerate(self.spans)
            ],
        }
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(payload, handle, default=str)
