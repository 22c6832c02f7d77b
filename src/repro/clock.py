"""Simulated time.

The paper's QoS machinery tracks latency alongside cost and quality.  Real
wall-clock sleeps would make tests slow and benches noisy, so the runtime
accounts time on a :class:`SimClock`: components *advance* the clock by their
modeled latency instead of sleeping.  Everything that timestamps messages or
measures elapsed latency takes a clock so that runs are deterministic.
"""

from __future__ import annotations

import threading


class SimClock:
    """A monotonically advancing simulated clock (seconds).

    Example:
        >>> clock = SimClock()
        >>> clock.advance(0.25)
        0.25
        >>> clock.now()
        0.25
    """

    def __init__(self, start: float = 0.0) -> None:
        if start < 0:
            raise ValueError(f"clock cannot start in the past: {start}")
        self._now = float(start)
        self._lock = threading.Lock()
        # Thread-local branch overlay (see branch_begin): only consulted
        # once a concurrent backend has engaged it, so the serial hot
        # path pays a single attribute check.
        self._branches = threading.local()
        self._threaded = False

    def now(self) -> float:
        """Current simulated time in seconds.

        Lock-free *read*: a float attribute read is atomic in CPython, and
        this sits on every hot path (message stamps, span starts, charges).
        That does NOT make read-modify-write sequences safe — ``advance``
        interleaving with other writers is serialized by the lock, but a
        caller computing ``now() + dt`` and writing it back would race.
        Concurrent-branch latency accounting must therefore never sum onto
        the clock directly: the wave scheduler routes it through a
        :class:`~repro.core.scheduler.VirtualTimeline`, whose commit is a
        single ``advance_to(max(branch ends))``.  Under the thread backend
        each worker additionally runs inside a *branch overlay*
        (:meth:`branch_begin`), so its reads and advances touch only
        thread-local time and the shared value changes exclusively through
        locked ``advance_to`` commits.
        """
        if self._threaded:
            local = getattr(self._branches, "now", None)
            if local is not None:
                return local
        return self._now

    def advance(self, seconds: float) -> float:
        """Advance the clock by *seconds* and return the new time."""
        if seconds < 0:
            raise ValueError(f"cannot advance clock backwards: {seconds}")
        if self._threaded:
            local = getattr(self._branches, "now", None)
            if local is not None:
                local += seconds
                self._branches.now = local
                return local
            with self._lock:
                self._now += seconds
                return self._now
        # Serial fast path: until a concurrent backend marks the clock
        # threaded, exactly one thread mutates it — no lock needed.
        now = self._now + seconds
        self._now = now
        return now

    def advance_to(self, timestamp: float) -> float:
        """Advance the clock to *timestamp* if it is in the future."""
        if self._threaded:
            local = getattr(self._branches, "now", None)
            if local is not None:
                if timestamp > local:
                    self._branches.now = timestamp
                    return timestamp
                return local
            with self._lock:
                if timestamp > self._now:
                    self._now = timestamp
                return self._now
        if timestamp > self._now:
            self._now = timestamp
        return self._now

    def rebase(self, timestamp: float) -> float:
        """Set the clock to *timestamp*, which may sit in the simulated past.

        This is the one deliberate exception to monotonicity, reserved for
        the wave scheduler's :class:`~repro.core.scheduler.VirtualTimeline`:
        logically-concurrent plan branches each replay from their *ready*
        time, so opening the next branch rewinds to that branch's start.
        The timeline restores monotonicity at commit by advancing to the
        maximum branch end (the critical path).  Everything else must use
        :meth:`advance`/:meth:`advance_to`.
        """
        if timestamp < 0:
            raise ValueError(f"cannot rebase clock before epoch: {timestamp}")
        if self._threaded:
            local = getattr(self._branches, "now", None)
            if local is not None:
                self._branches.now = float(timestamp)
                return float(timestamp)
            with self._lock:
                self._now = float(timestamp)
                return self._now
        now = float(timestamp)
        self._now = now
        return now

    # ------------------------------------------------------------------
    # Branch overlay (thread backend)
    # ------------------------------------------------------------------
    @property
    def threaded(self) -> bool:
        """Whether a concurrent backend has engaged this clock.

        While False the clock is single-writer and mutates without its
        lock; once True every shared-value write is locked.  Readers
        (e.g. :class:`~repro.core.scheduler.VirtualTimeline`) use this to
        pick their own serial fast paths.
        """
        return self._threaded

    def mark_threaded(self) -> None:
        """Engage locked mode *before* any worker thread touches the clock.

        :meth:`branch_begin` also flips the flag, but a worker's first
        branch would flip it from a pool thread while the driving thread
        may still be inside an unlocked write.  Concurrent backends call
        this from the coordinating thread before submitting work, closing
        that window; the flag is sticky by design.
        """
        self._threaded = True

    def branch_begin(self, start: float) -> float:
        """Enter a thread-local timeline branch starting at *start*.

        The thread backend's replacement for ``VirtualTimeline.open``'s
        shared rebase: every read/advance/rebase on the calling thread is
        served from a private overlay until :meth:`branch_end`, so
        concurrent branches never see (or disturb) each other's time.
        The shared value still only moves through locked ``advance_to``
        commits.  Branches do not nest (mirroring the timeline's
        single-open-branch rule).
        """
        if getattr(self._branches, "now", None) is not None:
            raise RuntimeError("a clock branch is already open on this thread")
        self._threaded = True
        self._branches.now = float(start)
        return float(start)

    def branch_end(self) -> float:
        """Leave the calling thread's branch; returns its end time."""
        local = getattr(self._branches, "now", None)
        if local is None:
            raise RuntimeError("no clock branch is open on this thread")
        self._branches.now = None
        return local

    def branch_active(self) -> bool:
        """Whether the calling thread is inside a branch overlay."""
        return (
            self._threaded and getattr(self._branches, "now", None) is not None
        )

