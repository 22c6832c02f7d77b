"""Concurrency execution backends for the wave stepper and fleet."""

from .backend import (
    SERIAL,
    ExecutionBackend,
    SerialBackend,
    ThreadBackend,
    resolve_backend,
)

# Kept only because benchmarks/e2e/layers.py:19 (frozen for this PR)
# imports the name; the next benchmark PR drops that import and this line.
AsyncBackend = ThreadBackend

__all__ = [
    "SERIAL",
    "ExecutionBackend",
    "SerialBackend",
    "ThreadBackend",
    "resolve_backend",
]
