"""Hooks that only the benchmark's tracer, ``perfbench/tracing.py``, uses.

Every stage runs in the calling process. ``pmap`` is a plain map that
near-mode SimHash (``dedup.document_keys``) calls by name, so the tracer
can time it as ``dedup.fingerprint_s``; ``ProcessPoolExecutor`` is the
class the tracer subclasses to count pools, and no run starts one. Both
go with the tracer when the program records its own metrics (ROADMAP D).
"""

from __future__ import annotations

from typing import Callable, Iterable


# Tracer hook (ROADMAP D deletes it): loaded on first access (PEP 562),
# so concurrent.futures loads only in a traced process.
def __getattr__(name: str):
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        # Cached as a plain global, so later reads skip this hook.
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


# Tracer hook (ROADMAP D deletes it): the tracer wraps it by name.
def pmap(fn: Callable, items: Iterable) -> list:
    """``fn`` over ``items``, in input order, in this process."""
    return [fn(x) for x in items]
