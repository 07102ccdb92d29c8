"""Hooks that only the benchmark's tracer, ``perfbench/tracing.py``, uses.

Every stage runs in the calling process. ``pmap`` is a plain map that
near-mode SimHash (``dedup.document_keys``) calls by name, so the tracer
can time it as ``dedup.fingerprint_s``; ``ProcessPoolExecutor`` is an
empty class the tracer subclasses to count pools, and no run starts one.
Both go with the tracer when the program records its own metrics
(ROADMAP D).
"""

from __future__ import annotations

from typing import Callable, Iterable


# Tracer hook (ROADMAP D deletes it).
class ProcessPoolExecutor:
    """A placeholder: the tracer subclasses it to count pools, and nothing makes one."""


# Tracer hook (ROADMAP D deletes it): the tracer wraps it by name.
def pmap(fn: Callable, items: Iterable) -> list:
    """``fn`` over ``items``, in input order, in this process."""
    return [fn(x) for x in items]
