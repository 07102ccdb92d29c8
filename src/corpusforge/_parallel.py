"""Order-preserving parallel map for pure per-document functions.

Results are collected in input order, so output is identical for any
worker count. Its one caller is near-mode SimHash (``dedup.document_keys``);
every other stage is cheaper in the calling process than through a pool.

``concurrent.futures`` and ``multiprocessing`` load only when a pool is
first needed: ``ProcessPoolExecutor`` is a module attribute resolved on
first access (PEP 562), and ``pmap`` reads it from the module, so a
class set on this module in its place (a fake in tests, a counting
subclass in a tracer) is the one a pool is started from.
"""

from __future__ import annotations

import os
import sys
from typing import Callable, Iterable, Sequence, TypeVar

from .errors import ConfigError

T = TypeVar("T")
R = TypeVar("R")

# Below this many items a process pool costs more than it saves.
_MIN_PARALLEL_ITEMS = 256


def __getattr__(name: str):
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor

        # Cached as a plain global, so later reads skip this hook.
        globals()[name] = ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def check_workers(workers: int | None) -> None:
    """Refuse a worker count other than None (all cores) or an int >= 1."""
    if workers is not None and (type(workers) is not int or workers < 1):
        raise ConfigError(f"workers must be a positive integer, got {workers!r}")


def resolve_workers(workers: int | None) -> int:
    check_workers(workers)
    if workers is None:
        return os.cpu_count() or 1
    return workers


def pmap(fn: Callable[[T], R], items: Iterable[T], workers: int | None = None) -> list[R]:
    """Map ``fn`` over ``items``, returning results in input order.

    ``fn`` must be picklable (a module-level function or functools.partial
    of one) when more than one worker is used.
    """
    seq: Sequence[T] = items if isinstance(items, Sequence) else list(items)
    # A pool forks all its workers at once, so never more than the cores.
    n = min(resolve_workers(workers), os.cpu_count() or 1)
    if n <= 1 or len(seq) < _MIN_PARALLEL_ITEMS:
        return [fn(x) for x in seq]
    chunk = max(1, len(seq) // (n * 4))
    pool_class = sys.modules[__name__].ProcessPoolExecutor
    with pool_class(max_workers=n) as ex:
        return list(ex.map(fn, seq, chunksize=chunk))
