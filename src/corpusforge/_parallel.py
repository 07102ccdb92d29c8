"""Order-preserving parallel map for pure per-document functions.

Results are collected in input order, so output is identical for any
worker count; stages built on this stay deterministic.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Iterable, Sequence, TypeVar

T = TypeVar("T")
R = TypeVar("R")

# Below this many items a process pool costs more than it saves.
_MIN_PARALLEL_ITEMS = 256


def resolve_workers(workers: int | None) -> int:
    if workers is None:
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError("workers must be >= 1")
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
    with ProcessPoolExecutor(max_workers=n) as ex:
        return list(ex.map(fn, seq, chunksize=chunk))
