"""Worker-count resolution and deterministic blocked execution."""

from __future__ import annotations

import os
from concurrent.futures import ThreadPoolExecutor
from typing import Callable, TypeVar

T = TypeVar("T")

THREADS_ENV = "TABMEM_THREADS"


def resolve_threads(requested: int | None = None) -> int:
    """Pick a worker count: explicit argument, then $TABMEM_THREADS, then cores."""
    if requested is not None:
        if requested < 1:
            raise ValueError(f"thread count must be >= 1, got {requested}")
        return requested
    env = os.environ.get(THREADS_ENV)
    if env:
        try:
            return resolve_threads(int(env))
        except ValueError:
            raise ValueError(f"${THREADS_ENV} must be an integer >= 1, got {env!r}") from None
    return os.cpu_count() or 1


def block_ranges(n: int, block: int) -> list[tuple[int, int]]:
    return [(lo, min(lo + block, n)) for lo in range(0, n, block)]


def map_blocks(
    fn: Callable[[int, int], T],
    n: int,
    block: int,
    threads: int = 1,
) -> list[T]:
    """Apply ``fn(lo, hi)`` over row blocks, results ordered by block index.

    Output order is fixed by the block partition, so results are identical
    for any thread count.
    """
    ranges = block_ranges(n, block)
    if threads <= 1 or len(ranges) <= 1:
        return [fn(lo, hi) for lo, hi in ranges]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(lambda r: fn(*r), ranges))
