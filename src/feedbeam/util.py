"""Chunked work scheduling for Monte Carlo runs.

Trials are split into fixed-size chunks; each chunk owns an independent
random stream keyed by its index. Because chunk boundaries and stream keys
never depend on the worker count, results are identical whether chunks run
serially or on a process pool.
"""

from __future__ import annotations

import os
from concurrent.futures import ProcessPoolExecutor
from typing import Callable, Sequence, TypeVar

__all__ = ["TRIAL_CHUNK", "TRAJ_CHUNK", "chunk_sizes", "map_chunks"]

# Heavy per-trial work (full training runs) vs light per-trial work
# (one SINR evaluation, one short trajectory).
TRIAL_CHUNK = 256
TRAJ_CHUNK = 16384

T = TypeVar("T")


def chunk_sizes(n_items: int, chunk: int) -> list[int]:
    """Sizes of consecutive chunks covering n_items (all but the last equal)."""
    if n_items < 0 or chunk < 1:
        raise ValueError("n_items must be >= 0 and chunk >= 1")
    full, rest = divmod(n_items, chunk)
    return [chunk] * full + ([rest] if rest else [])


def map_chunks(worker: Callable[..., T], tasks: Sequence[tuple], workers: int = 1) -> list[T]:
    """Run ``worker(*task)`` for every task, preserving task order.

    ``worker`` must be a module-level function with picklable arguments so
    the same code path works on a process pool. The pool holds at most one
    process per task and per CPU.
    """
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(*task) for task in tasks]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, *zip(*tasks)))
