"""Chunked work scheduling for Monte Carlo runs.

Trials are split into fixed-size chunks; each chunk owns an independent
random stream keyed by its index. Because chunk boundaries and stream keys
never depend on the worker count, results are identical whether chunks run
serially or on a process pool.
"""

from __future__ import annotations

import os
from typing import Callable, Sequence, TypeVar

from .errors import CapacityError

__all__ = [
    "TRIAL_CHUNK", "TRAJ_CHUNK", "CHUNK_BYTES_LIMIT", "CHUNK_COUNT_LIMIT", "chunk_sizes",
    "check_bytes", "map_chunks",
]

# Heavy per-trial work (full training runs) vs light per-trial work
# (one SINR evaluation, one short trajectory).
TRIAL_CHUNK = 256
TRAJ_CHUNK = 16384
# Bytes of the largest array one run may hold, such as a chunk's channel
# tensor drawn at once or in row blocks: a larger run is refused before any
# draw (``check_bytes``) instead of failing in numpy or exhausting memory. The
# largest tensor of the tests and the benchmark, 16384 x 200 doubles (26 MB),
# belongs to an idealized outage chunk, drawn in row blocks of at most 1 MiB.
CHUNK_BYTES_LIMIT = 2**31
# Most chunks one run may take. Every chunk is listed before any runs, so a
# trial count far beyond any feasible run (2^62) would build a list of 2^48
# sizes and fail in memory instead of being refused. 2^16 chunks hold 16.7M
# trained or 1.07e9 light trials; the largest run of the tests and the
# benchmark takes 7.
CHUNK_COUNT_LIMIT = 2**16

T = TypeVar("T")


def chunk_sizes(n_items: int, chunk: int) -> list[int]:
    """Sizes of consecutive chunks covering n_items (all but the last equal);
    more than CHUNK_COUNT_LIMIT chunks are refused."""
    if n_items < 0 or chunk < 1:
        raise ValueError("n_items must be >= 0 and chunk >= 1")
    full, rest = divmod(n_items, chunk)
    if full + bool(rest) > CHUNK_COUNT_LIMIT:
        raise CapacityError(f"{n_items} trials take over {CHUNK_COUNT_LIMIT} chunks of {chunk}")
    return [chunk] * full + ([rest] if rest else [])


def check_bytes(nbytes: int, what: str) -> None:
    """Refuse ``nbytes`` over CHUNK_BYTES_LIMIT; ``what`` names them and their verb."""
    if nbytes > CHUNK_BYTES_LIMIT:
        raise CapacityError(f"{what} {nbytes} bytes, over {CHUNK_BYTES_LIMIT}")


def map_chunks(worker: Callable[..., T], tasks: Sequence[tuple], workers: int = 1) -> list[T]:
    """Run ``worker(*task)`` for every task, preserving task order.

    ``worker`` must be a module-level function with picklable arguments so
    the same code path works on a process pool. The pool holds at most one
    process per task and per CPU.
    """
    workers = min(workers, len(tasks), os.cpu_count() or 1)
    if workers <= 1:
        return [worker(*task) for task in tasks]
    # Imported here: the pool's modules (multiprocessing, logging, socket,
    # subprocess) would add to every serial run's start-up.
    from concurrent.futures import ProcessPoolExecutor

    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, *zip(*tasks)))
