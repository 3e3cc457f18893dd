"""Exhaustive scans over 1..bound, split into spans run in worker processes."""

import os


def map_spans(fn, args: tuple, bound: int, workers: int) -> list:
    """Rows of fn(*args, lo, hi) over `workers` equal spans of 1..bound, in
    span order; workers are capped at the CPU count, and with one worker
    there is one call in this process."""
    workers = min(workers, os.cpu_count() or 1)
    if workers <= 1:
        return fn(*args, 1, bound)
    # imported here: the pool module is a large share of the package's import time
    from concurrent.futures import ProcessPoolExecutor

    step = max(1, -(-bound // workers))
    spans = [(lo, min(lo + step - 1, bound)) for lo in range(1, bound + 1, step)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        parts = pool.map(fn, *zip(*((*args, lo, hi) for lo, hi in spans)))
    return [r for part in parts for r in part]
