"""Per-row kernels run in contiguous row ranges across the CPUs this process may use.

A kernel computes each row from that row's data alone, so its result is
bitwise the same for any number of ranges.
"""

import os

# Fewest rows per range. On two cores a step's kNN, mining and fits break
# even split in two between 128 and 192 rows; 256 leaves a margin.
MIN_PART = 128
_pool = None


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def in_parts(n: int, fn) -> None:
    """Call fn(lo, hi) on ranges covering [0, n): the lowest here, the rest on a pool.

    Below 2 * MIN_PART rows, or on one CPU, fn(0, n) runs alone. Every range
    ends before an error propagates, and the lowest failing range's error wins.
    """
    global _pool
    parts = min(_cpus(), n // MIN_PART)
    if parts < 2:
        return fn(0, n)
    if _pool is None:
        # imported on the first split: its 0.7 MB of RSS stays out of runs that never split
        from concurrent.futures import ThreadPoolExecutor

        _pool = ThreadPoolExecutor(_cpus() - 1)
    cuts = [n * i // parts for i in range(parts + 1)]
    futures = [_pool.submit(fn, lo, hi) for lo, hi in zip(cuts[1:-1], cuts[2:])]
    try:
        fn(0, cuts[1])
    finally:
        for f in futures:
            f.exception()  # waits for the range; its error is raised below
    for f in futures:
        f.result()


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))
