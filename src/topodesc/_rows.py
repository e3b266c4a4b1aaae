"""Per-row kernels run in contiguous row ranges, one per CPU this process may use.

A kernel computes each row from that row's data alone, so its result is
bitwise the same for any number of ranges. ``side_by_side`` runs a few
whole, independent calls the same way: a training step's two view
forwards, and later their two backwards.

Each pool worker pins itself to its own CPU, and during a split the calling
thread pins itself to one that no worker holds. Without pinning, a host
whose cpuset does not balance load (``cpuset.sched_load_balance = 0``)
keeps a new thread on the CPU of the thread that started it, and the ranges
take turns on one CPU. Where ``os.sched_setaffinity`` is missing, every
thread stays unpinned.
"""

import contextvars
import os
from contextlib import suppress
from functools import partial

# Fewest rows per range. On two cores a step's kNN, mining and fits broke
# even split in two between 128 and 192 rows, measured before the threads
# were pinned; 256 leaves a margin.
MIN_PART = 128
_pool = None
_home = ()  # the calling thread's CPU during a split: one that no worker holds


def _cpus() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _parts(n: int) -> int:
    return min(_cpus(), n // MIN_PART)


def _pin(cpus) -> None:
    with suppress(OSError):  # a CPU the process has since lost: stay as we are
        os.sched_setaffinity(0, cpus)


def _start_pool() -> None:
    global _pool, _home
    # imported on the first split: its 0.7 MB of RSS stays out of runs that never split
    from concurrent.futures import ThreadPoolExecutor

    cpus = sorted(os.sched_getaffinity(0)) if hasattr(os, "sched_setaffinity") else []
    _home = tuple(cpus[:1])
    free = iter(cpus[1:])

    def pin_worker():
        cpu = next(free, None)  # workers beyond the CPUs stay unpinned
        if cpu is not None:
            _pin({cpu})

    _pool = ThreadPoolExecutor(_cpus() - 1, initializer=pin_worker)


def _run(calls) -> list:
    """Each call's result: the first call runs here, the others on the pool.

    The pool's calls run in copies of this thread's context, so numpy's
    error state (np.errstate) holds for them too. Every call ends before an
    error propagates, and the first failing call's error wins. This
    thread's CPU mask is restored afterwards, so processes it starts later
    may use every CPU.
    """
    if _pool is None:
        _start_pool()
    futures = [_pool.submit(contextvars.copy_context().run, call) for call in calls[1:]]
    mask = os.sched_getaffinity(0) if _home else None
    if mask is not None:
        _pin(_home)
    try:
        first = calls[0]()
    finally:
        if mask is not None:
            _pin(mask)
        for f in futures:
            f.exception()  # waits for the call; its error is raised below
    return [first] + [f.result() for f in futures]


def in_parts(n: int, fn) -> list:
    """fn(lo, hi) on ranges covering [0, n), in range order: the lowest here, the rest on the pool.

    Below 2 * MIN_PART rows, or on one CPU, fn(0, n) runs alone. Every range
    ends before an error propagates, and the lowest failing range's error wins.
    """
    parts = _parts(n)
    if parts < 2:
        return [fn(0, n)]
    cuts = [n * i // parts for i in range(parts + 1)]
    return _run([partial(fn, lo, hi) for lo, hi in zip(cuts[:-1], cuts[1:])])


def side_by_side(n: int, *calls) -> list:
    """Each call's result, in order, from calls that share no writable state.

    train.run_step passes the two views' net forwards, then their backwards.
    They run at once, the first on this thread, when n rows would split
    (in_parts), and one after another otherwise. Either way the first
    failing call's error wins.
    """
    if min(_parts(n), len(calls)) < 2:
        return [call() for call in calls]
    return _run(calls)


if hasattr(os, "register_at_fork"):  # a forked child has none of its parent's threads
    os.register_at_fork(after_in_child=lambda: globals().update(_pool=None))
