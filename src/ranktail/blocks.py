"""Work cut into blocks and mapped over every CPU the process may use.

`_map_ordered` is the one place ranktail makes threads: the edge-list
loader and writer, the PageRank kernel and the pool simulator all map their
chunks or blocks through it.  `_segment_blocks` and `_segment_counts` cut
runs of elements at segment (in-list, owner) boundaries.
"""

from __future__ import annotations

import os
from collections import deque
from concurrent.futures import Future, ThreadPoolExecutor

import numpy as np


def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no sched_getaffinity on this platform
        return os.cpu_count() or 1


def _map_ordered(fn, items):
    """Yield fn(item) for each item of an iterable, in order.

    The calling thread runs fn on every item whose index is a multiple of
    the CPU count, and a thread pool that lives for the call on the others.
    At most two items per CPU are in flight: the next item is drawn only
    once a result is taken.  fn raising raises here, in order, after the
    pool has finished the items it holds."""
    workers = _cpu_count()
    pending = deque()

    def result(job):
        return job.result() if isinstance(job, Future) else fn(job)

    with ThreadPoolExecutor(max_workers=max(workers - 1, 1)) as pool:
        for i, item in enumerate(items):
            pending.append(pool.submit(fn, item) if i % workers else item)
            if len(pending) == 2 * workers:
                yield result(pending.popleft())
        while pending:
            yield result(pending.popleft())


def _segment_blocks(counts: np.ndarray, size: int) -> list[tuple[int, int, int, int]]:
    """(e0, e1, s0, s1) blocks of whole segments: elements e0..e1-1 are those
    of segments s0..s1-1, where segment i holds the next counts[i] elements.

    A block is cut at the first segment that starts at or after each
    multiple of ``size``, and a segment longer than ``size`` is a block of
    its own.  The blocks tile the elements in order; segments of no element
    between two blocks go with neither, and no block is empty."""
    ends = np.cumsum(counts)
    total = int(ends[-1]) if ends.size else 0
    # segment s >= 1 starts at ends[s - 1], so it is the first to start at or
    # after x > 0 when ends[s - 1] is the first end >= x
    cuts = np.unique(np.concatenate([
        [0, counts.size], np.searchsorted(ends, np.arange(size, total, size)) + 1,
        np.flatnonzero(counts > size)])).tolist()
    stops = [int(ends[s - 1]) for s in cuts[1:]]
    return [block for block in zip([0, *stops], stops, cuts, cuts[1:]) if block[0] < block[1]]


def _segment_counts(ends: np.ndarray, start: int, stop: int) -> tuple[int, np.ndarray]:
    """(lo, counts): elements start..stop-1 (start < stop <= ends[-1]) fall in
    segments lo..lo+counts.size-1, counts[k] of them in segment lo+k, where
    segment i holds the elements below ends[i] and at or above ends[i - 1]
    (0 for i = 0); ends is non-decreasing.  The bounds are searched at ends'
    width, so that a narrow ends is not copied to a wider one."""
    bounds = np.array([start, stop - 1], ends.dtype)
    lo, hi = np.searchsorted(ends, bounds, side="right").tolist()
    counts = np.empty(hi + 1 - lo, ends.dtype)
    np.subtract(ends[lo + 1:hi + 1], ends[lo:hi], out=counts[1:])
    counts[0] = ends[lo] - start  # the end segments hold only the part in range
    counts[-1] -= ends[hi] - stop
    return lo, counts
