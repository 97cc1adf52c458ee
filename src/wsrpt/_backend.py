"""Subset dynamic program for the preemptive single-machine optimum.

Works entirely on integer-scaled data (the caller clears denominators), so
Python's unbounded ints keep every intermediate exact.

The recurrence: an optimal preemptive schedule can be described by its
completion order, and the k-th completion happens exactly at the makespan of
the first k jobs (run work-conservingly).  Hence

    f(S) = min over j in S of  w_j * makespan(S) + f(S without j)

where S ranges over the sets of earliest-completing jobs.
"""

from __future__ import annotations


def backend_name() -> str:
    """Name of the subset-DP implementation, recorded in run metadata."""
    return "pure"


def subset_makespans(releases: list[int], procs: list[int], n: int) -> list[int]:
    """Makespan of every job subset, indexed by bitmask.

    The makespan of a set run work-conservingly is the classic sweep
    ``t = max(t, r_j) + p_j`` over the set in release order.
    """
    by_release = sorted(range(n), key=lambda j: (releases[j], j))
    size = 1 << n
    m = [0] * size
    for s in range(1, size):
        t = 0
        for j in by_release:
            if s >> j & 1:
                rj = releases[j]
                if rj > t:
                    t = rj
                t += procs[j]
        m[s] = t
    return m


def subset_dp(
    releases: list[int], procs: list[int], weights: list[int], n: int
) -> tuple[int, tuple[int, ...]]:
    """Minimal total weighted completion time and a realizing completion order.

    Inputs are integer-scaled; the returned cost carries the product of the
    caller's time and weight scales.  The order lists job indices from first
    to last completion; ties resolve toward the smallest index.
    """
    size = 1 << n
    m = subset_makespans(releases, procs, n)
    f = [0] * size
    last = [0] * size
    for s in range(1, size):
        ms = m[s]
        best = -1
        best_j = -1
        t = s
        while t:
            j = (t & -t).bit_length() - 1
            t &= t - 1
            cand = weights[j] * ms + f[s & ~(1 << j)]
            if best < 0 or cand < best:
                best = cand
                best_j = j
        f[s] = best
        last[s] = best_j
    order = []
    s = size - 1
    while s:
        j = last[s]
        order.append(j)
        s &= ~(1 << j)
    order.reverse()
    return f[size - 1], tuple(order)
