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

    Run work-conservingly, a set ends at ``max(m, r_j) + p_j``, where j is
    its last job in (release, index) order and ``m`` is the makespan of the
    rest.  Walking the jobs in that order builds each subset once, from the
    subset without its last job, so the table takes O(2^n) steps.
    """
    m = [0] * (1 << n)
    built = [0]  # every subset of the jobs walked so far
    for j in sorted(range(n), key=lambda j: (releases[j], j)):
        bit, rj, pj = 1 << j, releases[j], procs[j]
        for s in built:
            t = m[s]
            m[s | bit] = (t if t > rj else rj) + pj
        built += [s | bit for s in built]
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
