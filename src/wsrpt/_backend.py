"""Subset dynamic program for the preemptive single-machine optimum.

Works entirely on integer-scaled data (the caller clears denominators), so
Python's unbounded ints keep every intermediate exact.

The recurrence: an optimal preemptive schedule can be described by its
completion order, and the k-th completion happens exactly at the makespan of
the first k jobs (run work-conservingly).  Hence

    f(S) = min over j in S of  w_j * makespan(S) + f(S without j)

where S ranges over the sets of earliest-completing jobs.

``subset_dp`` walks the masks in blocks of 2^_LEAF consecutive ones.  Inside
a block, each subset takes its candidates for the low _LEAF jobs one at a
time.  After the block that ends at e, the job of e's lowest set bit h is
folded into all of f[e:e+h] in one bulk list operation: every such S holds
that job, and S without it lies in the blocks already done.  Each candidate
of a higher job is folded in before its subset's block runs, so f(S) is final
when it is read.  The completion order is rebuilt afterwards, from the full
set down, by taking at each S the smallest job whose candidate equals f(S).
"""

from __future__ import annotations

from itertools import repeat
from operator import add, mul

#: Jobs settled one subset at a time inside a block; higher jobs are folded in bulk.
_LEAF = 7

#: (bit, index) of every job in each mask below 2**_LEAF, lowest first.
_LOW_JOBS = [tuple((1 << j, j) for j in range(_LEAF) if t >> j & 1) for t in range(1 << _LEAF)]


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
    step = 1 << min(n, _LEAF)
    for base in range(0, size, step):
        for t in range(1, step):
            s = base + t
            ms = m[s]
            best = f[s] if base else -1  # a block past the first holds its folds
            for bit, j in _LOW_JOBS[t]:
                cand = weights[j] * ms + f[s - bit]
                if best < 0 or cand < best:
                    best = cand
            f[s] = best
        e = base + step
        if e < size:
            h = e & -e
            folded = map(add, map(mul, repeat(weights[h.bit_length() - 1]), m[e:e + h]), f[e - h:e])
            if e == h:  # the first candidate of every subset there
                f[e:e + h] = folded
            else:
                f[e:e + h] = [a if a < b else b for a, b in zip(f[e:e + h], folded)]
    order = []
    s = size - 1
    while s:
        ms, fs = m[s], f[s]
        j = 0
        while not (s >> j & 1 and weights[j] * ms + f[s - (1 << j)] == fs):
            j += 1
        order.append(j)
        s -= 1 << j
    order.reverse()
    return f[size - 1], tuple(order)
