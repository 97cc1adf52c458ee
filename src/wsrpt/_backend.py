"""Subset dynamic program for the preemptive single-machine optimum.

Works entirely on integer-scaled data (the caller clears denominators), so
Python's unbounded ints keep every intermediate exact.

The recurrence: an optimal preemptive schedule can be described by its
completion order, and the k-th completion happens exactly at the makespan of
the first k jobs (run work-conservingly).  Hence

    f(S) = min over j in S of  w_j * makespan(S) + f(S without j)

where S ranges over the sets of earliest-completing jobs.

Dominance.  Job i goes before job j (i dominates j) when r_i <= r_j,
p_i <= p_j and w_i >= w_j; among identical jobs, the larger index goes
first.  Some optimal completion order respects the whole relation.  Moving
i ahead of j, where j completes earlier, cannot raise any prefix makespan in
between, since i is released no later and is no longer, and changes the
pair's own cost by at most (w_i - w_j)(C_j - C_i) <= 0.  Each such swap
lowers the count of inversions against a linear extension of the relation,
so swapping ends at an optimal order that respects it.  Hence f is exact
on the closed sets, those that hold every dominator of each of their
members, once each closed S has the candidate of every job of S that no
other job of S must follow (removing such a job leaves a closed set).

The walk goes through the masks in blocks of 2^_LEAF consecutive ones.
Inside a block, each subset takes its candidates for the low _LEAF jobs
one at a time.  After the block that ends at e, the job of e's lowest set
bit h is folded into all of f[e:e+h] in one bulk list operation: every such
S holds that job, and S without it lies in the blocks already done.  Each
candidate of a higher job is folded in before its subset's block runs, so
f(S) is final when it is read.  A block whose mask of higher jobs lacks a
higher dominator of one of them holds no closed set, so its subset-by-
subset pass is skipped.  Its sets keep their folded candidates only, each
the cost of some completion order of S and so no less than the optimum
for S; the closed sets, which never need them, stay exact.  The folds
still run over all 2^n masks, so the walk's cost is fixed by n up to the
skipped blocks' share, and an instance without dominance costs what the
full walk costs.

The completion order is rebuilt from the full set down: at each S the
smallest index whose candidate equals f(S) and that no other job of S must
follow.  Every S on that path is closed.
"""

from __future__ import annotations

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


def _dominance(
    releases: list[int], procs: list[int], weights: list[int], n: int
) -> list[int]:
    """For each job, the mask of the jobs it dominates, which must go after it.

    Sorted by (release, processing, -weight, -index), a job comes before
    every job it dominates, and it dominates a later job exactly when it is
    no longer and weighs no less.
    """
    line = sorted(range(n), key=lambda j: (releases[j], procs[j], -weights[j], -j))
    after = [0] * n
    for a, i in enumerate(line):
        pi, wi = procs[i], weights[i]
        mask = 0
        for k in line[a + 1:]:
            if pi <= procs[k] and wi >= weights[k]:
                mask |= 1 << k
        after[i] = mask
    return after


def _live_blocks(after: list[int], n: int, leaf: int) -> list[bool]:
    """For each block, indexed by its mask of the jobs from ``leaf`` up,
    whether each of those jobs has every dominator from ``leaf`` up in it.

    Only these blocks hold closed sets.
    """
    high = n - leaf
    need = [0] * high  # each high job's high dominators, as a block index
    for i in range(leaf, n):
        for k in range(high):
            if after[i] >> (leaf + k) & 1:
                need[k] |= 1 << (i - leaf)
    live = [True] * (1 << high)
    for k, dominators in enumerate(need):
        if dominators:
            for b in range(1 << high):
                if b >> k & 1 and dominators & ~b:
                    live[b] = False
    return live


def _block_costs(m: list[int], weights: list[int], n: int, after: list[int]) -> list[int]:
    """f over the 2^n subsets, block by block, with the higher jobs folded in
    bulk; blocks that hold no closed set keep only their folds."""
    size = 1 << n
    f = [0] * size
    leaf = min(n, _LEAF)
    step = 1 << leaf
    live = _live_blocks(after, n, leaf)
    for base in range(0, size, step):
        if live[base >> leaf]:
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
            w = weights[h.bit_length() - 1]
            if e == h:  # the first candidate of every subset there
                f[e:e + h] = [w * x + y for x, y in zip(m[e:e + h], f[:h])]
            else:
                f[e:e + h] = [
                    a if a < (b := w * x + y) else b
                    for a, x, y in zip(f[e:e + h], m[e:e + h], f[e - h:e])
                ]
    return f


def subset_dp(
    releases: list[int], procs: list[int], weights: list[int], n: int
) -> tuple[int, tuple[int, ...]]:
    """Minimal total weighted completion time and a realizing completion order.

    Inputs are integer-scaled; the returned cost carries the product of the
    caller's time and weight scales.  The order lists job indices from first
    to last completion and respects dominance.  It is rebuilt from the full
    set down, taking at each S the smallest index whose candidate equals
    f(S) and that no other job of S must follow, so among identical jobs
    the smallest index completes last.  The walk skips the blocks that hold
    no closed set (``_live_blocks``).
    """
    after = _dominance(releases, procs, weights, n)
    m = subset_makespans(releases, procs, n)
    f = _block_costs(m, weights, n, after)
    s = (1 << n) - 1
    value = f[s]
    order = []
    while s:
        ms, fs = m[s], f[s]
        for j in range(n):
            if s >> j & 1 and not s & after[j] and weights[j] * ms + f[s ^ (1 << j)] == fs:
                break
        else:
            raise RuntimeError(f"no job of set {s:#x} that no other must follow realizes its cost")
        order.append(j)
        s ^= 1 << j
    order.reverse()
    return value, tuple(order)
