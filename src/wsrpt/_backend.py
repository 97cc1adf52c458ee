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

The dominance line.  On entry the jobs are relabelled once, sorted by
(release, processing, -weight, -index) (``_line``), and every table is
indexed by masks of these labels.  A job's label is below those of all the
jobs it dominates, and the releases are nondecreasing along the line, so
the makespans take one list comprehension per job (``subset_makespans``)
and each label's dominated jobs are later labels (``_dominance``).

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
smallest original index whose candidate equals f(S) and that no other job
of S must follow, found by scanning the jobs in index order through their
labels.  Every S on that path is closed.  ``subset_cost`` returns f of the
full set alone: it runs no rebuild, and it builds the relation only when
the walk has blocks to skip.
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
    """Makespan of every job subset, indexed by bitmask, for jobs listed in
    release order (``releases`` nondecreasing).

    Run work-conservingly, a set ends at ``max(m, r_j) + p_j``, where j is
    its highest job and ``m`` is the makespan of the rest.  Job j's subsets
    are the masks from 2^j up, so each job appends one comprehension over
    the table built so far, and the table takes O(2^n) steps.
    """
    m = [0]
    for j in range(n):
        r, p = releases[j], procs[j]
        m += [(t if t > r else r) + p for t in m]
    return m


def _dominance(procs: list[int], weights: list[int], n: int) -> list[int]:
    """For each job on the dominance line, the mask of the later jobs it
    dominates, which must go after it.

    On the line (``_line``) a job comes before every job it dominates, and
    it dominates a later job exactly when it is no longer and weighs no less.
    """
    after = [0] * n
    for a in range(n):
        pa, wa = procs[a], weights[a]
        mask = 0
        for b in range(a + 1, n):
            if pa <= procs[b] and wa >= weights[b]:
                mask |= 1 << b
        after[a] = mask
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


def _line(
    releases: list[int], procs: list[int], weights: list[int], n: int
) -> tuple[list[int], list[int], list[int], list[int]]:
    """The dominance line: job indices sorted by (release, processing,
    -weight, -index), and the releases, processing times and weights in
    that order.  Label a stands for job ``line[a]``."""
    line = sorted(range(n), key=lambda j: (releases[j], procs[j], -weights[j], -j))
    return (
        line,
        [releases[j] for j in line],
        [procs[j] for j in line],
        [weights[j] for j in line],
    )


def subset_cost(releases: list[int], procs: list[int], weights: list[int], n: int) -> int:
    """Minimal total weighted completion time, without an order.

    The same tables as ``subset_dp``; the dominance relation is built only
    when the walk has blocks to skip (n > _LEAF), and nothing is rebuilt.
    """
    _, r, p, w = _line(releases, procs, weights, n)
    after = _dominance(p, w, n) if n > _LEAF else []
    return _block_costs(subset_makespans(r, p, n), w, n, after)[-1]


def subset_dp(
    releases: list[int], procs: list[int], weights: list[int], n: int
) -> tuple[int, tuple[int, ...]]:
    """Minimal total weighted completion time and a realizing completion order.

    Inputs are integer-scaled; the returned cost carries the product of the
    caller's time and weight scales.  The order lists job indices from first
    to last completion and respects dominance.  It is rebuilt from the full
    set down, taking at each S the smallest index whose candidate equals
    f(S) and that no other job of S must follow, so among identical jobs
    the smallest index completes last.  The walk runs on the jobs'
    dominance-line labels (``_line``) and skips the blocks that hold no
    closed set (``_live_blocks``).
    """
    line, r, p, w = _line(releases, procs, weights, n)
    after = _dominance(p, w, n)
    m = subset_makespans(r, p, n)
    f = _block_costs(m, w, n, after)
    label = [0] * n
    for a, j in enumerate(line):
        label[j] = a
    s = (1 << n) - 1
    value = f[s]
    order = []
    while s:
        ms, fs = m[s], f[s]
        for j in range(n):  # original indices, so the smallest one wins
            a = label[j]
            if s >> a & 1 and not s & after[a] and w[a] * ms + f[s ^ (1 << a)] == fs:
                break
        else:
            raise RuntimeError(f"no job of set {s:#x} that no other must follow realizes its cost")
        order.append(j)
        s ^= 1 << a
    order.reverse()
    return value, tuple(order)
