"""Exact optima for preemptive total weighted completion time.

Two separate routes to the optimum — a completion-order subset DP and an
event-level time-indexed DP whose moves run one job until it completes or
the next release — kept apart so each can check the other, plus the
priority-list scheduler that turns the subset DP's completion order into a
schedule, the ratio-ordered list schedule that is certified optimal on any
instance where it splits no job, and the closed form for two long jobs
plus one homogeneous burst.

The subset DP (``_backend.subset_dp``) rests on a dominance lemma: some
optimal completion order puts a job before every job it dominates
(released no later, no longer, no lighter), so it skips the job sets that
no such order passes through and returns an order that respects dominance.
The time-indexed DP uses no such lemma and stays the independent route.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import inf

from . import _backend
from .core import (
    Instance,
    Schedule,
    objective,
    to_rational,
)
from .simulator import (
    BudgetExceeded,
    _choose_top,
    _event_search,
    _path_schedule,
    _ratio_key,
    _run,
    _scaled_weights,
    _schedule,
)

#: Hard job-count cap for the subset DP (2^n table).
MAX_BRUTEFORCE_JOBS = 16


@dataclass(frozen=True)
class OptimalResult:
    """An optimal schedule with its objective and the method that found it."""

    schedule: Schedule
    objective: Fraction
    method: str

    def __post_init__(self):
        if self.method not in ("brute-force", "dp-timeindexed", "structured"):
            raise ValueError(f"unknown method tag: {self.method!r}")


def priority_schedule(instance: Instance, order) -> Schedule:
    """Preemptively run, at every instant, the earliest listed released job.

    ``order`` is a permutation of job ids, highest priority first.  The job
    at position k completes exactly when the total released work of the
    first k jobs runs out, which is what makes completion-order priority
    lists express every candidate optimum.
    """
    order = tuple(order)
    timeline = instance._by_id
    if sorted(order) != timeline.ids:
        raise ValueError("order must be a permutation of the instance's job ids")
    pos = {jid: k for k, jid in enumerate(order)}
    rank = [pos[jid] for jid in timeline.ids]
    runs = _run(timeline, lambda k, _: rank[k], _choose_top)
    return _schedule(timeline, runs)


def optimal_bruteforce(instance: Instance, max_n: int = MAX_BRUTEFORCE_JOBS) -> OptimalResult:
    """Exact preemptive optimum via the completion-order subset DP.

    Minimizes over all completion orders (equivalently, all n! priority
    lists) and returns the realizing priority schedule.  ``max_n`` guards
    runaway table sizes; the absolute cap is MAX_BRUTEFORCE_JOBS.
    """
    obj, order = _subset_optimum(instance, max_n)
    return OptimalResult(priority_schedule(instance, order), obj, "brute-force")


def _check_subset_cap(n: int, max_n: int = MAX_BRUTEFORCE_JOBS) -> None:
    """Refuse a subset DP over more than ``min(max_n, MAX_BRUTEFORCE_JOBS)`` jobs."""
    cap = min(max_n, MAX_BRUTEFORCE_JOBS)
    if n > cap:
        raise ValueError(f"instance has {n} jobs; exact search is capped at {cap}")


def _subset_optimum(instance: Instance, max_n: int) -> tuple[Fraction, tuple[int, ...]]:
    """Subset-DP optimum: (objective, completion order of job ids)."""
    ids, releases, procs, den_t, pairs = instance._grid
    n = len(ids)
    _check_subset_cap(n, max_n)
    weights, den_w = _scaled_weights(pairs)
    cost, order_idx = _backend.subset_dp(releases, procs, weights, n)
    return Fraction(cost, den_t * den_w), tuple(ids[i] for i in order_idx)


def optimal_dp_timeindexed(instance: Instance) -> OptimalResult:
    """Exact preemptive optimum by an event-level memoized search.

    Some optimum is a priority-list schedule (the subset DP minimizes over
    them all), and a priority-list schedule switches jobs only at releases
    and completions.  So the optimum is a path of ``_event_search`` moves,
    each running one available job until it completes or the next release.
    Available jobs of equal weight and remaining work are interchangeable,
    so one job per such class branches.  The search's limits raise
    BudgetExceeded: more than MAX_SEARCH_DEPTH jobs up front, more than
    CELLS // n memo states, or a path deeper than MAX_SEARCH_DEPTH moves.
    """

    def one_per_class(available, rem, weights):
        classes = {}
        for k in available:
            classes.setdefault((weights[k], rem[k]), k)
        return classes.values()

    timeline = instance._by_id
    weights, den_w = _scaled_weights(timeline.weights)
    value, path = _event_search(timeline, weights, one_per_class, -1, "time-indexed DP")
    obj = Fraction(value, timeline.den_t * den_w)
    return OptimalResult(_path_schedule(timeline, path), obj, "dp-timeindexed")


def structured_optimal(instance: Instance) -> OptimalResult:
    """Optimal schedule of any instance whose ratio-ordered list splits no job.

    The list runs by descending w/p; among equal ratios, jobs that complete
    by the next release after their own come first, longer first.  Every
    ratio-ordered list schedule minimizes Goemans' mean-busy-time bound
    sum w_j (M_j + p_j/2) <= sum w_j C_j, which a job run in one piece meets
    exactly.  So an unsplit schedule is optimal; a split one raises ValueError.
    """
    timeline = instance._by_id
    times = sorted(set(timeline.releases))
    following = dict(zip(times, times[1:]))
    # (-ratio, overruns the next release, -processing, release, index) on the
    # integer grid: jobs are indices in id order, and _ratio_key ranks w/p.
    ranked = sorted(
        (*_ratio_key(num, den, p), r + p > following.get(r, inf), -p, r, k)
        for k, ((num, den), p, r) in enumerate(
            zip(timeline.weights, timeline.procs, timeline.releases)
        )
    )
    rank = [0] * len(ranked)
    for pos, entry in enumerate(ranked):
        rank[entry[-1]] = pos
    runs = _run(timeline, lambda k, _: rank[k], _choose_top)
    if len(runs) != len(rank):
        raise ValueError("the ratio-ordered schedule splits a job, so it is not certified optimal")
    schedule = _schedule(timeline, runs)
    return OptimalResult(schedule, objective(schedule, instance), "structured")


def pair_objectives(p1, p2, t_r, rho, l, mid):
    """(first-long-job-first, second-first) objectives of the pair game.

    Two long jobs (p = w, released at 0) and a burst of ratio ``rho`` and
    total length ``l`` released at ``t_r`` in [p1, p2]; ``mid`` is the
    burst's mean completion offset (l/2 in the continuum).  The burst runs
    at its release in the first order and right after the second long job
    in the other.  Plain arithmetic: exact on Fractions, float on floats.
    """
    j1_first = p1 * p1 + rho * l * (t_r + mid) + p2 * (p1 + p2 + l)
    j2_first = p2 * p2 + rho * l * (p2 + mid) + p1 * (p1 + p2 + l)
    return j1_first, j2_first


def closed_pair_optimal(
    p1,
    p2,
    small_release,
    small_ratio,
    small_total,
    pieces: int | None = None,
) -> Fraction:
    """Optimal objective for two long jobs (p = w, released at 0) plus one
    burst of ratio-``small_ratio`` jobs of total length ``small_total``
    released together at ``small_release``.

    Exact minimum of the two candidate completion orders of
    ``pair_objectives``; the burst outranks whichever long job is still
    running when it arrives, and which order wins flips once the release
    passes (p1+p2)/2.  ``pieces`` gives the burst's job count for an exact
    finite sum; omitted, the continuum limit (midpoint l/2) is used.
    """
    p1, p2 = to_rational(p1), to_rational(p2)
    t_r, rho, l = (
        to_rational(small_release),
        to_rational(small_ratio),
        to_rational(small_total),
    )
    if not 0 < p1 < p2:
        raise ValueError("need 0 < p1 < p2")
    if not p1 <= t_r <= p2:
        raise ValueError("burst release must lie in [p1, p2]")
    if l < 0:
        raise ValueError("small_total must be nonnegative")
    if pieces is not None and (pieces < 1 or l == 0):
        raise ValueError("pieces requires a positive piece count and a nonzero burst")
    mid = Fraction(l, 2) if pieces is None else (l + Fraction(l, pieces)) / 2
    return min(pair_objectives(p1, p2, t_r, rho, l, mid))


def optimal_objective(instance: Instance) -> Fraction:
    """The subset-DP optimum's objective value, without building its schedule."""
    return _subset_optimum(instance, MAX_BRUTEFORCE_JOBS)[0]


__all__ = [
    "OptimalResult",
    "priority_schedule",
    "optimal_bruteforce",
    "optimal_dp_timeindexed",
    "structured_optimal",
    "closed_pair_optimal",
    "pair_objectives",
    "optimal_objective",
]
