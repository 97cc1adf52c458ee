"""Exact optima for preemptive total weighted completion time.

Two separate routes to the optimum — a completion-order subset DP and an
event-level time-indexed DP whose moves run one job until it completes or
the next release — kept apart so each can check the other, plus the
priority-list scheduler that turns the subset DP's completion order into a
schedule, the ratio-ordered schedule that realizes the optimum on
generated equality instances, and the closed form for two long jobs plus
one homogeneous burst.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _backend
from .core import (
    Instance,
    Schedule,
    objective,
    to_rational,
)
from .simulator import (
    BudgetExceeded,
    _event_search,
    _ratio_key,
    _run,
    _scaled_times,
    _scaled_weights,
    _schedule,
    _timeline,
)

#: Hard job-count cap for the subset DP (2^n table).
MAX_BRUTEFORCE_JOBS = 16


@dataclass(frozen=True)
class OptimalResult:
    """An optimal (or structurally optimal) schedule with its objective."""

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
    ids = sorted(j.id for j in instance.jobs)
    if sorted(order) != ids:
        raise ValueError("order must be a permutation of the instance's job ids")
    timeline = _timeline(instance)
    pos = {jid: k for k, jid in enumerate(order)}
    return _list_schedule(timeline, [pos[j.id] for j in timeline.jobs])


def _list_schedule(timeline, rank: list[int]) -> Schedule:
    """Run, at every event, the released job of smallest ``rank[k]``."""
    return _schedule(
        timeline,
        _run(timeline, lambda k, _: rank[k], lambda now, new, running, rem, top_key, top: top),
    )


def optimal_bruteforce(instance: Instance, max_n: int = MAX_BRUTEFORCE_JOBS) -> OptimalResult:
    """Exact preemptive optimum via the completion-order subset DP.

    Minimizes over all completion orders (equivalently, all n! priority
    lists) and returns the realizing priority schedule.  ``max_n`` guards
    runaway table sizes; the absolute cap is MAX_BRUTEFORCE_JOBS.
    """
    obj, order = _subset_optimum(instance, max_n)
    return OptimalResult(priority_schedule(instance, order), obj, "brute-force")


def _subset_optimum(instance: Instance, max_n: int) -> tuple[Fraction, tuple[int, ...]]:
    """Subset-DP optimum: (objective, completion order of job ids)."""
    n = len(instance.jobs)
    if n > min(max_n, MAX_BRUTEFORCE_JOBS):
        raise ValueError(
            f"instance has {n} jobs; exact search is capped at "
            f"{min(max_n, MAX_BRUTEFORCE_JOBS)}"
        )
    releases, procs, den_t = _scaled_times(instance.jobs)
    weights, den_w = _scaled_weights(instance.jobs)
    cost, order_idx = _backend.subset_dp(releases, procs, weights, n)
    order = tuple(instance.jobs[i].id for i in order_idx)
    return Fraction(cost, den_t * den_w), order


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

    obj, schedule = _event_search(_timeline(instance), one_per_class, -1, "time-indexed DP")
    return OptimalResult(schedule, obj, "dp-timeindexed")


def structured_optimal(instance: Instance) -> OptimalResult:
    """Optimal schedule of a generated instance by its intended structure.

    Priority order: descending static ratio (w/p), shorter first among
    ties, so small jobs complete at their release while they outrank the
    long job, later arrivals preempt earlier backlog, the ties left over
    are exchange-neutral, and each long job runs unpreempted at the end of
    its scope.  Only instances carrying a generator family tag are
    accepted; the order is not optimal for arbitrary instances.
    """
    if instance.tags.get("family") not in ("basic", "nested"):
        raise ValueError("instance was not produced by a generator (no family tag)")
    # (-ratio, processing, release, id) on the integer grid: jobs are
    # indices in id order, and _ratio_key ranks w/p exactly.
    timeline = _timeline(instance)
    ranked = sorted(
        (*_ratio_key(j.weight, p), p, r, k)
        for k, (j, p, r) in enumerate(zip(timeline.jobs, timeline.procs, timeline.releases))
    )
    rank = [0] * len(ranked)
    for pos, entry in enumerate(ranked):
        rank[entry[-1]] = pos
    schedule = _list_schedule(timeline, rank)
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
    "objective",
    "BudgetExceeded",
]
