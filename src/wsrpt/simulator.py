"""Event-driven preemptive single-machine simulation with explicit tie-breaking.

Decision points occur only at job releases and completions: between events
the running job's priority can only improve relative to the waiting jobs
under every supported policy, so no preemption can trigger mid-slice.
Equality instances make *every* release a tie, which is why selection is
exact and ties are resolved by an explicit rule or script.  The single-path
engine selects on the instance's own integer grid in id order, built once
per instance (``Instance._by_id``): times are ints over the lcm of the
release and processing denominators, and each weight is its reduced
integer pair.  A WSRPT or WSPT key is the Smith ratio's exact rank from
``_smith_rank``: one int, the ratio floored on a power-of-two scale fine
enough that distinct ratios get distinct floors, so ranks compare and tie
exactly as the ratios do.  The loop ranks a job once at its release and
once after each run that leaves it unfinished, and the tie rule compares
those cached ranks.  No rank grows as its job's work shrinks, so a chosen
job at the heap's top gets its new rank written straight into the top,
with no sift.
The engine's runs are ``(job, start, end)`` tuples on that grid; a
returned schedule keeps them as they are and builds Fraction slices only
when they are read.
An instance's tie script lives on the same grid, so a scripted run reads
it as it is.  WSRPT under the instance's own tie rule runs at most once
per instance (``_own_run``): ``simulate`` returns that one run when its
arguments name that rule, and the equality audit scans it at each release
instant, with Fractions only in its reports.
"""

from __future__ import annotations

import heapq
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from itertools import groupby
from math import inf, lcm

from .core import (
    Instance,
    Job,
    Schedule,
    _GridScript,
    _job_id,
    _pair,
    _script_on_grid,
    _Timeline,
)


class Policy(Enum):
    WSRPT = "wsrpt"
    WSPT_PREEMPTIVE = "wspt"
    SRPT = "srpt"


class TieRule(Enum):
    PREFER_RUNNING = "prefer-running"
    PREFER_NEW_LONGEST = "prefer-new-longest"
    PREFER_NEW_SHORTEST = "prefer-new-shortest"
    SCRIPTED = "scripted"
    EXHAUSTIVE_WORST = "exhaustive-worst"


#: Longest path (in moves) the exhaustive tie search and the time-indexed
#: DP explore, one recursion frame per move: below CPython's default limit
#: of 1000 frames, with room left for the caller's own stack.  Each job's
#: completion is a move of its own, so more jobs than this are refused.
MAX_SEARCH_DEPTH = 800

#: Either search's state budget, in job remainders: each state keeps one per
#: job, and an n-job search refuses to enter a new state once its memo holds
#: CELLS // n finished states.  The states open on the current path are not
#: counted, so the memo can end up to MAX_SEARCH_DEPTH states past that.
CELLS = 4_000_000


class BudgetExceeded(RuntimeError):
    """Raised when a memoized search outgrows the limit rule of ``_event_search``."""


def _smith_rank(weights: list[tuple[int, int]], works: list[int]):
    """``rank(k, work)``: job k's Smith ratio w_k/work as a rank (smaller runs first).

    ``weights[k]`` is job k's weight as its reduced (numerator, denominator)
    pair, and every work a job is ranked at is at most the largest of
    ``works``.  The rank is one int, ``-((num << b) // (den * work))``, with
    b = 2 * bitlen(largest weight denominator * largest work).  It is exact:
    two distinct ratios whose denominators are below 2^(b/2) differ by more
    than 2^-b, so their floors on the scale of 2^b differ, and equal ratios
    get equal floors.  Floor is monotone, so no rank grows as work shrinks,
    for any work.  The division costs time quadratic in the scale's width,
    which is 104 bits at the basic family's delta = 1/10000 point but runs
    to thousands of bits on a grid of many unrelated denominators.
    """
    dens = [den for _, den in weights]
    b = 2 * (max(dens) * max(works)).bit_length()
    nums = [num << b for num, _ in weights]

    def rank(k: int, work: int) -> int:
        return -(nums[k] // (dens[k] * work))

    return rank


def _scaled_weights(weights: list[tuple[int, int]]) -> tuple[list[int], int]:
    """``(weights, den_w)``: weight pairs as ints in units of 1/den_w."""
    den_w = lcm(*{d for _, d in weights})
    return [num * (den_w // d) for num, d in weights], den_w


def simulate(
    instance: Instance,
    policy: Policy = Policy.WSRPT,
    tie: TieRule = TieRule.PREFER_RUNNING,
    script: tuple[tuple[Fraction, int], ...] | None = None,
) -> Schedule:
    """Run the policy over the instance and return the resulting schedule.

    ``tie`` picks among the jobs sharing the maximal policy key at a
    decision point.  SCRIPTED looks the event time up in ``script`` (or the
    instance's own tie_script); times without an entry fall back to the
    PREFER_RUNNING chain.  EXHAUSTIVE_WORST explores every tie branch and
    returns the worst (maximal-objective) schedule; among equally bad
    choices, ties go to the smallest job id.

    WSRPT under the instance's own tie rule, with ``script`` None or the
    instance's own ``tie_script``, is the instance's one run (``_own_run``):
    every such call returns the same schedule.
    """
    if tie is TieRule.EXHAUSTIVE_WORST:
        return _exhaustive_worst(instance, policy)[1]
    # The instance's own script is the one object ``tie_script`` built and
    # cached; the check builds no script.
    if script is None or script is instance.__dict__.get("tie_script"):
        if policy is Policy.WSRPT and tie is _own_tie(instance):
            return _own_run(instance)
        script = instance._script
    timeline = instance._by_id
    return _schedule(timeline, _run(timeline, *_policy(timeline, policy, tie, script)))


def _own_tie(instance: Instance) -> TieRule:
    """The instance's own tie rule: SCRIPTED by its tie script, PREFER_RUNNING without one."""
    return TieRule.PREFER_RUNNING if instance._script is None else TieRule.SCRIPTED


def _own_run(instance: Instance) -> Schedule:
    """WSRPT's schedule under the instance's own tie rule.

    It is computed at most once per instance and kept in the instance's
    ``__dict__``, as a cached property is, so every caller shares one
    schedule, which nothing changes once it is built.  An engine error,
    such as a scripted choice that is not a tied leader, is not kept:
    every call raises it again.
    """
    schedule = instance.__dict__.get("_own_run")
    if schedule is None:
        timeline = instance._by_id
        key, choose = _policy(timeline, Policy.WSRPT, _own_tie(instance), instance._script)
        schedule = instance.__dict__["_own_run"] = _schedule(timeline, _run(timeline, key, choose))
    return schedule


def _run(timeline: _Timeline, key, choose) -> list[tuple[int, int, int]]:
    """The event loop behind every single-path schedule: its runs.

    Runs on the integer grid of ``timeline``: a job is its index k, and
    times and remaining work are ints in units of 1/den_t.  ``key(k, rem)``
    ranks job k with ``rem`` work left; the smallest rank runs first.  No
    key's rank may grow as its work shrinks: WSRPT's w/rem grows, SRPT's
    rem shrinks, and WSPT's ratio and a priority list's position are
    static.  Each job is ranked once at its release and once after each
    run that leaves it unfinished; ``ranks[k]`` holds job k's last rank,
    which is its rank at ``rem[k]`` for every released unfinished job,
    since only the job that ran has less work left.  At each decision
    point ``choose(now, new, running, rem, ranks, top_key, top)`` returns
    the job to run until the next release or its completion: ``new`` are
    the jobs released at ``now`` in ascending order (else empty),
    ``running`` is the unfinished job that ran up to ``now`` (else None),
    ``rem`` holds every job's remaining work, and ``top`` is the smallest
    index among the released jobs of minimal rank ``top_key``.  ``choose``
    compares ranks through ``ranks`` and calls no ``key``.  Returns the
    runs ``(k, start, end)`` on the grid, adjacent runs of a job fused;
    ``_schedule`` makes them a schedule on that grid.

    The released unfinished jobs sit in a min-heap of (rank, index,
    version).  A chosen job that is the heap's top keeps its entry there:
    after a partial run its new entry is written straight into the top,
    with no sift, since by the contract above a rank that did not grow
    still sorts first; on completion it is popped.  Any other chosen job
    gets a new entry under a bumped version, and its old one is dropped
    when it surfaces, as is the entry of a job that completed off the top.
    A job whose rank did not change keeps its entry as it is.
    """
    groups = iter(_release_groups(timeline.releases))
    rem = list(timeline.procs)
    unfinished = len(rem)
    heap: list[tuple] = []
    ranks: list = [None] * len(rem)
    version = [0] * len(rem)

    runs: list[tuple[int, int, int]] = []
    next_t, next_new = next(groups)
    now = next_t
    running: int | None = None

    while unfinished:
        if now == next_t:
            new = next_new
            for k in new:
                rank = ranks[k] = key(k, rem[k])
                heapq.heappush(heap, (rank, k, 0))
            next_t, next_new = next(groups, (inf, ()))
        else:
            new = ()

        while heap:
            top_key, top, ver = heap[0]
            if rem[top] and version[top] == ver:
                break
            heapq.heappop(heap)
        else:
            # Idle: jump to the next release.  Past the last one, a job
            # still unfinished has lost its heap entry and would never run.
            if next_t == inf:
                raise RuntimeError(f"event loop lost {unfinished} unfinished job(s) from its heap")
            now = next_t
            running = None
            continue

        chosen = choose(now, new, running, rem, ranks, top_key, top)

        end = now + rem[chosen]
        if next_t < end:
            end = next_t
        if runs and runs[-1][0] == chosen and runs[-1][2] == now:
            runs[-1] = (chosen, runs[-1][1], end)
        else:
            runs.append((chosen, now, end))
        left = rem[chosen] = rem[chosen] - (end - now)
        now = end
        if left:
            running = chosen
            rank = key(chosen, left)
            if rank != ranks[chosen]:
                ranks[chosen] = rank
                if chosen == top:  # a rank that did not grow still sorts first
                    heap[0] = (rank, chosen, ver)
                else:
                    version[chosen] += 1
                    heapq.heappush(heap, (rank, chosen, version[chosen]))
        else:
            unfinished -= 1
            running = None
            if chosen == top:
                heapq.heappop(heap)
    return runs


def _choose_top(now, new, running, rem, ranks, top_key, top) -> int:
    """``_run``'s ``choose`` for ranks that never tie: always the top job."""
    return top


def _release_groups(releases: list[int]) -> list[tuple[int, tuple[int, ...]]]:
    """``(time, indices)`` per release instant in time order, indices ascending."""
    order = sorted(range(len(releases)), key=releases.__getitem__)  # stable: indices ascend
    return [(t, tuple(group)) for t, group in groupby(order, releases.__getitem__)]


def _schedule(timeline: _Timeline, runs: list[tuple[int, int, int]]) -> Schedule:
    """The schedule of ``_run``'s runs, left on the grid of 1/den_t.

    The runs name jobs by index.  The ids are distinct ints in ascending
    order, so when the first is 0 and the last n-1 they are the indices
    themselves, and the runs are passed on as they are.
    """
    ids = timeline.ids
    if ids[0] != 0 or ids[-1] != len(ids) - 1:
        runs = [(ids[k], start, end) for k, start, end in runs]
    return Schedule._on_grid(runs, timeline.den_t)


def _policy_key(timeline: _Timeline, policy: Policy):
    """``key(k, rem)``: the policy's rank of job k with ``rem`` work left.

    WSRPT ranks by ``_smith_rank`` of w/rem on the integer grid (the common
    factor den_t left out), with each weight's reduced pair read from the
    timeline, WSPT by the same rank at full processing time and SRPT by
    ``rem`` itself.  The smallest rank runs first, and equal ranks tie.
    """
    if policy is Policy.WSRPT:
        return _smith_rank(timeline.weights, timeline.procs)
    if policy is Policy.WSPT_PREEMPTIVE:
        rank = _smith_rank(timeline.weights, timeline.procs)
        static = [rank(k, p) for k, p in enumerate(timeline.procs)]
        return lambda k, rem: static[k]
    if policy is Policy.SRPT:
        return lambda k, rem: rem
    raise ValueError(f"unknown policy {policy!r}")


def _policy(timeline: _Timeline, policy: Policy, tie: TieRule, script):
    """``(key, choose)`` for ``_run``: the policy's rank and the tie rule.

    ``key`` is ``_policy_key``'s.  ``choose`` reads the ranks ``_run``
    caches and calls no key.
    ``script`` is the tie script SCRIPTED follows: an instance's own script
    on its grid (a ``_GridScript``), read as it is, or any other script,
    which is put on the grid first, its choices checked as the constructor
    checks them.  Its entries off the grid match no event.
    EXHAUSTIVE_WORST is no single-path rule; ``simulate`` runs it itself.
    """
    den_t = timeline.den_t
    key = _policy_key(timeline, policy)

    # Scaled time -> (job id, its index or None when no job has that id).
    script_map: dict[int, tuple[int, int | None]] = {}
    if tie is TieRule.SCRIPTED:
        if script is None:
            raise ValueError("SCRIPTED tie rule needs a script")
        if not isinstance(script, _GridScript):
            entries = [(_pair(t), _job_id(choice, "tie-script choice")) for t, choice in script]
            script = _script_on_grid([t for t, _ in entries], [c for _, c in entries], den_t)
        index = {job_id: k for k, job_id in enumerate(timeline.ids)}
        script_map = {
            t: (choice, index.get(choice)) for t, choice in zip(*script) if type(t) is int
        }
    prefer_new = tie in (TieRule.PREFER_NEW_LONGEST, TieRule.PREFER_NEW_SHORTEST)
    extreme = max if tie is TieRule.PREFER_NEW_LONGEST else min

    def choose(now, new, running, rem, ranks, top_key, top) -> int:
        if now in script_map:
            choice, k = script_map[now]
            if k is None or not rem[k] or timeline.releases[k] > now:
                raise ValueError(
                    f"scripted choice {choice} at t={Fraction(now, den_t)} is not available"
                )
            if ranks[k] != top_key:
                raise ValueError(
                    f"scripted choice {choice} at t={Fraction(now, den_t)} "
                    "is not among the tied leaders"
                )
            return k
        if prefer_new:
            tied_new = [k for k in new if ranks[k] == top_key]
            if tied_new:
                # max and min return the first extreme job, and ``new``
                # ascends: among equal work the smallest index wins.
                return extreme(tied_new, key=rem.__getitem__)
            # fall through to the running-job preference
        if running is not None and ranks[running] == top_key:
            return running
        return top

    return key, choose


#: Memo entry of a state with no moves: the end of every search path.
_PATH_END = (0, None, None)


def _event_search(timeline: _Timeline, weights: list[int], key, sign: int, what: str):
    """The one memoized search: ``(objective, path)`` of its best path.

    Runs on the integer grid of ``timeline``, with ``weights`` the jobs'
    weights scaled to ints by the caller, so the objective is an int in
    units of 1/(den_t * weight scale).  A state is (time, remaining work of
    each job index): a run's future depends on nothing else, so each
    state's best continuation is computed once.  A move runs one available
    job until it completes or the next release; with no job available, time
    jumps to the next release, a move that leaves no slice.

    The moves of a state run, in index order, the first job of each
    (weight, remaining work) class among the available jobs of minimal
    ``key(k, rem)`` rank (a policy's ``_policy_key``), or among all the
    available jobs when ``key`` is None.  One pass over the job indices
    picks them: it ranks every available job, even a lone one, and keeps
    the jobs that hold the smallest rank seen so far, in index order, a
    smaller rank starting the list afresh.  Two released jobs of equal
    weight and equal work left, tied in rank, can trade places in any
    schedule without changing its objective, so one of them branches for
    both.  A completion at ``end`` gains ``sign * w * end``, so the search
    finds the worst objective for ``sign`` = 1 and the best for -1; only a
    strictly higher value replaces the incumbent, so among equal moves the
    first one wins.

    Each state is entered with the index of its next release in the sorted
    release times, which end in a None past the last one.  A move that
    ends exactly at that release, cut there or completing there, passes
    the next index on, as the idle jump does; any other move keeps it.

    A memo entry is ``(value, step, continuation)``: it links to the entry
    of the rest of the path instead of copying it.  ``path`` is the start
    state's entry; ``_path_schedule`` fuses its steps into runs, as ``_run``
    fuses them.  Each job's completion takes a move of its own, so more jobs
    than MAX_SEARCH_DEPTH are refused up front.  A new state entered while
    the memo already holds CELLS // n finished states, or a path of more
    than MAX_SEARCH_DEPTH moves, raises BudgetExceeded naming ``what``.
    The states still open on the current path are not counted, so the memo
    can end up to MAX_SEARCH_DEPTH states past CELLS // n.
    """
    n = len(timeline.ids)
    if n > MAX_SEARCH_DEPTH:
        raise BudgetExceeded(
            f"{what} needs a search depth of at least {n} (one per job); "
            f"the limit is {MAX_SEARCH_DEPTH}"
        )
    budget = CELLS // n
    releases = timeline.releases
    times = sorted(set(releases))
    times.append(None)  # past the last release: no next release
    memo: dict = {}

    def solve(now: int, rem: tuple, i: int, depth: int) -> tuple:
        entry = memo.get((now, rem))
        if entry is not None:
            return entry
        if len(memo) >= budget:
            raise BudgetExceeded(f"{what} exceeded {budget} states")
        nxt = times[i]
        if key is None:
            moves = [k for k, r in enumerate(rem) if r and releases[k] <= now]
        else:
            moves = []
            for k, r in enumerate(rem):
                if r and releases[k] <= now:
                    rank = key(k, r)
                    if not moves or rank < top:
                        top, moves = rank, [k]
                    elif rank == top:
                        moves.append(k)
        if depth == MAX_SEARCH_DEPTH and (moves or nxt is not None):
            raise BudgetExceeded(f"{what} exceeded search depth {MAX_SEARCH_DEPTH}")
        if len(moves) > 1:
            classes: dict = {}
            for k in moves:
                classes.setdefault((weights[k], rem[k]), k)
            moves = classes.values()
        entry = _PATH_END
        if moves:
            for k in moves:
                end = now + rem[k]
                if nxt is not None and nxt <= end:
                    end, j = nxt, i + 1
                else:
                    j = i
                left = rem[k] - (end - now)
                rest = solve(end, rem[:k] + (left,) + rem[k + 1 :], j, depth + 1)
                value = rest[0] if left else rest[0] + sign * weights[k] * end
                if entry is _PATH_END or value > entry[0]:
                    entry = (value, (k, now, end), rest)
        elif nxt is not None:
            rest = solve(nxt, rem, i + 1, depth + 1)  # idle until the next release
            entry = (rest[0], None, rest)
        memo[now, rem] = entry
        return entry

    path = solve(times[0], tuple(timeline.procs), 1, 0)
    return sign * path[0], path


def _path_schedule(timeline: _Timeline, path: tuple) -> Schedule:
    """The schedule of an ``_event_search`` path, its steps fused into runs."""
    runs: list[tuple[int, int, int]] = []
    while path is not _PATH_END:
        if path[1] is not None:
            k, start, end = step = path[1]
            if runs and runs[-1][0] == k and runs[-1][2] == start:
                runs[-1] = (k, runs[-1][1], end)
            else:
                runs.append(step)
        path = path[2]
    return _schedule(timeline, runs)


def _worst_search(timeline: _Timeline, weights: list[int], policy: Policy):
    """``_event_search`` over every tie branch: ``(objective, path)`` of the worst run.

    Each move runs one of the policy's tied leaders, the first in id order
    of its (weight, remaining work) class, tried in ascending id order, so
    among equally bad choices the smallest id wins.  An unknown policy
    raises ``_policy_key``'s ValueError.
    """
    key = _policy_key(timeline, policy)
    return _event_search(timeline, weights, key, 1, "exhaustive tie search")


def _exhaustive_worst(instance: Instance, policy: Policy):
    """Explore every tie branch; return (objective, schedule) of the worst run."""
    timeline = instance._by_id
    weights, den_w = _scaled_weights(timeline.weights)
    value, path = _worst_search(timeline, weights, policy)
    return Fraction(value, timeline.den_t * den_w), _path_schedule(timeline, path)


@dataclass
class EqualityReport:
    """Outcome of the equality-instance check: its ``(time, text)`` violations."""

    violations: list[tuple[Fraction, str]] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.passed


def is_equality_instance(instance: Instance) -> EqualityReport:
    """Check that every release ties the running job's current Smith ratio.

    Reads the instance's one WSRPT run (``_own_run``), the schedule
    ``simulate`` returns under the instance's tie script (PREFER_RUNNING
    without one), and scans its runs once: at each release instant t the
    new jobs must share one exact Smith ratio, and so must the job whose
    run covers t⁻ (start < t <= end) at its remaining work, if any.
    """
    timeline = instance._by_id
    ids, procs, den_t, weights = timeline.ids, timeline.procs, timeline.den_t, timeline.weights
    runs = _own_run(instance)._runs
    index = {job_id: k for k, job_id in enumerate(ids)}  # runs name jobs by id
    rank = _smith_rank(weights, procs)  # equal ratios, equal ranks

    rem = list(procs)  # each job's work left at the start of runs[i]
    violations: list[tuple[Fraction, str]] = []
    i = 0
    for t, new in _release_groups(timeline.releases):
        while runs[i][2] < t:  # in range: a job released at t runs after t
            job, start, end = runs[i]
            rem[index[job]] -= end - start
            i += 1
        job, start, _ = runs[i]
        k = index[job]
        left = rem[k] - (t - start)
        ratios = {rank(j, procs[j]) for j in new}
        if len(ratios) > 1:
            new_ids = [ids[j] for j in new]
            violations.append(
                (Fraction(t, den_t), f"co-released jobs {new_ids} have distinct ratios")
            )
        elif start < t and left and rank(k, left) not in ratios:
            new_ids = [ids[j] for j in new]
            violations.append(
                (Fraction(t, den_t),
                 f"jobs {new_ids} (ratio {_grid_ratio(timeline, new[0], procs[new[0]])}) vs "
                 f"running job {ids[k]} (ratio {_grid_ratio(timeline, k, left)})")
            )
    return EqualityReport(violations)


def _grid_ratio(timeline: _Timeline, k: int, work: int) -> Fraction:
    """Job k's weight over ``work`` units of 1/den_t, as a Fraction."""
    num, den = timeline.weights[k]
    return Fraction(num * timeline.den_t, den * work)


def split_job(instance: Instance, job_id: int, q: int) -> Instance:
    """Replace one job by q identical fragments (p/q, w/q, same release).

    Ids are reassigned densely in the original job order, fragments taking
    the split job's position.  Tie-script entries are remapped; an entry
    naming the split job now names its first fragment.
    """
    if q < 1:
        raise ValueError("q must be a positive integer")
    if all(j.id != job_id for j in instance.jobs):
        raise KeyError(f"no job with id {job_id}")

    new_jobs: list[Job] = []
    id_map: dict[int, int] = {}
    for j in instance.jobs:
        if j.id == job_id:
            id_map[j.id] = len(new_jobs)
            for _ in range(q):
                new_jobs.append(
                    Job(len(new_jobs), j.release, j.processing / q, j.weight / q)
                )
        else:
            id_map[j.id] = len(new_jobs)
            new_jobs.append(Job(len(new_jobs), j.release, j.processing, j.weight))

    script = None
    if instance.tie_script is not None:
        script = tuple((t, id_map[c]) for t, c in instance.tie_script)
    return Instance(tuple(new_jobs), tie_script=script, tags=dict(instance.tags))
