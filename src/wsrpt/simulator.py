"""Event-driven preemptive single-machine simulation with explicit tie-breaking.

Decision points occur only at job releases and completions: between events
the running job's priority can only improve relative to the waiting jobs
under every supported policy, so no preemption can trigger mid-slice.
Equality instances make *every* release a tie, which is why selection works
on exact rationals and ties are resolved by an explicit rule or script.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from dataclasses import dataclass, field
from enum import Enum
from fractions import Fraction
from math import lcm

from .core import (
    Instance,
    Job,
    Schedule,
    Slice,
    merge_slices,
    smith_ratio,
    to_rational,
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

#: Cap on the job remainders either search's memo holds in all: each state
#: keeps one per job, so an n-job search memoizes at most CELLS // n states.
CELLS = 4_000_000


class BudgetExceeded(RuntimeError):
    """Raised when a memoized search outgrows the limit rule of ``_memo_search``."""


def policy_key(policy: Policy, job: Job, remaining: Fraction) -> Fraction:
    """Priority key (larger runs) of a job with the given remaining work."""
    if policy is Policy.WSRPT:
        return job.weight / remaining
    if policy is Policy.WSPT_PREEMPTIVE:
        return job.weight / job.processing
    if policy is Policy.SRPT:
        return Fraction(1) / remaining
    raise ValueError(f"unknown policy {policy!r}")


def _release_groups(instance: Instance) -> list[tuple[Fraction, list[int]]]:
    groups: dict[Fraction, list[int]] = {}
    for j in instance.jobs:
        groups.setdefault(j.release, []).append(j.id)
    return sorted((t, sorted(ids)) for t, ids in groups.items())


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
    """
    if tie is TieRule.EXHAUSTIVE_WORST:
        _, slices = _exhaustive_worst(instance, policy)
        return Schedule(slices)
    return _run(instance, *_policy(instance, policy, tie, script))


def _run(instance: Instance, key, choose) -> Schedule:
    """The event loop behind every single-path schedule.

    ``key(job_id, remaining)`` is a job's priority; larger runs first.  At
    each decision point ``choose(now, new_ids, running, remaining, top_key,
    top_id)`` returns the job to run until the next release or its
    completion: ``new_ids`` are the jobs released at ``now``, ``running``
    is the unfinished job that ran up to ``now`` (else None), and
    ``top_id`` is the smallest id among the released jobs of maximal key
    ``top_key``.
    """
    remaining = {j.id: j.processing for j in instance.jobs}
    releases = _release_groups(instance)
    n = len(remaining)

    # Lazy max-heap: entries (negated key, id, version).  Only the running
    # job's key can change between events, so entries go stale only when we
    # re-push that one job with a bumped version.
    heap: list[tuple] = []
    version: dict[int, int] = {}
    completed: set[int] = set()

    def push(jid: int) -> None:
        version[jid] = version.get(jid, 0) + 1
        heapq.heappush(heap, (-key(jid, remaining[jid]), jid, version[jid]))

    def top():
        while heap:
            neg_key, jid, ver = heap[0]
            if jid in completed or version.get(jid) != ver:
                heapq.heappop(heap)
                continue
            return -neg_key, jid
        return None

    raw: list[Slice] = []
    idx = 0
    now = releases[0][0]
    running: int | None = None

    while len(completed) < n:
        new_ids: list[int] = []
        while idx < len(releases) and releases[idx][0] <= now:
            t, ids = releases[idx]
            for jid in ids:
                push(jid)
            if t == now:
                new_ids.extend(ids)
            idx += 1

        best = top()
        if best is None:
            # Idle: jump to the next release.
            now = releases[idx][0]
            running = None
            continue

        chosen = choose(now, new_ids, running, remaining, *best)

        finish = now + remaining[chosen]
        end = min(finish, releases[idx][0]) if idx < len(releases) else finish
        raw.append(Slice(chosen, now, end))
        remaining[chosen] -= end - now
        now = end
        if remaining[chosen] == 0:
            completed.add(chosen)
            running = None
        else:
            running = chosen
            push(chosen)  # refresh the executed job's key

    return Schedule(merge_slices(raw))


def _policy(instance: Instance, policy: Policy, tie: TieRule, script):
    """``(key, choose)`` for ``_run``: the policy's key and the tie rule.

    EXHAUSTIVE_WORST is no single-path rule; ``simulate`` runs it itself.
    """
    jobs = {j.id: j for j in instance.jobs}

    def key(jid: int, remaining: Fraction) -> Fraction:
        return policy_key(policy, jobs[jid], remaining)

    script_map: dict[Fraction, int] = {}
    if tie is TieRule.SCRIPTED:
        entries = script if script is not None else instance.tie_script
        if entries is None:
            raise ValueError("SCRIPTED tie rule needs a script")
        script_map = {to_rational(t): choice for t, choice in entries}
    prefer_new = tie in (TieRule.PREFER_NEW_LONGEST, TieRule.PREFER_NEW_SHORTEST)
    longest = tie is TieRule.PREFER_NEW_LONGEST

    def choose(now, new_ids, running, remaining, top_key, top_id) -> int:
        if now in script_map:
            choice = script_map[now]
            if (
                choice not in remaining
                or remaining[choice] <= 0
                or jobs[choice].release > now
            ):
                raise ValueError(f"scripted choice {choice} at t={now} is not available")
            if key(choice, remaining[choice]) != top_key:
                raise ValueError(
                    f"scripted choice {choice} at t={now} is not among the tied leaders"
                )
            return choice
        if prefer_new:
            tied_new = [jid for jid in new_ids if key(jid, remaining[jid]) == top_key]
            if tied_new:
                return min(
                    tied_new,
                    key=lambda jid: (-remaining[jid] if longest else remaining[jid], jid),
                )
            # fall through to the running-job preference
        if running is not None and key(running, remaining[running]) == top_key:
            return running
        return top_id

    return key, choose


#: Memo entry of a state with no moves: the end of every search path.
_PATH_END = (0, None, None)


def _memo_search(start, moves, jobs: int, what: str):
    """Highest-value path from ``start``: ``(value, steps)``.

    ``moves(state)`` yields ``(gain, step, next_state)`` in preference
    order; a state with no moves ends the path at value 0.  Each state's
    best continuation is computed once, and only a strictly higher value
    replaces the incumbent, so among equal moves the first one wins.  A
    memo entry is ``(value, step, continuation)``: it links to the entry of
    the rest of the path instead of copying it, and the path is read off
    those links at the end, leaving out ``None`` steps (moves that only
    let time pass).  ``jobs`` is the instance's job count; each job's
    completion takes a move of its own.  More jobs than MAX_SEARCH_DEPTH
    are refused up front, and more than CELLS // ``jobs`` distinct states
    or a path of more than MAX_SEARCH_DEPTH moves raise BudgetExceeded
    naming ``what``.
    """
    if jobs > MAX_SEARCH_DEPTH:
        raise BudgetExceeded(
            f"{what} needs a search depth of at least {jobs} (one per job); "
            f"the limit is {MAX_SEARCH_DEPTH}"
        )
    budget = CELLS // jobs
    memo: dict = {}

    def solve(state, depth: int) -> tuple:
        entry = memo.get(state)
        if entry is not None:
            return entry
        if len(memo) >= budget:
            raise BudgetExceeded(f"{what} exceeded {budget} states")
        entry = _PATH_END
        for gain, step, nxt in moves(state):
            if depth == MAX_SEARCH_DEPTH:
                raise BudgetExceeded(
                    f"{what} exceeded search depth {MAX_SEARCH_DEPTH}"
                )
            rest = solve(nxt, depth + 1)
            value = gain + rest[0]
            if entry is _PATH_END or value > entry[0]:
                entry = (value, step, rest)
        memo[state] = entry
        return entry

    entry = solve(start, 0)
    value, steps = entry[0], []
    while entry is not _PATH_END:
        if entry[1] is not None:
            steps.append(entry[1])
        entry = entry[2]
    return value, steps


def _integer_scaled(jobs):
    """Clear denominators: (releases, procs, weights as ints, scales)."""
    den_t = lcm(*(x.denominator for j in jobs for x in (j.release, j.processing)))
    den_w = lcm(*(j.weight.denominator for j in jobs))
    releases = [int(j.release * den_t) for j in jobs]
    procs = [int(j.processing * den_t) for j in jobs]
    weights = [int(j.weight * den_w) for j in jobs]
    return releases, procs, weights, den_t, den_w


def _event_search(instance: Instance, leaders, sign: int, what: str):
    """The move rule of both memoized searches: ``(objective, slices)``.

    Works on integer-scaled data.  A state is (time, remaining work in id
    order): a run's future depends on nothing else, so ``_memo_search``
    scores each state's continuation once.  A move runs one available job
    until it completes or the next release, and with no job available time
    jumps to the next release.

    ``leaders(available, rem, weights, procs)`` picks, in preference order,
    the jobs a move may run; jobs are indices in id order.  A completion at
    ``end`` gains ``sign * w * end``, so ``_memo_search`` finds the worst
    objective for ``sign`` = 1 and the best for -1, naming ``what`` when a
    limit is exceeded.
    """
    jobs = sorted(instance.jobs, key=lambda j: j.id)
    releases, procs, weights, den_t, den_w = _integer_scaled(jobs)
    times = sorted(set(releases))
    n = len(jobs)

    def moves(state):
        now, rem = state
        i = bisect_right(times, now)
        available = [k for k in range(n) if rem[k] and releases[k] <= now]
        if not available and i < len(times):
            yield 0, None, (times[i], rem)  # idle until the next release
            return
        for k in leaders(available, rem, weights, procs):
            end = now + rem[k]
            if i < len(times) and times[i] < end:
                end = times[i]
            left = rem[k] - (end - now)
            gain = sign * weights[k] * end if left == 0 else 0
            yield gain, (k, now, end), (end, rem[:k] + (left,) + rem[k + 1 :])

    value, steps = _memo_search((times[0], tuple(procs)), moves, n, what)
    slices = [
        Slice(jobs[k].id, Fraction(t, den_t), Fraction(end, den_t)) for k, t, end in steps
    ]
    return Fraction(sign * value, den_t * den_w), merge_slices(slices)


def _exhaustive_worst(instance: Instance, policy: Policy):
    """Explore every tie branch; return (objective, slices) of the worst run.

    Each move runs one of the policy's tied leaders, tried in ascending id
    order, so among equally bad choices the smallest id wins.
    """
    if not isinstance(policy, Policy):
        raise ValueError(f"unknown policy {policy!r}")
    srpt = policy is Policy.SRPT
    static = policy is Policy.WSPT_PREEMPTIVE

    def leaders(available, rem, weights, procs):
        # Each key is a ratio x/y of w/rem, w/p or 1/rem; compare them by
        # cross-multiplying the scaled integers.
        top, a, b = [], 0, 1
        for k in available:
            x = 1 if srpt else weights[k]
            y = procs[k] if static else rem[k]
            if not top or x * b > a * y:
                top, a, b = [k], x, y
            elif x * b == a * y:
                top.append(k)
        return top

    return _event_search(instance, leaders, 1, "exhaustive tie search")


@dataclass
class EqualityReport:
    """Outcome of the equality-instance check."""

    passed: bool
    violations: list[tuple[Fraction, str]] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.passed


def is_equality_instance(instance: Instance) -> EqualityReport:
    """Check that every release ties the running job's current Smith ratio.

    Simulates WSRPT under the instance's own tie script (PREFER_RUNNING
    when it has none) and verifies exactly, at every release instant, that
    all newly submitted jobs share one Smith ratio and that it equals the
    interrupted job's current ratio when one is running.
    """
    tie = TieRule.SCRIPTED if instance.tie_script is not None else TieRule.PREFER_RUNNING
    key, choose = _policy(instance, Policy.WSRPT, tie, None)
    jobs = {j.id: j for j in instance.jobs}
    violations: list[tuple[Fraction, str]] = []

    def audited(now, new_ids, running, remaining, top_key, top_id) -> int:
        # Every release group is decided at its own instant; ``running`` is
        # the job it interrupts, or None after a completion or idle time.
        ratios = {jobs[i].ratio for i in new_ids}
        if len(ratios) > 1:
            violations.append(
                (now, f"co-released jobs {new_ids} have distinct ratios")
            )
        elif ratios and running is not None:
            (released_ratio,) = ratios
            current = smith_ratio(jobs[running], remaining[running])
            if current != released_ratio:
                violations.append(
                    (now, f"jobs {new_ids} (ratio {released_ratio}) vs running job "
                          f"{running} (ratio {current})")
                )
        return choose(now, new_ids, running, remaining, top_key, top_id)

    _run(instance, key, audited)
    return EqualityReport(passed=not violations, violations=violations)


@dataclass
class Segment:
    """A nested interval of a WSRPT schedule with no partial execution."""

    start: Fraction
    end: Fraction
    members: tuple[int, ...]
    depth: int = 0
    children: list["Segment"] = field(default_factory=list)


def segments(schedule: Schedule, instance: Instance) -> list[Segment]:
    """Decompose a WSRPT schedule into its nested segment forest.

    A segment opens at a release where some job starts exactly at its
    submission time, together with its co-released equal-ratio jobs; it
    closes at the first later slice of a job with a smaller static ratio or
    with an equal ratio outside the opening set, else at the makespan.
    """
    jobs = {j.id: j for j in instance.jobs}
    first_start: dict[int, Fraction] = {}
    span: dict[int, tuple[Fraction, Fraction]] = {}
    for s in schedule.slices:
        first_start.setdefault(s.job, s.start)
        lo, hi = span.get(s.job, (s.start, s.end))
        span[s.job] = (min(lo, s.start), max(hi, s.end))

    by_release: dict[Fraction, list[Job]] = {}
    for j in instance.jobs:
        by_release.setdefault(j.release, []).append(j)

    openings: dict[Fraction, set[int]] = {}
    for j in instance.jobs:
        if first_start.get(j.id) == j.release:
            openings.setdefault(j.release, set()).update(
                other.id
                for other in by_release[j.release]
                if other.ratio == j.ratio
            )

    makespan = schedule.makespan
    raw: list[Segment] = []
    for t in sorted(openings):
        opening = openings[t]
        seg_ratio = jobs[next(iter(opening))].ratio
        end = makespan
        for s in schedule.slices:
            if s.start <= t:
                continue
            r = jobs[s.job].ratio
            if r < seg_ratio or (r == seg_ratio and s.job not in opening):
                end = s.start
                break
        members = tuple(
            sorted(
                jid
                for jid, (lo, hi) in span.items()
                if t <= lo and hi <= end
            )
        )
        raw.append(Segment(t, end, members))

    # Build the forest: sort by (start asc, end desc) and nest by containment.
    raw.sort(key=lambda seg: (seg.start, -seg.end))
    roots: list[Segment] = []
    stack: list[Segment] = []
    for seg in raw:
        while stack and not (stack[-1].start <= seg.start and seg.end <= stack[-1].end):
            stack.pop()
        if stack:
            seg.depth = stack[-1].depth + 1
            stack[-1].children.append(seg)
        else:
            roots.append(seg)
        stack.append(seg)
    return roots


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
