"""Two-long-job adversary game against pluggable online policies.

The adversary releases two proportionate jobs (p = w) at time zero, watches
how the policy splits the machine between them, and answers with one burst
of identical high-ratio small jobs sized and timed by which branch of the
game the observed remainders select: first-untouched and second-ahead
strike at p1, terminal at p2.  All checkpoint bookkeeping is exact rational
arithmetic on the simulated schedule; only the second-ahead branch's
burst-length search is float numerics.

The game instance lives on the integer grid of 1/den_t, den_t the lcm of
the denominators of p1, p2, the burst release and the piece length: ``play``
builds it there directly, with no ``Job`` per burst piece, the policies and
the equalizer schedule it in grid units, and the transcript is rendered
from those ints.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import permutations
from math import lcm
from typing import Union

from .core import (
    Instance,
    Job,
    Schedule,
    _scaled,
    _rational_str,
    _Timeline,
    _without_digit_limit,
    objective,
    rational_str,
    to_rational,
)
from .analysis import _argmax, burst_length
from .instances import (
    MAX_BURST_PIECES,
    _expanded,
    _instance_payload,
    _slice_table,
    write_json,
)
from .oracle import closed_pair_optimal, pair_objectives, priority_schedule
from .simulator import Policy, TieRule, _smith_rank, simulate

#: Branch names, in the order the game tests them.
BRANCH_FIRST_UNTOUCHED = "first-untouched"  # second job ran the whole prefix
BRANCH_SECOND_AHEAD = "second-ahead"  # second job's ratio leads at p1
BRANCH_TERMINAL = "terminal"  # first job's ratio leads at p1: strike at p2

#: Named policies beyond the simulator's enum.
EXTRA_POLICIES = ("j2-first", "equalizer")

PolicyLike = Union[Policy, str]


@dataclass(frozen=True)
class AdversaryState:
    """Everything the adversary observed and decided in one game.

    ``checkpoints`` holds (time, first remainder, second remainder) at each
    inspection time — p1 always, plus p2 when the terminal branch fires.
    ``l1`` and ``l2`` are the closed-form burst lengths of the two outer
    branches at their extreme ratios (p2/(p2−p1) with the second job
    untouched at p1, p2/p1 with the first job done by p2), recorded for
    reference whichever branch ran.
    """

    p1: Fraction
    p2: Fraction
    checkpoints: tuple[tuple[Fraction, Fraction, Fraction], ...]
    branch: str
    block_release: Fraction
    block_ratio: Fraction
    block_length: Fraction | None
    l1: float
    l2: float

    def remainders_at(self, t: Fraction) -> tuple[Fraction, Fraction]:
        for time, rem1, rem2 in self.checkpoints:
            if time == t:
                return rem1, rem2
        raise KeyError(f"no checkpoint at t={t}")


@dataclass(frozen=True)
class AdversaryTranscript:
    """Outcome of one adversary game: instance, schedules, certified ratio."""

    instance: Instance
    schedule: Schedule
    online_objective: Fraction
    optimal_objective: Fraction
    ratio: Fraction
    branch: str
    state: AdversaryState

    def __post_init__(self):
        if self.ratio < 1:
            raise ValueError("adversary game produced a ratio below 1")


def choose_l(branch_state: AdversaryState) -> float:
    """Burst length maximizing the ratio the branch certifies.

    The two outer branches have closed forms: both their online/optimal
    quotients share the constant K = p1² + p1·p2 + p2² and the quadratic
    coefficient ρ/2, so the maximizer is √(2K/ρ) (``burst_length``) — l1
    when the second job ran the whole prefix, and l2 = √(2K·p1/p2) in the
    terminal branch when the first job is done by p2.  The second-ahead
    branch maximizes the certified ratio over (0, 4·p2] to 1e-6 by the
    analysis module's bounded Brent search: the certified online value is
    the cheapest continuation the policy could still play (the burst and
    job remainders commute freely only when their ratios tie, so all six
    orders are evaluated), the optimal value is the pair closed form.
    """
    p1, p2 = float(branch_state.p1), float(branch_state.p2)
    rho = float(branch_state.block_ratio)
    if branch_state.branch in (BRANCH_FIRST_UNTOUCHED, BRANCH_TERMINAL):
        return burst_length(p1, p2, rho)

    t_r = float(branch_state.block_release)
    rem1, rem2 = (
        float(x) for x in branch_state.remainders_at(branch_state.block_release)
    )

    def online_cost(order) -> float:
        # Chunks are (length, weight, mean completion offset) run back to back.
        t, total = t_r, 0.0
        for length, weight, offset in order:
            total += weight * (t + offset)
            t += length
        return total

    def certified(l: float) -> float:
        chunks = ((rem1, p1, rem1), (rem2, p2, rem2), (l, rho * l, l / 2))
        online_floor = min(map(online_cost, permutations(chunks)))
        return online_floor / min(pair_objectives(p1, p2, t_r, rho, l, l / 2))

    return _argmax(certified, 1e-9, 4 * p2, 1e-6)[0]


def _run_policy(policy: PolicyLike, tie: TieRule, instance: Instance) -> Schedule:
    """Simulate the named policy and validate the schedule it emits."""
    if isinstance(policy, str) and policy not in EXTRA_POLICIES:
        try:
            policy = Policy(policy)
        except ValueError:
            raise ValueError(
                f"unknown policy {policy!r}; expected a Policy, "
                f"{', '.join(repr(p.value) for p in Policy)}, "
                f"or one of {EXTRA_POLICIES}"
            ) from None
    if isinstance(policy, Policy):
        schedule = simulate(instance, policy=policy, tie=tie)
    elif policy == "j2-first":
        schedule = _j2_first_schedule(instance)
    else:
        schedule = _equalizer_schedule(instance)
    schedule.validate(instance)
    return schedule


def _j2_first_schedule(instance: Instance) -> Schedule:
    """Run the second long job whenever it is alive, then highest ratio.

    On game instances the burst outranks the untouched first job at every
    instant, so these choices are realized exactly by a static priority
    list: job 1, then the burst in id order, then job 0.
    """
    others = sorted(i for i in instance._grid.ids if i not in (0, 1))
    return priority_schedule(instance, [1, *others, 0])


def _equalizer_schedule(instance: Instance) -> Schedule:
    """Keep both long jobs' ratios equal, then play out ties nonpreemptively.

    With the long jobs' processing times P1 and P2 in units of 1/den_t,
    rotates on the grid of den = den_t·50·(P1+P2): each cycle of p1/50 is
    P1·(P1+P2) units, split into shares P1·P1 and P1·P2 between the long
    jobs, so that at every cycle boundary the executed work — and hence the
    weight-over-remaining ratio — stays proportionate.  At the first release
    after zero it stops rotating and finishes the remaining jobs
    nonpreemptively in decreasing current-ratio order (running job first
    among ties, then lower id), ranked exactly by ``_smith_rank``.
    """
    ids, releases, procs, den_t, weights = instance._grid
    proc = dict(zip(ids, procs))
    p1, p2 = proc[0], proc[1]
    scale = 50 * (p1 + p2)
    later = [r for r in releases if r > 0]
    t_switch = min(later) * scale if later else None

    shares = {0: p1 * p1, 1: p1 * p2}
    rem = {i: p * scale for i, p in proc.items()}
    runs: list[tuple[int, int, int]] = []  # (job, start, end), adjacent runs of a job fused

    def run(jid: int, start: int, end: int) -> None:
        if runs and runs[-1][0] == jid and runs[-1][2] == start:
            runs[-1] = (jid, runs[-1][1], end)
        else:
            runs.append((jid, start, end))
    now = 0
    running = None
    while rem[0] > 0 or rem[1] > 0:
        if t_switch is not None and now >= t_switch:
            break
        # now < t_switch here, so the first job with work left gets d > 0.
        for jid in (0, 1):
            if rem[jid] == 0:
                continue
            d = min(shares[jid], rem[jid])
            if t_switch is not None:
                d = min(d, t_switch - now)
            if d <= 0:
                continue
            run(jid, now, now + d)
            rem[jid] -= d
            now += d
            running = jid

    alive = [k for k, i in enumerate(ids) if rem[i] > 0]
    smith = _smith_rank(weights, [rem[i] for i in ids])
    alive.sort(key=lambda k: (smith(k, rem[ids[k]]), ids[k] != running, ids[k]))
    for k in alive:
        start = max(now, releases[k] * scale)
        now = start + rem[ids[k]]
        run(ids[k], start, now)
    return Schedule._on_grid(runs, den_t * scale)


def play(
    policy: PolicyLike,
    tie: TieRule = TieRule.PREFER_RUNNING,
    delta=None,
    p1=1,
    p2="2.3364",
) -> AdversaryTranscript:
    """Play the two-job game against ``policy`` and certify the ratio.

    Releases the two long jobs, probes the policy's schedule, and branches
    on the exact remainders at p1: second job ran the whole prefix
    (first-untouched) → burst at p1 with ratio p2/(p2−p1) and closed-form
    length; second job's ratio leads (second-ahead) → burst at p1 with
    ratio p2/rem2(p1) and a numerically searched length; otherwise
    (terminal) → burst at p2 with ratio p2/rem2(p2) and closed-form length.
    A completed job counts as infinite ratio.  The burst is
    discretized into pieces of length ``delta`` (default p1/1000) whose
    weights realize the branch ratio exactly; the transcript's optimal side
    is the exact discrete pair closed form.  The game instance is built on
    its integer grid directly.  A delta that would cut the burst into more
    than MAX_BURST_PIECES pieces is refused before it is built.
    """
    p1 = to_rational(p1)
    p2 = to_rational(p2)
    if not 0 < p1 < p2:
        raise ValueError("need 0 < p1 < p2")
    delta = p1 / 1000 if delta is None else to_rational(delta)
    if not 0 < delta <= p1:
        raise ValueError("delta must lie in (0, p1]")

    probe = Instance(
        (Job(0, 0, p1, p1), Job(1, 0, p2, p2)),
        tags={"kind": "adversary-probe"},
    )
    probe_schedule = _run_policy(policy, tie, probe)

    rem1_p1 = p1 - probe_schedule.executed(0, p1)
    rem2_p1 = p2 - probe_schedule.executed(1, p1)
    checkpoints = [(p1, rem1_p1, rem2_p1)]

    if rem2_p1 == p2 - p1:
        branch, t_r, rho = BRANCH_FIRST_UNTOUCHED, p1, Fraction(p2, rem2_p1)
    elif rem1_p1 > 0 and p2 * rem1_p1 >= p1 * rem2_p1:
        branch, t_r, rho = BRANCH_SECOND_AHEAD, p1, Fraction(p2, rem2_p1)
    else:
        rem1_p2 = p1 - probe_schedule.executed(0, p2)
        rem2_p2 = p2 - probe_schedule.executed(1, p2)
        checkpoints.append((p2, rem1_p2, rem2_p2))
        branch, t_r, rho = BRANCH_TERMINAL, p2, Fraction(p2, rem2_p2)

    state = AdversaryState(
        p1=p1,
        p2=p2,
        checkpoints=tuple(checkpoints),
        branch=branch,
        block_release=t_r,
        block_ratio=rho,
        block_length=None,
        l1=burst_length(float(p1), float(p2), float(p2 / (p2 - p1))),
        l2=burst_length(float(p1), float(p2), float(p2 / p1)),
    )
    length = choose_l(state)
    if length >= (MAX_BURST_PIECES + Fraction(1, 2)) * delta:  # would round past the cap
        raise ValueError(
            f"delta {rational_str(delta)} cuts the burst of length {length:.6g} "
            f"into more than {MAX_BURST_PIECES} pieces"
        )

    pieces = max(1, round(length / float(delta)))
    block_length = pieces * delta
    state = replace(state, block_length=block_length)

    # The guards above vouch for every check Job and Instance would make:
    # positive times and weights, a nonnegative release, ids 0..n-1.
    den_t = lcm(p1.denominator, p2.denominator, t_r.denominator, delta.denominator)
    weight = rho * delta
    grid = _Timeline(
        list(range(2 + pieces)),
        [0, 0] + [_scaled(t_r, den_t)] * pieces,
        [_scaled(p1, den_t), _scaled(p2, den_t)] + [_scaled(delta, den_t)] * pieces,
        den_t,
        [(p1.numerator, p1.denominator), (p2.numerator, p2.denominator)]
        + [(weight.numerator, weight.denominator)] * pieces,
    )
    instance = Instance._on_grid(
        grid,
        tags={
            "kind": "adversary",
            "branch": branch,
            "p1": rational_str(p1),
            "p2": rational_str(p2),
            "delta": rational_str(delta),
        },
    )
    schedule = _run_policy(policy, tie, instance)
    online = objective(schedule, instance)
    optimal = closed_pair_optimal(p1, p2, t_r, rho, block_length, pieces=pieces)
    return AdversaryTranscript(
        instance=instance,
        schedule=schedule,
        online_objective=online,
        optimal_objective=optimal,
        ratio=Fraction(online, optimal),
        branch=branch,
        state=state,
    )


def _transcript_payload(transcript: AdversaryTranscript) -> dict:
    """``transcript_to_dict``'s payload with its record lists as tables,
    under a digit limit lifted by the caller."""
    st = transcript.state
    return {
        "branch": transcript.branch,
        "p1": _rational_str(st.p1),
        "p2": _rational_str(st.p2),
        "checkpoints": [
            [_rational_str(t), _rational_str(r1), _rational_str(r2)]
            for t, r1, r2 in st.checkpoints
        ],
        "block": {
            "release": _rational_str(st.block_release),
            "ratio": _rational_str(st.block_ratio),
            "length": _rational_str(st.block_length),
            "closed_form_l1": st.l1,
            "closed_form_l2": st.l2,
        },
        "online_objective": _rational_str(transcript.online_objective),
        "optimal_objective": _rational_str(transcript.optimal_objective),
        "ratio": float(transcript.ratio),
        "ratio_exact": _rational_str(transcript.ratio),
        "instance": _instance_payload(transcript.instance),
        "schedule": _slice_table(transcript.schedule),
    }


@_without_digit_limit()
def transcript_to_dict(transcript: AdversaryTranscript) -> dict:
    """JSON-ready form of a game transcript (rationals as exact strings)."""
    return _expanded(_transcript_payload(transcript))


@_without_digit_limit()
def write_transcript(transcript: AdversaryTranscript, dest) -> None:
    """Write the transcript as indented JSON: the bytes of
    ``json.dump(transcript_to_dict(transcript), indent=2)`` plus a newline,
    with the instance's and the schedule's record lists written as tables."""
    write_json(_transcript_payload(transcript), dest)


__all__ = [
    "AdversaryState",
    "AdversaryTranscript",
    "BRANCH_FIRST_UNTOUCHED",
    "BRANCH_SECOND_AHEAD",
    "BRANCH_TERMINAL",
    "EXTRA_POLICIES",
    "choose_l",
    "play",
    "transcript_to_dict",
    "write_transcript",
]
