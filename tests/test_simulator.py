"""Policy simulation: spec'd schedules, tie rules, equality instances,
and the splitting transformation."""

import heapq
import math
import re
from dataclasses import replace
from fractions import Fraction
from random import Random
from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsrpt.oracle
import wsrpt.simulator
from wsrpt.adversary import play
from wsrpt.core import Instance, Job, Schedule, Slice, objective, to_rational
from wsrpt.instances import RANDOM_KINDS, ScenarioParams, gen_basic, gen_random
from wsrpt.oracle import (
    optimal_dp_timeindexed,
    optimal_objective,
    priority_schedule,
    structured_optimal,
)
from wsrpt.simulator import (
    MAX_SEARCH_DEPTH,
    BudgetExceeded,
    Policy,
    TieRule,
    _exhaustive_worst,
    _grid_ratio,
    _policy,
    _ratio_key,
    _release_groups,
    _run,
    is_equality_instance,
    simulate,
    split_job,
)

from conftest import decision_instants, interrupts, remaining_at, small_instances, sweep_points

FIXED_TIES = (
    TieRule.PREFER_RUNNING,
    TieRule.PREFER_NEW_LONGEST,
    TieRule.PREFER_NEW_SHORTEST,
)


def policy_key(policy: Policy, job: Job, remaining: Fraction) -> Fraction:
    """Fraction-level priority key (larger runs) of a job with the given
    remaining work: the reference for the engine's integer ranks."""
    if policy is Policy.WSRPT:
        return job.weight / remaining
    if policy is Policy.WSPT_PREEMPTIVE:
        return job.weight / job.processing
    if policy is Policy.SRPT:
        return Fraction(1) / remaining
    raise ValueError(f"unknown policy {policy!r}")


def _two_long_jobs():
    return Instance((Job(0, 0, 1, 1), Job(1, 0, 2, 2)))


@st.composite
def mixed_instances(draw, max_jobs: int = 5):
    """Times in thirds, fifths and sevenths, weights of distinct
    denominators and ids out of order, so the engine's time scaling, its
    ratio comparisons and its id order all matter."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    ids = draw(st.permutations(range(0, 3 * n, 3)))
    weight_dens = draw(
        st.lists(st.integers(min_value=1, max_value=40), min_size=n, max_size=n, unique=True)
    )
    jobs = []
    for jid, w_den in zip(ids, weight_dens):
        r = Fraction(draw(st.integers(min_value=0, max_value=12)), draw(st.sampled_from((3, 5, 7))))
        p = Fraction(draw(st.integers(min_value=1, max_value=12)), draw(st.sampled_from((3, 5, 7))))
        w = Fraction(draw(st.integers(min_value=1, max_value=40)), w_den)
        jobs.append(Job(jid, r, p, w))
    return Instance(tuple(jobs))


def _ids_reversed(instance):
    """The same jobs with ids descending in listing order, 3 apart."""
    n = len(instance.jobs)
    return Instance(
        tuple(Job(3 * (n - i), j.release, j.processing, j.weight) for i, j in enumerate(instance.jobs))
    )


#: Both kinds of instance with ids out of listing order: mixed denominators
#: scale times and compare unlike ratios, half-integers tie often.
SCRAMBLED = st.one_of(mixed_instances(), small_instances().map(_ids_reversed))


def reference_slices(instance, key, tie=TieRule.PREFER_RUNNING, script=(), pick=None):
    """The event loop on Fractions: the reference the engine must match.

    ``key(job, remaining)`` is a priority (larger runs first).  At each
    release or completion the released jobs of maximal key are popped off
    a heap in id order, and the tie rule picks one to run until its
    completion or the next release.  ``pick(now, leaders)``, if given,
    picks instead at each instant with two or more leaders and no script
    entry.
    """
    jobs = {j.id: j for j in instance.jobs}
    rem = {jid: j.processing for jid, j in jobs.items()}
    released: dict[Fraction, list[int]] = {}
    for jid in sorted(jobs):
        released.setdefault(jobs[jid].release, []).append(jid)
    times = sorted(released)
    choices = dict(script)
    heap, slices, running, i = [], [], None, 0
    now = times[0]
    while heap or i < len(times):
        new = released[now] if i < len(times) and times[i] == now else []
        i += bool(new)
        for jid in new:
            heapq.heappush(heap, (-key(jobs[jid], rem[jid]), jid))
        if not heap:
            now, running = times[i], None
            continue
        top_key, leaders = heap[0][0], []
        while heap and heap[0][0] == top_key:
            leaders.append(heapq.heappop(heap)[1])
        tied_new = [jid for jid in leaders if jid in new]
        if now in choices:
            chosen = choices[now]
            assert chosen in leaders
        elif pick is not None and len(leaders) > 1:
            chosen = pick(now, leaders)
        elif tie in (TieRule.PREFER_NEW_LONGEST, TieRule.PREFER_NEW_SHORTEST) and tied_new:
            sign = -1 if tie is TieRule.PREFER_NEW_LONGEST else 1
            chosen = min(tied_new, key=lambda jid: (sign * rem[jid], jid))
        elif running in leaders:
            chosen = running
        else:
            chosen = leaders[0]
        for jid in leaders:
            if jid != chosen:
                heapq.heappush(heap, (top_key, jid))
        end = now + rem[chosen]
        if i < len(times) and times[i] < end:
            end = times[i]
        if slices and slices[-1].job == chosen and slices[-1].end == now:
            slices[-1] = Slice(chosen, slices[-1].start, end)  # fuse, as the engine does
        else:
            slices.append(Slice(chosen, now, end))
        rem[chosen] -= end - now
        now, running = end, (chosen if rem[chosen] else None)
        if running is not None:
            heapq.heappush(heap, (-key(jobs[chosen], rem[chosen]), chosen))
    return tuple(slices)


def _shuffled_ids(instance):
    """The same jobs under distinct ids drawn from 0..3n-1 in shuffled order."""
    n = len(instance.jobs)
    return st.permutations(range(3 * n)).map(
        lambda ids: Instance(tuple(replace(j, id=i) for j, i in zip(instance.jobs, ids)))
    )


@st.composite
def _perturbed_families(draw):
    """A coarse basic-family instance with its tie script, and one job's
    weight scaled by 101/100 or 99/100 unless the draw leaves it exact."""
    y, v, z = draw(st.sampled_from(
        [(Fraction(1, 2), Fraction(3, 10), 0), (Fraction(4, 5), Fraction(7, 10), 0),
         (Fraction(3, 5), Fraction(3, 5), Fraction(1, 2))]
    ))
    delta = draw(st.sampled_from([Fraction(1, 5), Fraction(1, 10), Fraction(1, 20)]))
    instance = gen_basic(ScenarioParams(y=y, v=v, z=z, delta=delta))
    jobs = list(instance.jobs)
    k = draw(st.integers(min_value=0, max_value=len(jobs)))
    if k < len(jobs):
        factor = draw(st.sampled_from([Fraction(101, 100), Fraction(99, 100)]))
        jobs[k] = replace(jobs[k], weight=jobs[k].weight * factor)
    return Instance(tuple(jobs), tie_script=instance.tie_script)


def _policy_key(policy):
    return lambda job, remaining: policy_key(policy, job, remaining)


@st.composite
def tie_heavy_instances(draw, max_jobs: int = 6):
    """p, w in {1, 2} and releases in halves: most decisions tie."""
    n = draw(st.integers(min_value=2, max_value=max_jobs))
    return Instance(tuple(
        Job(i, Fraction(draw(st.integers(min_value=0, max_value=6)), 2),
            draw(st.sampled_from((1, 2))), draw(st.sampled_from((1, 2))))
        for i in range(n)
    ))


def drawn_script(instance, policy, rnd):
    """``(slices, script)``: the reference run under a script drawn as it
    runs, which at each instant with tied leaders names one of them other
    than the smallest id."""
    script = {}

    def pick(now, leaders):
        script[now] = rnd.choice(leaders[1:])
        return script[now]

    slices = reference_slices(instance, _policy_key(policy), pick=pick)
    return slices, tuple(script.items())


class TestSimulate:
    def test_single_job(self):
        inst = Instance((Job(0, 0, 1, 1),))
        sched = simulate(inst)
        assert objective(sched, inst) == 1
        assert sched.makespan == 1

    def test_completion_processed_before_release(self):
        # J0 completes exactly when J1 arrives; no artificial tie.
        inst = Instance((Job(0, 0, 1, 1), Job(1, 1, 1, 1)))
        sched = simulate(inst)
        assert sched.completion(0) == 1
        assert sched.completion(1) == 2

    def test_preemption_on_higher_ratio_release(self):
        inst = Instance((Job(0, 0, 2, 1), Job(1, 1, 1, 9)))
        sched = simulate(inst)
        assert sched.completion(1) == 2
        assert sched.completion(0) == 3

    def test_wsrpt_key_uses_remaining(self):
        # After J0 runs [0, 3/2) its Smith ratio is 1/(1/2) = 2, so the
        # static-ratio-3/2 arrival does not preempt under WSRPT but does
        # win under static WSPT.
        inst = Instance((Job(0, 0, 2, 1), Job(1, Fraction(3, 2), 1, Fraction(3, 2))))
        wsrpt = simulate(inst, policy=Policy.WSRPT)
        wspt = simulate(inst, policy=Policy.WSPT_PREEMPTIVE)
        assert wsrpt.completion(0) == 2
        assert wspt.completion(0) == 3

    def test_deterministic(self):
        inst = _two_long_jobs()
        assert simulate(inst).slices == simulate(inst).slices

    def test_no_idle_while_work_pending(self):
        inst = Instance((Job(0, 0, 1, 1), Job(1, 5, 1, 1)))
        sched = simulate(inst)
        assert sched.slices[0].end == 1
        assert sched.slices[1].start == 5  # idle gap only while nothing released

    @given(small_instances())
    @settings(max_examples=60)
    def test_schedules_validate(self, instance):
        for policy in Policy:
            simulate(instance, policy=policy).validate(instance)

    @given(small_instances(), st.sampled_from(list(Policy)), st.sampled_from(FIXED_TIES))
    @settings(max_examples=80)
    def test_runs_a_maximal_key_job(self, instance, policy, tie):
        sched = simulate(instance, policy=policy, tie=tie)
        for s in sched.slices:
            for t in decision_instants(instance, s):
                rem = remaining_at(instance, sched, t)
                keys = {
                    j.id: policy_key(policy, j, rem[j.id])
                    for j in instance.jobs
                    if j.release <= t and rem[j.id] > 0
                }
                assert keys[s.job] == max(keys.values())

    @given(small_instances())
    @settings(max_examples=60)
    def test_unit_weight_wsrpt_matches_srpt(self, instance):
        unit = Instance(
            tuple(Job(j.id, j.release, j.processing, 1) for j in instance.jobs)
        )
        a = objective(simulate(unit, policy=Policy.WSRPT), unit)
        b = objective(simulate(unit, policy=Policy.SRPT), unit)
        assert a == b

    @given(small_instances())
    @settings(max_examples=60)
    def test_zero_release_is_wspt_order_no_preemption(self, instance):
        flat = Instance(
            tuple(Job(j.id, 0, j.processing, j.weight) for j in instance.jobs)
        )
        sched = simulate(flat, policy=Policy.WSRPT)
        # nonpreemptive: one slice per job, in nonincreasing static ratio
        assert len(sched.slices) == len(flat.jobs)
        ratios = [flat.job(s.job).ratio for s in sched.slices]
        assert all(a >= b for a, b in zip(ratios, ratios[1:]))
        assert objective(sched, flat) == optimal_objective(flat)


#: Ratios at the edges of the engine's float prefix, each with the larger
#: ratio at the larger id, so a rank that stopped at the float would pick
#: the wrong job: ratios past the float range, ratios that underflow to 0.0
#: beside a zero weight, and ratios 2^-60 apart that round to one float.
FLOAT_EDGES = {
    "overflow": Instance(
        (
            Job(0, 0, 2, 10**400),
            Job(1, 0, 1, 10**400),
            Job(2, 0, 1, 10**400 + 1),
            Job(3, Fraction(1, 2), 1, 10**300),
            Job(4, Fraction(1, 2), 3, 3 * 10**400 + 1),
        )
    ),
    "underflow": Instance(
        (
            Job(0, 0, 1, 0),
            Job(1, 0, 1, Fraction(1, 10**400)),
            Job(2, 0, 1, Fraction(2, 10**400)),
            Job(3, Fraction(1, 2), 2, Fraction(3, 10**400)),
            Job(4, Fraction(1, 2), 1, 0),
        )
    ),
    "equal-floats": Instance(
        (
            Job(0, 0, 1, 1),
            Job(1, 0, 1, 1 + Fraction(1, 2**60)),
            Job(2, Fraction(1, 2), 2, 2 + Fraction(1, 2**59)),
            Job(3, 0, 2, 2),
            Job(4, Fraction(1, 2), 1, 2 - Fraction(1, 2**60)),
        )
    ),
}


def _weights_near(base: Fraction):
    """Weights 2^-60 (relative) around ``base``: distinct, one float apart at most."""
    return st.integers(min_value=-3, max_value=3).map(lambda d: base * (1 + Fraction(d, 2**60)))


#: Weights across the whole float range and past both of its ends.
WIDE_WEIGHTS = st.one_of(
    st.just(Fraction(0)),
    st.builds(Fraction, st.integers(0, 2**70), st.integers(1, 2**70)),
    st.builds(
        lambda num, exp: Fraction(num) * Fraction(10) ** exp,
        st.integers(1, 10**6),
        st.integers(-420, 420),
    ),
)


class TestRatioKey:
    """The float prefix never decides an order against the exact one."""

    @given(
        WIDE_WEIGHTS.flatmap(lambda w: st.tuples(st.just(w), _weights_near(w))),
        st.integers(1, 10**6),
        st.integers(1, 10**6),
        st.booleans(),
    )
    @settings(max_examples=300, deadline=None)
    def test_orders_as_the_exact_ratio(self, weights, p, q, same_work):
        w, v = weights
        q = p if same_work else q
        a = _ratio_key(w.numerator, w.denominator, p)
        b = _ratio_key(v.numerator, v.denominator, q)
        assert (a < b) == (w / p > v / q)
        assert (a == b) == (w / p == v / q)

    @pytest.mark.parametrize(
        "weight, prefix",
        [
            (Fraction(10**400), -math.inf),
            (Fraction(1, 10**400), -0.0),
            (Fraction(0), -0.0),
            (1 + Fraction(1, 2**60), -1.0),
        ],
    )
    def test_prefix_is_the_rounded_float(self, weight, prefix):
        key = _ratio_key(weight.numerator, weight.denominator, 1)
        assert key[0] == prefix
        assert Fraction(*key[1]) == weight


class TestAgainstReference:
    """The integer engine gives the Fraction-level reference's slices."""

    @pytest.mark.parametrize("name", FLOAT_EDGES)
    @pytest.mark.parametrize("policy", list(Policy))
    @pytest.mark.parametrize("tie", FIXED_TIES)
    def test_float_prefix_edges(self, name, policy, tie):
        instance = FLOAT_EDGES[name]
        expected = reference_slices(instance, _policy_key(policy), tie)
        assert simulate(instance, policy=policy, tie=tie).slices == expected

    @given(SCRAMBLED, st.sampled_from(list(Policy)), st.sampled_from(FIXED_TIES))
    @settings(max_examples=150, deadline=None)
    def test_fixed_tie_rules(self, instance, policy, tie):
        expected = reference_slices(instance, _policy_key(policy), tie)
        assert simulate(instance, policy=policy, tie=tie).slices == expected

    @given(SCRAMBLED, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_priority_schedule(self, instance, rnd):
        order = [j.id for j in instance.jobs]
        rnd.shuffle(order)
        pos = {jid: k for k, jid in enumerate(order)}
        expected = reference_slices(instance, lambda job, _: -pos[job.id])
        assert priority_schedule(instance, order).slices == expected

    @given(tie_heavy_instances(), st.sampled_from(list(Policy)), st.randoms(use_true_random=False))
    @settings(max_examples=150, deadline=None)
    def test_scripted_ties_past_the_smallest_id(self, instance, policy, rnd):
        expected, script = drawn_script(instance, policy, rnd)
        assert simulate(instance, policy=policy, tie=TieRule.SCRIPTED, script=script).slices == expected

    def test_scripted_generated_family(self):
        inst = gen_basic(
            ScenarioParams(y=Fraction(8157, 10000), v=Fraction(7066, 10000), delta=Fraction(1, 1000))
        )
        expected = reference_slices(
            inst, _policy_key(Policy.WSRPT), TieRule.SCRIPTED, inst.tie_script
        )
        assert simulate(inst, tie=TieRule.SCRIPTED).slices == expected


def burst_instance(k: int, at: Fraction, ratio: Fraction) -> Instance:
    """The adversary's game in small: two long jobs of ratio 1 (p = w = 1
    and 2) and, released at ``at``, k identical pieces of length 1/4 and
    the given ratio, then two jobs of that length whose ratios lie 2^-60
    (relative) below and above it.  Those three ratios round to one float,
    and the higher ratio sits at the higher id, so a rank that stopped at
    the float would tie them and run the lower one first."""
    piece = Fraction(1, 4)
    near = (ratio * (1 - Fraction(1, 2**60)), ratio * (1 + Fraction(1, 2**60)))
    return Instance(
        (Job(0, 0, 1, 1), Job(1, 0, 2, 2))
        + tuple(Job(2 + i, at, piece, ratio * piece) for i in range(k))
        + tuple(Job(2 + k + i, at, piece, r * piece) for i, r in enumerate(near))
    )


#: Bursts of 1, 2 and 37 pieces at the first long job's end (p1 = 1) or
#: the second's (p2 = 2), of ratio 1 (the long jobs' own, so WSPT ties them
#: all) or 2 (the second long job's WSRPT ratio once half of it ran).
BURSTS = [
    pytest.param(k, at, ratio, id=f"k{k}-at{at}-ratio{ratio}")
    for k in (1, 2, 37)
    for at in (Fraction(1), Fraction(2))
    for ratio in (Fraction(1), Fraction(2))
]


class TestBursts:
    """Bursts of identical pieces: the ties the adversary game is made of."""

    def test_near_ratios_share_one_float(self):
        keys = [_ratio_key(*pair, 1) for pair in burst_instance(1, 1, 2)._by_id.weights[2:]]
        assert len({f for f, _ in keys}) == 1
        assert keys[2] < keys[0] < keys[1]

    @pytest.mark.parametrize("k, at, ratio", BURSTS)
    @pytest.mark.parametrize("policy", list(Policy))
    def test_fixed_tie_rules(self, k, at, ratio, policy):
        instance = burst_instance(k, at, ratio)
        for tie in FIXED_TIES:
            expected = reference_slices(instance, _policy_key(policy), tie)
            assert simulate(instance, policy=policy, tie=tie).slices == expected

    @pytest.mark.parametrize("k, at, ratio", BURSTS)
    @pytest.mark.parametrize("policy", list(Policy))
    def test_scripted_piece_past_the_smallest_id(self, k, at, ratio, policy):
        instance = burst_instance(k, at, ratio)
        expected, script = drawn_script(instance, policy, Random(k))
        if k > 1:  # the pieces tie, so the draw names one past the smallest
            assert any(2 < choice < 2 + k for _, choice in script)
        assert simulate(instance, policy=policy, tie=TieRule.SCRIPTED, script=script).slices == expected


class TestRankCache:
    """``_run`` hands ``choose`` each released job's rank at its current work."""

    @given(
        st.one_of(tie_heavy_instances(), SCRAMBLED),
        st.sampled_from(list(Policy)),
        st.sampled_from(FIXED_TIES + (TieRule.SCRIPTED,)),
        st.randoms(use_true_random=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_cached_ranks_are_current(self, instance, policy, tie, rnd):
        # Scripted draws pick tied jobs off the heap's top, so both the
        # in-place heap update and the versioned lazy one run.
        script = drawn_script(instance, policy, rnd)[1] if tie is TieRule.SCRIPTED else ()
        timeline = instance._by_id
        key, choose = _policy(timeline, policy, tie, script)

        def checked(now, new, running, rem, ranks, top_key, top):
            live = [k for k, r in enumerate(timeline.releases) if r <= now and rem[k]]
            for k in live:
                assert ranks[k] == key(k, rem[k])
            assert top_key == min(ranks[k] for k in live)
            assert top == min(k for k in live if ranks[k] == top_key)
            return choose(now, new, running, rem, ranks, top_key, top)

        _run(timeline, key, checked)


#: Work left on the integer grid, past the float range too.
WORK = st.integers(min_value=2, max_value=10**400).flatmap(
    lambda r1: st.tuples(st.just(r1), st.integers(min_value=1, max_value=r1 - 1))
)


def _assert_rank_never_grows(key, n: int, data) -> None:
    """``key(k, r2) <= key(k, r1)`` whenever 0 < r2 < r1, in the one order
    the heap uses (``<``; a ``_Ratio`` defines no other)."""
    k = data.draw(st.integers(min_value=0, max_value=n - 1))
    r1, r2 = data.draw(WORK)
    assert not key(k, r1) < key(k, r2)


class TestKeyContract:
    """No rank grows as work shrinks, so ``_run`` may write a chosen top's
    new rank straight into the heap's top."""

    @given(
        st.one_of(SCRAMBLED, st.sampled_from(list(FLOAT_EDGES.values()))),
        st.sampled_from(list(Policy)),
        st.data(),
    )
    @settings(max_examples=200, deadline=None)
    def test_policy_keys(self, instance, policy, data):
        key, _ = _policy(instance._by_id, policy, TieRule.PREFER_RUNNING, None)
        _assert_rank_never_grows(key, len(instance.jobs), data)

    @given(SCRAMBLED, st.randoms(use_true_random=False), st.data())
    @settings(max_examples=100, deadline=None)
    def test_priority_list_keys(self, instance, rnd, data):
        keys = []

        def captured(timeline, key, choose):
            keys.append(key)
            return _run(timeline, key, choose)

        order = [j.id for j in instance.jobs]
        rnd.shuffle(order)
        with mock.patch.object(wsrpt.oracle, "_run", captured):
            priority_schedule(instance, order)
            try:
                structured_optimal(instance)
            except ValueError:
                pass  # refused after its run: the key was still captured
        assert len(keys) == 2
        for key in keys:
            _assert_rank_never_grows(key, len(instance.jobs), data)


class TestEngineParts:
    @given(st.lists(st.integers(min_value=0, max_value=6), min_size=1, max_size=40))
    def test_release_groups_match_a_dict_grouping(self, releases):
        groups: dict[int, list[int]] = {}
        for k, r in enumerate(releases):
            groups.setdefault(r, []).append(k)
        assert [(t, list(g)) for t, g in _release_groups(releases)] == sorted(groups.items())

    @pytest.mark.parametrize("ids", [[0, 2], [1, 2], [0, 1]])
    def test_schedule_names_the_real_ids(self, ids):
        # Ratios 1 and 1/2: the jobs run in id order.
        instance = Instance(tuple(Job(i, 0, n + 1, 1) for n, i in enumerate(ids)))
        for policy in Policy:
            schedule = simulate(instance, policy=policy)
            assert [job for job, _, _ in schedule._runs] == ids
            assert [s.job for s in schedule.slices] == ids

    def test_every_producer_hands_over_tuples(self):
        instance = Instance((Job(0, 0, 1, 1), Job(3, 1, 1, 1), Job(5, 1, 2, 2)))
        schedules = [
            simulate(instance, tie=tie) for tie in FIXED_TIES + (TieRule.EXHAUSTIVE_WORST,)
        ] + [
            priority_schedule(instance, [5, 0, 3]),
            structured_optimal(instance).schedule,
            optimal_dp_timeindexed(instance).schedule,
            play("equalizer", delta=Fraction(1, 10)).schedule,
            play("j2-first", delta=Fraction(1, 10)).schedule,
        ]
        for schedule in schedules:
            assert schedule._runs and all(type(run) is tuple for run in schedule._runs)

    @pytest.mark.parametrize("policy", list(Policy))
    def test_a_lost_heap_entry_fails_at_once(self, policy):
        # Job 1's only entry never reaches the heap: once job 0 is done, no
        # release is left to wake the loop, so it must fail, not idle forever.
        def dropping(heap, item):
            if item[1] != 1:
                heapq.heappush(heap, item)

        seen_from_simulator = SimpleNamespace(heappush=dropping, heappop=heapq.heappop)
        instance = Instance((Job(0, 0, 1, 1), Job(1, 0, 1, 1), Job(2, 0, 1, 1)))
        with mock.patch.object(wsrpt.simulator, "heapq", seen_from_simulator):
            with pytest.raises(RuntimeError, match=r"^event loop lost 1 unfinished job\(s\)"):
                simulate(instance, policy=policy)


class TestTieRules:
    def test_scripted_requires_script(self):
        inst = _two_long_jobs()
        with pytest.raises(ValueError):
            simulate(inst, tie=TieRule.SCRIPTED)

    def test_scripted_choice_honored(self):
        inst = _two_long_jobs()  # equal ratios at t=0
        first = simulate(inst, tie=TieRule.SCRIPTED, script=((Fraction(0), 0),))
        second = simulate(inst, tie=TieRule.SCRIPTED, script=((Fraction(0), 1),))
        assert first.slices[0].job == 0
        assert second.slices[0].job == 1

    @pytest.mark.parametrize(
        "choice", [1, 5], ids=["not-yet-released", "unknown-id"]
    )
    def test_scripted_choice_must_be_available(self, choice):
        inst = Instance((Job(0, 0, 1, 1), Job(1, 1, 1, 1)))
        with pytest.raises(ValueError, match=f"choice {choice} at t=0 is not available"):
            simulate(inst, tie=TieRule.SCRIPTED, script=((Fraction(0), choice),))

    @pytest.mark.parametrize("choice", [True, False, "1"], ids=["true", "false", "numeral"])
    def test_a_passed_script_refuses_a_choice_that_is_not_an_int(self, choice):
        # The constructor refuses the same script; True would otherwise pick
        # job 1 at the tie at t = 1, since it hashes as 1.
        inst = Instance((Job(0, 0, 2, 2), Job(1, 1, 1, 2)))
        message = f"tie-script choice must be an int, not {choice!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Instance(inst.jobs, tie_script=[(1, choice)])
        with pytest.raises(ValueError, match=re.escape(message)):
            simulate(inst, tie=TieRule.SCRIPTED, script=[(1, choice)])

    def test_script_entries_off_events_are_ignored(self):
        # Times are in thirds (events at 0, 1/3, 1 and 4/3): an entry off
        # that grid, or on it but at no event, never applies, whatever it
        # names.
        inst = Instance((Job(0, 0, 1, 1), Job(1, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3))))
        script = ((Fraction(1, 2), 5), (Fraction(1, 6), 1), (Fraction(5, 3), 0), (Fraction(-1, 3), 1))
        scripted = simulate(inst, tie=TieRule.SCRIPTED, script=script)
        assert scripted == simulate(inst)

    def test_scripted_choice_error_names_the_unscaled_time(self):
        # den_t = 21; the bad choice falls at t = 1/3, scaled 7.
        inst = Instance((Job(0, 0, 1, 1), Job(1, Fraction(1, 3), Fraction(1, 7), 1)))
        with pytest.raises(ValueError, match=r"choice 0 at t=1/3 is not among the tied leaders"):
            simulate(inst, tie=TieRule.SCRIPTED, script=((Fraction(1, 3), 0),))
        with pytest.raises(ValueError, match=r"choice 4 at t=1/3 is not available"):
            simulate(inst, tie=TieRule.SCRIPTED, script=((Fraction(1, 3), 4),))

    def test_scripted_choice_must_be_a_tied_leader(self):
        inst = Instance((Job(0, 0, 1, 2), Job(1, 0, 1, 1)))  # job 0 leads
        with pytest.raises(ValueError, match="choice 1 at t=0 is not among the tied leaders"):
            simulate(inst, tie=TieRule.SCRIPTED, script=((Fraction(0), 1),))

    def test_prefer_new_longest_vs_shortest(self):
        inst = _two_long_jobs()
        longest = simulate(inst, tie=TieRule.PREFER_NEW_LONGEST)
        shortest = simulate(inst, tie=TieRule.PREFER_NEW_SHORTEST)
        assert longest.slices[0].job == 1
        assert shortest.slices[0].job == 0

    @given(small_instances(max_jobs=4))
    @settings(max_examples=40, deadline=None)
    def test_exhaustive_worst_dominates_fixed_rules(self, instance):
        worst = objective(
            simulate(instance, tie=TieRule.EXHAUSTIVE_WORST), instance
        )
        for tie in FIXED_TIES:
            assert worst >= objective(simulate(instance, tie=tie), instance)

    def test_exhaustive_worst_ties_go_to_smallest_id(self):
        inst = Instance((Job(0, 0, 1, 1), Job(1, 0, 1, 1)))
        sched = simulate(inst, tie=TieRule.EXHAUSTIVE_WORST)
        assert [s.job for s in sched.slices] == [0, 1]

    def test_exhaustive_worst_refuses_deep_search(self):
        # Fewer jobs than the limit, but about twice as many slices.
        inst = interrupts(MAX_SEARCH_DEPTH // 2 + 10)
        with pytest.raises(BudgetExceeded, match=f"search depth {MAX_SEARCH_DEPTH}"):
            simulate(inst, tie=TieRule.EXHAUSTIVE_WORST)

    def test_exhaustive_worst_reaches_depth_limit(self):
        # One slice per job and no ties: exactly MAX_SEARCH_DEPTH moves.
        inst = Instance(tuple(Job(i, i, 1, 1) for i in range(MAX_SEARCH_DEPTH)))
        sched = simulate(inst, tie=TieRule.EXHAUSTIVE_WORST)
        assert len(sched.slices) == MAX_SEARCH_DEPTH

    @pytest.mark.parametrize("n", [MAX_SEARCH_DEPTH // 2, MAX_SEARCH_DEPTH // 2 + 1])
    def test_exhaustive_worst_idle_jumps_count_toward_depth(self, n):
        # Each job runs alone and time idles to the next release: n slices
        # but 2n - 1 moves, which fit the limit at n = 400 and not at 401.
        inst = Instance(tuple(Job(i, 2 * i, 1, 1) for i in range(n)))
        if 2 * n - 1 > MAX_SEARCH_DEPTH:
            with pytest.raises(BudgetExceeded, match=f"exceeded search depth {MAX_SEARCH_DEPTH}"):
                simulate(inst, tie=TieRule.EXHAUSTIVE_WORST)
        else:
            assert len(simulate(inst, tie=TieRule.EXHAUSTIVE_WORST).slices) == n

    def test_exhaustive_worst_refuses_more_jobs_than_depth(self):
        inst = Instance(tuple(Job(i, 0, 1, 1) for i in range(MAX_SEARCH_DEPTH + 1)))
        with pytest.raises(BudgetExceeded, match="search depth of at least"):
            simulate(inst, tie=TieRule.EXHAUSTIVE_WORST)

    def test_exhaustive_worst_refuses_past_state_budget(self, monkeypatch):
        # Four tied unit jobs branch into more than CELLS // 4 = 5 states.
        monkeypatch.setattr(wsrpt.simulator, "CELLS", 20)
        inst = Instance(tuple(Job(i, 0, 1, 1) for i in range(4)))
        with pytest.raises(BudgetExceeded, match="exhaustive tie search exceeded 5 states"):
            simulate(inst, tie=TieRule.EXHAUSTIVE_WORST)

    @pytest.mark.parametrize("cells, refused", [(59, True), (60, False)])
    def test_cells_cap_the_exhaustive_search(self, monkeypatch, cells, refused):
        # Each state holds one remainder per job, so 4 jobs get CELLS // 4
        # states; four tied unit jobs need 15 of them.
        monkeypatch.setattr(wsrpt.simulator, "CELLS", cells)
        inst = Instance(tuple(Job(i, 0, 1, 1) for i in range(4)))
        if refused:
            with pytest.raises(BudgetExceeded, match="exhaustive tie search exceeded 14 states"):
                _exhaustive_worst(inst, Policy.WSRPT)
        else:
            value, _ = _exhaustive_worst(inst, Policy.WSRPT)
            assert value == 1 + 2 + 3 + 4


class TestSearchPaths:
    """Both memoized searches rebuild their path from the memo links."""

    @given(small_instances(max_jobs=4), st.sampled_from(list(Policy)))
    @settings(max_examples=60, deadline=None)
    def test_rebuilt_paths_are_valid_and_score_their_value(self, instance, policy):
        value, slices = _exhaustive_worst(instance, policy)
        worst = Schedule(slices)
        worst.validate(instance)
        assert objective(worst, instance) == value

        optimum = optimal_dp_timeindexed(instance)
        optimum.schedule.validate(instance)
        assert objective(optimum.schedule, instance) == optimum.objective


class TestEqualityInstance:
    def test_single_job_passes(self):
        report = is_equality_instance(Instance((Job(0, 0, 1, 1),)))
        assert report.passed

    def test_hand_violation(self):
        # at t=1/2 the running job's Smith ratio is 1/(1/2) = 2, arrival's is 1
        inst = Instance(
            (Job(0, 0, 1, 1), Job(1, Fraction(1, 2), Fraction(1, 10), Fraction(1, 10)))
        )
        report = is_equality_instance(inst)
        assert not report.passed
        assert report.violations[0][0] == Fraction(1, 2)

    def test_violation_reports_fractions_and_job_ids(self):
        # den_t = 21.  At t = 1/3 job 9 has 2/3 left (ratio 3/2) and job 4
        # arrives with ratio (2/7)/(1/7) = 2.
        inst = Instance(
            (Job(9, 0, 1, 1), Job(4, Fraction(1, 3), Fraction(1, 7), Fraction(2, 7)))
        )
        ((t, message),) = is_equality_instance(inst).violations
        assert type(t) is Fraction and t == Fraction(1, 3)
        assert message == "jobs [4] (ratio 2) vs running job 9 (ratio 3/2)"

    def test_co_released_distinct_ratios(self):
        inst = Instance((Job(0, 0, 1, 1), Job(1, 0, 1, 2)))
        assert is_equality_instance(inst).violations == [
            (0, "co-released jobs [0, 1] have distinct ratios")
        ]

    def test_release_at_completion_interrupts_nothing(self):
        inst = Instance((Job(0, 0, 1, 1), Job(1, 1, 1, 2)))
        assert is_equality_instance(inst).violations == []

    @pytest.mark.parametrize(
        "weights, distinct",
        [
            ((1, 1 + Fraction(1, 2**60)), True),
            ((10**400, 10**400 + 1), True),
            ((Fraction(1, 10**400), 0), True),
            ((10**400, 10**400), False),
            ((Fraction(1, 10**400), Fraction(1, 10**400)), False),
            ((0, 0), False),
        ],
    )
    def test_co_released_ratios_at_the_float_edges(self, weights, distinct):
        inst = Instance(tuple(Job(k, 0, 1, w) for k, w in enumerate(weights)))
        expected = [(0, "co-released jobs [0, 1] have distinct ratios")] if distinct else []
        assert is_equality_instance(inst).violations == expected

    @pytest.mark.parametrize(
        "scale, arrival, tied",
        [
            (1, 2, True),
            (1, 2 + Fraction(1, 2**59), False),
            (10**400, 2 * 10**400, True),
            (10**400, 2 * 10**400 + 1, False),
            (Fraction(1, 10**400), Fraction(2, 10**400), True),
            (Fraction(1, 10**400), 0, False),
        ],
    )
    def test_running_job_at_the_float_edges(self, scale, arrival, tied):
        # Job 0 has 1 of 2 left at t = 1, so its ratio is 2 * scale.
        inst = Instance((Job(0, 0, 2, 2 * scale), Job(1, 1, 1, arrival)))
        expected = [] if tied else [
            (1, f"jobs [1] (ratio {Fraction(arrival)}) vs running job 0 (ratio {2 * scale})")
        ]
        assert is_equality_instance(inst).violations == expected

    def test_release_onto_idle_machine(self):
        # t=2 finds the machine idle; only the arrival at 5/2, which meets
        # job 1 at ratio 5/(1/2) = 10, is checked against a running job.
        inst = Instance(
            (Job(0, 0, 1, 1), Job(1, 2, 1, 5), Job(2, Fraction(5, 2), 1, 1))
        )
        assert is_equality_instance(inst).violations == [
            (Fraction(5, 2), "jobs [2] (ratio 1) vs running job 1 (ratio 10)")
        ]

    @given(st.one_of(
        small_instances(), small_instances().flatmap(_shuffled_ids), _perturbed_families()
    ))
    @settings(max_examples=120, deadline=None)
    def test_flags_exactly_the_definition(self, instance):
        # The audit runs WSRPT as simulate does: under the tie script when
        # there is one, else PREFER_RUNNING.  A scripted choice the
        # perturbation took out of the lead fails both the same way.
        tie = TieRule.PREFER_RUNNING if instance.tie_script is None else TieRule.SCRIPTED
        try:
            sched = simulate(instance, tie=tie)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                is_equality_instance(instance)
            return
        expected = []
        for t in sorted({j.release for j in instance.jobs}):
            new = sorted(j.id for j in instance.jobs if j.release == t)
            ratios = {instance.job(i).ratio for i in new}
            before = [s for s in sched.slices if s.start < t <= s.end]
            rem = remaining_at(instance, sched, t)
            if len(ratios) > 1:
                expected.append((t, f"co-released jobs {new} have distinct ratios"))
            elif before and rem[before[0].job] > 0:
                run = instance.job(before[0].job)
                (ratio,) = ratios
                current = run.weight / rem[run.id]
                if current != ratio:
                    expected.append(
                        (t, f"jobs {new} (ratio {ratio}) vs running job {run.id} (ratio {current})")
                    )
        report = is_equality_instance(instance)
        assert report.violations == expected
        assert report.passed == bool(report) == (not report.violations)

    def test_generated_family_passes(self):
        params = ScenarioParams(
            y=Fraction(1, 2), v=Fraction(3, 10), delta=Fraction(1, 20)
        )
        assert is_equality_instance(gen_basic(params)).passed


class TestSplitJob:
    def test_identity_at_q_one(self):
        inst = _two_long_jobs()
        again = split_job(inst, 0, 1)
        assert [(j.release, j.processing, j.weight) for j in again.jobs] == [
            (j.release, j.processing, j.weight) for j in inst.jobs
        ]

    def test_fragments_exact(self):
        inst = Instance((Job(0, 0, 1, 1),))
        halves = split_job(inst, 0, 2)
        assert len(halves.jobs) == 2
        for j in halves.jobs:
            assert (j.processing, j.weight) == (Fraction(1, 2), Fraction(1, 2))

    def test_isolated_job_objective_drop(self):
        # splitting an isolated job into q pieces saves w*p*(q-1)/(2q), exactly
        inst = Instance((Job(0, 0, Fraction(3, 2), Fraction(5, 4)),))
        base = objective(simulate(inst), inst)
        for q in (1, 2, 3, 8):
            split = split_job(inst, 0, q)
            value = objective(simulate(split), split)
            drop = Fraction(5, 4) * Fraction(3, 2) * (q - 1) / (2 * q)
            assert base - value == drop

    def test_ratio_monotone_on_two_long_jobs(self):
        inst = _two_long_jobs()
        prev = None
        for q in (1, 2, 4, 8):
            split = split_job(inst, 1, q)
            worst = objective(
                simulate(split, tie=TieRule.EXHAUSTIVE_WORST), split
            )
            ratio = Fraction(worst, optimal_objective(split))
            if prev is not None:
                assert ratio >= prev
            prev = ratio

    def test_unknown_id(self):
        with pytest.raises(KeyError):
            split_job(_two_long_jobs(), 9, 2)


def reference_audit(instance):
    """The equality audit with an engine call of its own, as it ran before
    the instance's run was shared: its ``(time, text)`` violations."""
    timeline = instance._by_id
    ids, procs, den_t = timeline.ids, timeline.procs, timeline.den_t
    tie = TieRule.SCRIPTED if instance.tie_script is not None else TieRule.PREFER_RUNNING
    key, choose = _policy(timeline, Policy.WSRPT, tie, instance.tie_script)
    runs = _run(timeline, key, choose)
    rem = list(procs)
    violations = []
    i = 0
    for t, new in _release_groups(timeline.releases):
        while runs[i][2] < t:
            k, start, end = runs[i]
            rem[k] -= end - start
            i += 1
        k, start, _ = runs[i]
        left = rem[k] - (t - start)
        new_ids = [ids[j] for j in new]
        ratios = {key(j, procs[j]) for j in new}
        if len(ratios) > 1:
            violations.append(
                (Fraction(t, den_t), f"co-released jobs {new_ids} have distinct ratios")
            )
        elif start < t and left and key(k, left) not in ratios:
            violations.append(
                (Fraction(t, den_t),
                 f"jobs {new_ids} (ratio {_grid_ratio(timeline, new[0], procs[new[0]])}) vs "
                 f"running job {ids[k]} (ratio {_grid_ratio(timeline, k, left)})")
            )
    return violations


def _ci_smoke_instances():
    """The instances the CI smoke step generates or writes by hand, the
    sweep's three among them."""
    yield gen_random(Random(3), 6)
    yield gen_random(Random(1), 16)
    yield Instance((Job(0, 0, 10**7, 1),))
    yield gen_basic(ScenarioParams(y=Fraction(3, 5), v=Fraction(3, 10), delta=Fraction(1, 7)))
    yield gen_random(Random(8), 6)
    yield Instance((
        Job(0, 0, 1, to_rational("1e400")), Job(1, 0, 2, to_rational("1e-400")), Job(2, 1, 1, 0)
    ))
    yield gen_random(Random(5), 3)


def _perturbed_variants():
    """Tie-scripted basic families at four deltas, plain and with one
    weight scaled by 101/100 or 99/100 at one of four positions: 108
    instances, some of whose scripted choices no longer lead."""
    shapes = [(Fraction(1, 2), Fraction(3, 10), 0), (Fraction(4, 5), Fraction(7, 10), 0),
              (Fraction(3, 5), Fraction(3, 5), Fraction(1, 2))]
    for y, v, z in shapes:
        for delta in (Fraction(1, 20), Fraction(1, 100), Fraction(1, 1000), Fraction(1, 3000)):
            instance = gen_basic(ScenarioParams(y=y, v=v, z=z, delta=delta))
            yield instance
            grid = instance._grid
            n = len(grid.ids)
            for k in (0, 1, n // 2, n - 1):
                for factor in (Fraction(101, 100), Fraction(99, 100)):
                    weights = list(grid.weights)
                    weight = Fraction(*weights[k]) * factor
                    weights[k] = weight.numerator, weight.denominator
                    yield Instance._on_grid(grid._replace(weights=weights), instance._script)


def _audit_outcome(audit, instance):
    """``(violations, passed)`` of an audit, or the text of its ValueError."""
    try:
        report = audit(instance)
    except ValueError as exc:
        return str(exc)
    if isinstance(report, list):
        return report, not report
    return report.violations, report.passed


class TestOwnRun:
    """WSRPT under an instance's own tie rule runs once; the audit reads that run."""

    @pytest.fixture
    def runs(self, monkeypatch):
        """The number of engine calls made so far, as a one-item list."""
        count = [0]
        run = wsrpt.simulator._run

        def counted(*args):
            count[0] += 1
            return run(*args)

        monkeypatch.setattr(wsrpt.simulator, "_run", counted)
        return count

    @staticmethod
    def _basic():
        params = ScenarioParams(y=Fraction(1, 2), v=Fraction(3, 10), delta=Fraction(1, 20))
        return gen_basic(params)

    def test_audit_reads_the_scripted_run(self, runs):
        inst = self._basic()
        sched = simulate(inst, tie=TieRule.SCRIPTED)
        assert is_equality_instance(inst)
        assert runs == [1]
        assert simulate(inst, tie=TieRule.SCRIPTED, script=inst.tie_script) is sched
        assert is_equality_instance(inst) and runs == [1]
        assert sched.slices == reference_slices(
            inst, _policy_key(Policy.WSRPT), TieRule.SCRIPTED, inst.tie_script
        )

    def test_audit_reads_the_prefer_running_run(self, runs):
        inst = _ids_reversed(interrupts(3))
        sched = simulate(inst)
        assert is_equality_instance(inst).violations and runs == [1]
        assert simulate(inst, policy=Policy.WSRPT, tie=TieRule.PREFER_RUNNING) is sched
        assert runs == [1]

    def test_other_runs_make_their_own_call(self, runs):
        inst = self._basic()
        own = simulate(inst, tie=TieRule.SCRIPTED)
        # Equal to the own script but another object; a script of its own;
        # other tie rules and policies, with and without the own script.
        equal = list(inst.tie_script)
        foreign = ((Fraction(1, 20), 2), (Fraction(1, 7), 0))
        cases = [
            (Policy.WSRPT, TieRule.SCRIPTED, equal, equal),
            (Policy.WSRPT, TieRule.SCRIPTED, foreign, foreign),
            (Policy.WSRPT, TieRule.PREFER_RUNNING, None, ()),
            (Policy.WSRPT, TieRule.PREFER_NEW_LONGEST, inst.tie_script, ()),
            (Policy.WSPT_PREEMPTIVE, TieRule.PREFER_RUNNING, None, ()),
            (Policy.SRPT, TieRule.PREFER_NEW_SHORTEST, inst.tie_script, ()),
        ]
        for k, (policy, tie, script, reference_script) in enumerate(cases, start=2):
            sched = simulate(inst, policy=policy, tie=tie, script=script)
            assert runs == [k] and sched is not own
            assert sched.slices == reference_slices(
                inst, _policy_key(policy), tie, reference_script
            )
        assert simulate(inst, tie=TieRule.SCRIPTED) is own
        assert is_equality_instance(inst) and runs == [len(cases) + 1]

    def test_bad_scripted_choice_raises_on_every_call(self, runs):
        inst = Instance((Job(0, 0, 1, 2), Job(1, 0, 1, 1)), tie_script=((0, 1),))
        message = "^scripted choice 1 at t=0 is not among the tied leaders$"
        for _ in range(2):
            with pytest.raises(ValueError, match=message):
                simulate(inst, tie=TieRule.SCRIPTED)
            with pytest.raises(ValueError, match=message):
                is_equality_instance(inst)
        assert runs == [4] and "_own_run" not in vars(inst)

    def test_own_run_takes_no_part_in_equality(self):
        basic = self._basic()
        inst, twin = (
            Instance(basic.jobs, tie_script=basic.tie_script, tags=dict(basic.tags))
            for _ in range(2)
        )
        simulate(inst, tie=TieRule.SCRIPTED)
        assert "_own_run" in vars(inst) and "_own_run" not in vars(twin)
        assert inst == twin and hash(inst) == hash(twin) and repr(inst) == repr(twin)

    @pytest.mark.parametrize(
        "instances",
        [_ci_smoke_instances, sweep_points, _perturbed_variants],
        ids=["ci-smoke", "sweep-points", "perturbed-families"],
    )
    def test_reports_match_the_uncached_audit(self, instances):
        # Each instance is simulated under its own rule first, so the audit
        # reads that run; a scripted-choice error leaves nothing to read.
        outcomes = set()
        for inst in instances():
            expected = _audit_outcome(reference_audit, inst)
            own_tie = TieRule.PREFER_RUNNING if inst.tie_script is None else TieRule.SCRIPTED
            try:
                simulate(inst, tie=own_tie)
            except ValueError as exc:
                assert str(exc) == expected
            assert _audit_outcome(is_equality_instance, inst) == expected
            outcomes.add(type(expected) if isinstance(expected, str) else expected[1])
        if instances is _perturbed_variants:
            assert outcomes == {str, True, False}

    @pytest.mark.parametrize("kind", RANDOM_KINDS)
    def test_random_reports_match_the_uncached_audit(self, kind):
        rng = Random(RANDOM_KINDS.index(kind))
        for n in range(1, 9):
            for _ in range(25):
                inst = gen_random(rng, n, kind)
                simulate(inst)
                assert _audit_outcome(is_equality_instance, inst) == _audit_outcome(
                    reference_audit, inst
                )
