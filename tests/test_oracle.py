"""Optimality oracles: permutation brute force, time-indexed DP, the
certified ratio-ordered list, and the two-long-job closed form."""

import math
from fractions import Fraction
from functools import cache
from itertools import permutations
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsrpt.simulator
from wsrpt import _backend
from wsrpt.core import Instance, Job, objective
from wsrpt.instances import NestedParams, ScenarioParams, gen_basic, gen_nested, gen_random
from wsrpt.oracle import (
    closed_pair_optimal,
    optimal_bruteforce,
    optimal_dp_timeindexed,
    optimal_objective,
    priority_schedule,
    structured_optimal,
)
from wsrpt.simulator import MAX_SEARCH_DEPTH, BudgetExceeded, Policy, simulate

from conftest import decision_instants, interrupts, remaining_at, small_instances


class TestPrioritySchedule:
    def test_single_job(self):
        inst = Instance((Job(0, 0, 1, 1),))
        sched = priority_schedule(inst, [0])
        assert sched.slices[0].start == 0 and sched.slices[0].end == 1

    def test_hand_trace_with_preemption(self):
        inst = Instance((Job(0, 0, 2, 1), Job(1, 1, 1, 9)))
        sched = priority_schedule(inst, [1, 0])
        assert [(s.job, s.start, s.end) for s in sched.slices] == [
            (0, 0, 1),
            (1, 1, 2),
            (0, 2, 3),
        ]

    def test_identity_order_zero_release(self):
        inst = Instance((Job(0, 0, 2, 1), Job(1, 0, 1, 1), Job(2, 0, 3, 1)))
        sched = priority_schedule(inst, [0, 1, 2])
        assert [s.job for s in sched.slices] == [0, 1, 2]

    @given(small_instances())
    @settings(max_examples=40)
    def test_wspt_order_matches_wspt_policy_at_zero_release(self, instance):
        flat = Instance(
            tuple(Job(j.id, 0, j.processing, j.weight) for j in instance.jobs)
        )
        order = sorted(flat.jobs, key=lambda j: (-j.ratio, j.id))
        by_order = priority_schedule(flat, [j.id for j in order])
        policy = simulate(flat, policy=Policy.WSPT_PREEMPTIVE)
        assert objective(by_order, flat) == objective(policy, flat)

    @given(st.data())
    @settings(max_examples=60)
    def test_runs_earliest_listed_available_job(self, data):
        instance = data.draw(small_instances())
        order = data.draw(st.permutations([j.id for j in instance.jobs]))
        sched = priority_schedule(instance, order)
        sched.validate(instance)
        for s in sched.slices:
            for t in decision_instants(instance, s):
                rem = remaining_at(instance, sched, t)
                ready = [
                    jid for jid in order
                    if instance.job(jid).release <= t and rem[jid] > 0
                ]
                assert s.job == ready[0]


def sweep_makespans(releases, procs, n):
    """Reference makespan table: every subset swept in release order with
    ``t = max(t, r_j) + p_j``."""
    by_release = sorted(range(n), key=lambda j: (releases[j], j))
    size = 1 << n
    m = [0] * size
    for s in range(1, size):
        t = 0
        for j in by_release:
            if s >> j & 1:
                rj = releases[j]
                if rj > t:
                    t = rj
                t += procs[j]
        m[s] = t
    return m


def must_precede(i, k, releases, procs, weights):
    """Job i dominates job k: released no later, no longer and no lighter,
    and, when the two are identical, of the larger index."""
    if i == k or releases[i] > releases[k] or procs[i] > procs[k] or weights[i] < weights[k]:
        return False
    same = (releases[i], procs[i], weights[i]) == (releases[k], procs[k], weights[k])
    return i > k or not same


def reference_subset_dp(releases, procs, weights, n):
    """Reference subset DP: each subset in mask order, each of its jobs in
    index order, f the minimum over all of them.  Its last completion is the
    smallest index whose candidate equals f and that no other job of the
    subset must follow."""
    size = 1 << n
    m = sweep_makespans(releases, procs, n)
    f = [0] * size
    last = [0] * size
    for s in range(1, size):
        ms = m[s]
        best = -1
        t = s
        while t:
            j = (t & -t).bit_length() - 1
            t &= t - 1
            cand = weights[j] * ms + f[s & ~(1 << j)]
            if best < 0 or cand < best:
                best = cand
        f[s] = best
        members = [j for j in range(n) if s >> j & 1]
        last[s] = next(
            j for j in members
            if weights[j] * ms + f[s & ~(1 << j)] == best
            and not any(must_precede(j, k, releases, procs, weights) for k in members)
        )
    order = []
    s = size - 1
    while s:
        j = last[s]
        order.append(j)
        s &= ~(1 << j)
    order.reverse()
    return f[size - 1], tuple(order)


def every_block_live(after, n, leaf):
    """A stand-in for ``_backend._live_blocks`` that skips no block."""
    return [True] * (1 << (n - leaf))


def narrow_draw(data, max_n):
    """Narrow ranges make ties and dominance common; weights times 10**60
    keep every candidate far past machine words."""
    n = data.draw(st.integers(0, max_n))
    releases = data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n))
    procs = data.draw(st.lists(st.integers(1, 2), min_size=n, max_size=n))
    scale = data.draw(st.sampled_from([1, 10**60]))
    weights = data.draw(st.lists(st.integers(0, 2), min_size=n, max_size=n))
    return releases, procs, [w * scale for w in weights], n


class TestBruteforce:
    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_subset_dp_matches_the_reference(self, data):
        # Small leaves put folds, block edges and skipped blocks inside n <= 10.
        # subset_cost runs the same walk, with no relation up to the leaf.
        releases, procs, weights, n = narrow_draw(data, 10)
        expected = reference_subset_dp(releases, procs, weights, n)
        with pytest.MonkeyPatch.context() as patch:
            for leaf in (1, 2, 7):
                patch.setattr(_backend, "_LEAF", leaf)
                assert _backend.subset_dp(releases, procs, weights, n) == expected
                assert _backend.subset_cost(releases, procs, weights, n) == expected[0]

    @given(st.data())
    @settings(max_examples=120, deadline=None)
    def test_skipped_blocks_change_nothing(self, data):
        # Each draw runs at leaves 1 and 7, with the blocks that hold no
        # closed set skipped and with every block walked.
        releases, procs, weights, n = narrow_draw(data, 10)
        results = set()
        with pytest.MonkeyPatch.context() as patch:
            for leaf in (1, 7):
                patch.setattr(_backend, "_LEAF", leaf)
                results.add(_backend.subset_dp(releases, procs, weights, n))
            patch.setattr(_backend, "_live_blocks", every_block_live)
            for leaf in (1, 7):
                patch.setattr(_backend, "_LEAF", leaf)
                results.add(_backend.subset_dp(releases, procs, weights, n))
        assert len(results) == 1
        ((value, order),) = results
        assert sorted(order) == list(range(n))
        for a, j in enumerate(order):
            assert not any(must_precede(k, j, releases, procs, weights) for k in order[a + 1:])
        m = sweep_makespans(releases, procs, n)
        s = cost = 0
        for j in order:
            s |= 1 << j
            cost += weights[j] * m[s]
        assert cost == value == reference_subset_dp(releases, procs, weights, n)[0]

    @pytest.mark.parametrize("leaf", [1, 7])
    def test_identical_jobs_complete_in_descending_index(self, leaf):
        # Among identical jobs the larger index goes first, so the smallest
        # index completes last.
        n = 9
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(_backend, "_LEAF", leaf)
            value, order = _backend.subset_dp([0] * n, [1] * n, [1] * n, n)
        assert order == tuple(range(n - 1, -1, -1))
        assert value == n * (n + 1) // 2

    @pytest.mark.parametrize(
        "releases, procs, weights, expected",
        [
            # free16 with its releases reversed: r = 15 - j.
            (
                [15 - j for j in range(16)], [17 - j for j in range(16)], [1 + j % 3 for j in range(16)],
                (1620, (15, 14, 13, 11, 8, 10, 5, 12, 7, 2, 4, 9, 1, 6, 3, 0)),
            ),
            # gen_random(Random(1), 16) on its grid, times and weights in halves.
            (
                [1, 2, 6, 5, 0, 6, 4, 3, 6, 0, 0, 4, 5, 5, 1, 4],
                [5, 1, 4, 4, 4, 4, 1, 3, 2, 3, 1, 1, 2, 1, 4, 2],
                [1, 4, 4, 2, 1, 4, 6, 6, 5, 1, 6, 4, 4, 5, 4, 3],
                (748, (10, 1, 6, 13, 11, 7, 8, 12, 15, 14, 5, 2, 3, 9, 4, 0)),
            ),
        ],
        ids=["free16-reversed-releases", "r16"],
    )
    def test_jobs_out_of_release_order_keep_their_order(self, releases, procs, weights, expected):
        # The walk runs on the jobs relabelled in release order; the order
        # it returns names the jobs by their own indices.
        assert _backend.subset_dp(releases, procs, weights, 16) == expected
        assert _backend.subset_cost(releases, procs, weights, 16) == expected[0]

    def test_tie_goes_to_the_job_nothing_must_follow(self):
        # Both jobs weigh 0, so both orders cost 0; job 0 is shorter, so it
        # goes first and job 1 completes last.
        assert _backend.subset_dp([0, 0], [1, 2], [0, 0], 2) == (0, (0, 1))

    @pytest.mark.parametrize(
        "shape, live",
        [
            # Job j has r = j and p = 17 - j, so no job dominates another.
            ([(j, 17 - j, 1 + j % 3) for j in range(16)], list(range(1 << 9))),
            # Each job dominates every later one, so a live block's jobs from
            # 7 up are 7, 8, ... up to some job.
            ([(j, j + 1, 16 - j) for j in range(16)], [(1 << k) - 1 for k in range(10)]),
            # Identical jobs make one chain too, but there are only _LEAF of them.
            ([(0, 1, 1)] * 7, [0]),
        ],
        ids=["dominance-free", "one-chain", "one-chain-at-the-leaf"],
    )
    def test_live_blocks_are_those_with_every_dominator(self, shape, live):
        releases, procs, weights = (list(col) for col in zip(*shape))
        n = len(shape)
        _, _, procs, weights = _backend._line(releases, procs, weights, n)
        after = _backend._dominance(procs, weights, n)
        flags = _backend._live_blocks(after, n, min(n, _backend._LEAF))
        assert [b for b, flag in enumerate(flags) if flag] == live

    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_makespans_match_the_subset_sweep(self, data):
        # The table is built for jobs listed in release order.
        n = data.draw(st.integers(0, 8))
        releases = sorted(data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n)))
        procs = data.draw(st.lists(st.integers(1, 20), min_size=n, max_size=n))
        assert _backend.subset_makespans(releases, procs, n) == sweep_makespans(
            releases, procs, n
        )

    def test_rejects_oversized(self):
        jobs = tuple(Job(i, 0, 1, 1) for i in range(5))
        with pytest.raises(ValueError):
            optimal_bruteforce(Instance(jobs), max_n=4)

    def test_method_tag_and_consistency(self):
        inst = Instance((Job(0, 0, 2, 1), Job(1, 1, 1, 9)))
        result = optimal_bruteforce(inst)
        assert result.method == "brute-force"
        assert objective(result.schedule, inst) == result.objective

    @given(small_instances())
    @settings(max_examples=60, deadline=None)
    def test_lower_bounds_every_policy(self, instance):
        best = optimal_bruteforce(instance).objective
        for policy in Policy:
            assert best <= objective(simulate(instance, policy=policy), instance)

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_unit_weight_equals_srpt(self, instance):
        unit = Instance(
            tuple(Job(j.id, j.release, j.processing, 1) for j in instance.jobs)
        )
        srpt = objective(simulate(unit, policy=Policy.SRPT), unit)
        assert optimal_bruteforce(unit).objective == srpt

    @given(small_instances(max_jobs=5))
    @settings(max_examples=40, deadline=None)
    def test_equals_best_priority_list(self, instance):
        ids = [j.id for j in instance.jobs]
        best = min(
            objective(priority_schedule(instance, perm), instance)
            for perm in permutations(ids)
        )
        assert optimal_bruteforce(instance).objective == best

    @given(small_instances())
    @settings(max_examples=40, deadline=None)
    def test_optimal_objective_matches(self, instance):
        assert optimal_objective(instance) == optimal_bruteforce(instance).objective


def slot_optimum(releases, procs, weights):
    """Reference optimum on integer data: at each integer slot run one
    released unfinished job for one unit, idling only when none is
    released.  It relies only on some optimum preempting on the integer
    grid, not on priority lists."""

    @cache
    def best(t, rem):
        live = [k for k, left in enumerate(rem) if left]
        ready = [k for k in live if releases[k] <= t]
        if not ready:
            return best(min(releases[k] for k in live), rem) if live else 0
        return min(
            (weights[k] * (t + 1) if rem[k] == 1 else 0)
            + best(t + 1, rem[:k] + (rem[k] - 1,) + rem[k + 1 :])
            for k in ready
        )

    return best(min(releases), tuple(procs))


class TestTimeIndexedDP:
    @given(st.data())
    @settings(max_examples=100, deadline=None)
    def test_matches_the_slot_recursion(self, data):
        n = data.draw(st.integers(1, 4))
        releases = data.draw(st.lists(st.integers(0, 6), min_size=n, max_size=n))
        procs = data.draw(st.lists(st.integers(1, 3), min_size=n, max_size=n))
        weights = data.draw(st.lists(st.integers(0, 5), min_size=n, max_size=n))
        inst = Instance(
            tuple(Job(k, releases[k], procs[k], weights[k]) for k in range(n))
        )
        assert optimal_dp_timeindexed(inst).objective == slot_optimum(
            releases, procs, weights
        )

    def test_single_job_matches_brute(self):
        inst = Instance((Job(0, 0, 3, 2),))
        assert (
            optimal_dp_timeindexed(inst).objective
            == optimal_bruteforce(inst).objective
        )

    def test_two_job_hand_instance(self):
        inst = Instance((Job(0, 0, 2, 1), Job(1, 1, 1, 9)))
        result = optimal_dp_timeindexed(inst)
        assert result.method == "dp-timeindexed"
        assert result.objective == optimal_bruteforce(inst).objective
        assert objective(result.schedule, inst) == result.objective

    def test_many_slots_few_states(self):
        # Each instance spans 1,800 to ten million slots, but every move
        # runs a job to its completion or the next release: the lone jobs
        # take one move each (the second idles until t = 10), and the two
        # equal 900-slot jobs are one class that completes in two moves.
        tiny = Fraction(1, 10**7)
        for jobs, value in [
            ((Job(0, 0, 10**7, 1),), 10**7),
            ((Job(0, 0, 1, 1), Job(1, 10, tiny, 1)), 1 + 10 + tiny),
            ((Job(0, 0, 900, 1), Job(1, 0, 900, 1)), 900 + 1800),
        ]:
            inst = Instance(jobs)
            result = optimal_dp_timeindexed(inst)
            assert result.objective == value == optimal_objective(inst)
            assert objective(result.schedule, inst) == value

    @pytest.mark.parametrize("cells, refused", [(18, True), (20, True), (21, False)])
    def test_cells_cap_the_states_of_wide_instances(self, monkeypatch, cells, refused):
        # Each state holds one remainder per job, so 3 jobs get CELLS // 3
        # states; this instance needs 7 of them.
        monkeypatch.setattr(wsrpt.simulator, "CELLS", cells)
        inst = Instance(tuple(Job(i, 0, 2, i + 1) for i in range(3)))
        if refused:
            with pytest.raises(BudgetExceeded, match="time-indexed DP exceeded 6 states"):
                optimal_dp_timeindexed(inst)
        else:
            result = optimal_dp_timeindexed(inst)
            assert result.objective == optimal_objective(inst)

    def test_depth_guard(self):
        # Fewer jobs than the limit, but the first path runs the long job
        # through all 410 releases before the short jobs: 820 moves.
        inst = interrupts(MAX_SEARCH_DEPTH // 2 + 10)
        with pytest.raises(
            BudgetExceeded, match=f"time-indexed DP exceeded search depth {MAX_SEARCH_DEPTH}"
        ):
            optimal_dp_timeindexed(inst)

    @pytest.mark.parametrize("extra", [0, 1])
    def test_depth_limit_counts_moves(self, extra):
        # Each job runs alone in one move, so the path has n moves.
        n = MAX_SEARCH_DEPTH + extra
        inst = Instance(tuple(Job(i, i, 1, 1) for i in range(n)))
        if extra:
            with pytest.raises(BudgetExceeded, match="search depth"):
                optimal_dp_timeindexed(inst)
        else:
            result = optimal_dp_timeindexed(inst)
            assert len(result.schedule.slices) == n

    @pytest.mark.parametrize("n", [MAX_SEARCH_DEPTH // 2, MAX_SEARCH_DEPTH // 2 + 1])
    def test_idle_jumps_count_toward_depth(self, n):
        # Each job runs alone and time idles to the next release: n slices
        # but 2n - 1 moves, which fit the limit at n = 400 and not at 401.
        inst = Instance(tuple(Job(i, 2 * i, 1, 1) for i in range(n)))
        if 2 * n - 1 > MAX_SEARCH_DEPTH:
            with pytest.raises(
                BudgetExceeded, match=f"time-indexed DP exceeded search depth {MAX_SEARCH_DEPTH}"
            ):
                optimal_dp_timeindexed(inst)
        else:
            assert len(optimal_dp_timeindexed(inst).schedule.slices) == n

    def test_refuses_more_jobs_than_depth_up_front(self):
        # Every job's completion is a move, so no path fits; no state is
        # explored before the refusal.
        inst = Instance(tuple(Job(i, 0, 1, 1) for i in range(MAX_SEARCH_DEPTH + 1)))
        with pytest.raises(
            BudgetExceeded,
            match=f"time-indexed DP needs a search depth of at least {MAX_SEARCH_DEPTH + 1}",
        ):
            optimal_dp_timeindexed(inst)

    def test_agrees_with_brute_on_seeded_instances(self):
        # the acceptance module runs the full hundred; spot-check here
        rng = Random(2024)
        for _ in range(25):
            inst = gen_random(rng, rng.randint(2, 6))
            assert (
                optimal_dp_timeindexed(inst).objective
                == optimal_bruteforce(inst).objective
            )


def _relisted(inst):
    """The same jobs listed in reverse with reversed ids, no script or tags."""
    n = len(inst.jobs)
    return Instance(
        tuple(Job(n - 1 - j.id, j.release, j.processing, j.weight) for j in reversed(inst.jobs))
    )


def _splits_a_job(schedule):
    """Whether some job's slices leave a gap between them."""
    last_end = {}
    for s in sorted(schedule.slices, key=lambda s: s.start):
        if last_end.get(s.job, s.start) != s.start:
            return True
        last_end[s.job] = s.end
    return False


def _assert_fraction_key_order(inst):
    """structured_optimal runs the list of the Fraction key (-ratio,
    overruns the next release, -processing, release, id) and returns its
    schedule exactly when that schedule splits no job."""
    times = sorted({j.release for j in inst.jobs})
    following = dict(zip(times, times[1:]))
    order = sorted(
        inst.jobs,
        key=lambda j: (
            -j.ratio,
            j.release + j.processing > following.get(j.release, math.inf),
            -j.processing,
            j.release,
            j.id,
        ),
    )
    expected = priority_schedule(inst, [j.id for j in order])
    if _splits_a_job(expected):
        with pytest.raises(ValueError, match="splits a job"):
            structured_optimal(inst)
        return
    result = structured_optimal(inst)
    assert result.schedule == expected
    assert result.objective == objective(expected, inst)


def _coarse_families():
    """Coarse basic instances of at most 16 jobs on grids of 1/2 to 1/10,
    and nested ones of at most 14 jobs."""
    for d in range(2, 11):
        for i in range(1, d):
            for j in range(0, i + 1, 2):
                y, v, z = Fraction(i, d), Fraction(j, d), Fraction(i % 2, 2)
                inst = gen_basic(ScenarioParams(y=y, v=v, z=z, delta=Fraction(1, d)))
                if len(inst.jobs) <= 16:
                    yield inst
    third, half = Fraction(1, 3), Fraction(1, 2)
    for d in (3, 4, 5):
        outer_y = Fraction(d - 1, d)
        for r in range(1, d):
            outer = ScenarioParams(y=outer_y, v=Fraction(r, d), delta=Fraction(1, d))
            for p_s in (half, Fraction(3)):
                for yi, vi in ((1, 0), (1, 1), (2, 0), (2, 1), (2, 2)):
                    inner = ScenarioParams(y=yi * third, v=vi * third, z=half, delta=third)
                    nested = NestedParams(outer=outer, r_s=outer.v, p_s=p_s, inner=inner)
                    try:
                        inst = gen_nested(nested)
                    except ValueError:  # the inner segment ends before the outer releases
                        continue
                    if len(inst.jobs) <= 14:
                        yield inst


class TestStructuredOptimal:
    def test_certifies_an_untagged_instance(self):
        inst = Instance(gen_random(Random(8), 6).jobs)
        assert not inst.tags
        result = structured_optimal(inst)
        assert result.objective == Fraction(135, 4) == optimal_bruteforce(inst).objective
        assert objective(result.schedule, inst) == result.objective

    def test_refuses_a_schedule_that_splits_a_job(self):
        # The later, higher-ratio job preempts the first one mid-run.
        inst = Instance((Job(0, 0, 2, 1), Job(1, 1, 1, 1)), tags={"family": "basic"})
        with pytest.raises(
            ValueError,
            match="the ratio-ordered schedule splits a job, so it is not certified optimal",
        ):
            structured_optimal(inst)

    def test_coarse_families_are_certified_optima(self):
        count = 0
        for inst in _coarse_families():
            best = optimal_objective(inst)
            for listed in (inst, _relisted(inst)):
                assert structured_optimal(listed).objective == best, listed.jobs
            count += 1
        assert count > 100

    def test_certified_random_draws_are_optimal(self):
        rng = Random(15)
        certified = 0
        for _ in range(300):
            inst = gen_random(rng, rng.randint(2, 8))
            _assert_fraction_key_order(inst)
            try:
                value = structured_optimal(inst).objective
            except ValueError:
                continue
            certified += 1
            assert value == optimal_objective(inst), inst.jobs
        assert certified >= 50

    def test_coarse_basic_equals_bruteforce(self):
        params = ScenarioParams(y=Fraction(2, 5), v=Fraction(2, 5), delta=Fraction(1, 5))
        inst = gen_basic(params)
        assert len(inst.jobs) <= 8
        result = structured_optimal(inst)
        assert result.method == "structured"
        assert result.objective == optimal_bruteforce(inst).objective
        assert objective(result.schedule, inst) == result.objective

    @pytest.mark.parametrize("relist", [False, True])
    @pytest.mark.parametrize(
        "family, delta",
        [
            ("basic", Fraction(1, 7)),
            ("basic", Fraction(1, 100)),
            ("basic", Fraction(1, 1000)),
            ("ramp", Fraction(1, 50)),
            ("nested", Fraction(1, 20)),
            ("nested", Fraction(1, 100)),
        ],
    )
    def test_order_is_the_fraction_key(self, family, delta, relist):
        # Relisted instances reverse both the listing and the ids, so equal
        # pieces break their ties the other way round.
        point = ScenarioParams(y=Fraction(8157, 10000), v=Fraction(7066, 10000), delta=delta)
        if family == "basic":
            inst = gen_basic(point)
        elif family == "ramp":
            inst = gen_basic(ScenarioParams(y=Fraction(3, 5), v=Fraction(1, 5), z=Fraction(1, 3), delta=delta))
        else:
            outer = ScenarioParams(y=Fraction(1, 2), v=Fraction(1, 2), delta=delta)
            inner = ScenarioParams(y=Fraction(2, 5), v=Fraction(1, 5), z=Fraction(1, 4), delta=delta)
            inst = gen_nested(NestedParams(outer=outer, r_s=Fraction(3, 10), p_s=Fraction(50), inner=inner))
        _assert_fraction_key_order(_relisted(inst) if relist else inst)

    @pytest.mark.parametrize("relist", [False, True])
    def test_order_is_the_fraction_key_at_the_float_edges(self, relist):
        # Equal ratios with processing and release in opposite orders, and
        # distinct ratios that round to one float or overflow it.
        big = 10**400
        inst = Instance(
            (
                Job(0, 2, 1, 1),
                Job(1, 0, 2, 2),
                Job(2, 1, 3, 3),
                Job(3, 0, 1, 1 + Fraction(1, 2**60)),
                Job(4, 3, 2, 2 + Fraction(1, 2**59)),
                Job(5, 1, 1, big),
                Job(6, 0, 2, 2 * big + 1),
                Job(7, 2, 1, Fraction(1, big)),
                Job(8, 0, 1, 0),
            )
        )
        _assert_fraction_key_order(_relisted(inst) if relist else inst)

    def test_floor_only_objective_near_closed_form(self):
        # C* for the floor-only family at y=0.10 approaches 1.1054 as the
        # step shrinks; at delta=1e-3 the gap is O(delta).
        params = ScenarioParams(y=Fraction(1, 10), v=Fraction(1, 10), delta=Fraction(1, 1000))
        inst = gen_basic(params)
        assert abs(float(structured_optimal(inst).objective) - 1.1054) < 5e-3


class TestClosedPairOptimal:
    def test_zero_length_block(self):
        assert closed_pair_optimal(1, 2, 1, 2, 0) == 1 + 2 * 3

    def test_j1_first_selected_on_lower_bound_instance(self):
        p1, p2 = Fraction(1), Fraction(23364, 10000)
        rho = p2 / (p2 - p1)
        l1 = Fraction(
            math.sqrt(float(2 * (p2**3 - p1**3) / p2))
        ).limit_denominator(10**9)
        value = closed_pair_optimal(p1, p2, p1, rho, l1)
        j1_first = p1**2 + rho * l1 * (p1 + l1 / 2) + p2 * (p1 + p2 + l1)
        assert value == j1_first
        online = p2**2 + rho * l1 * (p2 + l1 / 2) + p1 * (p1 + p2 + l1)
        assert abs(online / value - Fraction(11038, 10000)) < Fraction(1, 10000)

    def test_agreement_with_bruteforce_at_four_pieces(self):
        p1, p2 = Fraction(1), Fraction(23364, 10000)
        rho, total, pieces = Fraction(3, 2), Fraction(2), 4
        piece = total / pieces
        jobs = [Job(0, 0, p1, p1), Job(1, 0, p2, p2)]
        jobs += [Job(2 + i, p1, piece, rho * piece) for i in range(pieces)]
        inst = Instance(tuple(jobs))
        assert (
            closed_pair_optimal(p1, p2, p1, rho, total, pieces=pieces)
            == optimal_bruteforce(inst).objective
        )

    def test_rejects_bad_geometry(self):
        with pytest.raises(ValueError):
            closed_pair_optimal(2, 1, 1, 2, 1)  # p1 >= p2
        with pytest.raises(ValueError):
            closed_pair_optimal(1, 2, 3, 2, 1)  # release after p2
        with pytest.raises(ValueError):
            closed_pair_optimal(1, 2, 1, 2, -1)  # negative length
