"""Acceptance gate: one test per shipped guarantee, at its stated
tolerance and time budget, printing one pass line each (visible with -s).

1. The reference sweep reproduces all 26 frozen rows within 1e-3.
2. The two-parameter optimizer lands on the tight point and ratio.
3. Generated worst-case instances converge to the tight ratio as the grid
   refines, simulated against the certified list optimum.
4. The nested construction reaches the same ratio, simulated and analytic.
5. The three optimality oracles agree exactly on shared ground.
6. The two-job game certifies the general lower bound against every
   policy it is played against.
7. Randomized search never crosses the proven envelope.
8. Generated instances are exact equality instances, and job splitting
   shifts the objective by its closed form.
"""

import time
from fractions import Fraction
from random import Random

import pytest

from wsrpt.adversary import play
from wsrpt.analysis import (
    lb_c1,
    lb_crossing,
    nested_ratio,
    optimize_basic,
    optimize_nested,
    table1,
    worst_basic_metrics,
)
from wsrpt.core import Instance, Job, objective
from wsrpt.fuzz import ENVELOPE, ENVELOPE_SLACK, fuzz
from wsrpt.instances import (
    NestedParams,
    ScenarioParams,
    gen_basic,
    gen_nested,
    gen_random,
)
from wsrpt.oracle import (
    optimal_bruteforce,
    optimal_dp_timeindexed,
    structured_optimal,
)
from wsrpt.simulator import (
    Policy,
    TieRule,
    is_equality_instance,
    simulate,
    split_job,
)

TIGHT = 1.2259
WORST_Y = Fraction(8157, 10000)
WORST_V = Fraction(7066, 10000)
SWEEP_DELTAS = (Fraction(1, 100), Fraction(3, 1000), Fraction(1, 1000))
#: Generated basic instances of 9 and 15 jobs, on which both exact oracles
#: must agree: the worst-case families are where the optimum matters.
GENERATED = (
    ScenarioParams(y=Fraction(3, 5), v=Fraction(3, 10), delta=Fraction(1, 7)),
    ScenarioParams(y=Fraction(4, 5), v=Fraction(7, 10), delta=Fraction(1, 11)),
)


def _simulated_ratio(instance) -> float:
    schedule = simulate(
        instance,
        policy=Policy.WSRPT,
        tie=TieRule.SCRIPTED,
        script=instance.tie_script,
    )
    return float(objective(schedule, instance) / structured_optimal(instance).objective)


@pytest.fixture(scope="module")
def sweep_instances():
    return {
        delta: gen_basic(ScenarioParams(y=WORST_Y, v=WORST_V, delta=delta))
        for delta in SWEEP_DELTAS
    }


@pytest.fixture(scope="module")
def nested_instance():
    p_star, _ = optimize_nested(0.5307)
    p_s = Fraction(p_star).limit_denominator(10**6)
    point = ScenarioParams(y=WORST_Y, v=WORST_V, delta=Fraction(1, 1000))
    return gen_nested(
        NestedParams(outer=point, r_s=Fraction(5307, 10000), p_s=p_s, inner=point)
    )


def test_criterion_1_reference_sweep():
    start = time.perf_counter()
    rows = table1()
    worst = max(row.max_delta() for row in rows)
    elapsed = time.perf_counter() - start
    assert len(rows) == 26
    assert worst < 1e-3
    assert elapsed < 5
    print(f"PASS 1: 26 rows, max |delta| {worst:.2e} < 1e-3, {elapsed:.2f}s")


def test_criterion_2_tight_optimum():
    start = time.perf_counter()
    y, v, ratio = optimize_basic()
    elapsed = time.perf_counter() - start
    assert ratio == pytest.approx(TIGHT, abs=5e-4)
    assert y == pytest.approx(0.8157, abs=5e-3)
    assert v == pytest.approx(0.7066, abs=5e-3)
    assert elapsed < 30
    print(f"PASS 2: ratio {ratio:.7f} at y={y:.4f} v={v:.4f}, {elapsed:.2f}s")


def test_criterion_3_generated_family_converges(sweep_instances):
    start = time.perf_counter()
    _, _, closed = optimize_basic()
    ratios = [_simulated_ratio(sweep_instances[delta]) for delta in SWEEP_DELTAS]
    errors = [abs(ratio - closed) for ratio in ratios]
    # The error is O(delta), so the Richardson limit cancels its first order.
    richardson = (10 * ratios[2] - ratios[0]) / 9
    elapsed = time.perf_counter() - start
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 5e-4
    assert abs(richardson - closed) < 1e-5
    assert elapsed < 60
    print(
        "PASS 3: errors "
        + " > ".join(f"{e:.6f}" for e in errors)
        + f", final < 5e-4, Richardson {richardson:.7f} vs {closed:.7f}, {elapsed:.1f}s"
    )


def test_criterion_4_nested_family(nested_instance):
    simulated = _simulated_ratio(nested_instance)
    p_star, analytic = optimize_nested(0.5307)
    assert simulated == pytest.approx(analytic, abs=1e-3)
    assert analytic == pytest.approx(TIGHT, abs=5e-4)
    check = nested_ratio(0.5307, p_star, worst_basic_metrics())
    assert check == pytest.approx(analytic, abs=1e-9)
    print(f"PASS 4: simulated {simulated:.6f} (+/-1e-3), analytic {analytic:.7f}")


def test_criterion_5_oracles_agree():
    start = time.perf_counter()
    kinds = ("general", "unit-weight", "zero-release")
    for seed in range(100):
        rng = Random(seed)
        n = 2 + seed % 5
        inst = gen_random(rng, n, kinds[seed % 3])
        brute = optimal_bruteforce(inst).objective
        dp = optimal_dp_timeindexed(inst).objective
        assert brute == dp, f"seed {seed}: brute {brute} != dp {dp}"
    coarse = [
        ScenarioParams(y=Fraction(2, 5), v=Fraction(2, 5), delta=Fraction(1, 5)),
        ScenarioParams(y=Fraction(1, 2), v=Fraction(1, 4), delta=Fraction(1, 4)),
        ScenarioParams(
            y=Fraction(2, 5), v=Fraction(1, 5), z=Fraction(1, 2), delta=Fraction(1, 5)
        ),
        ScenarioParams(y=Fraction(3, 5), v=Fraction(3, 5), delta=Fraction(1, 5)),
    ]
    for params in coarse:
        inst = gen_basic(params)
        assert len(inst.jobs) <= 8
        assert structured_optimal(inst).objective == optimal_bruteforce(inst).objective
    for params in GENERATED:
        inst = gen_basic(params)
        brute = optimal_bruteforce(inst).objective
        dp = optimal_dp_timeindexed(inst).objective
        assert brute == dp, f"{len(inst.jobs)} jobs: brute {brute} != dp {dp}"
    elapsed = time.perf_counter() - start
    print(
        "PASS 5: 100 random brute==dp, 4 structured==brute, "
        f"{len(GENERATED)} generated brute==dp, {elapsed:.1f}s"
    )


def test_criterion_5_structured_matches_dp_on_generated():
    inst = gen_basic(GENERATED[0])
    assert len(inst.jobs) == 9
    dp = optimal_dp_timeindexed(inst).objective
    assert dp == Fraction(6016, 2205) == optimal_bruteforce(inst).objective
    assert structured_optimal(inst).objective == dp


def test_criterion_6_lower_bound_game():
    start = time.perf_counter()
    assert lb_c1(1, 2.3364) == pytest.approx(1.1038, abs=1e-4)
    p2_cross, _ = lb_crossing()
    assert p2_cross == pytest.approx(2.3364, abs=1e-3)
    games = [
        (Policy.WSRPT, TieRule.PREFER_RUNNING, 1.1038),
        (Policy.WSRPT, TieRule.PREFER_NEW_LONGEST, 1.1038),
        (Policy.WSPT_PREEMPTIVE, TieRule.PREFER_RUNNING, 1.1038),
        (Policy.SRPT, TieRule.PREFER_RUNNING, 1.1038),
        ("j2-first", TieRule.PREFER_RUNNING, 1.1038),
        ("equalizer", TieRule.PREFER_RUNNING, 1.1392),
    ]
    ratios = []
    for policy, tie, floor in games:
        transcript = play(policy, tie=tie, delta="1e-3")
        ratios.append(float(transcript.ratio))
        assert ratios[-1] >= floor - 0.005
    elapsed = time.perf_counter() - start
    print(
        "PASS 6: crossing "
        f"{p2_cross:.4f}, certified " + " ".join(f"{r:.4f}" for r in ratios)
        + f", {elapsed:.1f}s"
    )


def test_criterion_7_fuzz_envelope(tmp_path):
    start = time.perf_counter()
    report = fuzz(10_000, n_max=7, seed=11, out_dir=tmp_path)
    elapsed = time.perf_counter() - start
    assert report.classes["unit-weight"].worst_ratio == 1
    assert report.classes["zero-release"].worst_ratio == 1
    assert report.worst_ratio <= ENVELOPE + ENVELOPE_SLACK
    assert elapsed < 600
    print(
        f"PASS 7: 10000 trials, worst {float(report.worst_ratio):.6f} <= "
        f"{float(ENVELOPE + ENVELOPE_SLACK):.6f}, {elapsed:.1f}s"
    )


def test_criterion_8_equality_and_splitting(sweep_instances, nested_instance):
    start = time.perf_counter()
    audited = [*sweep_instances.values(), nested_instance]
    for inst in audited:
        report = is_equality_instance(inst)
        assert report.passed, report.violations[:3]
    job = Job(0, 0, Fraction(3, 2), Fraction(5, 7))
    single = Instance((job,))
    base = objective(simulate(single, policy=Policy.WSRPT), single)
    for q in (2, 3, 5, 8):
        frag = split_job(single, 0, q)
        split_obj = objective(simulate(frag, policy=Policy.WSRPT), frag)
        drop = job.weight * job.processing * Fraction(q - 1, 2 * q)
        assert base - split_obj == drop
    elapsed = time.perf_counter() - start
    print(
        f"PASS 8: {len(audited)} generated instances are equality instances, "
        f"split drop exact for q in (2,3,5,8), {elapsed:.1f}s"
    )
