"""Schedules on the integer grid: an engine schedule against the same slices
rebuilt through the public ``Schedule`` constructor.

The event engine hands its runs over on its own grid, whose unit 1/den_t
can be finer than the slice times need; ``Schedule(slices)`` scales the
checked slices onto the lcm of their denominators.  Both routes must score,
compare and validate alike, and the writer and ``executed``, which read the
runs, must agree with the same work done on the slices.
"""

import json
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest

from wsrpt.adversary import play
from wsrpt.analysis import optimize_nested
from wsrpt.core import Instance, Job, Schedule, Slice, _rational_str, objective
from wsrpt.instances import (
    RANDOM_KINDS,
    NestedParams,
    ScenarioParams,
    gen_basic,
    gen_nested,
    gen_random,
    slices_from_dicts,
    slices_to_dicts,
    write_json,
)
from wsrpt.oracle import (
    optimal_bruteforce,
    optimal_dp_timeindexed,
    priority_schedule,
    structured_optimal,
)
from wsrpt.simulator import Policy, TieRule, simulate

WORST_Y = Fraction(8157, 10000)
WORST_V = Fraction(7066, 10000)
FIXED_TIES = (TieRule.PREFER_RUNNING, TieRule.PREFER_NEW_LONGEST, TieRule.PREFER_NEW_SHORTEST)


def _mixed(rng: Random, n: int) -> Instance:
    """Jobs with halves, thirds, fifths and sevenths, ids out of order."""
    ids = rng.sample(range(10 * n), n)
    return Instance(
        tuple(
            Job(
                i,
                Fraction(rng.randint(0, 9), rng.choice((1, 3, 5))),
                Fraction(rng.randint(1, 9), rng.choice((2, 3, 7))),
                Fraction(rng.randint(0, 9), rng.choice((1, 4, 5))),
            )
            for i in ids
        )
    )


def _draws():
    rng = Random(16)
    for n in range(1, 8):
        for kind in RANDOM_KINDS:
            yield gen_random(rng, n, kind)
        yield _mixed(rng, n)
        yield _mixed(rng, n)


def _engine_schedules(instance: Instance):
    """Every route from the event engine and the searches to a schedule."""
    for policy in Policy:
        yield simulate(instance, policy=policy)
    yield simulate(instance, tie=TieRule.EXHAUSTIVE_WORST)
    yield priority_schedule(instance, sorted(j.id for j in instance.jobs))
    yield optimal_bruteforce(instance).schedule
    yield optimal_dp_timeindexed(instance).schedule
    try:
        yield structured_optimal(instance).schedule
    except ValueError:
        pass


def _verdict(schedule: Schedule, instance: Instance) -> str | None:
    try:
        schedule.validate(instance)
    except ValueError as exc:
        return str(exc)
    return None


def _broken(schedule: Schedule, instance: Instance):
    """(instance, expected text): a wrong processing time, a release after a
    start and a job the instance lacks, each on the last-run job."""
    last = schedule.slices[-1].job
    first_start = next(s.start for s in schedule.slices if s.job == last)
    jobs = list(instance.jobs)
    k = next(i for i, j in enumerate(jobs) if j.id == last)
    job = jobs[k]
    longer = replace(job, processing=job.processing + Fraction(1, 11))
    yield (
        Instance(tuple(jobs[:k] + [longer] + jobs[k + 1 :])),
        f"job {last} executes {job.processing} of {longer.processing}",
    )
    later = replace(job, release=first_start + Fraction(1, 13))
    yield Instance(tuple(jobs[:k] + [later] + jobs[k + 1 :])), f"job {last} runs before its release"
    if len(jobs) > 1:
        yield Instance(tuple(jobs[:k] + jobs[k + 1 :])), f"slice references unknown job {last}"


def _assert_routes_agree(engine: Schedule, instance: Instance) -> None:
    rebuilt = Schedule(engine.slices)
    ends = {s.job: s.end for s in engine.slices}
    reference = sum(j.weight * ends[j.id] for j in instance.jobs)
    assert objective(engine, instance) == objective(rebuilt, instance) == reference
    assert engine.completions() == rebuilt.completions()
    assert all(engine.completion(j.id) == rebuilt.completion(j.id) for j in instance.jobs)
    assert engine.makespan == rebuilt.makespan
    assert len(engine) == len(rebuilt) == len(engine.slices)
    assert engine == rebuilt and hash(engine) == hash(rebuilt)
    assert _verdict(engine, instance) is None
    assert _verdict(rebuilt, instance) is None
    for broken, text in _broken(engine, instance):
        assert _verdict(engine, broken) == _verdict(rebuilt, broken) == text


def test_engine_and_slice_routes_agree_on_random_draws():
    finer = 0
    for instance in _draws():
        for engine in _engine_schedules(instance):
            _assert_routes_agree(engine, instance)
            finer += engine._den != Schedule(engine.slices)._den
    # Some engine grids are finer than their slice times need, so the
    # comparison covers a (runs, den) that is not the canonical one.
    assert finer > 0


def test_engine_and_slice_routes_agree_at_the_sweep_points():
    point = ScenarioParams(y=WORST_Y, v=WORST_V, delta=Fraction(1, 1000))
    p_star, _ = optimize_nested(0.5307)
    nested = NestedParams(
        outer=point,
        r_s=Fraction(5307, 10000),
        p_s=Fraction(p_star).limit_denominator(10**6),
        inner=point,
    )
    for instance in (gen_basic(point), gen_nested(nested)):
        online = simulate(instance, tie=TieRule.SCRIPTED)
        _assert_routes_agree(online, instance)
        _assert_routes_agree(structured_optimal(instance).schedule, instance)


def test_the_sweep_path_builds_no_slices(monkeypatch):
    instance = gen_basic(ScenarioParams(y=WORST_Y, v=WORST_V, delta=Fraction(1, 100)))
    built = []
    check = Slice.__post_init__
    monkeypatch.setattr(Slice, "__post_init__", lambda s: (built.append(s), check(s)))
    online = simulate(instance, tie=TieRule.SCRIPTED)
    online.validate(instance)
    optimum = structured_optimal(instance)
    assert objective(online, instance) > optimum.objective
    assert built == []
    assert "slices" not in vars(online) and "slices" not in vars(optimum.schedule)
    # Built on first access, once, one Fraction per distinct time.
    slices = online.slices
    assert len(built) == len(slices) == len(online)
    assert online.slices is slices
    assert all(a.end is b.start for a, b in zip(slices, slices[1:]) if a.end == b.start)


def test_public_constructor_keeps_slice_checks():
    with pytest.raises(ValueError, match="start must precede end"):
        Schedule([Slice(0, 1, 1)])
    with pytest.raises(ValueError, match="refusing inexact value"):
        Schedule([Slice(0, 0, 0.5)])
    slices = (Slice(3, Fraction(1, 3), Fraction(1, 2)), Slice(1, Fraction(1, 2), 2))
    schedule = Schedule(slices)
    assert schedule.slices is slices
    assert schedule.makespan == 2 and schedule.completion(3) == Fraction(1, 2)
    with pytest.raises(KeyError, match="job 2 never executes"):
        schedule.completion(2)


def _slice_route(schedule: Schedule) -> list[dict]:
    """The writer's former route: one ``Slice`` per run, each time rendered apart."""
    return [
        {"job": s.job, "start": _rational_str(s.start), "end": _rational_str(s.end)}
        for s in schedule.slices
    ]


def _every_producer():
    """(name, schedule) from each route that makes a schedule."""
    for instance in _draws():
        for policy in Policy:
            for tie in FIXED_TIES:
                yield f"{policy.value}/{tie.value}", simulate(instance, policy=policy, tie=tie)
        yield "exhaustive", simulate(instance, tie=TieRule.EXHAUSTIVE_WORST)
        yield "subset-dp", optimal_bruteforce(instance).schedule
        yield "time-indexed-dp", optimal_dp_timeindexed(instance).schedule
        yield "priority", priority_schedule(instance, sorted(j.id for j in instance.jobs))
        try:
            yield "structured", structured_optimal(instance).schedule
        except ValueError:
            pass
    basic = gen_basic(ScenarioParams(y=WORST_Y, v=WORST_V, delta=Fraction(1, 100)))
    yield "scripted", simulate(basic, tie=TieRule.SCRIPTED)
    yield "structured", structured_optimal(basic).schedule
    for policy in ("j2-first", "equalizer"):
        yield policy, play(policy, delta="1e-2").schedule


def test_writer_matches_the_slice_route_on_every_producer(tmp_path):
    names, finer = set(), 0
    for name, schedule in _every_producer():
        names.add(name)
        finer += schedule._den != Schedule(schedule.slices)._den
        records = slices_to_dicts(schedule)
        assert json.dumps(records) == json.dumps(_slice_route(schedule)), name
        # The same schedule read back from its file: built from checked
        # slices onto the lcm of their denominators.
        path = tmp_path / "schedule.json"
        write_json({"slices": records}, path)
        read = Schedule(slices_from_dicts(json.loads(path.read_text())["slices"]))
        assert read == schedule
        assert json.dumps(slices_to_dicts(read)) == json.dumps(_slice_route(read)), name
    assert {"exhaustive", "subset-dp", "time-indexed-dp", "priority", "structured",
            "scripted", "j2-first", "equalizer"} <= names
    assert len(names) == len(FIXED_TIES) * len(Policy) + 8
    # Some engine grids are finer than their times need.
    assert finer > 0


def test_the_writer_builds_no_slices(monkeypatch):
    instance = gen_basic(ScenarioParams(y=WORST_Y, v=WORST_V, delta=Fraction(1, 100)))
    built = []
    check = Slice.__post_init__
    monkeypatch.setattr(Slice, "__post_init__", lambda s: (built.append(s), check(s)))
    online = simulate(instance, tie=TieRule.SCRIPTED)
    records = slices_to_dicts(online)
    assert len(records) == len(online) and records[0]["start"] == "0"
    assert built == []
    assert "slices" not in vars(online)


def _executed_reference(schedule: Schedule, job: int, t: Fraction) -> Fraction:
    return sum(
        (min(s.end, t) - s.start for s in schedule.slices if s.job == job and s.start < t),
        Fraction(0),
    )


def test_executed_matches_the_fraction_reference():
    for instance in _draws():
        for schedule in _engine_schedules(instance):
            bounds = sorted({x for s in schedule.slices for x in (s.start, s.end)})
            mids = [(a + b) / 2 for a, b in zip(bounds, bounds[1:])]
            off = [x + Fraction(1, 997) for x in bounds] + [Fraction(-1), Fraction(1, 10**9)]
            for t in bounds + mids + off:
                for j in instance.jobs:
                    assert schedule.executed(j.id, t) == _executed_reference(schedule, j.id, t)
            assert schedule.executed(-1, schedule.makespan) == 0
