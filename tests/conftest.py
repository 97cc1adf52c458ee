from fractions import Fraction
from functools import cache

from hypothesis import strategies as st

from wsrpt.core import Instance, Job
from wsrpt.instances import NestedParams, ScenarioParams, gen_basic, gen_nested


@st.composite
def small_instances(draw, max_jobs: int = 5):
    """Half-integer instances matching the random generator's value range."""
    n = draw(st.integers(min_value=1, max_value=max_jobs))
    jobs = []
    for i in range(n):
        r = Fraction(draw(st.integers(min_value=0, max_value=6)), 2)
        p = Fraction(draw(st.integers(min_value=1, max_value=6)), 2)
        w = Fraction(draw(st.integers(min_value=1, max_value=6)), 2)
        jobs.append(Job(i, r, p, w))
    return Instance(tuple(jobs))


def interrupts(n: int) -> Instance:
    """A low-ratio long job that n short high-ratio arrivals each preempt,
    so the run has about 2n slices and no ties."""
    short = tuple(Job(i, i, Fraction(1, 2), 4) for i in range(1, n + 1))
    return Instance((Job(0, 0, n, 1),) + short)


def remaining_at(instance: Instance, schedule, t: Fraction) -> dict[int, Fraction]:
    """Each job's unexecuted work at time t, read off the schedule."""
    rem = {j.id: j.processing for j in instance.jobs}
    for s in schedule.slices:
        if s.start < t:
            rem[s.job] -= min(s.end, t) - s.start
    return rem


def decision_instants(instance: Instance, s) -> list[Fraction]:
    """A slice's start and every release strictly inside it."""
    inside = {j.release for j in instance.jobs if s.start < j.release < s.end}
    return [s.start, *sorted(inside)]


def only_json(value) -> bool:
    """Whether ``value`` holds only dicts with str keys, lists and JSON scalars."""
    if type(value) is dict:
        return all(type(key) is str and only_json(item) for key, item in value.items())
    if type(value) is list:
        return all(map(only_json, value))
    return type(value) in (str, int, float, bool, type(None))


#: The sweep benchmark's worst-case point and the nested point's p_s.
SWEEP_Y, SWEEP_V = Fraction("0.8157"), Fraction("0.7066")
SWEEP_P_S = Fraction(30277523, 422353)


@cache
def sweep_points() -> tuple[Instance, ...]:
    """The four instances of the δ-sweep: the basic family at δ = 1/1000,
    1/3000 and 1/10000, and the nested family at δ = 1/1000.  Generated
    once per session and shared, so their own runs are shared too."""
    point = ScenarioParams(y=SWEEP_Y, v=SWEEP_V, delta=Fraction(1, 1000))
    basic = [
        gen_basic(ScenarioParams(y=SWEEP_Y, v=SWEEP_V, delta=Fraction(1, d)))
        for d in (1000, 3000, 10000)
    ]
    nested = NestedParams(outer=point, r_s=Fraction("0.5307"), p_s=SWEEP_P_S, inner=point)
    return (*basic, gen_nested(nested))
