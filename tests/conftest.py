from fractions import Fraction

from hypothesis import strategies as st

from wsrpt.core import Instance, Job


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
