"""Domain types: exact conversion, schedules, and the objective."""

import sys
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wsrpt.core import (
    Instance,
    Job,
    Schedule,
    Slice,
    merge_slices,
    normalize_releases,
    objective,
    rational_str,
    smith_ratio,
    to_rational,
)

from conftest import small_instances


class TestToRational:
    def test_decimal_string(self):
        assert to_rational("0.8157") == Fraction(8157, 10000)

    def test_fraction_string(self):
        assert to_rational("5307/10000") == Fraction(5307, 10000)

    def test_scientific_string(self):
        assert to_rational("1e-3") == Fraction(1, 1000)

    def test_int_and_fraction_pass_through(self):
        assert to_rational(3) == Fraction(3)
        assert to_rational(Fraction(2, 7)) == Fraction(2, 7)

    def test_float_rejected(self):
        with pytest.raises(ValueError):
            to_rational(0.1)

    def test_garbage_rejected(self):
        with pytest.raises(ValueError):
            to_rational("not-a-number")

    @given(
        st.integers(min_value=-10**9, max_value=10**9),
        st.integers(min_value=1, max_value=10**9),
    )
    def test_rational_str_round_trips(self, num, den):
        x = Fraction(num, den)
        assert to_rational(rational_str(x)) == x

    def test_values_past_the_int_str_digit_limit_round_trip(self):
        # Over 5,000 digits each way, past CPython's default limit of 4,300;
        # the limit in force is back in place after both conversions.
        x = Fraction(10**5000 + 7, 3**11000)
        limit = getattr(sys, "get_int_max_str_digits", lambda: None)
        before = limit()
        text = rational_str(x)
        assert len(text) > 10_000
        assert to_rational(text) == x
        assert limit() == before


class TestJob:
    def test_ratio(self):
        assert Job(0, 0, 2, 3).ratio == Fraction(3, 2)

    def test_nonpositive_processing_rejected(self):
        with pytest.raises(ValueError):
            Job(0, 0, 0, 1)

    def test_negative_release_rejected(self):
        with pytest.raises(ValueError):
            Job(0, "-1", 1, 1)

    def test_string_fields_converted_exactly(self):
        j = Job(0, "0.5", "1/3", "0.25")
        assert (j.release, j.processing, j.weight) == (
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(1, 4),
        )


class TestSmithRatio:
    def test_fresh_job(self):
        assert smith_ratio(Job(0, 0, 1, 1), Fraction(1)) == 1

    def test_long_job_partway(self):
        # weight 1, remaining 1 - 0.5307
        r = smith_ratio(Job(0, 0, 1, 1), Fraction(4693, 10000))
        assert r == Fraction(10000, 4693)
        assert abs(float(r) - 2.1308) < 2e-4

    def test_equality_weight_formula(self):
        # w = delta/(1-r) and remaining = delta tie at 1/(1-r)
        delta, rel = Fraction(1, 100), Fraction(3, 10)
        j = Job(0, rel, delta, delta / (1 - rel))
        assert smith_ratio(j, delta) == 1 / (1 - rel)

    def test_exhausted_job_rejected(self):
        with pytest.raises(ValueError):
            smith_ratio(Job(0, 0, 1, 1), Fraction(0))


class TestInstance:
    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Instance((Job(0, 0, 1, 1), Job(0, 0, 2, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Instance(())

    def test_job_lookup(self):
        inst = Instance((Job(0, 0, 1, 1), Job(5, 1, 2, 1)))
        assert inst.job(5).release == 1
        with pytest.raises(KeyError):
            inst.job(3)


class TestNormalizeReleases:
    def test_identity_when_zero_present(self):
        inst = Instance((Job(0, 0, 1, 1), Job(1, 2, 1, 1)))
        assert normalize_releases(inst) is inst

    def test_uniform_shift(self):
        inst = Instance((Job(0, 2, 1, 1), Job(1, 3, 1, 1)))
        shifted = normalize_releases(inst)
        assert [j.release for j in shifted.jobs] == [0, 1]

    def test_single_late_release(self):
        inst = Instance((Job(0, Fraction(1, 2), 1, 1),))
        assert normalize_releases(inst).jobs[0].release == 0


class TestSchedule:
    def test_single_job_objective(self):
        inst = Instance((Job(0, 0, 1, 1),))
        sched = Schedule((Slice(0, Fraction(0), Fraction(1)),))
        sched.validate(inst)
        assert objective(sched, inst) == 1

    def test_two_jobs_id_order(self):
        inst = Instance((Job(0, 0, 1, 1), Job(1, 0, 2, 2)))
        sched = Schedule(
            (Slice(0, Fraction(0), Fraction(1)), Slice(1, Fraction(1), Fraction(3)))
        )
        sched.validate(inst)
        assert objective(sched, inst) == 7

    def test_completion_and_remaining(self):
        inst = Instance((Job(0, 0, 2, 1), Job(1, 1, 1, 9)))
        sched = Schedule(
            (
                Slice(0, Fraction(0), Fraction(1)),
                Slice(1, Fraction(1), Fraction(2)),
                Slice(0, Fraction(2), Fraction(3)),
            )
        )
        sched.validate(inst)
        assert sched.completion(1) == 2
        assert sched.completion(0) == 3
        assert sched.executed(0, Fraction(2)) == 1
        assert sched.remaining(inst.job(0), Fraction(2)) == 1

    def test_validate_rejects_overlap(self):
        inst = Instance((Job(0, 0, 1, 1), Job(1, 0, 1, 1)))
        bad = Schedule(
            (
                Slice(0, Fraction(0), Fraction(1)),
                Slice(1, Fraction(1, 2), Fraction(3, 2)),
            )
        )
        with pytest.raises(ValueError):
            bad.validate(inst)

    def test_validate_rejects_early_start(self):
        inst = Instance((Job(0, 1, 1, 1),))
        bad = Schedule((Slice(0, Fraction(0), Fraction(1)),))
        with pytest.raises(ValueError):
            bad.validate(inst)

    def test_validate_rejects_wrong_total(self):
        inst = Instance((Job(0, 0, 2, 1),))
        bad = Schedule((Slice(0, Fraction(0), Fraction(1)),))
        with pytest.raises(ValueError):
            bad.validate(inst)


def test_merge_slices_joins_adjacent_same_job():
    merged = merge_slices(
        [
            Slice(0, Fraction(0), Fraction(1)),
            Slice(0, Fraction(1), Fraction(2)),
            Slice(1, Fraction(2), Fraction(3)),
        ]
    )
    assert merged == [
        Slice(0, Fraction(0), Fraction(2)),
        Slice(1, Fraction(2), Fraction(3)),
    ]


@given(small_instances())
def test_objective_invariant_under_job_permutation(instance):
    from wsrpt.simulator import simulate

    sched = simulate(instance)
    value = objective(sched, instance)
    permuted = Instance(tuple(reversed(instance.jobs)))
    assert objective(sched, permuted) == value


@given(small_instances())
def test_objective_dominates_release_plus_processing(instance):
    from wsrpt.simulator import simulate

    sched = simulate(instance)
    lower = sum(j.weight * (j.release + j.processing) for j in instance.jobs)
    assert objective(sched, instance) >= lower
