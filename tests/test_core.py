"""Domain types: exact conversion, schedules, and the objective."""

import io
import re
import sys
import time
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from wsrpt.core import (
    Instance,
    Job,
    Schedule,
    Slice,
    objective,
    rational_str,
    to_rational,
)
from wsrpt.instances import ScenarioParams, gen_basic, read_instance, write_instance
from wsrpt.simulator import TieRule, simulate

from conftest import small_instances, sweep_points


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

    @pytest.mark.parametrize("flag", [True, False])
    def test_bool_rejected(self, flag):
        # bool is an int subclass; read as a numeral it would be 1 or 0.
        with pytest.raises(ValueError, match=f"refusing boolean value {flag}"):
            to_rational(flag)

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

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
    )
    def test_only_strings_lift_the_digit_limit(self, monkeypatch):
        # Every Job converts three values; Fractions and ints pass through
        # without touching the limit, and each string or rendering lifts it once.
        calls = []
        lift = sys.set_int_max_str_digits
        monkeypatch.setattr(sys, "set_int_max_str_digits", lambda n: (calls.append(n), lift(n)))
        Job(0, Fraction(1, 3), 2, Fraction(5))
        assert to_rational(7) == 7 and calls == []
        assert to_rational("1/3") == Fraction(1, 3)
        assert rational_str(Fraction(1, 3)) == "1/3"
        assert calls == [0, sys.get_int_max_str_digits()] * 2


    @pytest.mark.parametrize("text", ["1e4301", "1e-4301", "1e100000000", " 2.5E+99_999"])
    def test_exponents_past_the_digit_limit_refused(self, text):
        # Fraction(text) would build 10**|e|: minutes and hundreds of MB at
        # e = 10**8.
        start = time.perf_counter()
        message = f"numeral {text!r} has a decimal exponent beyond +-4300"
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            to_rational(text)
        assert time.perf_counter() - start < 1

    @given(st.text(alphabet="0123456789/-+_.e \u0663", max_size=12))
    @settings(max_examples=500)
    def test_strings_read_as_fraction_reads_them(self, text):
        # An exponent of four or more digits can pass the digit limit: the
        # tests on either side cover those; shorter ones, the same grammar.
        # Underscores and the slash follow Python 3.11's grammar on every
        # version: an underscore between two digits reads as nothing, any
        # other is refused, and so is whitespace beside the slash.
        assume(not re.search(r"e[-+]?[\d_]{4}", text))
        between_digits = all(
            0 < i < len(text) - 1 and text[i - 1].isdecimal() and text[i + 1].isdecimal()
            for i, c in enumerate(text)
            if c == "_"
        )
        try:
            if not between_digits:
                raise ValueError(f"stray underscore in {text!r}")
            if re.search(r"\s/|/\s", text):
                raise ValueError(f"whitespace beside the slash in {text!r}")
            expected = Fraction(text.replace("_", ""))
        except (ValueError, ZeroDivisionError):
            with pytest.raises(ValueError, match="not a rational numeral"):
                to_rational(text)
        else:
            assert to_rational(text) == expected

    @pytest.mark.parametrize(
        "text, value",
        [
            ("-0", Fraction(0)),
            ("007/021", Fraction(1, 3)),
            ("-12/8", Fraction(-3, 2)),
            ("\u0663/4", Fraction(3, 4)),
            (" 5/7 ", Fraction(5, 7)),
            ("1_000", Fraction(1000)),
            ("1_0/2_0", Fraction(1, 2)),
            ("-1_2.5_0e1_0", Fraction(-125 * 10**9)),
            ("1e400", 10**400),
            ("1e-400", Fraction(1, 10**400)),
            # exponents up to the digit limit; leading zeros count no digits
            pytest.param("-2.5E+4300", -25 * 10**4299, id="exponent-4300"),
            pytest.param("1e-04300 ", Fraction(1, 10**4300), id="exponent-minus-4300"),
            pytest.param("1e" + "0" * 100_000 + "5", 10**5, id="exponent-zero-padded"),
        ],
    )
    def test_plain_and_fallback_numerals(self, text, value):
        assert to_rational(text) == value

    @pytest.mark.parametrize(
        "text",
        [
            "1/0", "-5/0", "--1", "1/-2", "1/", "/2", "", "-", "_1", "1__0", "1_", "1_/2", "1e_5",
            "1 / 2", "1 /2", "1/ 2", "1\t/2", " 1 /2 ",
        ],
    )
    def test_malformed_numerals_rejected(self, text):
        with pytest.raises(ValueError, match="not a rational numeral"):
            to_rational(text)


class TestJob:
    def test_ratio(self):
        assert Job(0, 0, 2, 3).ratio == Fraction(3, 2)

    def test_nonpositive_processing_rejected(self):
        with pytest.raises(ValueError):
            Job(0, 0, 0, 1)

    def test_negative_release_rejected(self):
        with pytest.raises(ValueError):
            Job(0, "-1", 1, 1)

    @pytest.mark.parametrize(
        "release, processing, weight, message",
        [
            (0, 0, 1, "job 7: processing must be > 0"),
            (0, -1, 1, "job 7: processing must be > 0"),
            (-1, 1, 1, "job 7: release must be >= 0"),
            (0, 1, -1, "job 7: weight must be >= 0"),
        ],
    )
    @pytest.mark.parametrize(
        "kind", [lambda v: Fraction(v, 3), int, lambda v: f"{v}/3"], ids=["Fraction", "int", "str"]
    )
    def test_each_refusal_for_every_input_type(self, release, processing, weight, message, kind):
        with pytest.raises(ValueError) as err:
            Job(7, kind(release), kind(processing), kind(weight))
        assert str(err.value) == message

    @pytest.mark.parametrize("zero", [Fraction(0), 0, "0", "0/5", "-0"])
    def test_zero_release_and_zero_weight_accepted(self, zero):
        j = Job(0, zero, 1, zero)
        assert (j.release, j.weight) == (0, 0)

    @pytest.mark.parametrize("job_id", [1.5, 1.0, True, "0", None])
    def test_non_int_id_rejected(self, job_id):
        message = f"job id must be an int, not {job_id!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Job(job_id, 0, 1, 1)

    def test_string_fields_converted_exactly(self):
        j = Job(0, "0.5", "1/3", "0.25")
        assert (j.release, j.processing, j.weight) == (
            Fraction(1, 2),
            Fraction(1, 3),
            Fraction(1, 4),
        )


_TWO_JOBS = (Job(0, 0, 1, 1), Job(1, 0, 1, 1))

#: Faulty ``Instance(jobs, tie_script)`` arguments and the error each
#: raises: the ids are checked before the script, whose entries are read in
#: order, each time before its choice.
_BAD_CONSTRUCTIONS = [
    ("duplicate-ids-before-float-time",
     (Job(0, 0, 1, 1), Job(0, 0, 2, 1)), ((0.5, 0),), "job ids must be unique"),
    ("no-jobs-before-bad-script", (), ((0.5, True),), "instance must contain at least one job"),
    ("float-time", _TWO_JOBS, ((0, 0), (0.5, 1)),
     "refusing inexact value 0.5; pass a string or Fraction"),
    ("bool-choice", _TWO_JOBS, ((0, True),), "tie-script choice must be an int, not True"),
    ("str-choice", _TWO_JOBS, ((0, "1"),), "tie-script choice must be an int, not '1'"),
    ("time-before-its-choice", _TWO_JOBS, ((0.5, True),),
     "refusing inexact value 0.5; pass a string or Fraction"),
    ("choice-before-a-later-time", _TWO_JOBS, ((0, True), (0.5, 0)),
     "tie-script choice must be an int, not True"),
]


class TestInstance:
    @pytest.mark.parametrize(
        "jobs, script, message", [case[1:] for case in _BAD_CONSTRUCTIONS],
        ids=[case[0] for case in _BAD_CONSTRUCTIONS],
    )
    def test_construction_errors_come_in_order(self, jobs, script, message):
        with pytest.raises(ValueError) as err:
            Instance(jobs, tie_script=script)
        assert str(err.value) == message

    def test_each_distinct_time_is_one_int(self):
        # Times past the small-int cache: jobs and script share one object per value.
        inst = Instance(
            (Job(0, 1000, 1000, 1), Job(1, 1000, 2000, 1)), tie_script=((1000, 0), (2000, 1))
        )
        (r0, r1), (p0, p1) = inst._grid.releases, inst._grid.procs
        assert r0 is r1 is p0 is inst._script.times[0]
        assert p1 is inst._script.times[1]

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ValueError):
            Instance((Job(0, 0, 1, 1), Job(0, 0, 2, 1)))

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Instance(())

    @pytest.mark.parametrize("choice", [0.7, 1.0, True, "1"])
    def test_non_int_tie_choice_rejected(self, choice):
        jobs = (Job(0, 0, 1, 1), Job(1, 0, 1, 1))
        message = f"tie-script choice must be an int, not {choice!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Instance(jobs, tie_script=((0, choice),))

    def test_immutable(self):
        inst = Instance((Job(0, 0, 1, 1),))
        with pytest.raises(FrozenInstanceError):
            inst.jobs = ()
        with pytest.raises(FrozenInstanceError):
            del inst.tags

    def test_instances_with_dict_tags_hash(self):
        # Generated, read and constructed instances all carry a dict of
        # tags; the hash leaves it out, and equal instances hash equal.
        made = gen_basic(ScenarioParams(Fraction(1, 2), Fraction(3, 10), delta=Fraction(1, 20)))
        text = io.StringIO()
        write_instance(made, text)
        read = read_instance(io.StringIO(text.getvalue()))
        built = Instance(made.jobs, tie_script=made.tie_script, tags=dict(made.tags))
        assert isinstance(made.tags, dict) and made.tags
        assert made == read == built
        assert hash(made) == hash(read) == hash(built)
        plain = Instance((Job(0, 0, 1, 1), Job(1, 1, 2, 1)))
        assert hash(plain) == hash(Instance(plain.jobs, tags={"kind": "other"}))
        assert hash(plain) != hash(Instance(plain.jobs, tie_script=((1, 1),)))

    def test_job_lookup(self):
        inst = Instance((Job(0, 0, 1, 1), Job(5, 1, 2, 1)))
        assert inst.job(5).release == 1
        with pytest.raises(KeyError):
            inst.job(3)


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

    @pytest.mark.parametrize("job", [1.9, 1.0, True])
    def test_non_int_slice_job_rejected(self, job):
        message = f"slice job must be an int, not {job!r}"
        with pytest.raises(ValueError, match=re.escape(message)):
            Slice(job, 0, 1)

    @pytest.mark.parametrize(
        "slices, message",
        [
            ((), "schedule has no slices"),
            (((5, 0, 1),), "slice references unknown job 5"),
            (((0, 0, 1), (1, Fraction(1, 2), Fraction(3, 2))), "overlapping slices at 1/2"),
            (((1, 0, 1), (0, 1, 2)), "job 1 runs before its release"),
            (((0, 0, Fraction(2, 3)), (1, 1, 2)), "job 0 executes 2/3 of 1"),
            (((0, 0, 1),), "job 1 executes 0 of 1"),
        ],
    )
    def test_validate_error_texts(self, slices, message):
        inst = Instance((Job(0, 0, 1, 1), Job(1, Fraction(1, 3), 1, 1)))
        sched = Schedule(Slice(*s) for s in slices)
        with pytest.raises(ValueError) as err:
            sched.validate(inst)
        assert str(err.value) == message

    @given(
        small_instances(),
        st.lists(
            st.tuples(
                st.sampled_from(["start", "end", "drop", "relabel"]),
                st.integers(min_value=0, max_value=20),
                st.sampled_from([Fraction(-1, 3), Fraction(-1, 7), Fraction(1, 5), Fraction(1, 2)]),
            ),
            max_size=2,
        ),
    )
    @settings(max_examples=200, deadline=None)
    def test_validate_matches_the_fraction_reference(self, instance, edits):
        slices = list(simulate(instance).slices)
        for kind, i, d in edits:
            if not slices:
                break
            i %= len(slices)
            s = slices[i]
            if kind == "drop":
                del slices[i]
            elif kind == "relabel":
                slices[i] = Slice(s.job + int(d * 10), s.start, s.end)
            elif kind == "start" and s.start + d < s.end:
                slices[i] = Slice(s.job, s.start + d, s.end)
            elif kind == "end" and s.start < s.end + d:
                slices[i] = Slice(s.job, s.start, s.end + d)
        sched = Schedule(slices)
        expected = reference_validate(sched, instance)
        if expected is None:
            sched.validate(instance)
        else:
            with pytest.raises(ValueError) as err:
                sched.validate(instance)
            assert str(err.value) == expected

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


def reference_validate(schedule, instance):
    """``Schedule.validate`` on Fractions: its error text, or None."""
    if not schedule.slices:
        return "schedule has no slices"
    jobs = {j.id: j for j in instance.jobs}
    prev_end = None
    total = {jid: Fraction(0) for jid in jobs}
    for s in schedule.slices:
        if s.job not in jobs:
            return f"slice references unknown job {s.job}"
        if prev_end is not None and s.start < prev_end:
            return f"overlapping slices at {s.start}"
        if s.start < jobs[s.job].release:
            return f"job {s.job} runs before its release"
        total[s.job] += s.length
        prev_end = s.end
    for jid, job in jobs.items():
        if total[jid] != job.processing:
            return f"job {jid} executes {total[jid]} of {job.processing}"
    return None


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


def reference_objective(schedule, instance):
    """``objective`` as a tree of Fractions: per weight denominator d, the
    int sum of numerator * end, then those Fractions added pairwise in a
    balanced tree and the sum divided by the schedule's grid."""
    ends = schedule._ends
    grid = instance._grid
    grouped = {}
    for i, (num, d) in zip(grid.ids, grid.weights):
        grouped[d] = grouped.get(d, 0) + num * ends[i]
    terms = [Fraction(total, d) for d, total in grouped.items()]
    while len(terms) > 1:
        pairs = [a + b for a, b in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            pairs.append(terms[-1])
        terms = pairs
    return terms[0] / schedule._den


@st.composite
def _weighted_instances(draw):
    """Times in halves and thirds, weights over up to seven denominators,
    zero weights included, so the objective's tree has 1 to 7 leaves."""
    n = draw(st.integers(min_value=1, max_value=8))
    dens = draw(st.lists(st.integers(min_value=1, max_value=60), min_size=1, max_size=7))

    def value(low, high, denominators):
        return Fraction(
            draw(st.integers(min_value=low, max_value=high)), draw(st.sampled_from(denominators))
        )

    return Instance(tuple(
        Job(i, value(0, 9, (2, 3)), value(1, 9, (2, 3)), value(0, 10**12, dens)) for i in range(n)
    ))


class TestObjectiveTree:
    """``objective`` adds reduced int pairs where its reference adds Fractions."""

    @staticmethod
    def _check(schedule, instance):
        value = objective(schedule, instance)
        assert type(value) is Fraction and value == reference_objective(schedule, instance)

    @given(_weighted_instances())
    @settings(max_examples=150, deadline=None)
    def test_matches_the_fraction_tree(self, instance):
        self._check(simulate(instance), instance)

    @pytest.mark.parametrize(
        "weights",
        [(0, 0, 0), (Fraction(1, 7), Fraction(3, 7), Fraction(5, 7)),
         (1, Fraction(1, 2), Fraction(1, 3)), (0, Fraction(2, 5), 0, Fraction(1, 5)),
         (Fraction(1, 2), Fraction(1, 3), Fraction(1, 5), Fraction(1, 7), Fraction(1, 11))],
        ids=["zero-weights", "one-group", "three-groups", "zeros-and-one-group", "five-groups"],
    )
    def test_edge_groupings(self, weights):
        instance = Instance(tuple(Job(k, k, 2, w) for k, w in enumerate(weights)))
        self._check(simulate(instance), instance)

    def test_sweep_points(self):
        for instance in sweep_points():
            self._check(simulate(instance, tie=TieRule.SCRIPTED), instance)
