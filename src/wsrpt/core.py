"""Domain types and exact numerics shared by the whole package.

Times and weights are arbitrary-precision rationals (`fractions.Fraction`)
end-to-end in simulation and oracle code: the constructed instances tie
Smith ratios *exactly* at every release, and floats would silently break
those ties.  A schedule keeps its runs as ints on one time grid, so its
objective and feasibility check are integer sums with few Fraction steps.
The event engine's rank puts a ratio's correctly rounded float in front
of its exact pair, but never decides an order or a tie on the float
alone.  Otherwise floating point is reserved for the analysis module,
which works with closed forms and quadrature under stated tolerances.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from dataclasses import dataclass, field
from functools import cached_property
from fractions import Fraction
from math import lcm
from typing import Iterable, Mapping, Union

Rational = Union[Fraction, int, str]


@contextmanager
def _without_digit_limit():
    """CPython's int/str digit limit (4,300) lifted for a block or, as
    ``@_without_digit_limit()``, a call: exact objectives over thousands of
    jobs outgrow it.  Helpers called inside one leave the limit alone."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def to_rational(value: Rational) -> Fraction:
    """Convert ``value`` to an exact Fraction.

    Accepts Fractions, ints, and strings in decimal ("0.8157") or
    "num/den" ("5307/10000") form.  Binary floats are rejected: their
    exact values are almost never what the caller meant.  So are bools,
    which ``int`` would otherwise let through as 0 and 1.
    """
    if isinstance(value, Fraction):
        return value
    if isinstance(value, bool):
        raise ValueError(f"refusing boolean value {value!r}; pass a number")
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, str):
        with _without_digit_limit():
            return _parse_rational(value)
    raise ValueError(f"refusing inexact value {value!r}; pass a string or Fraction")


#: Largest decimal exponent magnitude a numeral may carry: CPython's
#: default int/str digit limit.  The lifted limit admits the digits a
#: document holds, but ``1e100000000`` would build 10**100000000.
MAX_EXPONENT = 4300

#: A numeral's trailing decimal exponent: every one ``Fraction`` reads, and more.
_EXPONENT = re.compile(r"e[-+]?(\d+)\s*\Z", re.IGNORECASE)

#: An underscore that does not sit between two digits.
_STRAY_UNDERSCORE = re.compile(r"(?<!\d)_|_(?!\d)")


def _parse_rational(text: str) -> Fraction:
    """The string branch of ``to_rational``, under a digit limit lifted by the caller.

    Underscores and the slash follow Python 3.11's numeral grammar on every
    version: an underscore between two digits reads as nothing, any other
    is refused, and so is whitespace on either side of the slash (3.12's
    ``Fraction`` reads "1 / 2").  A plain
    ASCII "[-]digits[/digits]" numeral, the form ``rational_str`` writes, is
    read with ``int``; anything else goes to ``Fraction``, once its
    exponent's digits are counted against MAX_EXPONENT.
    """
    try:
        numeral = text.replace("_", "")
        if numeral != text and _STRAY_UNDERSCORE.search(text):
            raise ValueError("underscore not between two digits")
        num, slash, den = numeral.partition("/")
        digits = num[1:] if num[:1] == "-" else num
        if numeral.isascii() and digits.isdigit() and (den.isdigit() or not slash):
            return Fraction(int(num), int(den)) if slash else Fraction(int(num))
        if slash and (num[-1:].isspace() or den[:1].isspace()):
            raise ValueError("whitespace beside the slash")
        exponent = _EXPONENT.search(numeral)
        magnitude = exponent[1].lstrip("0") if exponent else ""
        if len(magnitude) <= len(str(MAX_EXPONENT)) and int(magnitude or 0) <= MAX_EXPONENT:
            return Fraction(numeral)
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational numeral: {text!r}") from exc
    raise ValueError(f"numeral {text!r} has a decimal exponent beyond +-{MAX_EXPONENT}")


@_without_digit_limit()
def rational_str(value: Fraction) -> str:
    """Render a Fraction as "num/den" (or plain "num" for integers)."""
    return _rational_str(value)


def _rational_str(value: Fraction) -> str:
    if value.denominator == 1:
        return str(value.numerator)
    return f"{value.numerator}/{value.denominator}"


def _job_id(value, what: str) -> int:
    """``value``, refused unless it is an int; a bool or numeral is not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int, not {value!r}")
    return value


@dataclass(frozen=True)
class Job:
    """One job: release date r, processing time p, weight w."""

    id: int
    release: Fraction
    processing: Fraction
    weight: Fraction

    def __post_init__(self):
        _job_id(self.id, "job id")
        object.__setattr__(self, "release", to_rational(self.release))
        object.__setattr__(self, "processing", to_rational(self.processing))
        object.__setattr__(self, "weight", to_rational(self.weight))
        # A Fraction's denominator is positive, so its numerator carries the sign.
        if self.processing.numerator <= 0:
            raise ValueError(f"job {self.id}: processing must be > 0")
        if self.release.numerator < 0:
            raise ValueError(f"job {self.id}: release must be >= 0")
        if self.weight.numerator < 0:
            raise ValueError(f"job {self.id}: weight must be >= 0")

    @property
    def ratio(self) -> Fraction:
        """Static weight-over-processing ratio w/p (never updated)."""
        return self.weight / self.processing


@dataclass(frozen=True)
class Instance:
    """An ordered collection of jobs with unique ids.

    ``tie_script`` optionally names the tie winner at given event times
    (see simulator.TieScript); ``tags`` carries generator metadata such as
    snapped parameter values.
    """

    jobs: tuple[Job, ...]
    tie_script: tuple[tuple[Fraction, int], ...] | None = None
    tags: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "jobs", tuple(self.jobs))
        if not self.jobs:
            raise ValueError("instance must contain at least one job")
        ids = [j.id for j in self.jobs]
        if len(set(ids)) != len(ids):
            raise ValueError("job ids must be unique")
        if self.tie_script is not None:
            script = tuple(
                (to_rational(t), _job_id(choice, "tie-script choice"))
                for t, choice in self.tie_script
            )
            object.__setattr__(self, "tie_script", script)

    def job(self, job_id: int) -> Job:
        for j in self.jobs:
            if j.id == job_id:
                return j
        raise KeyError(f"no job with id {job_id}")


@dataclass(frozen=True)
class Slice:
    """A maximal interval [start, end) during which one job executes."""

    job: int
    start: Fraction
    end: Fraction

    def __post_init__(self):
        _job_id(self.job, "slice job")
        object.__setattr__(self, "start", to_rational(self.start))
        object.__setattr__(self, "end", to_rational(self.end))
        if self.start >= self.end:
            raise ValueError(f"slice for job {self.job}: start must precede end")

    @property
    def length(self) -> Fraction:
        return self.end - self.start


class Schedule:
    """Ordered, disjoint execution runs ``(job id, start, end)`` on one machine.

    Run times are ints in units of 1/den.  ``Schedule(slices)`` scales
    checked slices onto the lcm of their denominators; the event engine
    hands its runs over as they are through ``_on_grid``.  ``slices`` is
    built on first access.  Equality and hashing compare slices: an engine
    grid may be finer than its times need, so ``(runs, den)`` is not canonical.
    """

    def __init__(self, slices: Iterable[Slice]):
        self.slices = slices = tuple(slices)
        self._den = den = lcm(*(x.denominator for s in slices for x in (s.start, s.end)))
        self._runs = [(s.job, _scaled(s.start, den), _scaled(s.end, den)) for s in slices]

    @classmethod
    def _on_grid(cls, runs: list[tuple[int, int, int]], den: int) -> Schedule:
        """The schedule of runs ``(job id, start, end)`` in units of 1/den, taken as they are."""
        schedule = cls.__new__(cls)
        schedule._runs, schedule._den = runs, den
        return schedule

    def _timed(self, convert) -> list[tuple]:
        """The runs as ``(job, convert(start), convert(end))``, with ``convert``
        applied once per distinct time, to its Fraction."""
        times = dict.fromkeys(t for run in self._runs for t in run[1:])
        at = {t: convert(Fraction(t, self._den)) for t in times}
        return [(job, at[start], at[end]) for job, start, end in self._runs]

    @cached_property
    def slices(self) -> tuple[Slice, ...]:
        """The runs as slices, one Fraction per distinct time."""
        return tuple(Slice(*run) for run in self._timed(to_rational))

    @cached_property
    def _ends(self) -> dict[int, int]:
        """Each job's end of its last run, on the grid."""
        return {job: end for job, _, end in self._runs}

    def completion(self, job_id: int) -> Fraction:
        """End of the job's last slice."""
        try:
            return Fraction(self._ends[job_id], self._den)
        except KeyError:
            raise KeyError(f"job {job_id} never executes in this schedule") from None

    def completions(self) -> dict[int, Fraction]:
        return {job: Fraction(end, self._den) for job, end in self._ends.items()}

    def executed(self, job_id: int, t: Fraction) -> Fraction:
        """Work done on the job strictly before time t."""
        t = to_rational(t)
        # On the grid t is n/d: compare and sum in units of 1/(den·d).
        n, d = t.numerator * self._den, t.denominator
        done = 0
        for job, start, end in self._runs:
            if job == job_id and start * d < n:
                done += min(end * d, n) - start * d
        return Fraction(done, self._den * d)

    @property
    def makespan(self) -> Fraction:
        return Fraction(max(end for _, _, end in self._runs), self._den)

    def __len__(self) -> int:
        return len(self._runs)

    def __iter__(self):
        return iter(self.slices)

    def __eq__(self, other):
        return isinstance(other, Schedule) and self.slices == other.slices

    def __hash__(self):
        return hash(self.slices)

    def validate(self, instance: Instance) -> None:
        """Check feasibility against an instance; raise ValueError if broken.

        Slices must be sorted and disjoint, start at or after the job's
        release, and each job's slice lengths must sum to exactly its
        processing time.
        """
        if not self._runs:
            raise ValueError("schedule has no slices")
        # Compare on the grid of lcm(den, the instance's time denominators);
        # the error texts show the unscaled Fractions.
        den = lcm(
            self._den,
            *(x.denominator for j in instance.jobs for x in (j.release, j.processing)),
        )
        m = den // self._den
        release = {j.id: _scaled(j.release, den) for j in instance.jobs}
        total = dict.fromkeys(release, 0)
        prev_end: int | None = None
        for job, start, end in self._runs:
            if job not in release:
                raise ValueError(f"slice references unknown job {job}")
            start *= m
            if prev_end is not None and start < prev_end:
                raise ValueError(f"overlapping slices at {Fraction(start, den)}")
            if start < release[job]:
                raise ValueError(f"job {job} runs before its release")
            prev_end = end * m
            total[job] += prev_end - start
        for j in instance.jobs:
            if total[j.id] != _scaled(j.processing, den):
                raise ValueError(
                    f"job {j.id} executes {Fraction(total[j.id], den)} of {j.processing}"
                )


def _scaled(x: Fraction, den: int) -> int:
    """``x`` in units of 1/den; ``den`` must be a multiple of its denominator."""
    return x.numerator * (den // x.denominator)


def objective(schedule: Schedule, instance: Instance) -> Fraction:
    """Total weighted completion time Σ w_j·C_j, exact."""
    ends = schedule._ends
    inst_jobs = {j.id for j in instance.jobs}
    if ends.keys() != inst_jobs:
        raise ValueError(
            f"schedule covers jobs {sorted(ends)} but instance has {sorted(inst_jobs)}"
        )
    # Weights sharing a denominator d add w.numerator·end as ints.  The few
    # per-d Fractions add in a balanced tree, whose partial sums keep small
    # denominators until the last levels; one division by den ends it.
    grouped: dict[int, int] = {}
    for j in instance.jobs:
        w = j.weight
        grouped[w.denominator] = grouped.get(w.denominator, 0) + w.numerator * ends[j.id]
    terms = [Fraction(total, d) for d, total in grouped.items()]
    while len(terms) > 1:
        pairs = [a + b for a, b in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            pairs.append(terms[-1])
        terms = pairs
    return terms[0] / schedule._den

