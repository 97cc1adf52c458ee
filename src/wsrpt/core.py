"""Domain types and exact numerics shared by the whole package.

Times and weights are exact rationals: the constructed instances tie
Smith ratios *exactly* at every release, and floats would silently break
those ties.  Every instance, however it is built, keeps its releases and
processing times as ints on one time grid and each weight as its reduced
integer pair, and a schedule keeps its runs as ints on one time grid, so
the event engine, the oracles, the objective and the feasibility check
work on ints.  The ``Fraction`` views (``Instance.jobs``,
``Instance.tie_script``, ``Schedule.slices``) are derived from the grids,
never the other way round, and built only when they are read.  The event
engine's rank puts a ratio's correctly rounded float in front of its
exact pair, but never decides an order or a tie on the float alone.
Otherwise floating point is reserved for the analysis module, which
works with closed forms and quadrature under stated tolerances.
"""

from __future__ import annotations

import re
import sys
from contextlib import contextmanager
from dataclasses import FrozenInstanceError, dataclass
from functools import cached_property
from fractions import Fraction
from itertools import chain, islice
from math import gcd, lcm
from operator import lt
from typing import Iterable, Mapping, NamedTuple, Union

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
            return Fraction(*_parse_pair(value))
    raise ValueError(f"refusing inexact value {value!r}; pass a string or Fraction")


#: Largest decimal exponent magnitude a numeral may carry: CPython's
#: default int/str digit limit.  The lifted limit admits the digits a
#: document holds, but ``1e100000000`` would build 10**100000000.
MAX_EXPONENT = 4300

#: A numeral's trailing decimal exponent: every one ``Fraction`` reads, and more.
_EXPONENT = re.compile(r"e[-+]?(\d+)\s*\Z", re.IGNORECASE)

#: An underscore that does not sit between two digits.
_STRAY_UNDERSCORE = re.compile(r"(?<!\d)_|_(?!\d)")


def _parse_pair(text: str) -> tuple[int, int]:
    """The string branch of ``to_rational`` as the value's reduced
    (numerator, denominator) pair, under a digit limit lifted by the caller.

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
            if not slash:
                return int(num), 1
            d = int(den)
            if not d:
                raise ZeroDivisionError("zero denominator")
            return _reduced(int(num), d)
        if slash and (num[-1:].isspace() or den[:1].isspace()):
            raise ValueError("whitespace beside the slash")
        exponent = _EXPONENT.search(numeral)
        magnitude = exponent[1].lstrip("0") if exponent else ""
        if len(magnitude) <= len(str(MAX_EXPONENT)) and int(magnitude or 0) <= MAX_EXPONENT:
            value = Fraction(numeral)
            return value.numerator, value.denominator
    except (ValueError, ZeroDivisionError) as exc:
        raise ValueError(f"not a rational numeral: {text!r}") from exc
    raise ValueError(f"numeral {text!r} has a decimal exponent beyond +-{MAX_EXPONENT}")


@_without_digit_limit()
def rational_str(value: Fraction) -> str:
    """Render a Fraction as "num/den" (or plain "num" for integers)."""
    return _rational_str(value)


def _rational_str(value: Fraction) -> str:
    return _pair_str(value.numerator, value.denominator)


def _reduced(num: int, den: int) -> tuple[int, int]:
    """num/den in lowest terms, for den > 0."""
    g = gcd(num, den)
    return num // g, den // g


def _pair_str(num: int, den: int) -> str:
    """The reduced pair num/den as ``rational_str`` renders its Fraction."""
    if den == 1:
        return str(num)
    return f"{num}/{den}"


def _job_id(value, what: str) -> int:
    """``value``, refused unless it is an int; a bool or numeral is not coerced."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{what} must be an int, not {value!r}")
    return value


def _check_job(job_id: int, release: int, processing: int, weight: int) -> None:
    """A job's sign checks, on the numerators of its reduced values (a
    denominator is positive, so the numerator carries the sign)."""
    if processing <= 0:
        raise ValueError(f"job {job_id}: processing must be > 0")
    if release < 0:
        raise ValueError(f"job {job_id}: release must be >= 0")
    if weight < 0:
        raise ValueError(f"job {job_id}: weight must be >= 0")


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
        _check_job(
            self.id, self.release.numerator, self.processing.numerator, self.weight.numerator
        )

    @property
    def ratio(self) -> Fraction:
        """Static weight-over-processing ratio w/p (never updated)."""
        return self.weight / self.processing


class _Timeline(NamedTuple):
    """Jobs on an integer time grid: job k has id ``ids[k]``, release
    ``releases[k]`` and processing time ``procs[k]`` in units of 1/den_t,
    and weight ``weights[k]`` as its reduced (numerator, denominator) pair.

    ``den_t`` is the lcm of the release and processing denominators.
    """

    ids: list[int]
    releases: list[int]
    procs: list[int]
    den_t: int
    weights: list[tuple[int, int]]


class _GridScript(NamedTuple):
    """A tie script on its instance's time grid, in script order: entry i
    names job ``choices[i]`` at ``times[i]``, an int in units of 1/den_t.

    A time off that grid stays its Fraction, kept aside in its place: it is
    written back as it came and matches no event.
    """

    times: list[int | Fraction]
    choices: list[int]


def _grid_table(pairs: Iterable[tuple[int, int]], den_t: int) -> dict:
    """Each distinct time of ``pairs``, reduced (numerator, denominator)
    pairs, in units of 1/den_t: one int per value, shared by every holder,
    or the time's Fraction where its denominator does not divide den_t."""
    return {
        (n, d): n * (den_t // d) if den_t % d == 0 else Fraction(n, d) for n, d in set(pairs)
    }


def _pair(value: Rational) -> tuple[int, int]:
    """``value`` made exact, as its reduced (numerator, denominator) pair."""
    value = to_rational(value)
    return value.numerator, value.denominator


def _script_on_grid(
    times: list[tuple[int, int]], choices: list[int], den_t: int, on_grid: dict | None = None
) -> _GridScript:
    """A script's times, reduced pairs, and its choices on the grid of
    1/den_t.  ``on_grid`` is a ``_grid_table`` that holds every script
    time; without it the script gets a table of its own."""
    if on_grid is None:
        on_grid = _grid_table(times, den_t)
    return _GridScript([on_grid[t] for t in times], choices)


def _grid_of(ids, releases, procs, weights, script=None) -> tuple[_Timeline, _GridScript | None]:
    """Checked jobs, columns of ids and of reduced (numerator, denominator)
    pairs, and an iterable tie script of ``(time pair, choice)``, on their
    integer grid.

    The ids are checked first, then each script entry is read and its
    choice checked, in script order.  ``den_t`` is the lcm of the release
    and processing denominators; each distinct time is one int, shared by
    every job and script entry that holds it.
    """
    if not ids:
        raise ValueError("instance must contain at least one job")
    if len(set(ids)) != len(ids):
        raise ValueError("job ids must be unique")
    times, choices = [], []
    for t, choice in script or ():
        times.append(t)
        choices.append(_job_id(choice, "tie-script choice"))
    den_t = lcm(*{d for _, d in chain(releases, procs)})
    on_grid = _grid_table(chain(releases, procs, times), den_t)
    grid = _Timeline(
        ids, [on_grid[r] for r in releases], [on_grid[p] for p in procs], den_t, weights
    )
    return grid, None if script is None else _script_on_grid(times, choices, den_t, on_grid)


class Instance:
    """An ordered collection of jobs with unique ids.

    ``tie_script`` optionally names the tie winner at given event times
    (see ``simulator.simulate``); ``tags`` carries generator metadata such as
    snapped parameter values.

    The jobs live on their integer grid, a ``_Timeline`` in instance
    order, and the tie script on the same grid, a ``_GridScript``; the grid
    is the instance's one truth.  ``Instance(jobs, tie_script)`` and the
    reader put checked values on it at construction through ``_grid_of``,
    and the generators build their grid directly through ``_on_grid``.
    ``jobs``, ``tie_script`` and ``_by_id`` are views built from the grid on
    first access, one Fraction per distinct value; ``Instance(jobs)`` keeps
    the jobs it was given as its ``jobs``.  The simulator keeps WSRPT's run
    under the instance's own tie rule with it (``simulator._own_run``).
    Equality compares jobs, tie script and tags.  Instances are immutable.
    """

    def __init__(
        self,
        jobs: Iterable[Job],
        tie_script: Iterable[tuple[Rational, int]] | None = None,
        tags: Mapping[str, object] | None = None,
    ):
        jobs = tuple(jobs)
        if tie_script is not None:  # read lazily: the ids are checked before any time
            tie_script = ((_pair(t), choice) for t, choice in tie_script)
        grid, script = _grid_of(
            [j.id for j in jobs],
            [(j.release.numerator, j.release.denominator) for j in jobs],
            [(j.processing.numerator, j.processing.denominator) for j in jobs],
            [(j.weight.numerator, j.weight.denominator) for j in jobs],
            tie_script,
        )
        tags = {} if tags is None else tags
        self.__dict__.update(jobs=jobs, _grid=grid, _script=script, tags=tags)

    @classmethod
    def _on_grid(
        cls,
        grid: _Timeline,
        script: _GridScript | None = None,
        tags: Mapping[str, object] | None = None,
    ) -> Instance:
        """The instance of jobs already on ``grid`` and a tie script on its
        grid, taken as they are.

        The caller vouches for every check ``Instance(jobs, tie_script)``
        makes and for ``den_t`` being the lcm of the time denominators.
        """
        instance = cls.__new__(cls)
        instance.__dict__.update(_grid=grid, _script=script, tags={} if tags is None else tags)
        return instance

    @cached_property
    def jobs(self) -> tuple[Job, ...]:
        """The jobs as ``Job``s, built from the grid with one Fraction per distinct value."""
        ids, releases, procs, den_t, weights = self._grid
        times = {t: Fraction(t, den_t) for t in {*releases, *procs}}
        ratios = {w: Fraction(*w) for w in set(weights)}
        return tuple(
            Job(i, times[r], times[p], ratios[w])
            for i, r, p, w in zip(ids, releases, procs, weights)
        )

    @cached_property
    def tie_script(self) -> tuple[tuple[Fraction, int], ...] | None:
        """The tie script as ``(time, choice)`` pairs, built from the grid script."""
        script = self._script
        if script is None:
            return None
        den_t = self._grid.den_t
        return tuple(
            (Fraction(t, den_t) if type(t) is int else t, choice) for t, choice in zip(*script)
        )

    @cached_property
    def _by_id(self) -> _Timeline:
        """The grid in ascending id order: the grid itself when the ids ascend."""
        grid = self._grid
        ids = grid.ids
        if all(map(lt, ids, islice(ids, 1, None))):
            return grid
        order = sorted(range(len(ids)), key=ids.__getitem__)
        ids, releases, procs, weights = (
            [column[k] for k in order]
            for column in (ids, grid.releases, grid.procs, grid.weights)
        )
        return _Timeline(ids, releases, procs, grid.den_t, weights)

    def job(self, job_id: int) -> Job:
        for j in self.jobs:
            if j.id == job_id:
                return j
        raise KeyError(f"no job with id {job_id}")

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.jobs, self.tie_script, self.tags) == (
            other.jobs, other.tie_script, other.tags
        )

    def __hash__(self):
        # Tags are left out: a dict does not hash, and equal instances have
        # equal jobs and scripts whatever their tags.
        return hash((self.jobs, self.tie_script))

    def __repr__(self):
        return f"Instance(jobs={self.jobs!r}, tie_script={self.tie_script!r}, tags={self.tags!r})"

    def __setattr__(self, name, value):
        raise FrozenInstanceError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise FrozenInstanceError(f"cannot delete field {name!r}")


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

    @cached_property
    def slices(self) -> tuple[Slice, ...]:
        """The runs as slices, one Fraction per distinct time."""
        at = {t: Fraction(t, self._den) for t in {t for run in self._runs for t in run[1:]}}
        return tuple(Slice(job, at[start], at[end]) for job, start, end in self._runs)

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
        # Compare on the grid of lcm(den, den_t); the error texts show Fractions.
        ids, releases, procs, den_t, _ = instance._grid
        den = lcm(self._den, den_t)
        m, m_t = den // self._den, den // den_t
        release = {i: r * m_t for i, r in zip(ids, releases)}
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
        for i, p in zip(ids, procs):
            if total[i] != p * m_t:
                raise ValueError(
                    f"job {i} executes {Fraction(total[i], den)} of {Fraction(p, den_t)}"
                )


def _scaled(x: Fraction, den: int) -> int:
    """``x`` in units of 1/den; ``den`` must be a multiple of its denominator."""
    return x.numerator * (den // x.denominator)


def objective(schedule: Schedule, instance: Instance) -> Fraction:
    """Total weighted completion time Σ w_j·C_j, exact."""
    ends = schedule._ends
    grid = instance._grid
    inst_jobs = set(grid.ids)
    if ends.keys() != inst_jobs:
        raise ValueError(
            f"schedule covers jobs {sorted(ends)} but instance has {sorted(inst_jobs)}"
        )
    # Weights sharing a denominator d add numerator·end as ints.  The few
    # per-d sums add as reduced pairs in a balanced tree, whose partial sums
    # keep small denominators until the last levels; one Fraction over
    # den ends it.
    grouped: dict[int, int] = {}
    for i, (num, d) in zip(grid.ids, grid.weights):
        grouped[d] = grouped.get(d, 0) + num * ends[i]
    terms = [_reduced(total, d) for d, total in grouped.items()]
    while len(terms) > 1:
        pairs = [_pair_sum(a, b) for a, b in zip(terms[::2], terms[1::2])]
        if len(terms) % 2:
            pairs.append(terms[-1])
        terms = pairs
    num, den = terms[0]
    return Fraction(num, den * schedule._den)


def _pair_sum(a: tuple[int, int], b: tuple[int, int]) -> tuple[int, int]:
    """The sum of two reduced pairs, reduced, by ``Fraction``'s own rule for ``+``."""
    (na, da), (nb, db) = a, b
    g = gcd(da, db)
    if g == 1:
        return na * db + da * nb, da * db
    s = da // g
    t = na * (db // g) + nb * s
    g2 = gcd(t, g)
    if g2 == 1:
        return t, s * db
    return t // g2, s * (db // g2)
