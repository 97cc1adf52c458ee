"""Instance construction: adversarial equality families, random draws, JSON I/O.

The constructed families discretize the continuum worst cases for the
weighted shortest-remaining-processing-time rule.  Every release in them
ties the running job's current weight-to-remaining ratio exactly (weights
use the left grid endpoint, the running long job has burned exactly that
much work), so each instance carries the tie script that realizes the
adversarial resolution of those ties.

Files are written by json's own encoder, with ``indent=2``; the package
renders only the record lists (jobs, tie scripts, slices), which it hands
over as tables and writes one format per row.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, islice
from math import ceil, gcd, lcm
from operator import itemgetter
from pathlib import Path
from random import Random
from typing import IO, NamedTuple, Union

from .core import (
    Instance,
    Schedule,
    Slice,
    _Timeline,
    _check_job,
    _grid_of,
    _GridScript,
    _job_id,
    _pair,
    _pair_str,
    _parse_pair,
    _rational_str,
    _reduced,
    _scaled,
    _without_digit_limit,
    rational_str,
    to_rational,
)

_ONE = Fraction(1)

#: Most small pieces a family or an ``adversary`` burst may be cut into; the
#: default burst δ = p1/1000 makes 2,300 to 3,200, the basic family at δ = 1e-5 136,120.
MAX_BURST_PIECES = 10**6


@dataclass(frozen=True)
class ScenarioParams:
    """Continuum parameters of the single-segment adversarial family.

    ``y``: last small-job release; ``v``: end of the unit-density prefix
    (``v == y`` means no ramp of heavier releases); ``z``: work released in
    a lump at ``y``; ``delta``: discretization step.
    """

    y: Fraction
    v: Fraction
    z: Fraction = Fraction(0)
    delta: Fraction = Fraction(1, 100)

    def __post_init__(self):
        for name in ("y", "v", "z", "delta"):
            object.__setattr__(self, name, to_rational(getattr(self, name)))
        if not 0 < self.y < 1:
            raise ValueError("y must lie in (0, 1)")
        if not 0 <= self.v <= self.y:
            raise ValueError("v must lie in [0, y]")
        if self.z < 0:
            raise ValueError("z must be nonnegative")
        if not 0 < self.delta < 1:
            raise ValueError("delta must lie in (0, 1)")


@dataclass(frozen=True)
class NestedParams:
    """A second adversarial segment opened inside a truncated outer one.

    The outer family is cut off at ``r_s`` (its releases after the inner
    segment opens are dropped), where a job of length ``p_s`` and weight
    ``p_s / (1 - r_s)`` arrives and hosts the inner family, scaled by
    ``p_s`` in time and ``p_s / (1 - r_s)`` in weight.
    """

    outer: ScenarioParams
    r_s: Fraction
    p_s: Fraction
    inner: ScenarioParams

    def __post_init__(self):
        object.__setattr__(self, "r_s", to_rational(self.r_s))
        object.__setattr__(self, "p_s", to_rational(self.p_s))
        if not 0 < self.r_s < 1:
            raise ValueError("r_s must lie in (0, 1)")
        if self.r_s > self.outer.v:
            raise ValueError("the outer unit-density prefix must reach r_s")
        if self.p_s <= 0:
            raise ValueError("p_s must be positive")


def _snap_steps(value: Fraction, delta: Fraction) -> int:
    """Nearest grid multiple (round half up), as a step count."""
    num = value / delta
    return int((num + Fraction(1, 2)).__floor__())


class _Pieces(NamedTuple):
    """A family's small jobs in order: releases and processing times as
    ints in units of 1/unit, a common denominator of them all, and weights
    as reduced pairs."""

    releases: list[int]
    procs: list[int]
    weights: list[tuple[int, int]]
    unit: int


def _small_pieces(m_steps: int, n_steps: int, z: Fraction, delta: Fraction) -> _Pieces:
    """The family's small jobs, in order.

    Unit-density floor pieces sit at the left endpoints 0..(n-1)·delta; the
    ramp on (v, y] carries density (1+z)/(1-y) per unit release, split into
    one piece of exactly delta (it fills the step to the next release) and
    equal pieces no longer than delta of the rest; the lump at y is z split
    into equal pieces no longer than delta.
    Weights use the release point, so each piece's ratio is exactly
    1/(1 - release) — the running long job's current ratio.  With
    delta = a/b, a piece of length q released at i·delta weighs
    q·b/(b - i·a), so a delta piece weighs a/(b - i·a), a reduced pair.
    A delta that would cut the family into more than MAX_BURST_PIECES
    pieces is refused before any piece is built.
    """
    y = m_steps * delta
    density = (_ONE + z) / (_ONE - y)
    k = ceil(density - 1)  # ramp pieces besides the step-filling one
    kb = ceil(z / delta)  # lump pieces
    count = n_steps + (m_steps - n_steps) * (1 + k) + kb
    if count > MAX_BURST_PIECES:
        raise ValueError(
            f"delta {rational_str(delta)} cuts the family into {count} small pieces, "
            f"more than {MAX_BURST_PIECES}"
        )
    a, b = delta.numerator, delta.denominator
    ramp_p = delta * (density - 1) / k
    lump_p = z / kb if kb else delta
    unit = lcm(b, ramp_p.denominator, lump_p.denominator)
    step = a * (unit // b)
    releases = [i * step for i in range(n_steps)]
    procs = [step] * n_steps
    weights = [(a, b - i * a) for i in range(n_steps)]
    pn, pd = ramp_p.numerator, ramp_p.denominator
    q = _scaled(ramp_p, unit)
    for i in range(n_steps, m_steps):
        releases += [i * step] * (1 + k)
        procs += [step] + [q] * k
        weights += [(a, b - i * a)] + [_reduced(pn * b, pd * (b - i * a))] * k
    if kb:
        ln, ld = lump_p.numerator, lump_p.denominator
        releases += [m_steps * step] * kb
        procs += [_scaled(lump_p, unit)] * kb
        weights += [_reduced(ln * b, ld * (b - m_steps * a))] * kb
    return _Pieces(releases, procs, weights, unit)


def _family_pieces(params: ScenarioParams) -> tuple[_Pieces, Fraction, Fraction]:
    """(small pieces, snapped y, snapped v) of one scenario's family."""
    delta = params.delta
    m_steps = _snap_steps(params.y, delta)
    n_steps = _snap_steps(params.v, delta)
    if m_steps < 1:
        raise ValueError("y snaps below one grid step")
    if m_steps * delta >= 1:
        raise ValueError("y snaps to 1 or beyond; refine delta or lower y")
    n_steps = min(n_steps, m_steps)
    pieces = _small_pieces(m_steps, n_steps, params.z, delta)
    return pieces, m_steps * delta, n_steps * delta


def _family_instance(
    releases: list[int],
    procs: list[int],
    weights: list[tuple[int, int]],
    unit: int,
    script: _GridScript,
    tags: dict,
) -> Instance:
    """The instance of jobs 0, 1, ... with times, script times included,
    in units of 1/unit.

    The grid is divided by the gcd of ``unit`` and every job time, which
    leaves den_t the lcm of the time denominators, as ``_grid_of`` sets it
    for ``Instance(jobs)`` and the reader.  The script's times are releases
    and completions, sums of job times, so the same division keeps them on
    the grid.
    """
    g = gcd(unit, *releases, *procs)
    if g > 1:
        releases = [r // g for r in releases]
        procs = [p // g for p in procs]
        script = _GridScript([t // g for t in script.times], script.choices)
    grid = _Timeline(list(range(len(releases))), releases, procs, unit // g, weights)
    return Instance._on_grid(grid, script, tags)


def gen_basic(params: ScenarioParams) -> Instance:
    """One long job plus the discretized small-job family tied to it.

    The long job (id 0, p = w = 1) is released at 0 and, per the emitted tie
    script, wins every tie until it completes at time 1; everything after
    that is forced by strict ratio comparisons.  ``y`` and ``v`` snap to the
    nearest grid multiple; ``tags["snapped"]`` records whether they moved.
    """
    pieces, y_eff, v_eff = _family_pieces(params)
    unit = pieces.unit

    # Pieces come in release order, so their distinct releases are the script's times.
    times = list(dict.fromkeys([0, *pieces.releases]))
    script = _GridScript(times, [0] * len(times))

    tags = {
        "family": "basic",
        "y": rational_str(params.y),
        "v": rational_str(params.v),
        "z": rational_str(params.z),
        "delta": rational_str(params.delta),
        "y_effective": rational_str(y_eff),
        "v_effective": rational_str(v_eff),
        "snapped": y_eff != params.y or v_eff != params.v,
    }
    return _family_instance(
        [0, *pieces.releases], [unit, *pieces.procs], [(1, 1), *pieces.weights], unit, script, tags
    )


def gen_nested(params: NestedParams) -> Instance:
    """Truncated outer family hosting a scaled inner family at ``r_s``.

    The outer long job (id 0) wins its ties until the inner segment opens;
    the segment-opening job wins the tie at ``r_s`` and every inner release
    while it runs; the script's final entries let the inner pieces whose
    ratio equals the outer long job's frozen ratio finish before it resumes.
    """
    delta_o = params.outer.delta
    r_steps = _snap_steps(params.r_s, delta_o)
    if r_steps < 1:
        raise ValueError("r_s snaps below one outer grid step")
    r_eff = r_steps * delta_o
    if r_eff >= 1:
        raise ValueError("r_s snaps to 1 or beyond")
    if r_eff > params.outer.v:
        raise ValueError("r_s must lie in the outer floor region (r_s <= v)")
    p_s = params.p_s
    w_s = p_s / (_ONE - r_eff)
    inner = params.inner
    inner_pieces, _, _ = _family_pieces(inner)
    # The segment's work: the opener's p_s plus the scaled inner pieces.
    inner_total = p_s * (_ONE + Fraction(sum(inner_pieces.procs), inner_pieces.unit))

    # Truncating the outer family at r_s is only harmless when the inner
    # segment outlasts the dropped outer releases: r_s + p_s*L >= y(1-v)/(1-y).
    outer_y, outer_v = params.outer.y, params.outer.v
    horizon = outer_y * (_ONE - outer_v) / (_ONE - outer_y)
    if r_eff + inner_total < horizon:
        raise ValueError(
            "inner segment too short to cover the truncated outer releases: "
            f"r_s + p_s*L = {float(r_eff + inner_total):.4f} < "
            f"{float(horizon):.4f} = y(1-v)/(1-y)"
        )
    outer_pieces = _small_pieces(r_steps, r_steps, Fraction(0), delta_o)

    # One grid for both families: the inner family's times scale by
    # p_s = sn/sd, so one inner unit is c = sn·unit/(sd·inner unit) units.
    sn, sd = p_s.numerator, p_s.denominator
    unit = lcm(outer_pieces.unit, sd * inner_pieces.unit)
    o, c = unit // outer_pieces.unit, sn * (unit // (sd * inner_pieces.unit))
    releases = [0, *(r * o for r in outer_pieces.releases)]
    procs = [unit, *(p * o for p in outer_pieces.procs)]
    weights = [(1, 1), *outer_pieces.weights]
    script = [(r, 0) for r in releases[1:]]

    opened = _scaled(r_eff, unit)
    wn, wd = w_s.numerator, w_s.denominator
    small_id = len(releases)
    releases.append(opened)
    procs.append(_scaled(p_s, unit))
    weights.append((wn, wd))
    script.append((opened, small_id))

    resume: list[tuple[int, int]] = []  # (processing, id) of the pieces released at r_s
    inner_jobs = zip(inner_pieces.releases, inner_pieces.procs, inner_pieces.weights)
    for rel, proc, (num, den) in inner_jobs:
        if rel == 0:
            resume.append((proc * c, len(releases)))
        releases.append(opened + rel * c)
        procs.append(proc * c)
        weights.append(_reduced(num * wn, den * wd))
    for rel in sorted(set(inner_pieces.releases) - {0}):
        script.append((opened + rel * c, small_id))

    # Pieces released with the segment opener share the outer long job's
    # frozen ratio; they run back to back at the segment's very end, each
    # chosen by script over the long job at the preceding completion.
    t = opened + _scaled(inner_total, unit) - sum(p for p, _ in resume)
    for proc, jid in resume:
        script.append((t, jid))
        t += proc

    seen: set[int] = set()
    for t, _ in script:
        if t in seen:
            raise ValueError(f"the tie script names time {rational_str(Fraction(t, unit))} twice")
        seen.add(t)

    tags = {
        "family": "nested",
        "r_s": rational_str(params.r_s),
        "r_s_effective": rational_str(r_eff),
        "p_s": rational_str(p_s),
        "small_weight": rational_str(w_s),
        "outer_delta": rational_str(delta_o),
        "inner_y": rational_str(inner.y),
        "inner_v": rational_str(inner.v),
        "inner_z": rational_str(inner.z),
        "inner_delta": rational_str(inner.delta),
        "inner_length": rational_str(inner_total / p_s),
        "snapped": r_eff != params.r_s,
    }
    script = _GridScript([t for t, _ in script], [choice for _, choice in script])
    return _family_instance(releases, procs, weights, unit, script, tags)


RANDOM_KINDS = ("general", "unit-weight", "zero-release")


#: k/2 for k = 0..6 as reduced pairs: every weight ``gen_random`` draws.
_HALVES = tuple(_reduced(k, 2) for k in range(7))


def gen_random(rng: Random, n: int, kind: str = "general") -> Instance:
    """n jobs with half-integer data: p, w in {1/2..3}, r in {0..3}.

    ``unit-weight`` forces w = 1, ``zero-release`` forces r = 0; both are
    classes where the policy is exactly optimal, which the fuzz loop checks.
    """
    if kind not in RANDOM_KINDS:
        raise ValueError(f"kind must be one of {RANDOM_KINDS}")
    if n < 1:
        raise ValueError("n must be positive")
    # Times are drawn in halves; on whole numbers the grid is 1, not 1/2.
    releases, procs, weights = [], [], []
    for _ in range(n):
        releases.append(0 if kind == "zero-release" else rng.randint(0, 6))
        procs.append(rng.randint(1, 6))
        weights.append(_HALVES[2] if kind == "unit-weight" else _HALVES[rng.randint(1, 6)])
    den_t = 2
    if not any(t & 1 for t in chain(releases, procs)):
        releases, procs, den_t = [r >> 1 for r in releases], [p >> 1 for p in procs], 1
    grid = _Timeline(list(range(n)), releases, procs, den_t, weights)
    return Instance._on_grid(grid, tags={"family": "random", "kind": kind})


PathOrFile = Union[str, Path, IO[str]]


class _Table:
    """A JSON list of flat objects as fixed ``keys`` and equal-length ``columns``.

    Every value is an int or a numeral string (digits, "-", "/"), which
    JSON writes without escaping.  ``write_json`` renders a table as
    ``json.dump`` renders its list of dicts; a plain class, not a list or
    tuple, so ``json.dumps`` refuses it rather than writing it as a pair.
    """

    __slots__ = ("keys", "columns")

    def __init__(self, keys: tuple[str, ...], columns: tuple):
        self.keys = keys
        self.columns = columns

    def rows(self):
        return zip(*self.columns)

    def records(self) -> list[dict]:
        keys = self.keys
        return [dict(zip(keys, row)) for row in self.rows()]


def _expanded(value):
    """``value`` with every table, in dicts and lists at any depth, as its list of dicts."""
    if isinstance(value, _Table):
        return value.records()
    if isinstance(value, dict):
        return {key: _expanded(item) for key, item in value.items()}
    if isinstance(value, list):
        return [*map(_expanded, value)]
    return value


def _grid_strs(times, den: int) -> dict[int, str]:
    """Each distinct time in ``times`` (ints in units of 1/den) rendered once."""
    return {t: _pair_str(*_reduced(t, den)) for t in set(times)}


def _instance_payload(instance: Instance) -> dict:
    """``instance_to_dict``'s payload with its record lists as tables,
    under a digit limit lifted by the caller."""
    ids, releases, procs, den_t, weights = instance._grid
    script = instance._script
    script_times = [] if script is None else [t for t in script.times if type(t) is int]
    time = _grid_strs(chain(releases, procs, script_times), den_t).__getitem__
    ratio = {w: _pair_str(*w) for w in set(weights)}.__getitem__
    payload = {
        "jobs": _Table(
            ("id", "r", "p", "w"),
            (ids, [*map(time, releases)], [*map(time, procs)], [*map(ratio, weights)]),
        ),
    }
    if script is not None:
        times = [time(t) if type(t) is int else _rational_str(t) for t in script.times]
        payload["tie_script"] = _Table(("t", "choice"), (times, script.choices))
    if instance.tags:
        payload["tags"] = dict(instance.tags)
    return payload


@_without_digit_limit()
def instance_to_dict(instance: Instance) -> dict:
    """JSON-ready form with rationals rendered as exact num/den strings.

    Each distinct time and weight on the instance's grid, script times
    included, is rendered once.
    """
    return _expanded(_instance_payload(instance))


class _Pairs(dict):
    """``to_rational`` as a reduced (numerator, denominator) pair, for one
    read under a lifted digit limit; each distinct numeral string is parsed
    once."""

    def __missing__(self, text: str) -> tuple[int, int]:
        value = self[text] = _parse_pair(text)
        return value

    def __call__(self, value) -> tuple[int, int]:
        return self[value] if isinstance(value, str) else _pair(value)


def _field(record, name: str, what: str):
    """``record[name]``; a ValueError naming ``what`` unless ``record`` is a
    JSON object that holds ``name``."""
    if not isinstance(record, dict):
        raise ValueError(f"{what} is not a JSON object")
    if name not in record:
        raise ValueError(f"{what} lacks field {name!r}")
    return record[name]


def _records(records, what: str, names: tuple[str, ...]):
    """Yield each record's values under ``names``, for a JSON list of objects.

    A list that is not one, or a record that is no object or lacks a
    field, is a ValueError naming the ``what`` record at fault.
    """
    if not isinstance(records, list):
        raise ValueError(f"{what} records are not a JSON list")
    values = itemgetter(*names)
    for i, record in enumerate(records):
        try:
            yield values(record)
        except (KeyError, TypeError):
            for name in names:
                _field(record, name, f"{what} record {i}")
            raise


@_without_digit_limit()
def instance_from_dict(payload: dict) -> Instance:
    """Inverse of instance_to_dict.

    Each job is checked as ``Job`` checks it, in file order, and every
    script time is read; then ``_grid_of`` puts the reduced pairs on the
    grid as ``Instance(jobs, tie_script)`` does, with no ``Job`` built.
    """
    pair = _Pairs()
    ids, rs, ps, ws = [], [], [], []
    records = _records(_field(payload, "jobs", "instance"), "job", ("id", "r", "p", "w"))
    for i, r, p, w in records:
        r, p, w = pair(r), pair(p), pair(w)
        _check_job(_job_id(i, "job id"), r[0], p[0], w[0])
        ids.append(i)
        rs.append(r)
        ps.append(p)
        ws.append(w)
    script = payload.get("tie_script")
    if script is not None:
        entries = _records(script, "tie-script", ("t", "choice"))
        script = [(pair(t), choice) for t, choice in entries]
    tags = payload.get("tags", {})
    if not (isinstance(tags, dict) and _all_scalars(tags.values())):
        raise ValueError("instance tags are not a JSON object of scalars")
    return Instance._on_grid(*_grid_of(ids, rs, ps, ws, script), tags)


def _slice_table(schedule: Schedule) -> _Table:
    """``slices_to_dicts``'s records as a table, under a digit limit lifted by the caller."""
    runs = schedule._runs
    jobs, starts, ends = zip(*runs) if runs else ((), (), ())
    time = _grid_strs(chain(starts, ends), schedule._den).__getitem__
    return _Table(("job", "start", "end"), (jobs, [*map(time, starts)], [*map(time, ends)]))


@_without_digit_limit()
def slices_to_dicts(schedule: Schedule) -> list[dict]:
    """JSON-ready slice list ``{"job", "start", "end"}``, each distinct run time rendered once."""
    return _slice_table(schedule).records()


@_without_digit_limit()
def slices_from_dicts(records) -> tuple[Slice, ...]:
    """Inverse of slices_to_dicts."""
    pair = _Pairs()
    return tuple(
        Slice(job, Fraction(*pair(start)), Fraction(*pair(end)))
        for job, start, end in _records(records, "slice", ("job", "start", "end"))
    )


# Rows per write of a table; bounds the text held at once.
_CHUNK = 256
_SCALARS = (str, int, float, type(None))


def _all_scalars(values) -> bool:
    return all(issubclass(t, _SCALARS) for t in set(map(type, values)))


def _write_table(write, table: _Table, depth: int) -> None:
    """Write ``table`` as ``json.dump(indent=2)`` writes its list of dicts at ``depth``.

    One ``%`` template renders every row: its keys are encoded once, and
    each field is ``%d`` or a quoted ``%s`` by the type of the first row's
    value, which needs no escaping.  Rows go out ``_CHUNK`` at a time.
    """
    rows = table.rows()
    first = next(rows, None)
    if first is None:
        write("[]")
        return
    inner = "\n" + "  " * (depth + 1)
    fields = [
        json.dumps(key).replace("%", "%%") + (": %d" if isinstance(value, int) else ': "%s"')
        for key, value in zip(table.keys, first)
    ]
    template = "{" + inner + "  " + ("," + inner + "  ").join(fields) + inner + "}"
    joint = "," + inner
    write("[" + inner + template % first)
    while chunk := list(islice(rows, _CHUNK)):
        write(joint + joint.join([template % row for row in chunk]))
    write("\n" + "  " * depth + "]")


def write_json(payload: dict, dest: PathOrFile) -> None:
    """Write ``payload`` as indented JSON plus a final newline.

    The bytes are those of ``json.dump(payload, dest, indent=2)``, with
    each table written as its list of dicts.  json's own encoder writes
    everything but the tables: its ``default`` hook queues each table and
    hands back ``""``, and the chunk it then yields, that stand-in, is
    replaced by ``_write_table``'s rows, one format per row in chunks of
    ``_CHUNK``.  The table's depth is read off the indent after the last
    line break; a JSON string holds no raw newline, so every line break is
    the structure's.
    """
    if isinstance(dest, (str, Path)):
        with open(dest, "w", encoding="utf-8") as f:
            write_json(payload, f)
        return
    tables = []

    def stand_in(value):
        if not isinstance(value, _Table):
            return json.JSONEncoder.default(encoder, value)
        tables.append(value)
        return ""

    encoder = json.JSONEncoder(indent=2, default=stand_in)
    write = dest.write
    depth = 0
    for chunk in encoder.iterencode(payload):
        if tables:
            _write_table(write, tables.pop(), depth)
            continue
        write(chunk)
        _, newline, line = chunk.rpartition("\n")
        if newline:
            depth = (len(line) - len(line.lstrip(" "))) // 2
    write("\n")


@_without_digit_limit()
def write_instance(instance: Instance, dest: PathOrFile) -> None:
    """Serialize to JSON with rationals rendered as exact num/den strings.

    The bytes are ``json.dump(instance_to_dict(instance), indent=2)``'s
    plus a newline, written from the grid: each distinct value is rendered
    once and the jobs and tie script go out as tables, with no dict per
    record.
    """
    write_json(_instance_payload(instance), dest)


def read_instance(src: PathOrFile) -> Instance:
    """Inverse of write_instance."""
    if isinstance(src, (str, Path)):
        with open(src, encoding="utf-8") as f:
            payload = json.load(f)
    else:
        payload = json.load(src)
    return instance_from_dict(payload)
