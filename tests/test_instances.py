"""Worst-case family generators and instance file I/O."""

import importlib
import io
import json
import math
import sys
import time
from dataclasses import replace
from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wsrpt.adversary import play
from wsrpt.analysis import basic_ratio_closed
from wsrpt.core import Instance, Job, Schedule, objective, to_rational
from wsrpt.instances import (
    _CHUNK,
    _Table,
    _expanded,
    _instance_payload,
    _slice_table,
    NestedParams,
    RANDOM_KINDS,
    ScenarioParams,
    gen_basic,
    gen_nested,
    gen_random,
    instance_from_dict,
    instance_to_dict,
    read_instance,
    slices_from_dicts,
    slices_to_dicts,
    write_instance,
    write_json,
)
from wsrpt.oracle import structured_optimal
from wsrpt.render import render_gantt, render_profile
from wsrpt.simulator import Policy, TieRule, is_equality_instance, simulate, split_job

from conftest import only_json


class TestScenarioParams:
    def test_y_range(self):
        with pytest.raises(ValueError):
            ScenarioParams(y=Fraction(1), v=Fraction(1, 2))
        with pytest.raises(ValueError):
            ScenarioParams(y=Fraction(0), v=Fraction(0))

    def test_v_bounded_by_y(self):
        with pytest.raises(ValueError):
            ScenarioParams(y=Fraction(1, 2), v=Fraction(3, 4))

    def test_negative_z(self):
        with pytest.raises(ValueError):
            ScenarioParams(y=Fraction(1, 2), v=Fraction(1, 2), z=Fraction(-1))


class TestGenBasic:
    def test_long_job_is_unit(self):
        inst = gen_basic(ScenarioParams(y=Fraction(1, 2), v=Fraction(1, 2)))
        j0 = inst.job(0)
        assert (j0.release, j0.processing, j0.weight) == (0, 1, 1)

    def test_long_job_completes_at_one_unpreempted(self):
        params = ScenarioParams(y=Fraction(1, 2), v=Fraction(3, 10), delta=Fraction(1, 20))
        inst = gen_basic(params)
        for tie in (TieRule.PREFER_RUNNING, TieRule.SCRIPTED):
            sched = simulate(inst, tie=tie)
            assert sched.completion(0) == 1
            assert sum(1 for s in sched.slices if s.job == 0) == 1

    def test_ids_in_release_order_then_descending_ratio(self):
        params = ScenarioParams(
            y=Fraction(3, 5), v=Fraction(2, 5), z=Fraction(1, 2), delta=Fraction(1, 10)
        )
        inst = gen_basic(params)
        keys = [(j.release, -j.ratio) for j in inst.jobs]
        assert keys == sorted(keys)
        assert [j.id for j in inst.jobs] == list(range(len(inst.jobs)))

    def test_equality_instance_all_modes(self):
        for y, v, z in (
            (Fraction(1, 2), Fraction(1, 2), Fraction(0)),  # floor only
            (Fraction(1, 2), Fraction(3, 10), Fraction(0)),  # floor + wall
            (Fraction(2, 5), Fraction(2, 5), Fraction(3, 5)),  # floor + block
            (Fraction(3, 5), Fraction(2, 5), Fraction(1, 2)),  # all three
        ):
            inst = gen_basic(ScenarioParams(y=y, v=v, z=z, delta=Fraction(1, 25)))
            report = is_equality_instance(inst)
            assert report.passed, (y, v, z, report.violations[:3])

    def test_ramp_release_opens_with_a_delta_piece(self):
        # Density 3.75 per ramp release: one piece of exactly delta, which
        # fills the step to the next release, then three equal pieces of
        # the remaining 2.75 delta; ceil(3.75) = 4 pieces, as before.
        y, v, z, delta = Fraction(3, 5), Fraction(2, 5), Fraction(1, 2), Fraction(1, 10)
        inst = gen_basic(ScenarioParams(y=y, v=v, z=z, delta=delta))
        for x in (Fraction(2, 5), Fraction(1, 2)):
            pieces = [j for j in inst.jobs if j.release == x]
            assert [j.processing for j in pieces] == [delta] + [delta * Fraction(11, 12)] * 3
            assert all(j.ratio == 1 / (1 - x) for j in pieces)

    def test_small_work_totals(self):
        # total small length = v + (1+z)(y-v)/(1-y) + z, up to grid rounding
        y, v, z = Fraction(3, 5), Fraction(2, 5), Fraction(1, 2)
        delta = Fraction(1, 50)
        inst = gen_basic(ScenarioParams(y=y, v=v, z=z, delta=delta))
        small = sum(j.processing for j in inst.jobs if j.id != 0)
        target = v + (1 + z) * (y - v) / (1 - y) + z
        assert abs(small - target) <= 2 * delta

    def test_small_work_totals_no_block(self):
        # with z=0 the wall density is 1/(1-y), so totals are v + (y-v)/(1-y)
        y, v = Fraction(3, 5), Fraction(2, 5)
        delta = Fraction(1, 50)
        inst = gen_basic(ScenarioParams(y=y, v=v, delta=delta))
        small = sum(j.processing for j in inst.jobs if j.id != 0)
        target = v + (y - v) / (1 - y)
        assert abs(small - target) <= 2 * delta

    def test_weight_converges_to_closed_form(self):
        # discretized small-job weight approaches the closed-form W minus
        # the long job's unit weight as the grid refines
        y, v = Fraction(1, 2), Fraction(3, 10)
        closed = basic_ratio_closed(float(y), float(v)).W - 1.0
        errors = []
        for delta in (Fraction(1, 20), Fraction(1, 60), Fraction(1, 180)):
            inst = gen_basic(ScenarioParams(y=y, v=v, delta=delta))
            total = float(sum(j.weight for j in inst.jobs if j.id != 0))
            errors.append(abs(total - closed))
        assert errors[0] > errors[1] > errors[2]
        assert errors[2] < 2e-2

    def test_snapping_flagged(self):
        # y=0.8157 does not sit on the 1/100 grid; tags must say so
        inst = gen_basic(ScenarioParams(y=Fraction(8157, 10000), v=Fraction(7066, 10000)))
        assert inst.tags["snapped"] is True
        inst2 = gen_basic(ScenarioParams(y=Fraction(1, 2), v=Fraction(1, 4), delta=Fraction(1, 4)))
        assert inst2.tags["snapped"] is False

    def test_too_fine_a_delta_is_refused_before_building(self):
        # 1e-30 built without bound: 10**26 times the 13,612 small jobs at 1e-4.
        start = time.perf_counter()
        head = rf"^delta 1/10{{30}} cuts the family into {13612 * 10**26} small pieces"
        with pytest.raises(ValueError, match=f"{head}, more than 1000000$"):
            gen_basic(ScenarioParams(Fraction("0.8157"), Fraction("0.7066"), delta=Fraction("1e-30")))
        fine = ScenarioParams(y=Fraction(1, 2), v=Fraction(1, 2), delta=Fraction("1e-30"))
        coarse = replace(fine, delta=Fraction(1, 20))
        for outer, inner in ((fine, coarse), (coarse, fine)):
            with pytest.raises(ValueError, match="cuts the family into"):
                gen_nested(NestedParams(outer, Fraction(3, 10), Fraction(50), inner))
        assert time.perf_counter() - start < 1

    def test_family_at_the_piece_cap_is_built(self, monkeypatch):
        # Floor, ramp and lump pieces all count: a cap of exactly the
        # family's small jobs admits it, one fewer refuses it.
        params = ScenarioParams(Fraction(3, 5), Fraction(2, 5), Fraction(1, 2), Fraction(1, 50))
        pieces = len(gen_basic(params).jobs) - 1
        monkeypatch.setattr("wsrpt.instances.MAX_BURST_PIECES", pieces)
        assert len(gen_basic(params).jobs) == pieces + 1
        monkeypatch.setattr("wsrpt.instances.MAX_BURST_PIECES", pieces - 1)
        with pytest.raises(ValueError, match=f" {pieces} small pieces, more than {pieces - 1}$"):
            gen_basic(params)


class TestGenNested:
    def _params(self, p_s=Fraction(50)):
        outer = ScenarioParams(y=Fraction(1, 2), v=Fraction(1, 2), delta=Fraction(1, 20))
        inner = ScenarioParams(y=Fraction(2, 5), v=Fraction(2, 5), delta=Fraction(1, 20))
        return NestedParams(outer=outer, r_s=Fraction(3, 10), p_s=p_s, inner=inner)

    def test_two_long_jobs(self):
        params = self._params()
        inst = gen_nested(params)
        outer_long = [j for j in inst.jobs if j.processing == 1 and j.release == 0]
        inner_long = [j for j in inst.jobs if j.processing == params.p_s]
        assert len(outer_long) == 1 and outer_long[0].id == 0
        assert len(inner_long) == 1
        assert inner_long[0].release == params.r_s
        assert inner_long[0].weight == params.p_s / (1 - params.r_s)

    def test_equality_instance(self):
        assert is_equality_instance(gen_nested(self._params())).passed

    def test_no_outer_releases_after_inner_opens(self):
        params = self._params()
        inst = gen_nested(params)
        inner_long = max(inst.jobs, key=lambda j: j.processing)
        # every job released at or after r_s belongs to the scaled inner family
        for j in inst.jobs:
            if j.id in (0, inner_long.id) or j.release < params.r_s:
                continue
            assert params.r_s <= j.release <= params.r_s + params.p_s * params.inner.y

    def test_precondition_enforced(self):
        with pytest.raises(ValueError):
            gen_nested(self._params(p_s=Fraction(1, 1000)))

    def test_truncation_check_measures_the_built_segment(self):
        # The snapped inner family at delta 1e-2 is longer than its continuum
        # (L = 2.3211 vs 2.2986), so p_s = 1/3 covers y(1-v)/(1-y) = 1.2986
        # while p_s = 1/10 does not.
        y, v = Fraction("0.8157"), Fraction("0.7066")
        outer = ScenarioParams(y=y, v=v, delta=Fraction(1, 100))

        def params(p_s):
            return NestedParams(outer=outer, r_s=Fraction("0.5307"), p_s=p_s, inner=outer)

        inst = gen_nested(params(Fraction(1, 3)))
        r_eff = Fraction(inst.tags["r_s_effective"])
        assert r_eff + Fraction(inst.tags["inner_length"]) / 3 >= y * (1 - v) / (1 - y)
        with pytest.raises(ValueError, match=r"inner segment too short.* = 0\.7621 <"):
            gen_nested(params(Fraction(1, 10)))

    def test_inner_family_snaps_like_basic(self):
        inner = ScenarioParams(y=Fraction(9, 10), v=Fraction(9, 10), delta=Fraction(1, 2))
        params = replace(self._params(), inner=inner)
        with pytest.raises(ValueError, match="y snaps to 1 or beyond"):
            gen_nested(params)
        with pytest.raises(ValueError, match="y snaps to 1 or beyond"):
            gen_basic(inner)


_ONE = Fraction(1)


def reference_small_pieces(m_steps, n_steps, z, delta):
    """The family's (release, processing, weight) pieces built as Fractions,
    one by one: the reference for the generators' integer grid."""
    y = m_steps * delta
    density = (_ONE + z) / (_ONE - y)
    k = math.ceil(density - 1)
    kb = math.ceil(z / delta)
    pieces = []
    for i in range(n_steps):
        x = i * delta
        pieces.append((x, delta, delta / (_ONE - x)))
    if m_steps > n_steps:
        piece_p = delta * (density - 1) / k
        for i in range(n_steps, m_steps):
            x = i * delta
            pieces.append((x, delta, delta / (_ONE - x)))
            pieces.extend((x, piece_p, piece_p / (_ONE - x)) for _ in range(k))
    if kb:
        piece_p = z / kb
        pieces.extend((y, piece_p, piece_p / (_ONE - y)) for _ in range(kb))
    return pieces


def _reference_family(params):
    m_steps = math.floor(params.y / params.delta + Fraction(1, 2))
    n_steps = min(math.floor(params.v / params.delta + Fraction(1, 2)), m_steps)
    pieces = reference_small_pieces(m_steps, n_steps, params.z, params.delta)
    return pieces, m_steps * params.delta, n_steps * params.delta


def reference_gen_basic(params: ScenarioParams) -> Instance:
    """``gen_basic`` through ``Instance(jobs)``, with a Job per piece."""
    pieces, y_eff, v_eff = _reference_family(params)
    jobs = [Job(0, 0, 1, 1)]
    for rel, proc, weight in pieces:
        jobs.append(Job(len(jobs), rel, proc, weight))
    times = sorted(dict.fromkeys([Fraction(0), *(rel for rel, _, _ in pieces)]))
    tags = {
        "family": "basic",
        "y": str(params.y),
        "v": str(params.v),
        "z": str(params.z),
        "delta": str(params.delta),
        "y_effective": str(y_eff),
        "v_effective": str(v_eff),
        "snapped": y_eff != params.y or v_eff != params.v,
    }
    return Instance(jobs, tie_script=[(t, 0) for t in times], tags=tags)


def reference_gen_nested(params: NestedParams) -> Instance:
    """``gen_nested`` through ``Instance(jobs)``, with a Job per piece."""
    delta_o = params.outer.delta
    r_steps = math.floor(params.r_s / delta_o + Fraction(1, 2))
    r_eff = r_steps * delta_o
    p_s = params.p_s
    w_s = p_s / (_ONE - r_eff)
    inner_pieces, _, _ = _reference_family(params.inner)
    inner_total = p_s * (_ONE + sum(p for _, p, _ in inner_pieces))
    jobs = [Job(0, 0, 1, 1)]
    script = []
    for rel, proc, weight in reference_small_pieces(r_steps, r_steps, 0, delta_o):
        jobs.append(Job(len(jobs), rel, proc, weight))
        script.append((rel, 0))
    small_id = len(jobs)
    jobs.append(Job(small_id, r_eff, p_s, w_s))
    script.append((r_eff, small_id))
    resume = []
    for rel, proc, weight in inner_pieces:
        if rel == 0:
            resume.append((p_s * proc, len(jobs)))
        jobs.append(Job(len(jobs), r_eff + p_s * rel, p_s * proc, w_s * weight))
    for rel in sorted(dict.fromkeys(rel for rel, _, _ in inner_pieces if rel > 0)):
        script.append((r_eff + p_s * rel, small_id))
    t = r_eff + inner_total - sum(p for p, _ in resume)
    for proc, jid in resume:
        script.append((t, jid))
        t += proc
    inner = params.inner
    tags = {
        "family": "nested",
        "r_s": str(params.r_s),
        "r_s_effective": str(r_eff),
        "p_s": str(p_s),
        "small_weight": str(w_s),
        "outer_delta": str(delta_o),
        "inner_y": str(inner.y),
        "inner_v": str(inner.v),
        "inner_z": str(inner.z),
        "inner_delta": str(inner.delta),
        "inner_length": str(inner_total / p_s),
        "snapped": r_eff != params.r_s,
    }
    return Instance(jobs, tie_script=script, tags=tags)


def _assert_same_instance(inst: Instance, ref: Instance) -> None:
    """Equal jobs, script and tags, the same grid and the same written bytes."""
    assert inst.jobs == ref.jobs
    assert inst.tie_script == ref.tie_script
    assert inst.tags == ref.tags
    assert inst._grid == ref._grid
    assert inst._by_id == ref._by_id
    assert _written(write_instance, inst) == _written(write_instance, ref)


_Y, _V = Fraction("0.8157"), Fraction("0.7066")
_SWEEP_P_S = Fraction(30277523, 422353)


class TestGeneratorsMatchTheReference:
    """The generators build on the integer grid what the Fraction reference builds job by job."""

    @pytest.mark.parametrize("delta", [Fraction(1, 7), Fraction(1, 11), Fraction(1, 1000)])
    @pytest.mark.parametrize(
        "y, v, z",
        [(_Y, _V, Fraction(0)), (_Y, _V, Fraction(1, 3)), (Fraction(3, 5), Fraction(3, 5), 0),
         (Fraction(3, 5), Fraction(3, 5), Fraction(7, 5)), (Fraction(1, 2), Fraction(0), 0)],
        ids=["sweep", "lump", "no-ramp", "no-ramp-lump", "all-ramp"],
    )
    def test_basic(self, y, v, z, delta):
        params = ScenarioParams(y=y, v=v, z=z, delta=delta)
        _assert_same_instance(gen_basic(params), reference_gen_basic(params))

    @pytest.mark.parametrize(
        "outer, r_s, p_s, inner",
        [
            (ScenarioParams(_Y, _V, delta=Fraction(1, 1000)), Fraction("0.5307"), _SWEEP_P_S,
             ScenarioParams(_Y, _V, delta=Fraction(1, 1000))),
            (ScenarioParams(_Y, _V, delta=Fraction(1, 100)), Fraction("0.5307"), _SWEEP_P_S,
             ScenarioParams(_Y, _V, Fraction(1, 3), Fraction(1, 70))),
            (ScenarioParams(Fraction(1, 2), Fraction(1, 2), delta=Fraction(1, 20)), Fraction(3, 10),
             Fraction(50, 3), ScenarioParams(Fraction(2, 5), Fraction(0), Fraction(1, 2), Fraction(1, 7))),
        ],
        ids=["sweep", "inner-lump", "inner-all-ramp"],
    )
    def test_nested(self, outer, r_s, p_s, inner):
        params = NestedParams(outer=outer, r_s=r_s, p_s=p_s, inner=inner)
        _assert_same_instance(gen_nested(params), reference_gen_nested(params))

    @pytest.mark.parametrize(
        "params, message",
        [
            (ScenarioParams(Fraction(1, 100), Fraction(0), delta=Fraction(1, 10)),
             "y snaps below one grid step"),
            (ScenarioParams(Fraction(9, 10), Fraction(9, 10), delta=Fraction(1, 2)),
             "y snaps to 1 or beyond; refine delta or lower y"),
            (ScenarioParams(_Y, _V, delta=Fraction(1, 10**6)),
             "delta 1/1000000 cuts the family into 1361200 small pieces, more than 1000000"),
        ],
    )
    def test_refusals_keep_their_text(self, params, message):
        with pytest.raises(ValueError) as err:
            gen_basic(params)
        assert str(err.value) == message
        outer = ScenarioParams(_Y, _V, delta=Fraction(1, 100))
        with pytest.raises(ValueError) as err:
            gen_nested(NestedParams(outer, Fraction("0.5307"), _SWEEP_P_S, params))
        assert str(err.value) == message

    def test_short_inner_segment_keeps_its_text(self):
        outer = ScenarioParams(_Y, _V, delta=Fraction(1, 100))
        with pytest.raises(ValueError) as err:
            gen_nested(NestedParams(outer, Fraction("0.5307"), Fraction(1, 10), outer))
        assert str(err.value) == (
            "inner segment too short to cover the truncated outer releases: "
            "r_s + p_s*L = 0.7621 < 1.2986 = y(1-v)/(1-y)"
        )

    def test_a_repeated_script_time_is_a_value_error(self, monkeypatch):
        # No valid parameters repeat a time; a piece list that does must be
        # refused with a ValueError, which ``python -O`` keeps, naming the time.
        import wsrpt.instances

        small_pieces = wsrpt.instances._small_pieces

        def doubled_outer(m_steps, n_steps, z, delta):
            pieces = small_pieces(m_steps, n_steps, z, delta)
            if delta == Fraction(1, 20):  # the outer family's: its first release twice
                for column in (pieces.releases, pieces.procs, pieces.weights):
                    column.insert(0, column[0])
            return pieces

        monkeypatch.setattr(wsrpt.instances, "_small_pieces", doubled_outer)
        outer = ScenarioParams(Fraction(1, 2), Fraction(1, 2), delta=Fraction(1, 20))
        inner = ScenarioParams(Fraction(2, 5), Fraction(2, 5), delta=Fraction(1, 10))
        with pytest.raises(ValueError, match="^the tie script names time 0 twice$"):
            gen_nested(NestedParams(outer, Fraction(3, 10), Fraction(50), inner))


def reference_gen_random(rng: Random, n: int, kind: str) -> Instance:
    """The generator's body with a new Fraction per draw, kept to pin its draws."""
    jobs = []
    for i in range(n):
        release = Fraction(0) if kind == "zero-release" else Fraction(rng.randint(0, 6), 2)
        processing = Fraction(rng.randint(1, 6), 2)
        weight = Fraction(1) if kind == "unit-weight" else Fraction(rng.randint(1, 6), 2)
        jobs.append(Job(i, release, processing, weight))
    return Instance(tuple(jobs), tags={"family": "random", "kind": kind})


class TestGenRandom:
    @pytest.mark.parametrize("kind", RANDOM_KINDS)
    def test_draws_match_the_reference(self, kind):
        # Same jobs, same tags and the same RNG state after the call, so a
        # seeded fuzz run draws the same trials and certificates.
        for seed in range(40):
            for n in range(1, 17):
                ours, ref = Random(seed * 100 + n), Random(seed * 100 + n)
                inst = gen_random(ours, n, kind)
                expected = reference_gen_random(ref, n, kind)
                assert inst.jobs == expected.jobs
                assert inst.tags == expected.tags
                assert inst._grid == expected._grid
                assert ours.getstate() == ref.getstate()

    def test_deterministic(self):
        a = gen_random(Random(42), 6)
        b = gen_random(Random(42), 6)
        assert a.jobs == b.jobs

    def test_kinds(self):
        rng = Random(7)
        unit = gen_random(rng, 5, "unit-weight")
        assert all(j.weight == 1 for j in unit.jobs)
        flat = gen_random(rng, 5, "zero-release")
        assert all(j.release == 0 for j in flat.jobs)
        with pytest.raises(ValueError):
            gen_random(rng, 5, "bogus")

    def test_seed42_ratio_inside_envelope(self):
        from wsrpt.fuzz import evaluate_instance

        ratio = evaluate_instance(gen_random(Random(42), 6))
        assert 1 <= ratio <= Fraction(12259, 10000) + Fraction(1, 10**6)


class TestFileIO:
    def test_round_trip_file(self, tmp_path):
        inst = gen_basic(
            ScenarioParams(y=Fraction(1, 2), v=Fraction(3, 10), delta=Fraction(1, 10))
        )
        path = tmp_path / "inst.json"
        write_instance(inst, path)
        back = read_instance(path)
        assert back.jobs == inst.jobs
        assert back.tie_script == inst.tie_script
        assert dict(back.tags) == dict(inst.tags)

    def test_json_field_names(self):
        buf = io.StringIO()
        write_instance(Instance((Job(0, 0, 1, 1),), tie_script=((Fraction(0), 0),)), buf)
        payload = json.loads(buf.getvalue())
        assert set(payload["jobs"][0]) == {"id", "r", "p", "w"}
        assert payload["tie_script"] == [{"t": "0", "choice": 0}]

    def test_rational_strings_parsed_exactly(self):
        payload = {
            "jobs": [{"id": 0, "r": "1/3", "p": "0.25", "w": "2"}],
        }
        inst = instance_from_dict(payload)
        j = inst.jobs[0]
        assert (j.release, j.processing, j.weight) == (
            Fraction(1, 3),
            Fraction(1, 4),
            Fraction(2),
        )

    def test_missing_field_errors(self):
        with pytest.raises(ValueError, match="^job record 0 lacks field 'w'$"):
            instance_from_dict({"jobs": [{"id": 0, "r": "0", "p": "1"}]})

    @pytest.mark.parametrize(
        "tags", [5, [1, 2], "ab", None, {"family": ["basic"]}],
        ids=["int", "list", "str", "null", "nested-value"],
    )
    def test_tags_must_be_an_object_of_scalars(self, tags):
        # each of these read and simulated, then failed to write back
        text = json.dumps({"jobs": [{"id": 0, "r": "0", "p": "1", "w": "1"}], "tags": tags})
        with pytest.raises(ValueError, match="^instance tags are not a JSON object of scalars$"):
            read_instance(io.StringIO(text))

    def test_scalar_tags_round_trip(self):
        tags = {"family": "random", "n": 3, "x": 0.5, "snapped": True, "none": None}
        buf = io.StringIO()
        write_instance(Instance((Job(0, 0, 1, 1),), tags=tags), buf)
        assert dict(read_instance(io.StringIO(buf.getvalue())).tags) == tags

    @pytest.mark.skipif(
        not hasattr(sys, "set_int_max_str_digits"), reason="no int/str digit limit"
    )
    def test_digit_limit_lifted_once_per_document(self, monkeypatch):
        # One lift and one restore per document, not per value, and the
        # limit in force is back in place afterwards.
        inst = gen_basic(ScenarioParams(y=Fraction(1, 2), v=Fraction(3, 10), delta=Fraction(1, 10)))
        sched = simulate(inst, tie=TieRule.SCRIPTED)
        before = sys.get_int_max_str_digits()
        calls = []
        lift = sys.set_int_max_str_digits
        monkeypatch.setattr(sys, "set_int_max_str_digits", lambda n: (calls.append(n), lift(n)))
        payload = instance_to_dict(inst)
        assert calls == [0, before]
        assert instance_from_dict(payload).jobs == inst.jobs
        assert calls == [0, before] * 2
        assert slices_to_dicts(sched)[0] == {"job": 0, "start": "0", "end": "1"}
        assert calls == [0, before] * 3
        assert sys.get_int_max_str_digits() == before
        # The writers lift it once for the whole document, tables included.
        from wsrpt.adversary import play, write_transcript

        _written(write_instance, inst)
        assert calls == [0, before] * 4
        game = play("wsrpt", delta="1/100")
        del calls[:]
        _written(write_transcript, game)
        assert calls == [0, before]
        assert sys.get_int_max_str_digits() == before

    def test_values_past_the_digit_limit_round_trip(self):
        huge = Fraction(10**5000 + 1, 3**11000)
        inst = Instance((Job(0, huge, 1, huge), Job(1, 0, huge, 1)), tie_script=((huge, 0),))
        back = instance_from_dict(json.loads(json.dumps(instance_to_dict(inst))))
        assert back.jobs == inst.jobs
        assert back.tie_script == inst.tie_script
        assert _written(write_instance, inst) == json.dumps(instance_to_dict(inst), indent=2) + "\n"
        sched = simulate(inst)
        assert slices_from_dicts(json.loads(json.dumps(slices_to_dicts(sched)))) == sched.slices

    @pytest.mark.parametrize(
        "end, message", [(0.1, "refusing inexact value 0.1"), ("abc", "not a rational numeral")]
    )
    def test_slice_times_parse_like_instance_values(self, end, message):
        # The instance reader's parser: a float is refused, not read as the
        # binary fraction nearest to it.
        with pytest.raises(ValueError, match=message):
            slices_from_dicts([{"job": 0, "start": "0", "end": end}])
        with pytest.raises(ValueError, match=message):
            instance_from_dict({"jobs": [{"id": 0, "r": "0", "p": end, "w": "1"}]})

    @pytest.mark.parametrize("field", ["r", "p", "w", "t"])
    def test_a_bad_numeral_anywhere_is_refused(self, field):
        # The read memoizes numerals; a bad or inexact one is still refused
        # wherever it sits, even after the same field parsed cleanly.
        for value, message in (("1/x", "not a rational numeral: '1/x'"),
                               (0.5, "refusing inexact value 0.5")):
            payload = {
                "jobs": [{"id": 0, "r": "0", "p": "1", "w": "1"},
                         {"id": 1, "r": "1", "p": "1", "w": "1"}],
                "tie_script": [{"t": "0", "choice": 0}, {"t": "1", "choice": 1}],
            }
            if field == "t":
                payload["tie_script"][1]["t"] = value
            else:
                payload["jobs"][1][field] = value
            with pytest.raises(ValueError) as err:
                instance_from_dict(payload)
            assert str(err.value).startswith(message)

    def test_each_distinct_numeral_parsed_once(self, monkeypatch):
        import wsrpt.instances

        parsed = []
        parse = wsrpt.instances._parse_pair
        monkeypatch.setattr(
            wsrpt.instances, "_parse_pair", lambda text: (parsed.append(text), parse(text))[1]
        )
        inst = gen_basic(ScenarioParams(y=Fraction(1, 2), v=Fraction(3, 10), delta=Fraction(1, 10)))
        payload = instance_to_dict(inst)
        back = instance_from_dict(payload)
        numerals = [v for rec in payload["jobs"] for v in (rec["r"], rec["p"], rec["w"])]
        numerals += [e["t"] for e in payload["tie_script"]]
        assert sorted(parsed) == sorted(set(numerals)) and len(parsed) < len(numerals)
        assert back.jobs == inst.jobs and back.tie_script == inst.tie_script
        # Equal strings give equal values: "1/10" is a processing time, a
        # release and a script time here.
        by_text = {}
        for rec, job in zip(payload["jobs"], back.jobs):
            for key, value in zip("rpw", (job.release, job.processing, job.weight)):
                assert by_text.setdefault(rec[key], value) == value
        for rec, (t, _) in zip(payload["tie_script"], back.tie_script):
            assert by_text.setdefault(rec["t"], t) == t
        assert by_text["1/10"] == Fraction(1, 10)

    def test_to_dict_round_trip(self):
        inst = gen_random(Random(3), 4)
        assert instance_from_dict(instance_to_dict(inst)).jobs == inst.jobs


class _Dict(dict):
    pass


class _List(list):
    pass


# Strings that hold the record boundary the writer rewrites, or parts of it.
_STRINGS = st.one_of(
    st.sampled_from(["},\n      {", "}", "\n", "\"},", ""]),
    st.text(alphabet='ab{}[],: "\\\n\té☃\U0001f600', max_size=6),
)
_KEYS = st.one_of(_STRINGS, st.integers(), st.floats(), st.booleans(), st.none())
_SCALARS = st.one_of(
    _STRINGS, st.integers(), st.booleans(), st.none(),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0]),
)
_FLAT = st.dictionaries(_KEYS, _SCALARS, min_size=1, max_size=3)


@st.composite
def _record_lists(draw):
    """A record list around one chunk boundary, maybe with one odd record."""
    pool = draw(st.lists(_FLAT, min_size=1, max_size=3))
    n = draw(st.sampled_from([_CHUNK - 1, _CHUNK, _CHUNK + 1]))
    records = (pool * n)[:n]
    odd = draw(st.sampled_from([None, {}, {"a": {"b": [1]}}]))
    if odd is not None:
        records[draw(st.integers(0, n - 1))] = odd
    return records


_PAYLOADS = st.recursive(
    _SCALARS,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=3).map(tuple),
        st.lists(inner, max_size=3).map(_List),
        st.dictionaries(_KEYS, inner, max_size=4),
        st.dictionaries(_KEYS, inner, max_size=3).map(_Dict),
        st.lists(_FLAT, max_size=3),
    ),
    max_leaves=12,
)


def _assert_written_as_json_dump(payload):
    buf = io.StringIO()
    write_json(payload, buf)
    # Compared as lists of lines: pytest explains a list mismatch by its
    # first differing index, where a diff of two long strings takes minutes.
    want = json.dumps(payload, indent=2) + "\n"
    assert buf.getvalue().splitlines(True) == want.splitlines(True)


class TestWriteJson:
    """``write_json`` writes the bytes of ``json.dump(indent=2)``."""

    @given(_PAYLOADS)
    @settings(max_examples=50, deadline=None)
    def test_bytes_match_json_dump(self, payload):
        _assert_written_as_json_dump(payload)

    @given(_record_lists(), st.integers(0, 2))
    @settings(max_examples=20, deadline=None)
    def test_record_lists_around_a_chunk_boundary(self, records, depth):
        # Depth 1 as an instance file's jobs, depth 2 as a transcript's.
        payload = records
        for key in ("jobs", "instance")[:depth]:
            payload = {key: payload}
        _assert_written_as_json_dump(payload)

    @pytest.mark.parametrize(
        "payload",
        [
            {"a": [1, object()]},
            {"jobs": [{"id": 0, "r": Fraction(1, 2)}] * 3},
            [[{"a": 1}], {"b": {"c": Fraction(1)}}],
            {"k": {(1, 2): 3}},
            {"k": {(1, 2): [3]}},
        ],
    )
    def test_unserializable_values_raise_as_json_dump(self, payload):
        with pytest.raises(TypeError) as expected:
            json.dumps(payload, indent=2)
        with pytest.raises(TypeError) as got:
            write_json(payload, io.StringIO())
        assert str(got.value) == str(expected.value)

    def test_record_lists_are_streamed_in_chunks(self):
        # A long record list is never held as one string.
        records = [{"job": k, "start": "0", "end": str(k)} for k in range(3 * _CHUNK)]
        writes = []

        class Sink:
            write = writes.append

        write_json({"schedule": records}, Sink())
        text = "".join(writes)
        want = json.dumps({"schedule": records}, indent=2) + "\n"
        assert text.splitlines(True) == want.splitlines(True)
        assert max(map(len, writes)) < len(text) / 2

    def test_circular_reference_is_a_value_error(self):
        looped = []
        looped.append(looped)
        nested = {"a": [{"b": 1}]}
        nested["a"].append(nested)
        for payload in (looped, nested, [1, [2, looped]]):
            with pytest.raises(ValueError, match="^Circular reference detected$"):
                write_json(payload, io.StringIO())


@st.composite
def _numeral(draw, positive=False):
    """A value the reader accepts for a rational >= 0 (> 0 if ``positive``)
    in one of its forms: "num/den" (unreduced), a decimal, an exponent,
    padded digits, or a JSON int."""
    num = draw(st.integers(min_value=int(positive), max_value=10**6))
    den = draw(st.integers(min_value=1, max_value=10**4))
    k = draw(st.integers(min_value=0, max_value=5))
    return draw(st.sampled_from([
        f"{num}/{den}", str(num), num, f"{num}e-{k}", f"{num / 10**k:.{k}f}",
        f" 00{num}/{den} ", f"{num}E+{k}",
    ]))


@st.composite
def _instance_documents(draw):
    """An instance document the reader accepts: ids distinct and shuffled,
    maybe a tie script and scalar tags."""
    n = draw(st.integers(min_value=1, max_value=6))
    ids = draw(st.permutations(range(2 * n)))[:n]
    doc = {"jobs": [
        {"id": i, "r": draw(_numeral()), "p": draw(_numeral(positive=True)), "w": draw(_numeral())}
        for i in ids
    ]}
    if draw(st.booleans()):
        doc["tie_script"] = draw(st.lists(
            st.fixed_dictionaries({"t": _numeral(), "choice": st.sampled_from(ids)}), max_size=4
        ))
    if draw(st.booleans()):
        # NaN is left out: it equals nothing, itself included.
        doc["tags"] = draw(st.dictionaries(_STRINGS, st.one_of(
            _STRINGS, st.integers(), st.booleans(), st.none(), st.floats(allow_nan=False)
        ), max_size=4))
    return doc


@st.composite
def _slice_documents(draw):
    """A slice list the reader accepts: each slice starts before it ends."""
    records = []
    for job in draw(st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6)):
        start = draw(_numeral())
        end = to_rational(start) + draw(st.fractions(min_value=Fraction(1, 1000), max_value=5))
        records.append({"job": job, "start": start, "end": str(end)})
    return records


def _written(write, value) -> str:
    buf = io.StringIO()
    write(value, buf)
    return buf.getvalue()


def _write_slices(slices, dest):
    write_json({"slices": slices_to_dicts(Schedule(slices))}, dest)


def _as_json_dump(payload) -> list[str]:
    return (json.dumps(payload, indent=2) + "\n").splitlines(True)


_JOBS = _Table(("id", "r", "p", "w"), ([0, 4], ["0", "1/2"], ["1", "3"], ["1", "2/3"]))
_SLICES = _Table(("job", "start", "end"), ([4, 0, 4], ["0", "1/2", "3/2"], ["1/2", "3/2", "7/2"]))
_EMPTY = _Table(("job", "start", "end"), ((), (), ()))


class TestTables:
    """Record lists written as tables: the bytes of their lists of dicts."""

    @pytest.mark.parametrize("depth", [0, 1, 2])
    @pytest.mark.parametrize("n", [0, 1, _CHUNK - 1, _CHUNK, _CHUNK + 1, 2 * _CHUNK + 1])
    def test_rows_around_a_chunk_boundary(self, n, depth):
        # A key with a quote, a backslash and a % is escaped for JSON and
        # for the row template alike.
        table = _Table(
            ("job", 'a"%d\\', "t"),
            (list(range(-1, n - 1)), [str(-k) for k in range(n)], [f"{k}/7" for k in range(n)]),
        )
        payload, records = table, table.records()
        for key in ("schedule", "instance")[:depth]:
            payload, records = {key: payload}, {key: records}
        assert _written(write_json, payload).splitlines(True) == _as_json_dump(records)

    def test_rows_are_streamed_in_chunks(self):
        n = 3 * _CHUNK
        table = _Table(("job", "start", "end"), (range(n), ["0"] * n, [str(k) for k in range(n)]))
        writes = []

        class Sink:
            write = writes.append

        write_json({"schedule": table}, Sink())
        text = "".join(writes)
        assert text.splitlines(True) == _as_json_dump({"schedule": table.records()})
        assert max(map(len, writes)) < len(text) / 2

    @pytest.mark.parametrize(
        "payload",
        [
            [_JOBS, {"a": _JOBS}],
            {"instance": {"jobs": _JOBS, "tags": {"family": "x"}}, "schedule": _SLICES},
            {"schedule": _SLICES, "instance": [{"jobs": _JOBS}]},
            {"a": _EMPTY, "b": [_EMPTY, _JOBS], "c": _EMPTY},
            _EMPTY,
            {"x": "", "jobs": _JOBS, "y": "", "slices": _SLICES, "z": ""},
            ["", _SLICES, "", [_JOBS, ""]],
        ],
        ids=["list-items", "transcript", "deeper-second", "empty", "bare-empty", "empty-tags", "empty-items"],
    )
    def test_tables_are_spliced_where_the_encoder_meets_them(self, payload):
        # json's encoder writes the structure and hands each table to the
        # hook; its rows must land at that point, at that depth.  A "" value
        # yields the same chunk as a table's stand-in, so the tables must be
        # found through the hook, not by the chunk's text.
        want = json.dumps(_expanded(payload), indent=2) + "\n"
        assert _written(write_json, payload).splitlines(True) == want.splitlines(True)

    def test_json_dumps_refuses_a_table(self):
        table = _Table(("job",), ([0],))
        for payload in (table, {"slices": table}, [{"instance": {"jobs": table}}]):
            with pytest.raises(TypeError, match="not JSON serializable"):
                json.dumps(payload)

    @pytest.mark.parametrize(
        "inst",
        [
            Instance(
                (Job(3, Fraction(1, 2), 1, Fraction(2, 3)), Job(0, 0, 2, 0)),
                tie_script=((Fraction(1, 2), 3), (Fraction(1, 3), 0), (Fraction(7, 5), 3)),
                tags={"é☃\U0001f600": 'a"b\\c\n\t\x00', "%d": "%s", "": None, "x": 0.5},
            ),
            Instance((Job(0, 0, 1, 1),), tie_script=()),
            Instance((Job(10**30, 5, Fraction(1, 10**20), 7),), tags={"n": -1}),
        ],
        ids=["off-grid-script-escaped-tags", "empty-script", "wide-values"],
    )
    def test_instance_edge_cases(self, inst):
        text = _written(write_instance, inst)
        assert text.splitlines(True) == _as_json_dump(instance_to_dict(inst))
        if inst.tie_script == ():
            assert json.loads(text)["tie_script"] == []

    def test_generated_instances_write_as_json_dump_of_their_dict(self):
        point = ScenarioParams(y=Fraction(1, 2), v=Fraction(3, 10), delta=Fraction(1, 40))
        nested = NestedParams(outer=point, r_s=Fraction(1, 5), p_s=Fraction(5), inner=point)
        for inst in (gen_basic(point), gen_nested(nested), gen_random(Random(5), 7)):
            assert _written(write_instance, inst).splitlines(True) == _as_json_dump(
                instance_to_dict(inst)
            )

    def test_dicts_hold_no_tables(self):
        inst = gen_basic(ScenarioParams(y=Fraction(1, 2), v=Fraction(3, 10), delta=Fraction(1, 10)))
        sched = simulate(inst, tie=TieRule.SCRIPTED)
        assert isinstance(_instance_payload(inst)["jobs"], _Table)
        assert isinstance(_slice_table(sched), _Table)
        for value in (instance_to_dict(inst), slices_to_dicts(sched), slices_to_dicts(Schedule(()))):
            assert only_json(value)


class TestRoundTrip:
    """Every document the reader accepts reads back equal after a write,
    which gives the bytes of ``json.dump`` of its dict, and a second write
    gives the first write's bytes."""

    @given(_instance_documents())
    @settings(max_examples=60, deadline=None)
    def test_instances(self, doc):
        inst = read_instance(io.StringIO(json.dumps(doc)))
        first = _written(write_instance, inst)
        assert first.splitlines(True) == _as_json_dump(instance_to_dict(inst))
        back = read_instance(io.StringIO(first))
        assert back == inst
        assert _written(write_instance, back) == first

    @given(_slice_documents())
    @settings(max_examples=60, deadline=None)
    def test_slice_lists(self, records):
        slices = slices_from_dicts(json.loads(json.dumps(records)))
        first = _written(_write_slices, slices)
        back = slices_from_dicts(json.loads(first)["slices"])
        assert back == slices
        assert _written(_write_slices, back) == first


def reference_read(doc) -> Instance:
    """The reader's former body: a ``Job`` per record in file order, then ``Instance(jobs)``."""
    jobs = [
        Job(rec["id"], to_rational(rec["r"]), to_rational(rec["p"]), to_rational(rec["w"]))
        for rec in doc["jobs"]
    ]
    script = doc.get("tie_script")
    if script is not None:
        script = [(to_rational(e["t"]), e["choice"]) for e in script]
    return Instance(jobs, tie_script=script, tags=doc.get("tags", {}))


#: Numerals whose value is not written in lowest terms.
_UNREDUCED = ("2/4", "0.50", "1e-3", "1_000", "006/4", "3E+0")


def _doc(*changes) -> dict:
    """A document of one valid job per change, ids 0, 1, ..., each with the change applied."""
    return {"jobs": [{"id": k, "r": "0", "p": "1", "w": "1", **c} for k, c in enumerate(changes)]}


_MALFORMED = [
    ("bool-release", _doc({"r": False}), "refusing boolean value False; pass a number"),
    ("bool-processing", _doc({}, {"p": True}), "refusing boolean value True; pass a number"),
    ("str-id", _doc({"id": "0"}), "job id must be an int, not '0'"),
    ("float-id", _doc({}, {"id": 1.5}), "job id must be an int, not 1.5"),
    ("bool-id", _doc({"id": True}), "job id must be an int, not True"),
    ("duplicate-ids", _doc({}, {"id": 0}), "job ids must be unique"),
    ("no-jobs", {"jobs": []}, "instance must contain at least one job"),
    ("zero-processing", _doc({"p": "0/3"}), "job 0: processing must be > 0"),
    ("negative-processing", _doc({"p": "-1e-3"}), "job 0: processing must be > 0"),
    ("negative-release", _doc({}, {"r": "-2/4"}), "job 1: release must be >= 0"),
    ("negative-weight", _doc({"w": "-0.50"}), "job 0: weight must be >= 0"),
    # Several faults: the first faulty job in file order is named, and in
    # one job processing comes before release, release before weight.
    ("first-job-named", _doc({}, {"w": "-1"}, {"p": "0"}, {"id": "x"}), "job 1: weight must be >= 0"),
    ("processing-first", _doc({"r": "-1", "p": "0", "w": "-1"}), "job 0: processing must be > 0"),
    ("release-before-weight", _doc({"r": "-1", "w": "-1"}), "job 0: release must be >= 0"),
    ("job-before-duplicate", _doc({}, {"id": 0, "w": "-1"}), "job 0: weight must be >= 0"),
    ("numeral-before-id", _doc({"id": "a", "w": "1/0"}), "not a rational numeral: '1/0'"),
    ("duplicate-before-script",
     {**_doc({}, {"id": 0}), "tie_script": [{"t": "0", "choice": "0"}]}, "job ids must be unique"),
    ("script-choice",
     {**_doc({}), "tie_script": [{"t": "0", "choice": "0"}]},
     "tie-script choice must be an int, not '0'"),
]


class TestGridReader:
    """The reader puts documents on the integer grid exactly as ``Instance(jobs)`` would."""

    @given(_instance_documents(), st.data())
    @settings(max_examples=80, deadline=None)
    def test_matches_instance_of_jobs(self, doc, data):
        for rec in doc["jobs"]:
            for key in "rpw":
                if data.draw(st.booleans()):
                    rec[key] = data.draw(st.sampled_from(_UNREDUCED))
        inst = read_instance(io.StringIO(json.dumps(doc)))
        _assert_same_instance(inst, reference_read(doc))

    @pytest.mark.parametrize(
        "doc, message", [case[1:] for case in _MALFORMED], ids=[case[0] for case in _MALFORMED]
    )
    def test_malformed_documents_keep_their_error_text(self, doc, message):
        with pytest.raises(ValueError) as ref:
            reference_read(doc)
        with pytest.raises(ValueError) as err:
            instance_from_dict(json.loads(json.dumps(doc)))
        assert str(err.value) == str(ref.value) == message


def test_sweep_chain_builds_no_jobs():
    # gen -> write -> read -> simulate -> validate -> structured -> objective
    # -> audit reads only the grid; ``jobs`` is built on first access.
    inst = gen_basic(ScenarioParams(_Y, _V, delta=Fraction(1, 100)))
    back = read_instance(io.StringIO(_written(write_instance, inst)))
    sched = simulate(back, tie=TieRule.SCRIPTED, script=back.tie_script)
    sched.validate(back)
    optimum = structured_optimal(back)
    assert objective(sched, back) / optimum.objective > 1
    assert is_equality_instance(back)
    assert "jobs" not in vars(inst) and "jobs" not in vars(back)
    assert back.jobs == inst.jobs and "jobs" in vars(back)


def test_sweep_chain_builds_no_script_fractions():
    # Without a script argument, SCRIPTED follows the instance's own script
    # on its grid: no step builds the Fraction tuple ``tie_script``.
    inst = gen_basic(ScenarioParams(_Y, _V, delta=Fraction(1, 100)))
    back = read_instance(io.StringIO(_written(write_instance, inst)))
    sched = simulate(back, tie=TieRule.SCRIPTED)
    assert is_equality_instance(back)
    assert "tie_script" not in vars(inst) and "tie_script" not in vars(back)
    assert sched is simulate(back, tie=TieRule.SCRIPTED, script=back.tie_script)
    assert back.tie_script == inst.tie_script


#: Events at 0, 1/3, 1 and 4/3 on a grid of thirds.  The entry at 0 names
#: the only released job; 1/2 and 1/6 lie off the grid, 5/3 and -1/3 on it
#: at no event, and job 5 does not exist.
_THIRDS_JOBS = (Job(0, 0, 1, 1), Job(1, Fraction(1, 3), Fraction(1, 3), Fraction(1, 3)))
_THIRDS_SCRIPT = (
    (Fraction(0), 0), (Fraction(1, 2), 5), (Fraction(1, 6), 1), (Fraction(5, 3), 0),
    (Fraction(-1, 3), 1),
)


class TestGridScript:
    """A tie script lives on its instance's time grid; ``tie_script`` is its Fraction view."""

    def test_off_grid_entries_survive_and_match_no_event(self):
        inst = Instance(_THIRDS_JOBS, tie_script=_THIRDS_SCRIPT)
        assert inst._script == (
            [0, Fraction(1, 2), Fraction(1, 6), 5, -1], [0, 5, 1, 0, 1]
        )
        first = _written(write_instance, inst)
        assert [e["t"] for e in json.loads(first)["tie_script"]] == [
            "0", "1/2", "1/6", "5/3", "-1/3"
        ]
        back = read_instance(io.StringIO(first))
        assert _written(write_instance, back) == first
        assert back._script == inst._script and back.tie_script == _THIRDS_SCRIPT
        assert simulate(back, tie=TieRule.SCRIPTED) == simulate(back)
        assert simulate(inst, tie=TieRule.SCRIPTED) == simulate(inst)

    @pytest.mark.parametrize("source", ["constructor", "gen_basic", "gen_nested", "read"])
    def test_tie_script_is_the_fraction_tuple_built_once(self, source):
        basic = ScenarioParams(_Y, _V, delta=Fraction(1, 100))
        if source == "constructor":
            inst = Instance(_THIRDS_JOBS, tie_script=list(_THIRDS_SCRIPT))
            expected = _THIRDS_SCRIPT
        elif source == "gen_nested":
            params = NestedParams(basic, Fraction("0.5307"), _SWEEP_P_S,
                                  ScenarioParams(_Y, _V, Fraction(1, 3), Fraction(1, 70)))
            inst = gen_nested(params)
            expected = reference_gen_nested(params).tie_script
        else:
            inst = gen_basic(basic)
            expected = reference_gen_basic(basic).tie_script
            if source == "read":
                inst = read_instance(io.StringIO(_written(write_instance, inst)))
        script = inst.tie_script
        assert script is inst.tie_script and script == expected
        assert type(script) is tuple
        assert all(type(e) is tuple and type(e[0]) is Fraction for e in script)
        assert all(type(choice) is int for _, choice in script)

    def test_split_job_keeps_the_script(self):
        # Splitting job 1 into three shifts every later id by two; an entry
        # naming job 1 names its first fragment.
        params = NestedParams(ScenarioParams(_Y, _V, delta=Fraction(1, 100)), Fraction("0.5307"),
                              _SWEEP_P_S, ScenarioParams(_Y, _V, delta=Fraction(1, 100)))
        inst = gen_nested(params)
        split = split_job(inst, 1, 3)
        assert split.tie_script == tuple((t, c + 2 if c > 1 else c) for t, c in inst.tie_script)
        assert len({c for _, c in split.tie_script}) > 2
        again = read_instance(io.StringIO(_written(write_instance, split)))
        assert again.tie_script == split.tie_script

    def test_fuzz_certificate_keeps_the_script(self, tmp_path, monkeypatch):
        fuzz_module = importlib.import_module("wsrpt.fuzz")
        script = ((Fraction(1, 3), 0), (Fraction(0), 1))  # 1/3 lies off every half grid

        def scripted(rng, n, kind):
            drawn = gen_random(rng, n, kind)
            return Instance(drawn.jobs, tie_script=script, tags=drawn.tags)

        monkeypatch.setattr(fuzz_module, "gen_random", scripted)
        report = fuzz_module.fuzz(6, seed=2, out_dir=tmp_path)
        certificate = read_instance(report.certificate_path)
        assert certificate.tie_script == script
        assert certificate.tags["fuzz_ratio"]


def _scripted(script, tags=None) -> dict:
    """A two-job document with ``script`` as its tie script."""
    doc = {**_doc({}, {}), "tie_script": script}
    if tags is not None:
        doc["tags"] = tags
    return doc


#: Malformed tie scripts and the error each raises, first fault first.
_MALFORMED_SCRIPTS = [
    ("not-a-list", _scripted(5), "tie-script records are not a JSON list"),
    ("record-not-an-object", _scripted([5]), "tie-script record 0 is not a JSON object"),
    ("no-choice", _scripted([{"t": "0"}]), "tie-script record 0 lacks field 'choice'"),
    ("no-time", _scripted([{"t": "0", "choice": 0}, {"choice": 0}]),
     "tie-script record 1 lacks field 't'"),
    ("bad-numeral", _scripted([{"t": "0", "choice": 0}, {"t": "x", "choice": 0}]),
     "not a rational numeral: 'x'"),
    ("zero-denominator", _scripted([{"t": "1/0", "choice": 0}]), "not a rational numeral: '1/0'"),
    ("huge-exponent", _scripted([{"t": "1e99999", "choice": 0}]),
     "numeral '1e99999' has a decimal exponent beyond +-4300"),
    ("float-time", _scripted([{"t": 0.5, "choice": 0}]),
     "refusing inexact value 0.5; pass a string or Fraction"),
    ("bool-time", _scripted([{"t": True, "choice": 0}]),
     "refusing boolean value True; pass a number"),
    ("bool-choice", _scripted([{"t": "0", "choice": True}]),
     "tie-script choice must be an int, not True"),
    ("float-choice", _scripted([{"t": "0", "choice": 1.0}]),
     "tie-script choice must be an int, not 1.0"),
    # Every record is read, and the tags are checked, before any choice.
    ("numeral-before-choice", _scripted([{"t": "0", "choice": "a"}, {"t": "x", "choice": 0}]),
     "not a rational numeral: 'x'"),
    ("record-before-choice", _scripted([{"t": "0", "choice": "a"}, {"t": "1"}]),
     "tie-script record 1 lacks field 'choice'"),
    ("tags-before-choice", _scripted([{"t": "0", "choice": "a"}], tags=5),
     "instance tags are not a JSON object of scalars"),
]


@pytest.mark.parametrize(
    "doc, message", [case[1:] for case in _MALFORMED_SCRIPTS],
    ids=[case[0] for case in _MALFORMED_SCRIPTS],
)
def test_malformed_scripts_keep_their_error_text(doc, message):
    with pytest.raises(ValueError) as err:
        instance_from_dict(json.loads(json.dumps(doc)))
    assert str(err.value) == message


def _fuzz_certificate():
    """The instance ``fuzz`` writes as its certificate, caught before it is written."""
    fuzz_module = importlib.import_module("wsrpt.fuzz")
    written = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fuzz_module, "write_instance", lambda inst, path: written.append(inst))
        fuzz_module.fuzz(12, seed=11, out_dir=".")
    (certificate,) = written
    return certificate


#: Ids out of order; 1/3 lies off the grid of halves and 5/2 on it at no release.
_UNORDERED_DOC = {
    "jobs": [{"id": 3, "r": "1/2", "p": "1", "w": "2"},
             {"id": 0, "r": "0", "p": "3/2", "w": "1/3"},
             {"id": 7, "r": "1/2", "p": "1/2", "w": "1"}],
    "tie_script": [{"t": "1/2", "choice": 3}, {"t": "1/3", "choice": 0},
                   {"t": "5/2", "choice": 7}],
}

#: A seed per kind whose three-job draw has whole-number times only.
_WHOLE_DRAWS = {"general": 62, "unit-weight": 80, "zero-release": 8}

#: Every way an instance is built, besides ``Instance(jobs, tie_script)`` itself.
_ROUTES = {
    "gen-basic": lambda: gen_basic(ScenarioParams(_Y, _V, Fraction(1, 3), Fraction(1, 50))),
    "gen-nested": lambda: gen_nested(NestedParams(
        ScenarioParams(_Y, _V, delta=Fraction(1, 100)), Fraction("0.5307"), _SWEEP_P_S,
        ScenarioParams(_Y, _V, delta=Fraction(1, 100)))),
    **{f"gen-random-{kind}-halves": (lambda kind=kind: gen_random(Random(5), 7, kind))
       for kind in RANDOM_KINDS},
    **{f"gen-random-{kind}-wholes":
       (lambda kind=kind, seed=seed: gen_random(Random(seed), 3, kind))
       for kind, seed in _WHOLE_DRAWS.items()},
    "reader": lambda: instance_from_dict(_UNORDERED_DOC),
    **{f"play-{policy}": (lambda policy=policy: play(policy, delta="1/100").instance)
       for policy in (Policy.WSRPT, Policy.WSPT_PREEMPTIVE, Policy.SRPT, "j2-first", "equalizer")},
    "split-job": lambda: split_job(instance_from_dict(_UNORDERED_DOC), 0, 3),
    "fuzz-certificate": _fuzz_certificate,
}


@pytest.mark.parametrize("route", _ROUTES)
def test_every_route_builds_the_grid_instance_of_jobs_builds(route):
    # The generators, the game and the fuzz certificate vouch for the
    # grid ``Instance(jobs)`` would build: den_t is the lcm of the time
    # denominators, and each script time sits where the builder puts it.
    inst = _ROUTES[route]()
    built = Instance(inst.jobs, inst.tie_script, inst.tags)
    assert built._grid == inst._grid
    assert built._script == inst._script
    assert built._by_id == inst._by_id
    assert built == inst and hash(built) == hash(inst)


def test_rendering_builds_no_jobs(tmp_path):
    inst = read_instance(io.StringIO(_written(write_instance, instance_from_dict(_UNORDERED_DOC))))
    sched = simulate(inst)
    render_gantt(sched, inst, tmp_path / "g.svg")
    render_profile(sched, inst, tmp_path / "p.svg")
    assert "jobs" not in vars(inst)


def _outcome(f):
    """``f()``, or the type of the error it raises."""
    try:
        return f()
    except (OverflowError, ZeroDivisionError) as exc:
        return type(exc)


@given(st.integers(0, 10**400), st.integers(1, 10**400), st.integers(1, 10**400),
       st.integers(1, 10**400))
@settings(max_examples=100, deadline=None)
def test_profile_ratio_on_the_grid_is_the_job_ratio(num, den, p, den_t):
    # Both are quotients of correctly rounded floats of the same rationals:
    # equal floats, or the same error past the float range either way.
    on_grid = _outcome(lambda: (num / den) / (p / den_t))
    assert on_grid == _outcome(lambda: float(Fraction(num, den)) / float(Fraction(p, den_t)))
