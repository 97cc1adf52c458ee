"""Two-long-job adversary game: branch selection, burst sizing, and the
certified ratio against every policy it is played against."""

import io
import json
import math
import re
from fractions import Fraction
from random import Random

import pytest

from wsrpt.adversary import (
    BRANCH_FIRST_UNTOUCHED,
    BRANCH_SECOND_AHEAD,
    BRANCH_TERMINAL,
    AdversaryState,
    _equalizer_schedule,
    choose_l,
    play,
    transcript_to_dict,
    write_transcript,
)
from wsrpt.core import Instance, Job, Schedule, Slice, objective, rational_str, to_rational
from wsrpt.instances import (
    ScenarioParams,
    gen_basic,
    gen_random,
    instance_from_dict,
    slices_from_dicts,
    slices_to_dicts,
    write_instance,
)
from wsrpt.oracle import optimal_bruteforce
from wsrpt.simulator import Policy, TieRule, simulate

from conftest import only_json

# (policy, tie, branch, ratio at delta=1e-2, ratio at delta=1e-3)
GAMES = [
    (Policy.WSRPT, TieRule.PREFER_RUNNING, BRANCH_TERMINAL, 1.103748, 1.103833),
    (Policy.WSRPT, TieRule.PREFER_NEW_LONGEST, BRANCH_FIRST_UNTOUCHED, 1.103746, 1.103831),
    (Policy.WSRPT, TieRule.PREFER_NEW_SHORTEST, BRANCH_TERMINAL, 1.103748, 1.103833),
    (Policy.WSPT_PREEMPTIVE, TieRule.PREFER_RUNNING, BRANCH_TERMINAL, 1.103748, 1.103833),
    (Policy.SRPT, TieRule.PREFER_RUNNING, BRANCH_TERMINAL, 1.103748, 1.103833),
    ("j2-first", TieRule.PREFER_RUNNING, BRANCH_FIRST_UNTOUCHED, 1.103746, 1.103831),
    ("equalizer", TieRule.PREFER_RUNNING, BRANCH_SECOND_AHEAD, 1.141212, 1.141311),
]

IDS = [
    "wsrpt-running",
    "wsrpt-new-longest",
    "wsrpt-new-shortest",
    "wspt",
    "srpt",
    "j2-first",
    "equalizer",
]


class TestPlay:
    @pytest.mark.parametrize("policy,tie,branch,coarse,fine", GAMES, ids=IDS)
    def test_branch_and_ratio(self, policy, tie, branch, coarse, fine):
        t = play(policy, tie=tie, delta="1e-2")
        assert t.branch == branch
        assert float(t.ratio) == pytest.approx(coarse, abs=2e-6)
        floor = 1.1392 if policy == "equalizer" else 1.1038
        assert float(t.ratio) >= floor - 0.005

    @pytest.mark.parametrize("policy,tie,branch,coarse,fine", GAMES, ids=IDS)
    def test_finer_pieces_tighten(self, policy, tie, branch, coarse, fine):
        t = play(policy, tie=tie, delta="1e-3")
        assert t.branch == branch
        assert float(t.ratio) == pytest.approx(fine, abs=2e-6)
        assert fine > coarse  # smaller pieces certify more

    def test_exact_arithmetic(self):
        t = play(Policy.WSRPT, delta="1e-2")
        assert isinstance(t.online_objective, Fraction)
        assert isinstance(t.optimal_objective, Fraction)
        assert t.ratio == t.online_objective / t.optimal_objective

    def test_deterministic(self):
        a = play(Policy.WSRPT, delta="1e-2")
        b = play(Policy.WSRPT, delta="1e-2")
        assert a.instance.jobs == b.instance.jobs
        assert a.ratio == b.ratio
        assert a.schedule.slices == b.schedule.slices

    @pytest.mark.parametrize("delta, p2", [("1e-2", "2.3364"), ("1/7", "2.3364"), ("1e-2", "1.5")])
    def test_equalizer_runs_are_fused(self, delta, p2):
        # The rotation and the nonpreemptive tail fuse as they go: no two
        # consecutive runs belong to one job.
        runs = play("equalizer", delta=delta, p2=p2).schedule._runs
        assert len(runs) > 2
        assert all(a[0] != b[0] for a, b in zip(runs, runs[1:]))

    def test_geometry_validation(self):
        with pytest.raises(ValueError):
            play(Policy.WSRPT, p1=2, p2=1)
        with pytest.raises(ValueError):
            play(Policy.WSRPT, delta=0)
        with pytest.raises(ValueError):
            play(Policy.WSRPT, delta=2, p1=1, p2=2)

    @pytest.mark.parametrize("delta", ["1e-400", "1e-30"])
    def test_too_fine_a_burst_is_refused(self, delta, monkeypatch):
        # float(1e-400) is 0.0 and 1e-30 asks for about 10**30 burst jobs;
        # both are refused before any burst job is built.
        built = []
        monkeypatch.setattr("wsrpt.adversary.Job", lambda *job: built.append(job) or Job(*job))
        head = re.escape(f"delta {rational_str(to_rational(delta))} cuts the burst of length ")
        with pytest.raises(ValueError, match=f"^{head}2.74387 into more than 1000000 pieces$"):
            play(Policy.WSRPT, delta=delta)
        assert len(built) == 2  # the probe's two long jobs

    def test_burst_at_the_piece_cap_is_played(self, monkeypatch):
        # j2-first's burst is 317.2 pieces of 1e-2: it rounds to 317, which
        # a cap of 317 admits and a cap of 316 refuses.
        monkeypatch.setattr("wsrpt.adversary.MAX_BURST_PIECES", 317)
        assert len(play("j2-first", delta="1e-2").instance.jobs) == 2 + 317
        monkeypatch.setattr("wsrpt.adversary.MAX_BURST_PIECES", 316)
        with pytest.raises(ValueError, match="into more than 316 pieces$"):
            play("j2-first", delta="1e-2")

    def test_probe_prefix_recorded(self):
        # the realized schedule replays the probe prefix: the checkpoint
        # remainders match what actually executed before the burst
        t = play(Policy.WSRPT, delta="1e-2")
        t_r = t.state.block_release
        rem1, rem2 = t.state.remainders_at(t_r)
        done1 = sum(
            min(s.end, t_r) - s.start
            for s in t.schedule.slices
            if s.job == 0 and s.start < t_r
        )
        done2 = sum(
            min(s.end, t_r) - s.start
            for s in t.schedule.slices
            if s.job == 1 and s.start < t_r
        )
        assert t.state.p1 - done1 == rem1
        assert t.state.p2 - done2 == rem2


class TestCoarseBlocks:
    """With half-unit pieces the realized instances are small enough to
    brute-force, so the closed-form optimal side can be checked exactly."""

    CASES = [
        (Policy.WSRPT, TieRule.PREFER_RUNNING, 5, Fraction(421294717, 12500000)),
        (Policy.WSRPT, TieRule.PREFER_NEW_LONGEST, 6, Fraction(631191458321, 20881250000)),
        ("equalizer", TieRule.PREFER_RUNNING, 5, Fraction(860131809571, 36506250000)),
    ]

    @pytest.mark.parametrize(
        "policy,tie,pieces,optimal", CASES, ids=["wsrpt", "new-longest", "equalizer"]
    )
    def test_closed_form_matches_bruteforce(self, policy, tie, pieces, optimal):
        t = play(policy, tie=tie, delta="0.5")
        assert len(t.instance.jobs) == 2 + pieces
        assert t.optimal_objective == optimal
        brute = optimal_bruteforce(t.instance)
        assert brute.objective == optimal


class TestChooseL:
    def test_degenerate_interior_equals_closed_form(self):
        # a second-ahead state whose remainders are the untouched-prefix
        # ones must steer the numeric search to the closed-form length
        p1, p2 = Fraction(1), Fraction(23364, 10000)
        state = AdversaryState(
            p1=p1,
            p2=p2,
            checkpoints=((p1, p1, p2 - p1),),
            branch=BRANCH_SECOND_AHEAD,
            block_release=p1,
            block_ratio=p2 / (p2 - p1),
            block_length=None,
            l1=0.0,
            l2=0.0,
        )
        closed = math.sqrt(2 * float(p2**3 - p1**3) / float(p2))
        assert choose_l(state) == pytest.approx(closed, abs=1e-4)

    def test_outer_branch_uses_closed_form(self):
        t = play("j2-first", delta="1e-2")
        closed = math.sqrt(
            2 * float(t.state.p2**3 - t.state.p1**3) / float(t.state.p2)
        )
        assert t.state.l1 == pytest.approx(closed, abs=1e-9)
        assert float(t.state.block_length) == pytest.approx(closed, abs=1e-2)

    def test_outer_lengths_scale_with_the_long_jobs(self):
        # Both outer lengths are √(2K/ρ): K grows with the square of the
        # jobs' scale and ρ does not change, so doubling p1 and p2 doubles
        # l1 and l2 alike.
        base = play("j2-first", delta="1e-2").state
        doubled = play("j2-first", delta="2e-2", p1=2, p2="4.6728").state
        assert doubled.l1 == pytest.approx(2 * base.l1, rel=1e-12)
        assert doubled.l2 == pytest.approx(2 * base.l2, rel=1e-12)


class TestTranscriptIO:
    def test_dict_shape(self):
        t = play(Policy.WSRPT, delta="1e-2")
        d = transcript_to_dict(t)
        assert d["branch"] == BRANCH_TERMINAL
        assert d["p1"] == "1" and d["p2"] == "5841/2500"
        assert d["ratio_exact"].count("/") == 1
        assert d["instance"]["jobs"][0] == {"id": 0, "r": "0", "p": "1", "w": "1"}
        assert all(set(s) == {"job", "start", "end"} for s in d["schedule"])
        assert json.dumps(d)  # JSON-serializable end to end

    def test_write_and_reload(self, tmp_path):
        t = play(Policy.SRPT, delta="1e-2")
        dest = tmp_path / "transcript.json"
        write_transcript(t, dest)
        loaded = json.loads(dest.read_text())
        assert loaded["ratio"] == pytest.approx(float(t.ratio), abs=1e-12)
        assert Fraction(loaded["online_objective"]) == t.online_objective
        assert len(loaded["instance"]["jobs"]) == len(t.instance.jobs)
        # Record lists nested at depth 2 (jobs, tie script) and 1 (slices).
        assert instance_from_dict(loaded["instance"]) == t.instance
        assert slices_from_dicts(loaded["schedule"]) == t.schedule.slices

    @pytest.mark.parametrize("delta", [None, "1/100"], ids=["default-delta", "delta=1/100"])
    @pytest.mark.parametrize("tie", [TieRule.PREFER_RUNNING, TieRule.PREFER_NEW_LONGEST])
    @pytest.mark.parametrize("policy", ["wsrpt", "wspt", "srpt", "j2-first", "equalizer"])
    def test_written_bytes_are_json_dump_of_the_dict(self, policy, tie, delta):
        # The writer renders the jobs and slices as tables; the dict expands
        # them.  Both must give json.dump's bytes.
        t = play(policy, tie=tie, delta=delta)
        d = transcript_to_dict(t)
        assert only_json(d)
        text = io.StringIO()
        write_transcript(t, text)
        assert text.getvalue().splitlines(True) == (json.dumps(d, indent=2) + "\n").splitlines(True)


def reference_equalizer_schedule(instance: Instance) -> Schedule:
    """The equalizer walked in Fractions over ``Job``s: cycles of p1/50
    split p1 : p2 between the long jobs until the first release after zero,
    then the rest nonpreemptively by decreasing w/rem, running job first
    among ties, then lower id."""
    p1, p2 = instance.job(0).processing, instance.job(1).processing
    later = sorted(dict.fromkeys(j.release for j in instance.jobs if j.release > 0))
    t_switch = later[0] if later else None
    cycle = p1 / 50
    shares = {0: cycle * p1 / (p1 + p2), 1: cycle * p2 / (p1 + p2)}
    rem = {j.id: j.processing for j in instance.jobs}
    runs = []

    def run(jid, start, end):
        if runs and runs[-1][0] == jid and runs[-1][2] == start:
            runs[-1][2] = end
        else:
            runs.append([jid, start, end])

    now, running = Fraction(0), None
    while rem[0] > 0 or rem[1] > 0:
        if t_switch is not None and now >= t_switch:
            break
        for jid in (0, 1):
            if rem[jid] == 0:
                continue
            d = min(shares[jid], rem[jid])
            if t_switch is not None:
                d = min(d, t_switch - now)
            if d <= 0:
                continue
            run(jid, now, now + d)
            rem[jid] -= d
            now += d
            running = jid
    alive = [j for j in instance.jobs if rem[j.id] > 0]
    alive.sort(key=lambda j: (-Fraction(j.weight, rem[j.id]), j.id != running, j.id))
    for j in alive:
        start = max(now, j.release)
        now = start + rem[j.id]
        run(j.id, start, now)
    return Schedule(Slice(*r) for r in runs)


def reference_game_instance(t) -> Instance:
    """The game instance of transcript ``t`` built from checked ``Job``s."""
    st = t.state
    delta = to_rational(t.instance.tags["delta"])
    pieces = st.block_length / delta
    assert pieces.denominator == 1
    jobs = [Job(0, 0, st.p1, st.p1), Job(1, 0, st.p2, st.p2)]
    jobs += [
        Job(2 + i, st.block_release, delta, st.block_ratio * delta)
        for i in range(pieces.numerator)
    ]
    return Instance(jobs, tags=dict(t.instance.tags))


def _game_grid():
    for p1 in ("1", "3/2"):
        for p2 in ("2.3364", "3", "11/7", "1.5"):
            if to_rational(p2) <= to_rational(p1):
                continue
            for delta in (None, "1/37", "1/100", "1/250"):
                yield p1, p2, delta


GAME_GRID = list(_game_grid())
GAME_IDS = [f"p1={p1}-p2={p2}-delta={d or 'p1/1000'}" for p1, p2, d in GAME_GRID]
POLICIES = ("wsrpt", "wspt", "srpt", "j2-first", "equalizer")


class TestGridGame:
    """The game instance, the equalizer and the transcript on the integer grid."""

    @pytest.mark.parametrize("tie", [TieRule.PREFER_RUNNING, TieRule.PREFER_NEW_LONGEST])
    @pytest.mark.parametrize("p1,p2,delta", GAME_GRID, ids=GAME_IDS)
    def test_equalizer_matches_the_fraction_walk(self, p1, p2, delta, tie):
        t = play("equalizer", tie=tie, delta=delta, p1=p1, p2=p2)
        probe = Instance((Job(0, 0, t.state.p1, t.state.p1), Job(1, 0, t.state.p2, t.state.p2)))
        for instance in (probe, t.instance):
            grid = _equalizer_schedule(instance)
            reference = reference_equalizer_schedule(instance)
            assert grid.slices == reference.slices
            assert objective(grid, instance) == objective(reference, instance)
            grid.validate(instance)
            reference.validate(instance)
        assert t.schedule == grid
        assert t.online_objective == objective(reference, t.instance)

    @pytest.mark.parametrize("policy", POLICIES)
    @pytest.mark.parametrize("p1,p2,delta", GAME_GRID[::3], ids=GAME_IDS[::3])
    def test_game_instance_matches_the_job_build(self, p1, p2, delta, policy):
        t = play(policy, delta=delta, p1=p1, p2=p2)
        ours, theirs = t.instance, reference_game_instance(t)
        assert ours._grid == theirs._grid
        assert ours._by_id == theirs._by_id
        assert ours.tags == theirs.tags
        assert ours.tie_script is None and theirs.tie_script is None
        assert ours.jobs == theirs.jobs
        assert ours == theirs and hash(ours) == hash(theirs)
        written = []
        for instance in (ours, theirs):
            text = io.StringIO()
            write_instance(instance, text)
            written.append(text.getvalue())
        assert written[0] == written[1]

    @pytest.mark.parametrize("policy", POLICIES)
    def test_game_builds_no_jobs(self, policy):
        # play -> transcript_to_dict -> write_transcript reads only the grid;
        # ``jobs`` is built on first access.
        t = play(policy, delta="1/100")
        transcript_to_dict(t)
        write_transcript(t, io.StringIO())
        assert "jobs" not in vars(t.instance)
        assert len(t.instance.jobs) == len(t.instance._grid.ids)

    @staticmethod
    def _fraction_rendered(schedule: Schedule) -> list[dict]:
        return [
            {"job": s.job, "start": rational_str(s.start), "end": rational_str(s.end)}
            for s in schedule.slices
        ]

    def test_slices_to_dicts_renders_each_time_as_its_fraction(self):
        basic = gen_basic(ScenarioParams(Fraction(1, 2), Fraction(3, 10), delta=Fraction(1, 20)))
        small = gen_random(Random(3), 5)
        schedules = [
            simulate(basic, tie=TieRule.SCRIPTED),  # engine
            simulate(small, tie=TieRule.EXHAUSTIVE_WORST),  # tie search
            Schedule((Slice(0, 0, Fraction(1, 3)), Slice(1, Fraction(1, 3), 2), Slice(0, 2, 5))),
            play("equalizer", delta="1/37").schedule,  # a grid finer than its times
            play("j2-first", delta="1/37").schedule,
        ]
        for schedule in schedules:
            assert slices_to_dicts(schedule) == self._fraction_rendered(schedule)
