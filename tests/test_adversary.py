"""Two-long-job adversary game: branch selection, burst sizing, and the
certified ratio against every policy it is played against."""

import json
import math
import re
from fractions import Fraction

import pytest

from wsrpt.adversary import (
    BRANCH_FIRST_UNTOUCHED,
    BRANCH_SECOND_AHEAD,
    BRANCH_TERMINAL,
    AdversaryState,
    choose_l,
    play,
    transcript_to_dict,
    write_transcript,
)
from wsrpt.core import Job, rational_str, to_rational
from wsrpt.instances import instance_from_dict, slices_from_dicts
from wsrpt.oracle import optimal_bruteforce
from wsrpt.simulator import Policy, TieRule

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
