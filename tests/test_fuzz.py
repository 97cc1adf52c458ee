"""Fuzz driver argument checks and the gates on each trial's ratio."""

import importlib
from fractions import Fraction
from random import Random

import pytest

from wsrpt import _backend, simulator
from wsrpt.cli import main
from wsrpt.core import Instance, Job, objective
from wsrpt.fuzz import EnvelopeBreach, evaluate_instance, fuzz
from wsrpt.instances import RANDOM_KINDS, ScenarioParams, gen_basic, gen_random, read_instance
from wsrpt.oracle import optimal_objective
from wsrpt.simulator import TieRule, simulate

# The package exports the function under the module's name.
fuzz_module = importlib.import_module("wsrpt.fuzz")


def _unit_weight_above_one(instance):
    # Inside the envelope, so only the structured-class check can fire.
    return (11, 10) if instance.tags["kind"] == "unit-weight" else (1, 1)


class TestOutDir:
    def test_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        # Only the CLI resolves WSRPT_OUT_DIR; the library writes nothing
        # unless it is given out_dir.
        monkeypatch.setenv("WSRPT_OUT_DIR", str(tmp_path))
        assert fuzz(5, seed=1).certificate_path is None
        assert list(tmp_path.iterdir()) == []


def _rigged_general(scores):
    """A trial scorer that gives the k-th general trial the (simulated,
    optimal) pair scores[k] and every structured trial (1, 1); the general
    instances land in a list."""
    general = []

    def evaluate(instance):
        if instance.tags["kind"] != "general":
            return 1, 1
        general.append(instance)
        return scores[len(general) - 1]

    return evaluate, general


class TestCertificate:
    """The certificate is the earliest general trial of the worst ratio."""

    @pytest.mark.parametrize(
        "scores, chosen",
        [
            # The pairs are compared as ratios, unreduced.
            (((11, 10), (22, 20), (33, 30)), 0),
            (((11, 10), (12, 10), (6, 5)), 1),
        ],
        ids=["equal-ratios-keep-the-first", "larger-ratio-replaces"],
    )
    def test_earliest_worst_trial(self, tmp_path, monkeypatch, scores, chosen):
        evaluate, general = _rigged_general(scores)
        monkeypatch.setattr(fuzz_module, "_score", evaluate)
        report = fuzz(9, seed=4, out_dir=tmp_path)
        assert len(general) == 3
        ratio = Fraction(*scores[chosen])
        certificate = read_instance(report.certificate_path)
        assert certificate.jobs == general[chosen].jobs
        assert certificate.tags["fuzz_ratio"] == str(ratio)
        assert report.classes["general"].worst_ratio == ratio


class TestNMax:
    @pytest.mark.parametrize("n_max", [1, 0, -3])
    def test_rejects_below_two(self, n_max):
        with pytest.raises(ValueError, match="n_max must be at least 2"):
            fuzz(1, n_max=n_max)

    def test_two_is_accepted(self):
        assert fuzz(3, n_max=2, seed=0).trials == 3

    def test_subset_dp_cap_is_accepted(self):
        # n_max may reach the subset DP's 16-job cap (seed 2 draws two
        # 16-job trials); the exhaustive tie search finishes every trial,
        # so none is skipped.
        report = fuzz(6, n_max=16, seed=2)
        assert report.trials == 6
        assert sum(c.skipped for c in report.classes.values()) == 0

    def test_past_the_subset_dp_cap_is_refused(self):
        with pytest.raises(ValueError, match="n_max must be at most 16"):
            fuzz(1, n_max=17)


class TestGates:
    def test_ratio_past_the_envelope_is_a_breach(self, monkeypatch):
        monkeypatch.setattr(fuzz_module, "_score", lambda _: (13, 10))
        with pytest.raises(EnvelopeBreach, match="ratio 1.300000000 exceeds") as exc:
            fuzz(1, seed=0)
        assert exc.value.ratio == Fraction(13, 10)

    def test_unit_weight_ratio_above_one_fails(self, monkeypatch):
        monkeypatch.setattr(fuzz_module, "_score", _unit_weight_above_one)
        with pytest.raises(AssertionError) as exc:
            fuzz(3, seed=0)
        assert not isinstance(exc.value, EnvelopeBreach)
        assert str(exc.value) == "unit-weight instance simulated at ratio 11/10 != 1"

    @pytest.mark.parametrize(
        "rigged, message",
        [
            (lambda _: (13, 10), "ratio 1.300000000 exceeds envelope"),
            (_unit_weight_above_one, "unit-weight instance simulated at ratio 11/10"),
        ],
        ids=["breach", "unit-weight"],
    )
    def test_cli_exits_2(self, tmp_path, capsys, monkeypatch, rigged, message):
        monkeypatch.setattr(fuzz_module, "_score", rigged)
        code = main(["fuzz", "--trials", "3", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"assertion failed: {message}")
        assert list(tmp_path.iterdir()) == []


def reference_ratio(instance):
    """The trial ratio through the public schedule, objective and optimum."""
    worst = simulate(instance, tie=TieRule.EXHAUSTIVE_WORST)
    return Fraction(objective(worst, instance), optimal_objective(instance))


HAND_MADE = {
    # Scored in list order instead of id order, its ratio 284/281 reads 1.
    "ids-out-of-list-order": Instance((
        Job(5, "1/2", "5/2", "5/2"), Job(1, "1/2", 1, 1), Job(3, 3, "5/2", "3/2"),
        Job(0, 3, 2, "5/2"), Job(2, "3/2", 3, 3),
    )),
    "zero-weights": Instance((Job(0, 0, 2, 0), Job(1, 1, 1, 1), Job(2, 1, 3, 0), Job(3, 0, 1, 2))),
    "all-weights-zero-but-one": Instance((Job(4, 0, 1, 0), Job(2, 0, 1, 0), Job(0, 3, 2, 1))),
    "thirds-sevenths-elevenths": Instance(
        (Job(2, "1/3", "5/7", "2/9"), Job(0, 0, "3/2", "1/5"), Job(1, "2/3", "1/11", "7/3"))
    ),
    "huge-and-tiny": Instance((Job(1, 0, "1e30", "1e-20"), Job(0, "1/1000", 1, "3e-21"))),
    # Every release ties the running job: the search branches at each one.
    "equality-basic-9": gen_basic(ScenarioParams(Fraction(3, 5), Fraction(3, 10), delta=Fraction(1, 7))),
}


class TestEvaluateInstance:
    """``evaluate_instance`` scores on one integer scaling; these pin it to
    the worst-tie schedule's objective over the subset-DP optimum."""

    def test_seeded_draws_match_the_reference(self):
        rng = Random(24)
        for n in range(1, 10):
            for kind in RANDOM_KINDS:
                for _ in range(25 if n < 8 else 8):
                    instance = gen_random(rng, n, kind)
                    assert evaluate_instance(instance) == reference_ratio(instance)
                    if kind == "general":  # the same jobs, ids reversed
                        jobs = (Job(n - 1 - j.id, j.release, j.processing, j.weight) for j in instance.jobs)
                        reversed_ids = Instance(tuple(jobs))
                        assert evaluate_instance(reversed_ids) == reference_ratio(reversed_ids)

    @pytest.mark.parametrize("instance", HAND_MADE.values(), ids=HAND_MADE.keys())
    def test_hand_made_instances_match_the_reference(self, instance):
        assert evaluate_instance(instance) == reference_ratio(instance)

    def test_subset_cost_is_looked_up_at_call_time(self, monkeypatch):
        # A tracer can wrap _backend.subset_cost and read n as its fourth
        # positional argument.
        calls = []
        cost = _backend.subset_cost
        monkeypatch.setattr(_backend, "subset_cost", lambda *args: (calls.append(args), cost(*args))[1])
        instance = HAND_MADE["ids-out-of-list-order"]
        assert evaluate_instance(instance) == reference_ratio(instance)
        assert [len(args) for args in calls] == [4]
        assert calls[0][3] == len(instance.jobs)

    def test_search_over_budget_is_not_scored(self, monkeypatch):
        monkeypatch.setattr(simulator, "CELLS", 4)
        assert evaluate_instance(gen_random(Random(3), 6)) is None

    def test_past_the_job_cap_the_subset_dp_refuses_after_the_search(self, monkeypatch):
        # Distinct ratios and one release: the search walks one path.
        instance = Instance(tuple(Job(k, 0, 1, k + 1) for k in range(17)))
        with pytest.raises(ValueError, match="^instance has 17 jobs; exact search is capped at 16$"):
            evaluate_instance(instance)
        monkeypatch.setattr(simulator, "MAX_SEARCH_DEPTH", 16)
        assert evaluate_instance(instance) is None
