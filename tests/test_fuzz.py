"""Fuzz driver argument checks and the gates on each trial's ratio."""

import importlib
from fractions import Fraction

import pytest

from wsrpt.cli import main
from wsrpt.fuzz import EnvelopeBreach, fuzz
from wsrpt.instances import read_instance

# The package exports the function under the module's name.
fuzz_module = importlib.import_module("wsrpt.fuzz")


def _unit_weight_above_one(instance):
    # Inside the envelope, so only the structured-class check can fire.
    return Fraction(11, 10) if instance.tags["kind"] == "unit-weight" else Fraction(1)


class TestOutDir:
    def test_environment_variable_is_not_read(self, tmp_path, monkeypatch):
        # Only the CLI resolves WSRPT_OUT_DIR; the library writes nothing
        # unless it is given out_dir.
        monkeypatch.setenv("WSRPT_OUT_DIR", str(tmp_path))
        assert fuzz(5, seed=1).certificate_path is None
        assert list(tmp_path.iterdir()) == []


def _rigged_general(ratios):
    """An evaluate_instance that scores the k-th general trial ratios[k]
    and every structured trial 1; the general instances land in a list."""
    general = []

    def evaluate(instance):
        if instance.tags["kind"] != "general":
            return Fraction(1)
        general.append(instance)
        return ratios[len(general) - 1]

    return evaluate, general


class TestCertificate:
    """The certificate is the earliest general trial of the worst ratio."""

    @pytest.mark.parametrize(
        "ratios, chosen",
        [
            ((Fraction(11, 10),) * 3, 0),
            ((Fraction(11, 10), Fraction(6, 5), Fraction(6, 5)), 1),
        ],
        ids=["equal-ratios-keep-the-first", "larger-ratio-replaces"],
    )
    def test_earliest_worst_trial(self, tmp_path, monkeypatch, ratios, chosen):
        evaluate, general = _rigged_general(ratios)
        monkeypatch.setattr(fuzz_module, "evaluate_instance", evaluate)
        report = fuzz(9, seed=4, out_dir=tmp_path)
        assert len(general) == 3
        certificate = read_instance(report.certificate_path)
        assert certificate.jobs == general[chosen].jobs
        assert certificate.tags["fuzz_ratio"] == str(ratios[chosen])
        assert report.classes["general"].worst_ratio == ratios[chosen]


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
        monkeypatch.setattr(fuzz_module, "evaluate_instance", lambda _: Fraction(13, 10))
        with pytest.raises(EnvelopeBreach, match="ratio 1.300000000 exceeds") as exc:
            fuzz(1, seed=0)
        assert exc.value.ratio == Fraction(13, 10)

    def test_unit_weight_ratio_above_one_fails(self, monkeypatch):
        monkeypatch.setattr(fuzz_module, "evaluate_instance", _unit_weight_above_one)
        with pytest.raises(AssertionError) as exc:
            fuzz(3, seed=0)
        assert not isinstance(exc.value, EnvelopeBreach)
        assert str(exc.value) == "unit-weight instance simulated at ratio 11/10 != 1"

    @pytest.mark.parametrize(
        "rigged, message",
        [
            (lambda _: Fraction(13, 10), "ratio 1.300000000 exceeds envelope"),
            (_unit_weight_above_one, "unit-weight instance simulated at ratio 11/10"),
        ],
        ids=["breach", "unit-weight"],
    )
    def test_cli_exits_2(self, tmp_path, capsys, monkeypatch, rigged, message):
        monkeypatch.setattr(fuzz_module, "evaluate_instance", rigged)
        code = main(["fuzz", "--trials", "3", "--out", str(tmp_path)])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"assertion failed: {message}")
        assert list(tmp_path.iterdir()) == []
