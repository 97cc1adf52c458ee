"""Command-line surface: each subcommand end to end, config-file
resolution, default output locations, and exit-code discipline."""

import csv
import io
import json
import time
from fractions import Fraction

import pytest

from wsrpt import analysis
from wsrpt.cli import main
from wsrpt.core import Instance, Job, objective, rational_str, to_rational
from wsrpt.instances import read_instance, slices_to_dicts, write_instance
from wsrpt.oracle import optimal_objective, structured_optimal
from wsrpt.simulator import MAX_SEARCH_DEPTH, TieRule, simulate

from conftest import interrupts


ONE_JOB = '{"jobs": [{"id": 0, "r": "0", "p": "1", "w": "1"}]}'


def run(capsys, *argv):
    code = main(list(argv))
    return code, capsys.readouterr().out


def exit_code(*argv):
    """main's return value, or the status of the SystemExit it raised."""
    try:
        return main(list(argv))
    except SystemExit as exc:
        return exc.code


class TestGenerateSimulateOptimal:
    def test_round_trip(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        code, out = run(
            capsys, "gen", "basic", "--y", "0.5", "--v", "0.3",
            "--delta", "0.05", "--out", str(inst),
        )
        assert code == 0 and inst.exists()
        payload = json.loads(inst.read_text())
        assert {"id", "r", "p", "w"} == set(payload["jobs"][0])
        assert payload["tie_script"]

        sched = tmp_path / "sched.json"
        code, out = run(
            capsys, "simulate", "--instance", str(inst), "--tie", "scripted",
            "--out", str(sched),
        )
        assert code == 0 and "objective" in out
        slices = json.loads(sched.read_text())["slices"]
        assert all({"job", "start", "end"} == set(s) for s in slices)

        code, out = run(
            capsys, "optimal", "--instance", str(inst), "--method", "structured",
        )
        assert code == 0 and "structured objective" in out

    def test_exact_output_is_rational(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "basic", "--y", "0.5", "--delta", "0.25",
            "--out", str(inst))
        code, out = run(
            capsys, "simulate", "--instance", str(inst), "--tie", "scripted",
            "--exact",
        )
        assert code == 0
        value = out.split("objective ", 1)[1].strip()
        assert "/" in value or value.isdigit()

    def test_exact_objective_past_the_int_str_digit_limit(self, tmp_path, capsys):
        # 1,500 unit jobs whose weights have distinct prime denominators:
        # the objective's denominator has about 5,700 digits, more than
        # CPython converts between int and str by default.
        primes = [p for p in range(2, 12_600) if all(p % d for d in range(2, int(p**0.5) + 1))]
        inst = Instance(
            tuple(Job(i, i, 1, Fraction(1, q)) for i, q in enumerate(primes[:1500]))
        )
        path, sched = tmp_path / "inst.json", tmp_path / "sched.json"
        write_instance(inst, path)
        code, out = run(
            capsys, "simulate", "--instance", str(path), "--exact", "--out", str(sched)
        )
        assert code == 0
        expected = sum(Fraction(i + 1, q) for i, q in enumerate(primes[:1500]))
        assert to_rational(out.split("objective ", 1)[1].split()[0]) == expected
        assert to_rational(json.loads(sched.read_text())["objective"]) == expected

    def test_csv_schedule_export(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "random", "--n", "4", "--seed", "9",
            "--out", str(inst))
        sched = tmp_path / "sched.csv"
        code, _ = run(
            capsys, "simulate", "--instance", str(inst), "--out", str(sched),
        )
        assert code == 0
        lines = sched.read_text().strip().splitlines()
        assert lines[0] == "job,start,end"
        assert len(lines) > 1

    def test_schedule_files_match_the_reference_writers(self, tmp_path, capsys):
        # The CSV rows are csv.DictWriter's and the JSON is json.dump's, each
        # of slices_to_dicts' records, for the engine's and an oracle's runs.
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "basic", "--y", "0.5", "--v", "0.3", "--delta", "1/20",
            "--out", str(inst))
        instance = read_instance(inst)
        cases = [
            (["simulate", "--tie", "scripted"], simulate(instance, tie=TieRule.SCRIPTED)),
            (["optimal", "--method", "structured"], structured_optimal(instance).schedule),
        ]
        for argv, schedule in cases:
            records = slices_to_dicts(schedule)
            want = io.StringIO(newline="")
            writer = csv.DictWriter(want, fieldnames=["job", "start", "end"])
            writer.writeheader()
            writer.writerows(records)
            value = objective(schedule, instance)
            for suffix, text in (
                (".csv", want.getvalue()),
                (".json", json.dumps({"objective": rational_str(value), "slices": records},
                                     indent=2) + "\n"),
            ):
                out = tmp_path / f"sched{suffix}"
                code, _ = run(capsys, *argv, "--instance", str(inst), "--out", str(out))
                assert code == 0
                with open(out, encoding="utf-8", newline="") as f:
                    assert f.read() == text, (argv, suffix)

    def test_gen_nested(self, tmp_path, capsys):
        inst = tmp_path / "nested.json"
        code, out = run(
            capsys, "gen", "nested", "--y", "0.5", "--delta", "0.05",
            "--r-s", "0.3", "--p-s", "5", "--out", str(inst),
        )
        assert code == 0 and "jobs" in out
        payload = json.loads(inst.read_text())
        processings = [j["p"] for j in payload["jobs"]]
        assert "5" in processings  # the inner segment opener

    def test_gen_nested_takes_the_optimized_opener(self, tmp_path, capsys):
        # Without --p-s the opener's length is optimize_nested's p* at --r-s.
        inst = tmp_path / "nested.json"
        code, _ = run(
            capsys, "gen", "nested", "--y", "0.5", "--delta", "0.05",
            "--r-s", "0.3", "--out", str(inst),
        )
        assert code == 0
        p_star, _ = analysis.optimize_nested(0.3)
        p_s = rational_str(Fraction(p_star).limit_denominator(10**6))
        assert p_s in [j["p"] for j in json.loads(inst.read_text())["jobs"]]

    def test_gen_random_deterministic(self, tmp_path, capsys):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run(capsys, "gen", "random", "--n", "5", "--seed", "42", "--out", str(a))
        run(capsys, "gen", "random", "--n", "5", "--seed", "42", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_optimal_dp_grid(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "random", "--n", "3", "--seed", "5", "--out", str(inst))
        brute_code, brute_out = run(
            capsys, "optimal", "--instance", str(inst), "--method", "brute",
            "--exact",
        )
        dp_code, dp_out = run(
            capsys, "optimal", "--instance", str(inst), "--method", "dp",
            "--exact",
        )
        assert brute_code == dp_code == 0
        assert brute_out.split()[-1] == dp_out.split()[-1]

    def test_brute_force_takes_eleven_jobs(self, tmp_path, capsys):
        # The CLI's brute-force method shares the subset DP's 16-job cap.
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "random", "--n", "11", "--seed", "5", "--out", str(inst))
        code, out = run(
            capsys, "optimal", "--instance", str(inst), "--method", "brute",
            "--exact",
        )
        assert code == 0
        expected = rational_str(optimal_objective(read_instance(inst)))
        assert out == f"brute-force objective {expected}\n"


    @pytest.mark.parametrize("suffix", ["json", "csv"])
    def test_brute_force_writes_its_schedule(self, tmp_path, capsys, suffix):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "random", "--n", "4", "--seed", "9", "--out", str(inst))
        dest = tmp_path / f"sched.{suffix}"
        code, out = run(
            capsys, "optimal", "--instance", str(inst), "--method", "brute",
            "--exact", "--out", str(dest),
        )
        assert code == 0 and out.endswith(f"wrote {dest}\n")
        expected = optimal_objective(read_instance(inst))
        if suffix == "json":
            payload = json.loads(dest.read_text())
            assert payload["objective"] == rational_str(expected)
            assert all({"job", "start", "end"} == set(s) for s in payload["slices"])
        else:
            lines = dest.read_text().strip().splitlines()
            assert lines[0] == "job,start,end" and len(lines) > 1

    def test_structured_refuses_a_forged_family_tag(self, tmp_path, capsys):
        # A random draw tagged as a basic family instance: its ratio-ordered
        # schedule splits a job, so no objective is printed (the split
        # schedule's 23 is above the optimum 89/4).
        inst = tmp_path / "forged.json"
        run(capsys, "gen", "random", "--n", "6", "--seed", "7", "--out", str(inst))
        payload = json.loads(inst.read_text())
        payload["tags"]["family"] = "basic"
        inst.write_text(json.dumps(payload))
        assert optimal_objective(read_instance(inst)) == Fraction(89, 4)
        code = main(["optimal", "--instance", str(inst), "--method", "structured", "--exact"])
        captured = capsys.readouterr()
        assert code == 1 and captured.out == ""
        assert "splits a job, so it is not certified optimal" in captured.err

    @pytest.mark.parametrize(
        "argv, label",
        [
            (("simulate", "--policy", "wsrpt"), "objective"),
            (("optimal", "--method", "brute"), "brute-force objective"),
        ],
        ids=["simulate", "brute"],
    )
    def test_objective_past_the_float_range_prints_inf(self, tmp_path, capsys, argv, label):
        # Weights 1e400, 1e-400 and 0: the objective is about 1e399, past
        # the float range, so it prints as inf; --exact keeps the numeral.
        inst = tmp_path / "edge.json"
        inst.write_text(
            '{"jobs":[{"id":0,"r":"0","p":"1","w":"1e400"},'
            '{"id":1,"r":"0","p":"2","w":"1e-400"},{"id":2,"r":"1","p":"1","w":"0"}]}'
        )
        code, out = run(capsys, *argv, "--instance", str(inst))
        assert code == 0 and out == f"{label} inf\n"
        code, out = run(capsys, *argv, "--instance", str(inst), "--exact")
        assert code == 0 and out == f"{label} 1{'0' * 799}3/1{'0' * 400}\n"


class TestRender:
    def test_gantt_from_schedule_file(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "random", "--n", "4", "--seed", "2", "--out", str(inst))
        sched = tmp_path / "sched.json"
        run(capsys, "simulate", "--instance", str(inst), "--out", str(sched))
        svg = tmp_path / "plot.svg"
        code, _ = run(
            capsys, "render", "gantt", "--instance", str(inst),
            "--schedule", str(sched), "--out", str(svg),
        )
        assert code == 0
        assert svg.read_text().startswith("<svg")

    def test_gantt_refuses_a_float_slice_time(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        write_instance(Instance((Job(0, 0, Fraction(1, 10), 1),)), inst)
        sched = tmp_path / "sched.json"
        sched.write_text('{"slices": [{"job": 0, "start": "0", "end": 0.1}]}')
        code = main(
            ["render", "gantt", "--instance", str(inst), "--schedule", str(sched),
             "--out", str(tmp_path / "plot.svg")]
        )
        assert code == 1
        assert "refusing inexact value 0.1" in capsys.readouterr().err

    def test_profile_simulated_on_the_fly(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        run(capsys, "gen", "basic", "--y", "0.5", "--delta", "0.1",
            "--out", str(inst))
        svg = tmp_path / "profile.svg"
        code, _ = run(
            capsys, "render", "profile", "--instance", str(inst),
            "--tie", "scripted", "--out", str(svg),
        )
        assert code == 0
        assert "<polyline" in svg.read_text()

    def test_profile_breaks_across_idle_time(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        write_instance(Instance((Job(0, 0, 1, 1), Job(1, 3, 1, 2))), inst)
        svg = tmp_path / "profile.svg"
        code, _ = run(
            capsys, "render", "profile", "--instance", str(inst), "--out", str(svg),
        )
        assert code == 0
        assert svg.read_text().count("<polyline") == 2


class TestAnalysisCommands:
    def test_table1(self, tmp_path, capsys):
        out_csv = tmp_path / "table1.csv"
        code, out = run(capsys, "table1", "--out", str(out_csv))
        assert code == 0 and "max |delta|" in out
        lines = out_csv.read_text().strip().splitlines()
        assert len(lines) == 27  # header + 26 rows

    def test_optimize_basic(self, capsys):
        code, out = run(capsys, "optimize", "basic")
        assert code == 0
        assert "ratio 1.225883" in out

    def test_optimize_lb_with_json_out(self, tmp_path, capsys):
        dest = tmp_path / "lb.json"
        code, out = run(capsys, "optimize", "lb", "--out", str(dest))
        assert code == 0 and "bound 1.103841" in out
        assert json.loads(dest.read_text())["p2"] == pytest.approx(2.3363, abs=1e-3)

    def test_curves(self, tmp_path, capsys):
        dest = tmp_path / "fig4.csv"
        code, out = run(capsys, "curves", "--out", str(dest))
        assert code == 0
        assert "crossing p2 2.336322" in out
        lines = dest.read_text().strip().splitlines()
        assert lines[0] == "p2,finish_j1_first,finish_j2_first"
        assert len(lines) == 251

    def test_adversary(self, tmp_path, capsys):
        dest = tmp_path / "transcript.json"
        code, out = run(
            capsys, "adversary", "--policy", "wsrpt", "--delta", "1e-2",
            "--out", str(dest),
        )
        assert code == 0
        assert "branch terminal" in out and "ratio" in out
        assert json.loads(dest.read_text())["branch"] == "terminal"

    def test_fuzz_small(self, tmp_path, capsys):
        code, out = run(
            capsys, "fuzz", "--trials", "40", "--seed", "3",
            "--out", str(tmp_path),
        )
        assert code == 0
        assert "worst ratio" in out
        assert (tmp_path / "fuzz_certificate_seed3.json").exists()


class TestConfigAndEnvironment:
    def test_config_supplies_defaults(self, tmp_path, capsys):
        cfg = tmp_path / "wsrpt.cfg"
        cfg.write_text("trials=7\nn-max=4\n")
        code, out = run(
            capsys, "fuzz", "--config", str(cfg), "--out", str(tmp_path),
        )
        assert code == 0
        assert out.startswith("trials 7 ")

    def test_explicit_flag_beats_config(self, tmp_path, capsys):
        cfg = tmp_path / "wsrpt.cfg"
        cfg.write_text("trials=7\nn-max=4\n")
        code, out = run(
            capsys, "fuzz", "--trials", "5", "--config", str(cfg),
            "--out", str(tmp_path),
        )
        assert code == 0
        assert out.startswith("trials 5 ")

    @pytest.mark.parametrize(
        "value, flags, rational",
        [("true", [], True), ("no", [], False), ("true", ["--float"], False)],
    )
    def test_config_exact_picks_the_format(self, tmp_path, capsys, value, flags, rational):
        cfg = tmp_path / "wsrpt.cfg"
        cfg.write_text(f"exact={value}\n")
        code, out = run(
            capsys, "adversary", "--delta", "1e-2", *flags, "--config", str(cfg),
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 0
        assert ("/" in out.split("ratio ", 1)[1].splitlines()[0]) is rational

    def test_config_values_take_the_flags_types(self, tmp_path, capsys):
        cfg = tmp_path / "wsrpt.cfg"
        cfg.write_text("n=3\nseed=5\n")
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert run(capsys, "gen", "random", "--config", str(cfg), "--out", str(a))[0] == 0
        run(capsys, "gen", "random", "--n", "3", "--seed", "5", "--out", str(b))
        assert a.read_text() == b.read_text()

    def test_config_defaults_do_not_reach_the_next_call(self, tmp_path, capsys):
        # The parser is built once per process; a --config call parses with
        # a parser of its own, so the next call gets the flags' defaults.
        cfg = tmp_path / "wsrpt.cfg"
        cfg.write_text("n=3\nseed=5\n")
        a, b, c = (tmp_path / f"{name}.json" for name in "abc")
        assert run(capsys, "gen", "random", "--config", str(cfg), "--out", str(a))[0] == 0
        assert run(capsys, "gen", "random", "--out", str(b))[0] == 0
        assert run(capsys, "gen", "random", "--n", "6", "--seed", "0", "--out", str(c))[0] == 0
        assert len(read_instance(a).jobs) == 3
        assert b.read_text() == c.read_text()

    def test_config_value_of_wrong_type_is_validation_failure(self, tmp_path):
        cfg = tmp_path / "wsrpt.cfg"
        cfg.write_text("trials=abc\n")
        assert exit_code("fuzz", "--config", str(cfg), "--out", str(tmp_path)) == 1

    def test_config_ignores_keys_the_command_lacks(self, tmp_path, capsys):
        # adversary has no --seed; func and command must not redirect dispatch.
        cfg = tmp_path / "wsrpt.cfg"
        cfg.write_text("seed=3\nfunc=x\ncommand=table1\nbogus=1\n")
        code, out = run(
            capsys, "adversary", "--delta", "1e-2", "--config", str(cfg),
            "--out", str(tmp_path / "t.json"),
        )
        assert code == 0
        assert out.startswith("branch terminal\n")

    def test_out_dir_env(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("WSRPT_OUT_DIR", str(tmp_path))
        code, _ = run(capsys, "gen", "basic", "--y", "0.5", "--delta", "0.1")
        assert code == 0
        assert (tmp_path / "instance.json").exists()


class TestExitCodes:
    def test_missing_file_is_validation_failure(self, tmp_path, capsys):
        code = main(["simulate", "--instance", str(tmp_path / "missing.json")])
        assert code == 1

    def test_usage_error_is_validation_failure(self, tmp_path, monkeypatch):
        monkeypatch.setenv("WSRPT_OUT_DIR", str(tmp_path))
        for argv in (
            ["simulate"],  # --instance is required
            ["optimal", "--instance", "x.json", "--method", "bogus"],
            ["optimal", "--instance", "x.json", "--grid", "1/2"],  # no such flag
            ["adversary", "--seed", "3"],  # flags the command does not read
            # the game outgrows the exhaustive tie search; argparse refuses
            # before any search starts
            ["adversary", "--tie", "exhaustive-worst"],
            ["table1", "--exact"],
        ):
            with pytest.raises(SystemExit) as exc:
                main(argv)
            assert exc.value.code == 1
        assert list(tmp_path.iterdir()) == []

    def test_domain_error_is_validation_failure(self, tmp_path, capsys):
        code = main(
            ["gen", "basic", "--y", "1.5", "--out", str(tmp_path / "x.json")]
        )
        assert code == 1

    def test_short_inner_segment_is_validation_failure(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        code = main(
            ["gen", "nested", "--v", "0.7066", "--p-s", "0.1", "--out", str(out)]
        )
        assert code == 1
        assert "inner segment too short" in capsys.readouterr().err
        assert not out.exists()

    def test_bad_scripted_choice_is_validation_failure(self, tmp_path, capsys):
        inst = tmp_path / "inst.json"
        script = ((Fraction(0), 1),)  # job 0 has the higher ratio at t=0
        write_instance(
            Instance((Job(0, 0, 1, 2), Job(1, 0, 1, 1)), tie_script=script), inst
        )
        code = main(["simulate", "--instance", str(inst), "--tie", "scripted"])
        assert code == 1
        assert "not among the tied leaders" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "instance, schedule, argv, message",
        [
            # bool is an int subclass: read as numerals these were r = 0, p = 1
            ('{"jobs": [{"id": 0, "r": false, "p": true, "w": "1"}]}', None,
             ["simulate", "--exact"], "refusing boolean value False; pass a number"),
            # int() truncated the choice to job 0
            ('{"jobs": [{"id": 0, "r": "0", "p": "1", "w": "1"},'
             ' {"id": 1, "r": "0", "p": "1", "w": "1"}],'
             ' "tie_script": [{"t": "0", "choice": 0.7}]}', None,
             ["simulate", "--tie", "scripted"], "tie-script choice must be an int, not 0.7"),
            # int() read the slice as job 1
            ('{"jobs": [{"id": 0, "r": "0", "p": "1", "w": "1"},'
             ' {"id": 1, "r": "1", "p": "1", "w": "1"}]}',
             '{"slices": [{"job": 0, "start": "0", "end": "1"},'
             ' {"job": 1.9, "start": "1", "end": "2"}]}',
             ["render", "gantt"], "slice job must be an int, not 1.9"),
            # mixed id types ended in a TypeError from the timeline's sort
            ('{"jobs": [{"id": "0", "r": "0", "p": "1", "w": "1"},'
             ' {"id": 1.5, "r": "0", "p": "1", "w": "1"}]}', None,
             ["simulate"], "job id must be an int, not '0'"),
            # structurally wrong documents ended in a TypeError traceback
            ('{"jobs":[1]}', None, ["simulate"], "job record 0 is not a JSON object"),
            ("[]", None, ["simulate"], "instance is not a JSON object"),
            ('{"jobs":{"a":1}}', None, ["simulate"], "job records are not a JSON list"),
            (ONE_JOB, '{"slices":[1]}', ["render", "gantt"], "slice record 0 is not a JSON object"),
            (ONE_JOB, "[]", ["render", "gantt"], "schedule is not a JSON object"),
            # a missing field was reported as the bare key
            ('{"jobs": [{"id": 0, "r": "0", "p": "1"}]}', None,
             ["simulate"], "job record 0 lacks field 'w'"),
            (ONE_JOB[:-1] + ', "tie_script": [{"t": "0"}]}', None,
             ["simulate", "--tie", "scripted"], "tie-script record 0 lacks field 'choice'"),
            (ONE_JOB, '{"slices": [{"job": 0, "start": "0"}]}',
             ["render", "gantt"], "slice record 0 lacks field 'end'"),
            # these tags read and simulated, then failed to write back
            *((ONE_JOB[:-1] + f', "tags": {tags}}}', None, ["simulate"],
               "instance tags are not a JSON object of scalars")
              for tags in ("5", "[1, 2]", '"ab"', "null")),
            # Fraction built 10**100000000 for this numeral, for minutes
            ('{"jobs":[{"id":0,"r":"0","p":"1e100000000","w":"1"}]}', None,
             ["simulate"], "numeral '1e100000000' has a decimal exponent beyond +-4300"),
        ],
        ids=["bool-numerals", "float-choice", "float-slice-job", "mixed-ids",
             "job-not-object", "instance-a-list", "jobs-not-list",
             "slice-not-object", "schedule-a-list",
             "job-lacks-w", "tie-lacks-choice", "slice-lacks-end",
             "tags-int", "tags-list", "tags-str", "tags-null", "huge-exponent"],
    )
    def test_malformed_input_is_refused(self, tmp_path, capsys, instance, schedule, argv, message):
        (tmp_path / "inst.json").write_text(instance)
        files = ["--instance", str(tmp_path / "inst.json")]
        if schedule is not None:
            (tmp_path / "sched.json").write_text(schedule)
            files += ["--schedule", str(tmp_path / "sched.json")]
        start = time.perf_counter()
        code = main([*argv, *files, "--out", str(tmp_path / "out")])
        assert time.perf_counter() - start < 1
        assert code == 1
        assert capsys.readouterr() == ("", f"error: {message}\n")
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("delta", ["1e-400", "1e-30"])
    def test_too_fine_a_burst_is_refused(self, tmp_path, capsys, delta):
        # 1e-400 divided by zero as a float; 1e-30 built jobs without end.
        code = main(["adversary", "--delta", delta, "--out", str(tmp_path / "t.json")])
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: delta {rational_str(to_rational(delta))} cuts the burst")
        assert err.endswith(" into more than 1000000 pieces\n") and err.count("\n") == 1
        assert not (tmp_path / "t.json").exists()

    def test_too_fine_a_family_is_refused(self, tmp_path, capsys):
        # about 10**30 small pieces were built without bound
        start = time.perf_counter()
        code = main(["gen", "basic", "--delta", "1e-30", "--out", str(tmp_path / "g.json")])
        assert time.perf_counter() - start < 1
        assert code == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith(f"error: delta 1/1{'0' * 30} cuts the family into ")
        assert err.endswith(" small pieces, more than 1000000\n") and err.count("\n") == 1
        assert not (tmp_path / "g.json").exists()

    def test_assertion_failure_is_2(self, tmp_path, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise AssertionError("envelope breached")

        monkeypatch.setattr("wsrpt.cli.fuzz", boom)
        code = main(["fuzz", "--trials", "1", "--out", str(tmp_path)])
        assert code == 2

    @pytest.mark.parametrize(
        "flag", [["--n-max", "17"], ["--n-max", "1"], ["--trials", "0"]]
    )
    def test_bad_fuzz_bounds_are_validation_failures(self, tmp_path, capsys, flag):
        code = main(["fuzz", "--trials", "1", "--out", str(tmp_path), *flag])
        assert code == 1
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "family, argv, message",
        [
            (["basic", "--delta", "1e-3"],
             ["simulate", "--tie", "exhaustive-worst"],
             "error: exhaustive tie search needs a search depth"),
            # The long job's path through 410 releases, then 410 short
            # jobs: 820 moves deep.
            (interrupts(MAX_SEARCH_DEPTH // 2 + 10),
             ["optimal", "--method", "dp"],
             "error: time-indexed DP exceeded search depth"),
        ],
    )
    def test_search_budget_is_validation_failure(self, tmp_path, capsys, family, argv, message):
        # ``family`` is either gen's arguments or an instance written as is.
        inst = tmp_path / "inst.json"
        if isinstance(family, Instance):
            write_instance(family, inst)
        else:
            run(capsys, "gen", *family, "--out", str(inst))
        code = main([*argv, "--instance", str(inst)])
        assert code == 1
        assert capsys.readouterr().err.startswith(message)
