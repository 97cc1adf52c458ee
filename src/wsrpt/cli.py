"""Command-line workbench: simulation, oracles, generators, analysis
tables, the adversary game, fuzzing, and SVG rendering.

Every command is deterministic given its flags and seed.  Exit codes:
0 success, 1 validation failure (bad flags, bad files, domain errors,
searches over budget), 2 assertion failure (fuzz envelope breach,
reference-table mismatch).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import sys
from fractions import Fraction
from pathlib import Path

from . import analysis
from .adversary import EXTRA_POLICIES, play, write_transcript
from .core import (
    Schedule,
    _rational_str,
    _without_digit_limit,
    objective,
    rational_str,
    to_rational,
)
from .fuzz import fuzz
from .instances import (
    NestedParams,
    RANDOM_KINDS,
    ScenarioParams,
    _field,
    _slice_table,
    gen_basic,
    gen_nested,
    gen_random,
    read_instance,
    slices_from_dicts,
    write_instance,
    write_json,
)
from .oracle import (
    optimal_bruteforce,
    optimal_dp_timeindexed,
    structured_optimal,
)
from .render import render_gantt, render_profile
from .simulator import BudgetExceeded, Policy, TieRule, simulate

_ENV_OUT_DIR = "WSRPT_OUT_DIR"


class _Parser(argparse.ArgumentParser):
    """argparse defaults to exit code 2 on usage errors; we reserve 2 for
    assertion failures, so usage errors exit 1 like other validation."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def _flag_groups() -> tuple[argparse.ArgumentParser, ...]:
    """The shared flag groups, each built once and attached as a parent
    to the subcommands that read it: output and config (every command),
    the RNG seed, and the rational/float print format."""
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--out", default=None, help="output path")
    output.add_argument(
        "--config",
        default=None,
        help="key=value file supplying defaults for this command's flags",
    )
    seed = argparse.ArgumentParser(add_help=False)
    seed.add_argument("--seed", type=int, default=0, help="RNG seed")
    fmt = argparse.ArgumentParser(add_help=False)
    group = fmt.add_mutually_exclusive_group()
    group.add_argument(
        "--exact",
        action="store_true",
        dest="exact",
        help="print objectives as exact rationals",
    )
    group.add_argument(
        "--float",
        action="store_false",
        dest="exact",
        help="print objectives as floats (default)",
    )
    fmt.set_defaults(exact=False)
    return output, seed, fmt


def _load_config(path) -> dict[str, str]:
    values: dict[str, str] = {}
    for raw in Path(path).read_text(encoding="utf-8").splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ValueError(f"config line is not key=value: {line!r}")
        key, _, value = line.partition("=")
        values[key.strip().replace("-", "_")] = value.strip()
    return values


def _config_defaults(args: argparse.Namespace) -> dict:
    """The --config entries that name one of the parsed command's flags.

    They become that subcommand's parser defaults, which argparse converts
    by each flag's own type; only the --exact/--float pair has no type.
    Other keys, and the dispatch keys ``command`` and ``func``, are ignored.
    """
    flags = vars(args).keys() - {"command", "func"}
    values = {k: v for k, v in _load_config(args.config).items() if k in flags}
    if "exact" in values:
        values["exact"] = values["exact"].lower() in ("1", "true", "yes")
    return values


def _out_path(args: argparse.Namespace, default_name: str | None = None):
    """--out as given, else the default name under $WSRPT_OUT_DIR or cwd."""
    if args.out is not None:
        return Path(args.out)
    if default_name is None:
        return None
    return Path(os.environ.get(_ENV_OUT_DIR, ".")) / default_name


def _show(value, exact: bool) -> str:
    """A value as its exact numeral with ``exact``, else as its float.

    Every value shown is nonnegative, so one past the float range is inf.
    """
    if exact and isinstance(value, Fraction):
        return rational_str(value)
    try:
        return repr(float(value))
    except OverflowError:
        return "inf"


@_without_digit_limit()
def _write_schedule(schedule: Schedule, value: Fraction, path) -> None:
    """JSON of objective ``value`` and slices, or CSV (job,start,end) by the path."""
    slices = _slice_table(schedule)
    if str(path).endswith(".csv"):
        with open(path, "w", encoding="utf-8", newline="") as f:
            writer = csv.writer(f)
            writer.writerow(slices.keys)
            writer.writerows(slices.rows())
    else:
        write_json({"objective": _rational_str(value), "slices": slices}, path)


def _cmd_simulate(args) -> int:
    instance = read_instance(args.instance)
    schedule = simulate(instance, policy=Policy(args.policy), tie=TieRule(args.tie))
    schedule.validate(instance)
    value = objective(schedule, instance)
    print(f"objective {_show(value, args.exact)}")
    out = _out_path(args)
    if out is not None:
        _write_schedule(schedule, value, out)
        print(f"wrote {out}")
    return 0


def _cmd_optimal(args) -> int:
    instance = read_instance(args.instance)
    if args.method == "brute":
        result = optimal_bruteforce(instance)
    elif args.method == "dp":
        result = optimal_dp_timeindexed(instance)
    else:
        result = structured_optimal(instance)
    print(f"{result.method} objective {_show(result.objective, args.exact)}")
    out = _out_path(args)
    if out is not None:
        _write_schedule(result.schedule, result.objective, out)
        print(f"wrote {out}")
    return 0


def _cmd_gen(args) -> int:
    if args.family == "random":
        from random import Random

        instance = gen_random(Random(args.seed), args.n, args.kind)
    else:
        v = args.y if args.v is None else args.v
        params = ScenarioParams(y=args.y, v=v, z=args.z, delta=args.delta)
        if args.family == "basic":
            instance = gen_basic(params)
        else:
            r_s = to_rational(args.r_s)
            p_s = args.p_s
            if p_s is None:
                p_star, _ = analysis.optimize_nested(float(r_s))
                p_s = Fraction(p_star).limit_denominator(10**6)
            # The inner segment reuses the outer scenario's parameters.
            instance = gen_nested(
                NestedParams(outer=params, r_s=r_s, p_s=p_s, inner=params)
            )
    out = _out_path(args, "instance.json")
    write_instance(instance, out)
    print(f"wrote {out} ({len(instance._grid.ids)} jobs)")
    return 0


def _cmd_table1(args) -> int:
    rows = analysis.table1()
    out = _out_path(args, "table1.csv")
    metric_names = ("C", "C_star", "ratio", "W", "L")
    with open(out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(
            ["y", "v", "z", *metric_names, "W_over_L"]
            + [f"ref_{m}" for m in metric_names]
            + [f"delta_{m}" for m in metric_names]
        )
        for row in rows:
            m = row.metrics
            deltas = row.deltas()
            writer.writerow(
                [
                    f"{row.y:.4f}",
                    f"{row.v:.4f}",
                    f"{row.z:.4f}",
                    *(f"{getattr(m, name):.6f}" for name in metric_names),
                    f"{m.w_over_l:.6f}",
                    *(f"{row.reference[i]:.4f}" for i in (0, 1, 2, 3, 4)),
                    *(f"{deltas[name]:.2e}" for name in metric_names),
                ]
            )
    worst = max(row.max_delta() for row in rows)
    print(f"wrote {out} ({len(rows)} rows, max |delta| {worst:.2e})")
    if worst >= 1e-3:
        raise AssertionError(f"reference-table delta {worst:.2e} exceeds 1e-3")
    return 0


def _cmd_optimize(args) -> int:
    if args.target == "basic":
        y, v, ratio = analysis.optimize_basic()
        print(f"y {y:.6f}")
        print(f"v {v:.6f}")
        print(f"ratio {ratio:.6f}")
        payload = {"y": y, "v": v, "ratio": ratio}
    else:
        p2, value = analysis.optimize_lb()
        print(f"p2 {p2:.6f}")
        print(f"bound {value:.6f}")
        payload = {"p2": p2, "bound": value}
    out = _out_path(args)
    if out is not None:
        write_json(payload, out)
        print(f"wrote {out}")
    return 0


def _cmd_curves(args) -> int:
    p2_values = [round(1.02 + 0.02 * i, 6) for i in range(250)]
    curves = analysis.lb_curves(p2_values)
    out = _out_path(args, "fig4.csv")
    with open(out, "w", encoding="utf-8", newline="") as f:
        writer = csv.writer(f)
        writer.writerow(["p2", "finish_j1_first", "finish_j2_first"])
        for p2, a, b in zip(curves.p2, curves.finish_j1_first, curves.finish_j2_first):
            writer.writerow([f"{p2:.6f}", f"{a:.8f}", f"{b:.8f}"])
    print(f"wrote {out} ({len(p2_values)} points)")
    print(f"crossing p2 {curves.crossing_p2:.6f} value {curves.crossing_value:.6f}")
    return 0


def _cmd_adversary(args) -> int:
    transcript = play(
        args.policy,
        tie=TieRule(args.tie),
        delta=args.delta,
        p1=args.p1,
        p2=args.p2,
    )
    print(f"branch {transcript.branch}")
    print(f"online {_show(transcript.online_objective, args.exact)}")
    print(f"optimal {_show(transcript.optimal_objective, args.exact)}")
    print(f"ratio {_show(transcript.ratio, args.exact)}")
    out = _out_path(args, "transcript.json")
    write_transcript(transcript, out)
    print(f"wrote {out}")
    return 0


def _cmd_fuzz(args) -> int:
    out_dir = args.out if args.out is not None else os.environ.get(_ENV_OUT_DIR, ".")
    report = fuzz(args.trials, n_max=args.n_max, seed=args.seed, out_dir=out_dir)
    print(f"trials {report.trials} seed {report.seed}")
    for kind in RANDOM_KINDS:
        st = report.classes[kind]
        print(
            f"{kind:13s} trials {st.trials:6d} skipped {st.skipped:4d} "
            f"at-optimum {st.at_optimum:6d} worst {_show(st.worst_ratio, args.exact)}"
        )
    print(f"worst ratio {_show(report.worst_ratio, args.exact)}")
    if report.certificate_path:
        print(f"certificate {report.certificate_path}")
    return 0


def _cmd_render(args) -> int:
    instance = read_instance(args.instance)
    if args.schedule is not None:
        with open(args.schedule, encoding="utf-8") as f:
            schedule = Schedule(slices_from_dicts(_field(json.load(f), "slices", "schedule")))
        schedule.validate(instance)
    else:
        schedule = simulate(instance, policy=Policy(args.policy), tie=TieRule(args.tie))
    out = _out_path(args, f"{args.view}.svg")
    if args.view == "gantt":
        render_gantt(schedule, instance, out)
    else:
        render_profile(schedule, instance, out)
    print(f"wrote {out}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    """The ``wsrpt`` parser; ``parser.commands`` maps each subcommand name
    to its own parser."""
    output, seed, fmt = _flag_groups()
    parser = _Parser(prog="wsrpt", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    parser.commands = sub.choices
    policies = [x.value for x in Policy]
    ties = [x.value for x in TieRule]

    p = sub.add_parser("simulate", parents=[output, fmt], help="run a policy on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--policy", choices=policies, default="wsrpt")
    p.add_argument("--tie", choices=ties, default="prefer-running")
    p.set_defaults(func=_cmd_simulate)

    p = sub.add_parser("optimal", parents=[output, fmt], help="compute an optimal schedule")
    p.add_argument("--instance", required=True)
    p.add_argument("--method", choices=["brute", "dp", "structured"], default="brute")
    p.set_defaults(func=_cmd_optimal)

    p = sub.add_parser("gen", parents=[output, seed], help="generate an instance file")
    p.add_argument("family", choices=["basic", "nested", "random"])
    p.add_argument("--y", default="0.8157")
    p.add_argument("--v", default=None, help="defaults to --y")
    p.add_argument("--z", default="0")
    p.add_argument("--delta", default="1e-2")
    p.add_argument("--r-s", dest="r_s", default="0.5307")
    p.add_argument("--p-s", dest="p_s", default=None)
    p.add_argument("--n", type=int, default=6)
    p.add_argument("--kind", choices=list(RANDOM_KINDS), default="general")
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("table1", parents=[output], help="reproduce the reference table")
    p.set_defaults(func=_cmd_table1)

    p = sub.add_parser("optimize", parents=[output], help="run an optimizer")
    p.add_argument("target", choices=["basic", "lb"])
    p.set_defaults(func=_cmd_optimize)

    p = sub.add_parser("curves", parents=[output], help="lower-bound curves CSV")
    p.set_defaults(func=_cmd_curves)

    p = sub.add_parser("adversary", parents=[output, fmt], help="play the two-job game")
    p.add_argument("--policy", choices=policies + list(EXTRA_POLICIES), default="wsrpt")
    # The game's instances carry no tie script, and their burst of
    # thousands of jobs outgrows the exhaustive tie search.
    game_ties = (TieRule.SCRIPTED, TieRule.EXHAUSTIVE_WORST)
    p.add_argument(
        "--tie",
        choices=[x.value for x in TieRule if x not in game_ties],
        default="prefer-running",
    )
    p.add_argument("--delta", default=None, help="burst piece length (default: p1/1000)")
    p.add_argument("--p1", default="1")
    p.add_argument("--p2", default="2.3364")
    p.set_defaults(func=_cmd_adversary)

    p = sub.add_parser("fuzz", parents=[output, seed, fmt], help="randomized envelope check")
    p.add_argument("--trials", type=int, default=10000)
    p.add_argument("--n-max", dest="n_max", type=int, default=7)
    p.set_defaults(func=_cmd_fuzz)

    p = sub.add_parser("render", parents=[output], help="render an SVG figure")
    p.add_argument("view", choices=["gantt", "profile"])
    p.add_argument("--instance", required=True)
    p.add_argument("--schedule", default=None, help="schedule JSON from simulate --out")
    p.add_argument("--policy", choices=policies, default="wsrpt")
    p.add_argument("--tie", choices=ties, default="prefer-running")
    p.set_defaults(func=_cmd_render)

    return parser


@functools.cache
def _shared_parser() -> argparse.ArgumentParser:
    """The parser every ``main`` call reads its flags with, built on first use.

    Parsing leaves a parser as it was, so one serves the whole process;
    nothing may change its defaults.
    """
    return build_parser()


def main(argv=None) -> int:
    args = _shared_parser().parse_args(argv)
    try:
        if args.config is not None:
            # Config entries become the defaults of a parser of this call's
            # own, so explicit flags win and no later call sees them.
            parser = build_parser()
            parser.commands[args.command].set_defaults(**_config_defaults(args))
            args = parser.parse_args(argv)
        return args.func(args)
    except AssertionError as exc:
        print(f"assertion failed: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError, OSError, BudgetExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
