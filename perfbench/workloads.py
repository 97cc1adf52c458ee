"""The four workloads: inputs from a seed, one timed pass, output checks.

Each workload drives wsrpt only through ``wsrpt.*``, ``wsrpt.cli.main``
and the fuzz module's certificate replay, looked up at call time so the
traced run sees the same calls.  A pass times each step it runs; output
checks that are not part of the user's job run untimed and outside any
trace.  See README.md for why each workload exists.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import json
import os
import statistics
import time
from dataclasses import dataclass, field
from fractions import Fraction
from random import Random

import wsrpt
import wsrpt.analysis
import wsrpt.cli
from probe import PROBE_NOMINAL_S, probe

# The package re-exports the function fuzz under the submodule's name.
fuzz_module = importlib.import_module("wsrpt.fuzz")

TIGHT = 1.2259
LOWER_BOUND = Fraction("1.1038")
WORST_Y = Fraction(8157, 10000)
WORST_V = Fraction(7066, 10000)
ENVELOPE_CAP = fuzz_module.ENVELOPE + fuzz_module.ENVELOPE_SLACK

# Captured before any tracing so cache clearing reaches the lru objects.
_OPTIMIZE_BASIC = wsrpt.analysis.optimize_basic
_WORST_BASIC_METRICS = wsrpt.analysis.worst_basic_metrics


@dataclass
class PassResult:
    """One pass: timed steps, probes around them, failures and why."""

    ops: int
    steps: dict[str, float] = field(default_factory=dict)
    # Probe seconds, taken right before and right after every step.
    probes: list[float] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)
    extras: dict[str, float] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return sum(self.steps.values())

    def scale(self, seconds: float) -> float:
        """``seconds`` over the pass's median probe, in nominal seconds."""
        return seconds * PROBE_NOMINAL_S / statistics.median(self.probes)

    @property
    def scaled_seconds(self) -> float:
        return self.scale(self.seconds)

    def call(self, label: str, fn, *args, **kwargs):
        """Run ``fn`` between two probes and add its wall time to ``label``."""
        self.probes.append(probe())
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self.steps[label] = self.steps.get(label, 0.0) + time.perf_counter() - start
            self.probes.append(probe())

    def fail(self, message: str, ops: int = 1) -> None:
        self.failed = min(self.ops, self.failed + ops)
        self.problems.append(message)


def _cli(argv: list[str]) -> tuple[int, str]:
    """Run one CLI command, returning (exit code, captured stdout+stderr)."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = wsrpt.cli.main(argv)
    return code, buf.getvalue()


class Workload:
    """Base: ``prepare`` builds inputs from the seed; ``run_pass`` times one."""

    name = ""

    def __init__(self, seed: int, tmpdir: str, quiet=contextlib.nullcontext):
        self.seed = seed
        self.tmpdir = tmpdir
        # Context manager that keeps output checks out of the trace.
        self.quiet = quiet

    def prepare(self) -> None:
        """Build the inputs; may run several times, each from scratch."""

    def sizes(self) -> dict:
        """Input sizes recorded with every result."""
        return {}

    def warmup(self) -> None:
        """Untimed first use so lazy set-up is not charged to pass 0."""

    def run_pass(self, index: int) -> PassResult:
        raise NotImplementedError

    def path(self, name: str) -> str:
        return os.path.join(self.tmpdir, name)


class Sweep(Workload):
    """δ-refined basic family plus one nested instance, end to end."""

    name = "sweep"
    DELTAS = (Fraction(1, 1000), Fraction(1, 3000), Fraction(1, 10000))
    FINE = Fraction(1, 10000)
    R_S = Fraction(5307, 10000)

    def prepare(self) -> None:
        # No random draws: the sweep's inputs are the paper's fixed points.
        p_star, _ = wsrpt.optimize_nested(float(self.R_S))
        self.p_s = Fraction(p_star).limit_denominator(10**6)
        point = wsrpt.ScenarioParams(y=WORST_Y, v=WORST_V, delta=Fraction(1, 1000))
        self.points = [
            ("basic", wsrpt.ScenarioParams(y=WORST_Y, v=WORST_V, delta=d))
            for d in self.DELTAS
        ] + [
            ("nested", wsrpt.NestedParams(outer=point, r_s=self.R_S, p_s=self.p_s, inner=point))
        ]
        self._jobs: dict[int, int] = {}

    def sizes(self) -> dict:
        return {
            "points": [
                {"family": fam, "delta": wsrpt.rational_str(
                    p.delta if fam == "basic" else p.outer.delta),
                 "jobs": self._jobs.get(i)}
                for i, (fam, p) in enumerate(self.points)
            ],
            "nested_p_s": wsrpt.rational_str(self.p_s),
        }

    def warmup(self) -> None:
        self._point(0, self.points[0], PassResult(1))

    def _point(self, k, point, res: PassResult):
        family, params = point
        gen = wsrpt.gen_basic if family == "basic" else wsrpt.gen_nested
        inst = res.call(f"{k}.gen", gen, params)
        path = self.path(f"sweep_{k}.json")
        res.call(f"{k}.write", wsrpt.write_instance, inst, path)
        inst = res.call(f"{k}.read", wsrpt.read_instance, path)
        sched = res.call(
            f"{k}.simulate", wsrpt.simulate, inst, policy=wsrpt.Policy.WSRPT,
            tie=wsrpt.TieRule.SCRIPTED, script=inst.tie_script,
        )
        try:
            res.call(f"{k}.validate", sched.validate, inst)
        except ValueError as exc:
            res.fail(f"{family} point {k}: invalid schedule: {exc}")
        optimum = res.call(f"{k}.structured", wsrpt.structured_optimal, inst)
        online = res.call(f"{k}.objective", wsrpt.objective, sched, inst)
        ratio = online / optimum.objective
        audit = res.call(f"{k}.audit", wsrpt.is_equality_instance, inst)
        self._jobs[k] = len(inst.jobs)
        if not audit:
            res.fail(f"{family} point {k}: equality audit failed: {audit.violations[:2]}")
        if not 1.2 <= ratio <= TIGHT + 1e-6:
            res.fail(f"{family} point {k}: ratio {float(ratio):.6f} outside [1.2, {TIGHT}]")
        return inst, ratio

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(len(self.points))
        fine = None
        for k, point in enumerate(self.points):
            try:
                inst, ratio = self._point(k, point, res)
            except Exception as exc:
                res.fail(f"point {k}: {type(exc).__name__}: {exc}")
                continue
            if point[0] == "basic" and point[1].delta == self.FINE:
                with self.quiet():
                    closed = wsrpt.basic_ratio_closed(
                        float(Fraction(inst.tags["y_effective"])),
                        float(Fraction(inst.tags["v_effective"])),
                    ).ratio
                res.extras["ratio_gap"] = abs(float(ratio) - closed)
                fine = k
        if fine is not None:
            res.extras["fine_point_s"] = res.scale(
                sum(v for label, v in res.steps.items() if label.startswith(f"{fine}."))
            )
        return res


class Fuzz(Workload):
    """The CLI fuzz command, serial, default n_max, in fixed chunks.

    A pass is CHUNKS calls of CHUNK trials with seeds fixed by the run's
    seed, so every pass repeats the same trials and passes differ only in
    timing noise.  Short calls (tens of milliseconds) put a probe every
    few tens of milliseconds; see README.md.
    """

    name = "fuzz"
    CHUNKS = 40
    CHUNK = 50

    def _seeds(self) -> list[int]:
        return [self.seed * self.CHUNKS + c for c in range(self.CHUNKS)]

    def sizes(self) -> dict:
        return {"trials_per_pass": self.CHUNKS * self.CHUNK, "trials_per_call": self.CHUNK,
                "n_max": 7, "workers": None, "fuzz_seeds": self._seeds()}

    def warmup(self) -> None:
        _cli(["fuzz", "--trials", "100", "--seed", str(self.seed), "--out", self.tmpdir])

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(self.CHUNKS * self.CHUNK)
        for seed in self._seeds():
            argv = ["fuzz", "--trials", str(self.CHUNK), "--seed", str(seed),
                    "--out", self.tmpdir, "--exact"]
            try:
                code, text = res.call(f"seed{seed}", _cli, argv)
            except Exception as exc:
                res.fail(f"fuzz seed {seed} raised {type(exc).__name__}: {exc}", self.CHUNK)
                continue
            if code != 0:
                res.fail(f"fuzz seed {seed} exit {code}: {text.strip().splitlines()[-1:]}",
                         self.CHUNK)
                continue
            with self.quiet():
                self._check(text, seed, res)
        return res

    def _check(self, text: str, seed: int, res: PassResult) -> None:
        worst = {}
        for line in text.splitlines():
            parts = line.split()
            if parts and parts[0] in ("general", "unit-weight", "zero-release"):
                stats = dict(zip(parts[1::2], parts[2::2]))
                worst[parts[0]] = Fraction(stats["worst"])
                skipped = int(stats["skipped"])
                if skipped:
                    res.fail(f"{parts[0]}: {skipped} trials skipped (budget)", skipped)
            elif line.startswith("worst ratio"):
                worst["all"] = Fraction(parts[-1])
        if len(worst) != 4:
            res.fail(f"unparsable fuzz report: {text[:200]!r}")
            return
        if worst["all"] > ENVELOPE_CAP:
            res.fail(f"envelope breach: {worst['all']}")
        for kind in ("unit-weight", "zero-release"):
            if worst[kind] != 1:
                res.fail(f"{kind} worst ratio {worst[kind]} != 1")
        cert = self.path(f"fuzz_certificate_seed{seed}.json")
        try:
            inst = wsrpt.read_instance(cert)
            expected = Fraction(inst.tags["fuzz_ratio"])
            replayed = fuzz_module.evaluate_instance(inst)
        except (OSError, KeyError, ValueError) as exc:
            res.fail(f"certificate {cert}: {exc}")
            return
        finally:
            with contextlib.suppress(FileNotFoundError):
                os.remove(cert)
        if replayed != expected or expected != worst["general"]:
            res.fail(f"certificate replays to {replayed}, tagged {expected}")


class Oracle(Workload):
    """Subset DP at n = 14..16 and a DP cross-check at n <= 6.

    Every pass solves the same DRAWS large draws at each n.  Their cost
    moves by about ±8% from draw to draw, so several per n keep a run's
    figure from hanging on one draw.  The cross-check draws change every
    pass: the time-indexed DP's cost is heavy-tailed in the draw (at n = 6
    the mean is about twice the median), and it is a small share of the
    pass, so the median pass holds a typical set.
    """

    name = "oracle"
    BIG = (14, 15, 16)
    DRAWS = 3
    SMALL = (2, 3, 4, 5, 6)
    # Cross-check sets drawn at set-up and cycled, so a run's peak memory
    # does not grow with its pass count.
    POOL = 32
    KINDS = fuzz_module.RANDOM_KINDS

    def prepare(self) -> None:
        rng = Random(self.seed)
        self.big = [wsrpt.gen_random(rng, n, "general") for n in self.BIG for _ in range(self.DRAWS)]
        self.small = [
            [wsrpt.gen_random(rng, n, self.KINDS[(i + n) % 3]) for n in self.SMALL]
            for i in range(self.POOL)
        ]

    def sizes(self) -> dict:
        return {
            "bruteforce_n": list(self.BIG),
            "bruteforce_draws_per_n": self.DRAWS,
            "crosscheck_n": list(self.SMALL),
            "crosscheck_pool": self.POOL,
            "subset_states_per_pass": self.DRAWS * sum(2**n for n in self.BIG)
            + sum(2**n for n in self.SMALL),
            "optima_per_pass": self._ops(),
        }

    def _ops(self) -> int:
        return self.DRAWS * len(self.BIG) + 2 * len(self.SMALL)

    def warmup(self) -> None:
        wsrpt.optimal_bruteforce(self.small[0][-1])
        wsrpt.optimal_dp_timeindexed(self.small[0][-1])

    def run_pass(self, index: int) -> PassResult:
        res = PassResult(self._ops())
        results = []
        for inst in self.big:
            n = len(inst.jobs)
            try:
                brute = res.call(f"brute{n}", wsrpt.optimal_bruteforce, inst, max_n=16)
            except Exception as exc:
                res.fail(f"bruteforce n={n}: {type(exc).__name__}: {exc}")
                continue
            results.append((inst, brute, None))
        for inst in self.small[index % self.POOL]:
            n = len(inst.jobs)
            try:
                brute = res.call(f"crosscheck brute{n}", wsrpt.optimal_bruteforce, inst)
                dp = res.call(f"crosscheck timeindexed{n}", wsrpt.optimal_dp_timeindexed, inst)
            except Exception as exc:
                res.fail(f"cross-check n={n}: {type(exc).__name__}: {exc}", 2)
                continue
            results.append((inst, brute, dp))
        with self.quiet():
            for inst, brute, dp in results:
                for r in (brute, dp) if dp is not None else (brute,):
                    if wsrpt.objective(r.schedule, inst) != r.objective:
                        res.fail(f"{r.method} n={len(inst.jobs)}: schedule objective mismatch")
                if dp is not None and dp.objective != brute.objective:
                    res.fail(f"n={len(inst.jobs)}: brute {brute.objective} != dp {dp.objective}")
        return res


class Paper(Workload):
    """Analysis commands, the nested optimizer and the adversary game."""

    name = "paper"
    POLICIES = ("wsrpt", "wspt", "srpt", "j2-first", "equalizer")
    TIES = ("prefer-running", "prefer-new-longest")

    def sizes(self) -> dict:
        return {
            "cli_steps": ["table1", "optimize basic", "optimize lb", "curves"]
            + [f"adversary {p} {t}" for p in self.POLICIES for t in self.TIES],
            "library_steps": ["optimize_nested"],
            "adversary_delta": "1/1000",
        }

    def steps(self):
        yield "table1", ["table1", "--out", self.path("table1.csv")]
        yield "optimize basic", ["optimize", "basic", "--out", self.path("basic.json")]
        yield "optimize lb", ["optimize", "lb", "--out", self.path("lb.json")]
        yield "curves", ["curves", "--out", self.path("fig4.csv")]
        yield "optimize_nested", None
        for policy in self.POLICIES:
            for tie in self.TIES:
                yield f"adversary {policy} {tie}", [
                    "adversary", "--policy", policy, "--tie", tie, "--exact",
                    "--out", self.path(f"transcript_{policy}_{tie}.json"),
                ]

    def warmup(self) -> None:
        self.run_pass(-1)

    def run_pass(self, index: int) -> PassResult:
        steps = list(self.steps())
        res = PassResult(len(steps))
        for label, argv in steps:
            # Each CLI invocation is a fresh process for a user, so none may
            # inherit the optimizer caches of the previous one.
            _OPTIMIZE_BASIC.cache_clear()
            _WORST_BASIC_METRICS.cache_clear()
            try:
                if argv is None:
                    out = res.call(label, wsrpt.optimize_nested)
                else:
                    out = res.call(label, _cli, argv)
            except Exception as exc:
                res.fail(f"{label}: {type(exc).__name__}: {exc}")
                continue
            with self.quiet():
                problem = self._check(label, argv, out)
            if problem:
                res.fail(f"{label}: {problem}")
        return res

    def _check(self, label, argv, out) -> str | None:
        if argv is None:
            _, ratio = out
            return None if abs(ratio - TIGHT) <= 5e-4 else f"nested ratio {ratio}"
        code, text = out
        if code != 0:
            return f"exit {code}: {text.strip().splitlines()[-1:]}"
        if label == "optimize basic":
            with open(argv[-1], encoding="utf-8") as f:
                ratio = json.load(f)["ratio"]
            if abs(ratio - TIGHT) > 5e-4:
                return f"ratio {ratio} != {TIGHT}"
        elif label == "optimize lb":
            with open(argv[-1], encoding="utf-8") as f:
                bound = json.load(f)["bound"]
            if abs(bound - float(LOWER_BOUND)) > 5e-4:
                return f"bound {bound} != {LOWER_BOUND}"
        elif label.startswith("adversary"):
            ratio = next(
                Fraction(line.split()[1]) for line in text.splitlines()
                if line.startswith("ratio ")
            )
            if ratio < LOWER_BOUND:
                return f"certified ratio {float(ratio):.6f} < {float(LOWER_BOUND)}"
        # table1 and curves assert their own reference checks (exit code 2).
        return None


WORKLOADS = {w.name: w for w in (Sweep, Fuzz, Oracle, Paper)}
