"""Randomized envelope check: worst simulated-over-optimal ratio never
exceeds the analytic competitive ratio.

Every trial draws a small random instance and finds the policy's objective
under its worst tie-breaking and the brute-force optimum, both exact
integers on one scaling of the instance.  Their quotient is checked against
the 1.2259 envelope by cross-multiplying, with no Fraction per trial.  The
two structured classes — unit weights and common release — must come out
at exactly 1.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from random import Random

from . import _backend
from .core import Instance, rational_str
from .instances import RANDOM_KINDS, gen_random, write_instance
from .oracle import MAX_BRUTEFORCE_JOBS, _check_subset_cap
from .simulator import BudgetExceeded, Policy, _scaled_weights, _worst_search

# Not called here: perfbench/spans.py patches these names in this module (ROADMAP item 1).
from .core import objective  # noqa: F401
from .oracle import optimal_objective  # noqa: F401
from .simulator import simulate  # noqa: F401

#: Analytic competitive ratio; no ratio may exceed it (plus float slack).
ENVELOPE = Fraction(12259, 10000)
ENVELOPE_SLACK = Fraction(1, 10**6)


class EnvelopeBreach(AssertionError):
    """A simulated/optimal ratio exceeded the analytic envelope."""

    def __init__(self, instance: Instance, ratio: Fraction):
        super().__init__(
            f"ratio {float(ratio):.9f} exceeds envelope {float(ENVELOPE)}"
        )
        self.instance = instance
        self.ratio = ratio


@dataclass(frozen=True)
class ClassStats:
    """Per-class tallies: trial count, oracle skips, worst exact ratio."""

    trials: int
    skipped: int
    worst_ratio: Fraction
    at_optimum: int


@dataclass(frozen=True)
class FuzzReport:
    """Outcome of a fuzz run; ``classes`` keys are the instance kinds."""

    trials: int
    seed: int
    worst_ratio: Fraction
    certificate_path: str | None
    classes: dict[str, ClassStats]

    def __post_init__(self):
        if self.worst_ratio < 1 - Fraction(1, 10**12):
            raise ValueError("worst ratio fell below 1")


def _score(instance: Instance) -> tuple[int, int] | None:
    """The two ints whose quotient ``evaluate_instance`` returns, (worst,
    best), or None when the tie search blows its budget."""
    timeline = instance._by_id
    weights, _ = _scaled_weights(timeline.weights)
    try:
        worst, _ = _worst_search(timeline, weights, Policy.WSRPT)
    except BudgetExceeded:
        return None
    n = len(weights)
    _check_subset_cap(n)
    return worst, _backend.subset_cost(timeline.releases, timeline.procs, weights, n)


def evaluate_instance(instance: Instance) -> Fraction | None:
    """Worst-tie simulated objective over the brute-force optimum.

    Both sides run on one integer scaling of the instance: the exhaustive
    tie search and the subset DP return their objectives in the same units,
    so the ratio is their quotient.  Returns None when the search blows its
    budget; such trials are counted but not scored.  Past the subset DP's
    job cap, the DP's ValueError follows the search.
    """
    score = _score(instance)
    return None if score is None else Fraction(*score)


def fuzz(trials: int, n_max: int = 7, seed: int = 0, out_dir=None) -> FuzzReport:
    """Run ``trials`` random instances and report the worst ratio found.

    Instances cycle through the three kinds and are fully determined by
    ``seed``, so reruns reproduce the same trials.  When ``out_dir`` is
    given, the worst general-class instance (the earliest trial among
    equally bad ones) is written there as a replayable certificate
    carrying its expected ratio in a tag.  Raises EnvelopeBreach if any
    ratio exceeds 1.2259 + 1e-6, and AssertionError if a structured-class
    ratio departs from exactly 1.
    """
    if n_max > MAX_BRUTEFORCE_JOBS:
        raise ValueError(
            f"n_max must be at most {MAX_BRUTEFORCE_JOBS} (MAX_BRUTEFORCE_JOBS, "
            "the subset DP's job cap)"
        )
    if n_max < 2:
        raise ValueError("n_max must be at least 2")
    if trials < 1:
        raise ValueError("trials must be positive")

    rng = Random(seed)
    counts = {kind: 0 for kind in RANDOM_KINDS}
    skipped = {kind: 0 for kind in RANDOM_KINDS}
    at_optimum = {kind: 0 for kind in RANDOM_KINDS}
    # Each class's worst trial as (worst, best, instance), compared on ints.
    worst: dict[str, tuple[int, int, Instance] | None] = {
        kind: None for kind in RANDOM_KINDS
    }
    cap = ENVELOPE + ENVELOPE_SLACK
    cap_num, cap_den = cap.numerator, cap.denominator
    for i in range(trials):
        kind = RANDOM_KINDS[i % len(RANDOM_KINDS)]
        n = rng.randint(2, n_max)
        instance = gen_random(rng, n, kind)
        score = _score(instance)
        counts[kind] += 1
        if score is None:
            skipped[kind] += 1
            continue
        sim, opt = score
        if sim * cap_den > cap_num * opt:
            raise EnvelopeBreach(instance, Fraction(sim, opt))
        if sim == opt:
            at_optimum[kind] += 1
        elif kind in ("unit-weight", "zero-release"):
            raise AssertionError(
                f"{kind} instance simulated at ratio {Fraction(sim, opt)} != 1"
            )
        top = worst[kind]
        if top is None or sim * top[1] > top[0] * opt:
            worst[kind] = (sim, opt, instance)

    classes = {
        kind: ClassStats(
            trials=counts[kind],
            skipped=skipped[kind],
            worst_ratio=Fraction(*worst[kind][:2]) if worst[kind] else Fraction(1),
            at_optimum=at_optimum[kind],
        )
        for kind in RANDOM_KINDS
    }
    overall = max(stats.worst_ratio for stats in classes.values())

    certificate_path = None
    if worst["general"] is not None:
        if out_dir is not None:
            instance = worst["general"][2]
            ratio = classes["general"].worst_ratio
            tagged = Instance._on_grid(
                instance._grid,
                instance._script,
                tags={**instance.tags, "fuzz_ratio": rational_str(ratio)},
            )
            path = Path(out_dir) / f"fuzz_certificate_seed{seed}.json"
            write_instance(tagged, path)
            certificate_path = str(path)

    return FuzzReport(
        trials=trials,
        seed=seed,
        worst_ratio=overall,
        certificate_path=certificate_path,
        classes=classes,
    )


__all__ = [
    "ENVELOPE",
    "ClassStats",
    "EnvelopeBreach",
    "FuzzReport",
    "evaluate_instance",
    "fuzz",
]
