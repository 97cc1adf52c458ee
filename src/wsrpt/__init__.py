"""Workbench for weighted shortest-remaining-processing-time scheduling.

Exact-rational simulation of preemptive single-machine policies, offline
oracles, worst-case instance generators, closed-form and quadrature
analysis of the adversarial families, the two-job lower-bound game, and a
randomized envelope check — all behind one CLI (``wsrpt``).
"""

from .core import (
    Instance,
    Job,
    Schedule,
    Slice,
    objective,
    rational_str,
    to_rational,
)
from .simulator import Policy, TieRule, simulate, is_equality_instance, split_job
from .oracle import (
    OptimalResult,
    closed_pair_optimal,
    optimal_bruteforce,
    optimal_dp_timeindexed,
    priority_schedule,
    structured_optimal,
)
from .instances import (
    NestedParams,
    ScenarioParams,
    gen_basic,
    gen_nested,
    gen_random,
    read_instance,
    write_instance,
)
from .analysis import (
    ScenarioMetrics,
    basic_ratio_closed,
    lb_c1,
    lb_curves,
    nested_ratio,
    optimize_basic,
    optimize_lb,
    optimize_nested,
    profile_metrics,
    table1,
)
from .adversary import AdversaryTranscript, choose_l, play, write_transcript
from .fuzz import FuzzReport, fuzz
from .render import render_gantt, render_profile

__version__ = "0.1.0"

__all__ = [
    "AdversaryTranscript",
    "FuzzReport",
    "Instance",
    "Job",
    "NestedParams",
    "OptimalResult",
    "Policy",
    "ScenarioMetrics",
    "ScenarioParams",
    "Schedule",
    "Slice",
    "TieRule",
    "basic_ratio_closed",
    "choose_l",
    "closed_pair_optimal",
    "fuzz",
    "gen_basic",
    "gen_nested",
    "gen_random",
    "is_equality_instance",
    "lb_c1",
    "lb_curves",
    "nested_ratio",
    "objective",
    "optimal_bruteforce",
    "optimal_dp_timeindexed",
    "optimize_basic",
    "optimize_lb",
    "optimize_nested",
    "play",
    "priority_schedule",
    "profile_metrics",
    "rational_str",
    "read_instance",
    "render_gantt",
    "render_profile",
    "simulate",
    "split_job",
    "structured_optimal",
    "table1",
    "to_rational",
    "write_instance",
    "write_transcript",
]
