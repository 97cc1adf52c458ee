"""In-memory span tracer that patches wsrpt's module boundaries from outside.

Every wrapped function is replaced in the namespace of the module that
calls it (``wsrpt.fuzz.simulate``, ``wsrpt.oracle.priority_schedule``,
``wsrpt._backend.subset_dp``, ...), so calls made inside the package are
seen without touching its source.  ``install`` patches, ``uninstall``
restores the originals; the untraced run never patches anything.

A span is (name, start_ns, end_ns, parent).  Hot scalar calls get a bare
counter instead of a span so the trace does not swamp the analysis layer.
Counter work that grows with the input (release-event counts, ...) is
deferred until ``layer_metrics`` so it never lands inside a parent span;
only constant-time hooks such as a file size run at once.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from collections import Counter
from contextlib import contextmanager
from fractions import Fraction
from math import ceil, lcm

import wsrpt
import wsrpt._backend
import wsrpt.adversary
import wsrpt.analysis
import wsrpt.cli
import wsrpt.core
import wsrpt.instances
import wsrpt.oracle
import wsrpt.simulator
from wsrpt.simulator import BudgetExceeded

# The package re-exports the function fuzz under the submodule's name.
fuzz_module = importlib.import_module("wsrpt.fuzz")


class Tracer:
    """Span and counter store plus the patch table that feeds it."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent]
        self.counters: Counter = Counter()
        self.active = False
        self._stack: list[int] = []
        self._deferred: list[tuple] = []  # (hook, args, kwargs, result)
        self._saved: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def span(self, fn, name, hook=None, budget=None, now=None):
        """Wrap ``fn`` so each call records a span named ``name``.

        ``name`` may be a callable (args, kwargs) -> str.  ``hook(args,
        kwargs, result)`` returns counter increments and runs at report
        time; ``now`` is the same but runs right after the call, for
        constant-time counts of things that may be gone by report time.
        ``budget`` names the counter bumped when the call raises
        BudgetExceeded.
        """
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            label = name(args, kwargs) if callable(name) else name
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            record = [label, 0, 0, parent]
            tracer.spans.append(record)
            tracer._stack.append(index)
            record[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except BudgetExceeded:
                if budget is not None:
                    tracer.counters[budget] += 1
                raise
            finally:
                record[2] = time.perf_counter_ns()
                tracer._stack.pop()
            if now is not None:
                tracer.counters.update(now(args, kwargs, result))
            if hook is not None:
                tracer._deferred.append((hook, args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def count(self, fn, key):
        """Wrap ``fn`` with a bare call counter (no span, no clock read)."""
        counters = self.counters
        tracer = self

        def counted(*args, **kwargs):
            if tracer.active:
                counters[key] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    @contextmanager
    def suspended(self):
        """Run a block (output checks) without recording it."""
        was, self.active = self.active, False
        try:
            yield
        finally:
            self.active = was

    # -- patching ----------------------------------------------------------

    def install(self) -> None:
        if not self._saved:
            for owner, attr, wrapper in _patch_table(self):
                self._saved.append((owner, attr, getattr(owner, attr)))
                setattr(owner, attr, wrapper)
        self.active = True

    def uninstall(self) -> None:
        self.active = False
        for owner, attr, original in reversed(self._saved):
            setattr(owner, attr, original)
        self._saved.clear()

    # -- reporting ---------------------------------------------------------

    def _finish_deferred(self) -> None:
        for hook, args, kwargs, result in self._deferred:
            self.counters.update(hook(args, kwargs, result))
        self._deferred.clear()

    def durations(self) -> list[float]:
        return [(end - start) / 1e9 for _, start, end, _ in self.spans]

    def self_times(self, durations: list[float]) -> list[float]:
        """Span duration minus the part its direct children cover."""
        own = list(durations)
        for span, dur in zip(self.spans, durations):
            if span[3] >= 0:
                own[span[3]] -= dur
        return own

    def _has_ancestor(self, index: int, names) -> bool:
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] in names:
                return True
            parent = self.spans[parent][3]
        return False

    def layer_metrics(self, passes: int) -> dict[str, float]:
        """Per-pass layer figures, keyed by the per_layer metric names."""
        self._finish_deferred()
        dur = self.durations()
        own = self.self_times(dur)
        names = [s[0] for s in self.spans]
        c = self.counters

        def outer(*labels):
            # Outermost spans only, so a layer re-entering itself (table1 ->
            # optimize_basic, optimal_objective -> optimal_bruteforce) is not
            # counted twice.
            wanted = set(labels)
            return sum(
                d for i, (n, d) in enumerate(zip(names, dur))
                if n in wanted and not self._has_ancestor(i, wanted)
            )

        def self_of(label):
            return sum(o for n, o in zip(names, own) if n == label)

        priority = [i for i, n in enumerate(names) if n == "oracle.priority"]
        priority_s = sum(dur[i] for i in priority)
        discarded_s = sum(
            dur[i] for i in priority
            if self._has_ancestor(i, {"oracle.optimal_objective"})
        )
        audit_resim_s = sum(
            d for n, d, s in zip(names, dur, self.spans)
            if n.startswith("simulator.") and s[3] >= 0
            and names[s[3]] == "simulator.audit"
        )
        trials_ms = sorted(d * 1e3 for n, d in zip(names, dur) if n == "fuzz.trial")
        single_path_s = outer("simulator.scripted", "simulator.fixed_tie")
        subset_dp_s = outer("oracle.subset_dp")

        totals = {
            "instances.gen_s": outer("instances.gen"),
            "instances.jobs": c["instances.jobs"],
            "io.write_s": outer("io.write"),
            "io.read_s": outer("io.read"),
            "io.bytes": c["io.bytes"],
            "simulator.scripted_s": outer("simulator.scripted"),
            "simulator.fixed_tie_s": outer("simulator.fixed_tie"),
            "simulator.release_events": c["simulator.release_events"],
            "simulator.slices": c["simulator.slices"],
            "simulator.exhaustive_s": outer("simulator.exhaustive"),
            "simulator.exhaustive_calls": names.count("simulator.exhaustive"),
            "simulator.budget_exceeded": c["simulator.budget_exceeded"],
            "simulator.audit_s": outer("simulator.audit"),
            "simulator.audit_resim_s": audit_resim_s,
            "oracle.structured_s": outer("oracle.structured"),
            "oracle.priority_s": priority_s,
            "oracle.priority_calls": len(priority),
            "oracle.priority_discarded_s": discarded_s,
            "oracle.subset_dp_s": subset_dp_s,
            "oracle.subset_dp_states": c["oracle.subset_dp_states"],
            "oracle.timeindexed_s": outer("oracle.timeindexed"),
            "oracle.timeindexed_slots": c["oracle.timeindexed_slots"],
            "core.objective_s": outer("core.objective"),
            "core.validate_s": outer("core.validate"),
            "analysis.table1_s": outer("analysis.table1"),
            "analysis.optimize_s": outer("analysis.optimize"),
            "analysis.curves_s": outer("analysis.curves"),
            "analysis.closed_evals": c["analysis.closed_evals"],
            "analysis.profile_evals": c["analysis.profile_evals"],
            "analysis.quad_evals": c["analysis.quad_evals"],
            "adversary.play_self_s": self_of("adversary.play"),
            "adversary.burst_jobs": c["adversary.burst_jobs"],
            "fuzz.driver_self_s": self_of("fuzz.run"),
            "cli.self_s": self_of("cli.main"),
        }
        out = {k: v / passes for k, v in totals.items()}
        jobs_simulated = c["simulator.single_path_jobs"]
        out["simulator.us_per_job"] = (
            single_path_s / jobs_simulated * 1e6 if jobs_simulated else 0.0
        )
        out["oracle.priority_useful_share"] = (
            1 - discarded_s / priority_s if priority_s else 0.0
        )
        out["oracle.subset_dp_states_per_s"] = (
            c["oracle.subset_dp_states"] / subset_dp_s if subset_dp_s else 0.0
        )
        out["fuzz.trial_p50_ms"] = _percentile(trials_ms, 0.50)
        out["fuzz.trial_p99_ms"] = _percentile(trials_ms, 0.99)
        return out

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump(
                {
                    "fields": ["name", "start_ns", "end_ns", "parent"],
                    "spans": self.spans,
                    "counters": dict(self.counters),
                },
                f,
                separators=(",", ":"),
            )
            f.write("\n")


def _percentile(sorted_values: list[float], q: float) -> float:
    """Nearest-rank percentile; 0 when nothing was recorded."""
    if not sorted_values:
        return 0.0
    return sorted_values[max(0, ceil(q * len(sorted_values)) - 1)]


# -- span names and counter hooks ------------------------------------------


def _arg(args, kwargs, pos, key, default=None):
    if len(args) > pos:
        return args[pos]
    return kwargs.get(key, default)


def _tie_span(args, kwargs):
    tie = _arg(args, kwargs, 2, "tie", wsrpt.TieRule.PREFER_RUNNING)
    if tie is wsrpt.TieRule.EXHAUSTIVE_WORST:
        return "simulator.exhaustive"
    if tie is wsrpt.TieRule.SCRIPTED:
        return "simulator.scripted"
    return "simulator.fixed_tie"


def _simulate_counts(args, kwargs, schedule):
    if _tie_span(args, kwargs) == "simulator.exhaustive":
        return {}
    instance = args[0]
    return {
        "simulator.single_path_jobs": len(instance.jobs),
        "simulator.release_events": len({j.release for j in instance.jobs}),
        "simulator.slices": len(schedule),
    }


def _gen_counts(args, kwargs, instance):
    return {"instances.jobs": len(instance.jobs)}


def _size(path) -> dict:
    if isinstance(path, (str, os.PathLike)) and os.path.isfile(path):
        return {"io.bytes": os.path.getsize(path)}
    return {}


def _instance_bytes(args, kwargs, result):
    return _size(_arg(args, kwargs, 1, "dest"))


def _read_bytes(args, kwargs, result):
    return _size(_arg(args, kwargs, 0, "src"))


def _cli_out_bytes(args, kwargs, code):
    # CSV, JSON and transcript files the command wrote to --out; the fuzz
    # command's --out is a directory and its certificate is counted by the
    # write_instance span.
    argv = _arg(args, kwargs, 0, "argv") or []
    if "--out" in argv[:-1]:
        return _size(argv[argv.index("--out") + 1])
    return {}


def _subset_states(args, kwargs, result):
    return {"oracle.subset_dp_states": 2 ** _arg(args, kwargs, 3, "n")}


def _timeindexed_slots(args, kwargs, result):
    # Slots of the finest grid the instance's denominators generate, which
    # is the grid the DP picks when none is given.
    instance = args[0]
    den = lcm(*(x.denominator for j in instance.jobs for x in (j.release, j.processing)))
    grid = _arg(args, kwargs, 1, "grid")
    step = Fraction(1, den) if grid is None else Fraction(grid)
    return {"oracle.timeindexed_slots": int(sum(j.processing for j in instance.jobs) / step)}


def _burst_jobs(args, kwargs, transcript):
    return {"adversary.burst_jobs": len(transcript.instance.jobs) - 2}


def _patch_table(t: Tracer):
    """(owner, attribute, wrapper) for every boundary the benchmark traces."""
    simulate = wsrpt.simulator.simulate
    sim = t.span(simulate, _tie_span, _simulate_counts, "simulator.budget_exceeded")
    gen_basic = t.span(wsrpt.instances.gen_basic, "instances.gen", _gen_counts)
    gen_nested = t.span(wsrpt.instances.gen_nested, "instances.gen", _gen_counts)
    gen_random = t.span(wsrpt.instances.gen_random, "instances.gen", _gen_counts)
    write_instance = t.span(wsrpt.instances.write_instance, "io.write", now=_instance_bytes)
    read_instance = t.span(wsrpt.instances.read_instance, "io.read", now=_read_bytes)
    objective = t.span(wsrpt.core.objective, "core.objective")
    priority = t.span(wsrpt.oracle.priority_schedule, "oracle.priority")
    bruteforce = t.span(wsrpt.oracle.optimal_bruteforce, "oracle.bruteforce")
    timeindexed = t.span(
        wsrpt.oracle.optimal_dp_timeindexed, "oracle.timeindexed",
        _timeindexed_slots, "oracle.timeindexed_budget_exceeded",
    )
    structured = t.span(wsrpt.oracle.structured_optimal, "oracle.structured")
    audit = t.span(wsrpt.simulator.is_equality_instance, "simulator.audit")
    a = wsrpt.analysis
    return [
        # The benchmark's own calls go through the package namespace.
        (wsrpt, "gen_basic", gen_basic),
        (wsrpt, "gen_nested", gen_nested),
        (wsrpt, "write_instance", write_instance),
        (wsrpt, "read_instance", read_instance),
        (wsrpt, "simulate", sim),
        (wsrpt, "is_equality_instance", audit),
        (wsrpt, "structured_optimal", structured),
        (wsrpt, "optimal_bruteforce", bruteforce),
        (wsrpt, "optimal_dp_timeindexed", timeindexed),
        (wsrpt, "objective", objective),
        (wsrpt, "optimize_nested", t.span(a.optimize_nested, "analysis.optimize")),
        (wsrpt.core.Schedule, "validate", t.span(wsrpt.core.Schedule.validate, "core.validate")),
        # Calls made inside the package, patched where they are looked up.
        (wsrpt.simulator, "simulate", sim),
        (wsrpt.oracle, "priority_schedule", priority),
        (wsrpt.oracle, "optimal_bruteforce", bruteforce),
        (wsrpt.oracle, "objective", objective),
        (wsrpt._backend, "subset_dp", t.span(wsrpt._backend.subset_dp, "oracle.subset_dp", _subset_states)),
        (fuzz_module, "evaluate_instance", t.span(fuzz_module.evaluate_instance, "fuzz.trial")),
        (fuzz_module, "simulate", sim),
        (fuzz_module, "optimal_objective", t.span(fuzz_module.optimal_objective, "oracle.optimal_objective")),
        (fuzz_module, "objective", objective),
        (fuzz_module, "gen_random", gen_random),
        (fuzz_module, "write_instance", write_instance),
        (wsrpt.adversary, "simulate", sim),
        (wsrpt.adversary, "objective", objective),
        (wsrpt.adversary, "closed_pair_optimal",
         t.span(wsrpt.adversary.closed_pair_optimal, "oracle.closed_pair")),
        (a, "table1", t.span(a.table1, "analysis.table1")),
        (a, "optimize_basic", t.span(a.optimize_basic, "analysis.optimize")),
        (a, "optimize_lb", t.span(a.optimize_lb, "analysis.optimize")),
        (a, "optimize_nested", t.span(a.optimize_nested, "analysis.optimize")),
        (a, "lb_curves", t.span(a.lb_curves, "analysis.curves")),
        (a, "basic_ratio_closed", t.count(a.basic_ratio_closed, "analysis.closed_evals")),
        (a, "profile_metrics", t.count(a.profile_metrics, "analysis.profile_evals")),
        (a, "quad", t.count(a.quad, "analysis.quad_evals")),
        (wsrpt.cli, "main", t.span(wsrpt.cli.main, "cli.main", now=_cli_out_bytes)),
        (wsrpt.cli, "fuzz", t.span(wsrpt.cli.fuzz, "fuzz.run")),
        (wsrpt.cli, "play", t.span(wsrpt.cli.play, "adversary.play", _burst_jobs)),
        (wsrpt.cli, "write_transcript", t.span(wsrpt.cli.write_transcript, "io.write")),
    ]
