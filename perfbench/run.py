"""Benchmark of the wsrpt workbench: one workload per process, checked outputs.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root.  The package is imported from ``src/`` next
to this directory, never from an installed copy.  With ``--trace 0`` the
last stdout line is a JSON object holding every end-to-end metric named in
BENCHMARK.json; with ``--trace 1`` it holds every per-layer metric, taken
from traced passes that alternate with untraced ones.  Each run also writes
its full result (run metadata, per-pass figures, problems) and, when
traced, its spans under ``.bench_out/`` at the repository root.
"""

from __future__ import annotations

import os

# Pin native thread pools before numpy/scipy load, here and in children.
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import gc  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

from probe import PROBE_NOMINAL_S, probe  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
MANIFEST = ROOT / "BENCHMARK.json"
WORKLOAD_NAMES = ("sweep", "fuzz", "oracle", "paper")

#: Set-up is repeated this many times per run and its median reported.
SETUP_REPEATS = 5

_IMPORT_TIMER = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import wsrpt\n"
    "print(time.perf_counter() - t)\n"
)


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def _import_package():
    """Import wsrpt from this checkout's src/; returns seconds taken."""
    if not (SRC / "wsrpt" / "__init__.py").is_file():
        raise ImportError(f"no wsrpt package under {SRC}")
    sys.path.insert(0, str(SRC))
    start = time.perf_counter()
    import wsrpt

    elapsed = time.perf_counter() - start
    if Path(wsrpt.__file__).resolve().parent != SRC / "wsrpt":
        raise ImportError(f"wsrpt resolved to {wsrpt.__file__}, not {SRC}")
    return elapsed


def _child_import_seconds() -> float:
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_TIMER, str(SRC)],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip())


def _git_sha() -> str | None:
    """HEAD from .git without starting git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _src_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "wsrpt").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def _quartiles(values):
    if len(values) < 2:
        return [values[0]] * 3 if values else []
    return statistics.quantiles(values, n=4, method="inclusive")


def pass_seconds(results) -> float:
    """A typical pass: every step at its median probe-scaled time.

    On a shared host the interpreter's speed drifts by tens of percent
    over seconds as other tenants load the cores, so raw step times track
    the other tenants.  Every timed step runs between two probes, a fixed
    pure-Python task, and a step's time over the median probe of its pass
    is its cost in probe units, which the load moves far less.
    PROBE_NOMINAL_S turns it back into seconds.  Steps on draws that
    change every pass count at their median too, so one heavy draw moves
    the figure no more than a light one.
    """
    labels = {label for r in results for label in r.steps}
    return sum(
        statistics.median(r.scale(r.steps[label]) for r in results if label in r.steps)
        for label in labels
    )


def _bracketed(timed, probes: int = 5):
    """Run ``timed()`` between two groups of probes.

    Returns (its result, seconds taken, median probe seconds around it).
    """
    around = [probe() for _ in range(probes)]
    start = time.perf_counter()
    result = timed()
    seconds = time.perf_counter() - start
    around += [probe() for _ in range(probes)]
    return result, seconds, statistics.median(around)


def _set_up(make, repeats: int):
    """Build the workload; time import and input preparation ``repeats`` times.

    The in-process import has already compiled the bytecode, so every
    child import below reads the same cached files.  Each timing is taken
    between probes and scaled like a pass (see ``pass_seconds``); set-up
    time is the median scaled import plus the median scaled preparation.
    Returns the workload, the raw (seconds, probe seconds) pairs and the
    set-up time.
    """
    def prepared():
        workload = make()
        workload.prepare()
        return workload

    timings = {"import": [], "prepare": []}
    for _ in range(repeats):
        seconds, _, probe_s = _bracketed(_child_import_seconds)
        timings["import"].append((seconds, probe_s))
    for _ in range(repeats):
        workload, seconds, probe_s = _bracketed(prepared)
        timings["prepare"].append((seconds, probe_s))
    setup_s = PROBE_NOMINAL_S * sum(
        statistics.median(t / p for t, p in pairs) for pairs in timings.values()
    )
    return workload, timings, setup_s


def _measure(workload, seconds: float, tracer):
    """Timed passes until ``seconds`` are used; with a tracer, every other
    pass is traced and at least one pass of each kind runs."""
    passes = []
    deadline = time.perf_counter() + seconds
    while True:
        traced = tracer is not None and len(passes) % 2 == 1
        gc.collect()
        if traced:
            tracer.install()
        try:
            result = workload.run_pass(len(passes))
        finally:
            if traced:
                tracer.uninstall()
        passes.append((traced, result))
        if time.perf_counter() >= deadline and (tracer is None or len(passes) >= 2):
            return passes


def run_one(args) -> int:
    # One core for the passes, their probes and the child imports, so a
    # probe always gauges the core that the timed work runs on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    import_s = _import_package()
    import wsrpt._backend
    from spans import Tracer
    from workloads import WORKLOADS

    manifest = json.loads(MANIFEST.read_text())
    wanted = manifest["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    tmpdir = tempfile.mkdtemp(prefix=f"tmp-{args.workload}-", dir=OUT)
    tracer = Tracer() if args.trace else None
    quiet = tracer.suspended if tracer else contextlib.nullcontext
    try:
        def make():
            return WORKLOADS[args.workload](args.seed, tmpdir, quiet)

        setup, setup_s = {}, None
        if tracer:
            workload = make()
            workload.prepare()
        else:
            workload, setup, setup_s = _set_up(make, SETUP_REPEATS)
        workload.warmup()
        passes = _measure(workload, args.seconds, tracer)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)

    attempted = sum(r.ops for _, r in passes)
    failed = sum(r.failed for _, r in passes)
    plain = [r for t, r in passes if not t]
    wall = [r.seconds for r in plain]
    pass_s = pass_seconds(plain)
    e2e = {
        "setup_s": setup_s,
        "pass_s": pass_s,
        "ops_per_s": statistics.median(r.ops for r in plain) / pass_s,
        "peak_rss_mb": peak_rss_mb,
        "ok_ratio": 1 - failed / attempted,
    }
    extras = {
        key: statistics.median(r.extras[key] for r in plain if key in r.extras)
        for key in sorted({k for r in plain for k in r.extras})
    }
    # The workload-specific name of the same figure, printed alongside.
    alias = {"fuzz": "trials_per_s", "oracle": "optima_per_s"}.get(args.workload)
    if alias:
        extras[alias] = e2e["ops_per_s"]
    extras["fail_ratio"] = failed / attempted
    extras["wall_s"] = statistics.median(wall)
    extras["probe_ms"] = 1e3 * statistics.median(p for r in plain for p in r.probes)

    layers = {}
    if tracer:
        traced_passes = [r for t, r in passes if t]
        layers = tracer.layer_metrics(len(traced_passes))
        layers["trace.overhead_s"] = pass_seconds(traced_passes) - pass_s
        tracer.dump(OUT / f"{args.workload}-seed{args.seed}-spans.json")

    values = layers if args.trace else e2e
    metrics = {}
    for spec in wanted:
        if values.get(spec["name"]) is None:
            raise RuntimeError(f"metric {spec['name']} was not measured")
        metrics[spec["name"]] = {"value": values[spec["name"]], "unit": spec["unit"]}

    problems = [p for _, r in passes for p in r.problems]
    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_sha": _git_sha(),
        "src_sha256": _src_digest(),
        "python": sys.version.split()[0],
        "nproc": os.cpu_count(),
        "backend": wsrpt._backend.backend_name(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "sizes": workload.sizes(),
        "import_s_in_process": import_s,
    }
    record = {
        "meta": meta,
        "setup": setup,
        "passes": [
            {"traced": t, "seconds": r.seconds, "scaled_seconds": r.scaled_seconds,
             "probe_s": statistics.median(r.probes), "ops": r.ops, "failed": r.failed,
             "steps": r.steps, **r.extras}
            for t, r in passes
        ],
        "pass_seconds_quartiles": _quartiles(wall),
        "extras": extras,
        "metrics": metrics,
        "problems": problems,
    }
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )

    print("meta " + json.dumps(meta, separators=(",", ":")))
    print(f"{args.workload}: {len(plain)} untraced + {len(passes) - len(plain)} traced passes, "
          f"pass seconds quartiles {[round(q, 4) for q in _quartiles(wall)]}")
    for name, m in metrics.items():
        print(f"  {name:34s} {m['value']:.6g} {m['unit']}")
    for name, value in extras.items():
        print(f"  {name:34s} {value:.6g}")
    for p in problems[:20]:
        print(f"problem: {p}", file=sys.stderr)
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


def run_all(args) -> int:
    """Each workload in its own process, one after another."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in WORKLOAD_NAMES:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=600,
        )
        sys.stderr.write(done.stderr)
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if done.returncode != 0 or not lines:
            status = 1
            continue
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return status


def main(argv=None) -> int:
    args = _parse(argv)
    if args.seconds <= 0:
        print("--seconds must be positive", file=sys.stderr)
        return 1
    if args.workload == "all":
        return run_all(args)
    try:
        return run_one(args)
    except (ImportError, OSError) as exc:
        print(f"benchmark cannot run: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
