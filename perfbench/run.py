"""Benchmark of gdag-lab: four workloads, end-to-end metrics with tracing
off, and a per-module split from a separate traced run.

Usage:
    python3 perfbench/run.py --workload {census,classify,cones,models,all}
        [--seed N] [--seconds S] [--trace 0|1]

Each workload runs in one process with no threads of its own.  With
``--trace 0`` the output is the end-to-end metrics; with ``--trace 1``
the same untraced rounds run first, then one round with timing wrappers
installed, and the output is the per-layer metrics.  ``all`` runs the
four workloads one after another, each in its own process.  Every
metric is printed on its own line with its unit and sample count; the
last line is one JSON object with ``correct``, ``attempted``, ``failed``
and ``metrics``.  The exit code is 0 only when every answer verified.
See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
from importlib import metadata
from pathlib import Path
from time import perf_counter

import speed

# Pin native thread pools before anything can load NumPy or SciPy; the
# set-up probes inherit these.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
NAMES = ("census", "classify", "cones", "models")
SETUP_PROBES = 11
OUT_DIR = HERE / "out"


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: the smallest value with at least a
    share q of the values at or below it."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def git_sha() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
    except OSError:
        return "absent"
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    try:
        return (git / ref).read_text().strip()
    except OSError:
        pass
    try:
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    try:
        scipy_version = metadata.version("scipy")
    except metadata.PackageNotFoundError:
        scipy_version = "absent"
    return {
        "git_sha": git_sha(),
        "python": sys.version.split()[0],
        "scipy": scipy_version,
        "nproc": len(os.sched_getaffinity(0)),
    }


def speed_cost(samples: int = 5) -> float:
    return statistics.median(speed.sample_cost() for _ in range(samples))


def setup_seconds(name: str, seed: int) -> list[float]:
    """Time SETUP_PROBES fresh processes from start until their inputs
    are ready, normalised by the speed measured just before and after."""
    times = []
    for _ in range(SETUP_PROBES):
        before = speed_cost()
        t0 = perf_counter()
        with subprocess.Popen(
            [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)],
            stdout=subprocess.PIPE,
            text=True,
        ) as probe:
            line = probe.stdout.readline()
            raw = perf_counter() - t0
            probe.stdout.read()
        if probe.returncode != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up probe for {name} failed")
        times.append(raw * speed.REFERENCE_S / statistics.mean((before, speed_cost())))
    return times


def emit(name: str, metric: str, value: float, unit: str, samples: str) -> None:
    print(f"{name:<9} {metric:<52} {value:>14.6f} {unit:<6} {samples}")


def layer_metrics(totals: dict, results: list, traced_wall: float, base_wall: float, span_count: int):
    """Per-layer metrics of one traced round: {name: (value, unit)}."""
    from gdag_lab.enumeration import CensusReport

    def get(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0)

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    out = {}

    def add(layer: str, *keys: str) -> None:
        for key in keys:
            unit = "count" if key == "calls" else "s"
            out[f"{layer}.{key}"] = (get(layer, key), unit)

    def rate(metric: str, layer: str) -> None:
        out[metric] = (ratio(get(layer, "some"), get(layer, "calls")), "ratio")

    classes = sum(r.total for r in results if isinstance(r, CensusReport))
    add("enumeration.classification_census", "total_s", "self_s")
    add("enumeration.canonical_key", "calls", "total_s")
    out["enumeration.canonical_key.calls_per_class"] = (
        ratio(get("enumeration.canonical_key", "calls"), classes), "ratio")
    add("graph.GDag", "calls", "total_s")
    add("classify.sufficient_condition_holds", "calls", "total_s", "self_s")
    rate("classify.sufficient_condition_holds.certificate_rate", "classify.sufficient_condition_holds")
    add("classify.apply_reduction", "calls")
    add("dsep._dsep_mask", "calls", "total_s")
    add("dsep.observable_ci_set", "calls", "total_s")
    add("dsep.ci_subset", "calls")
    sites = ("linprog.nonneg_combination.cones", "linprog.nonneg_combination.inequalities")
    for key in ("calls", "total_s", "some"):
        totals.setdefault("linprog.nonneg_combination", {})[key] = sum(get(s, key) for s in sites)
    for layer in ("linprog.nonneg_combination", *sites):
        add(layer, "calls", "total_s")
        rate(f"{layer}.feasible_rate", layer)
    add("scipy.linprog", "calls", "total_s")
    out["cones.exact_lp_per_float_lp"] = (
        ratio(get(sites[0], "calls"), get("scipy.linprog", "calls")), "ratio")
    add("cones.derive_classical_cone", "total_s", "self_s")
    add("cones.derive_independence_cone", "total_s")
    add("cones.implied_by", "calls", "total_s")
    add("models.observed_from_classical_gmc", "calls", "total_s")
    add("models.satisfies_I", "total_s")
    add("models.is_conditionally_independent", "calls", "total_s")
    add("models.entropy", "calls")
    add("inequalities.triangle_gpt_feasible", "total_s", "self_s")
    add("inequalities.triangle_monogamy_margin", "total_s")
    add("inequalities.instrumental_value", "total_s")
    out["trace.wall_s"] = (traced_wall, "s")
    out["trace.spans"] = (span_count, "count")
    out["trace.overhead_ratio"] = (ratio(traced_wall, base_wall), "ratio")
    return out


def run_workload(name: str, seed: int, seconds: float, traced: bool) -> int:
    import harness
    import spans
    import workloads

    env = environment()
    setup = None if traced else setup_seconds(name, seed)
    workload = workloads.WORKLOADS[name](seed)

    with speed.SpeedMeter() as meter:
        runner = harness.Runner(meter)
        # Untraced rounds until the next one would overrun the budget.
        started = perf_counter()
        while True:
            wrapped = spans.installed_wrappers()
            if wrapped:
                raise RuntimeError(f"untraced round with wrappers installed: {wrapped}")
            runner.begin_round()
            workload.round(runner)
            runner.end_round()
            elapsed = perf_counter() - started
            if elapsed + elapsed / len(runner.round_walls) > seconds:
                break
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if traced:
            tracer = spans.Tracer()
            tracer.install()
            try:
                runner.begin_round(tracer)
                workload.round(runner)
                traced_wall, traced_raw = runner.end_round()
            finally:
                tracer.uninstall()

    fingerprint = workloads.sha256("\n".join(text for text, _ in runner.reference))
    rounds = len(runner.round_walls)
    wall_s = statistics.median(runner.round_walls)
    ops = len(runner.reference)
    print("# env " + json.dumps({**env, "workload": name, "seed": seed, "rounds": rounds,
                                 "operations_per_round": ops, "fingerprint": fingerprint}))
    print("# raw round seconds " + " ".join(f"{t:.3f}" for t in runner.raw_walls)
          + "; normalised " + " ".join(f"{t:.3f}" for t in runner.round_walls))
    latencies_ms = [t * 1e3 for t in runner.latencies]
    latency = {
        "p50_ms": percentile(latencies_ms, 0.5),
        "p90_ms": percentile(latencies_ms, 0.9),
    }
    latency_samples = f"{len(latencies_ms)} untraced operations"
    if traced:
        OUT_DIR.mkdir(exist_ok=True)
        spans_path = OUT_DIR / f"spans-{name}-seed{seed}.tsv.gz"
        tracer.write(spans_path)
        print(f"# traced round {traced_raw:.3f} raw s; {len(tracer.start)} spans written to "
              f"{spans_path.relative_to(ROOT)}")
        metrics = layer_metrics(tracer.totals(), runner.results, traced_wall, wall_s, len(tracer.start))
        for metric, (value, unit) in metrics.items():
            emit(name, metric, value, unit, "1 traced round")
        for key, value in latency.items():
            metrics[f"op.{key}"] = (value, "ms")
            emit(name, f"op.{key}", value, "ms", latency_samples)
    else:
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "wall_s": (wall_s, "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
        samples = {
            "setup_s": f"median of {len(setup)} set-up processes",
            "wall_s": f"median of {rounds} rounds of {ops} operations",
            "peak_rss_mb": "1 process",
        }
        for metric, (value, unit) in metrics.items():
            emit(name, metric, value, unit, samples[metric])
        # Printed, not gated: see "Latency" in README.md.
        for key, value in latency.items():
            emit(name, f"op_{key}", value, "ms", latency_samples)

    pinned = workloads.FINGERPRINTS.get(name) if seed == workloads.DEFAULT_SEED else None
    fingerprint_ok = pinned is None or pinned == fingerprint
    if not fingerprint_ok:
        print(f"# fingerprint {fingerprint} differs from the pinned {pinned}", file=sys.stderr)
    error_rate = runner.failed / runner.attempted
    emit(name, "error_rate", error_rate, "ratio",
         f"{runner.failed} failed of {runner.attempted} operations")
    correct = runner.failed == 0 and fingerprint_ok
    print(json.dumps({
        "correct": correct,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {m: {"value": v, "unit": u} for m, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


def run_all(seed: int, seconds: int, trace_flag: int) -> int:
    """Run each workload in its own process, one after another."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    status = 0
    for name in NAMES:
        child = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
             "--seconds", str(seconds), "--trace", str(trace_flag)],
            stdout=subprocess.PIPE, text=True,
        )
        lines = child.stdout.splitlines()
        for line in lines[:-1]:
            print(line, flush=True)
        status = status or child.returncode
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(f"{name}: no result (exit code {child.returncode})", file=sys.stderr)
            return status or 1
        merged["correct"] &= result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            merged["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(merged))
    return status


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=(*NAMES, "all"))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    try:
        import workloads  # noqa: F401  (imports gdag_lab from this checkout)
    except ImportError as e:
        print(f"cannot import the library from {ROOT / 'src'}: {e}", file=sys.stderr)
        return 2
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
