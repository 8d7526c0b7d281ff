"""Benchmark entry point: one run of a workload, or of each in turn.

    python3 perfbench/run.py --workload closed-form --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 10 --trace 0

Run from the root of a source checkout (the directory holding `src/bff`).
It times the set-up (fresh interpreters importing `bff.cli`), starts a
fresh worker process that calls `bff.cli.main(argv)` for every analysis
of the workload until `--seconds` are used, checks every output file
against the independent computations in oracles.py, and prints one JSON
object as its last line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

(`--workload all` prints one such line per workload, with a "workload" key.)

With `--trace 0` the metrics are the end-to-end ones (setup_s, wall_s,
analysis_p50_s, peak_rss_mb); with `--trace 1` the per-layer ones from
the traced rounds.  Run outputs go to perfbench/_runs/ and are deleted
after the checks, except the trace spans.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import shutil
import statistics
import subprocess
import sys
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from oracles import check  # noqa: E402
from workloads import ROUNDS  # noqa: E402

SETUP_REPEATS = 5
WORKER_TIMEOUT_S = 150


def _env():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.abspath("src") + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    env.pop("BFF_THREADS", None)
    return env


def time_setup():
    """Median wall time of a fresh interpreter through `import bff.cli`.

    The first, untimed import compiles the bytecode caches, which a user
    pays once per install, not once per run."""
    cmd = [sys.executable, "-c", "import bff.cli"]
    subprocess.run(cmd, env=_env(), check=True, timeout=60)
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(cmd, env=_env(), check=True, timeout=60)
        times.append(perf_counter() - start)
    return statistics.median(times)


def import_times():
    """Self time of the numpy, scipy and bff modules from `-X importtime`."""
    out = subprocess.run(
        [sys.executable, "-X", "importtime", "-c", "import bff.cli"],
        env=_env(), check=True, timeout=60, capture_output=True, text=True,
    ).stderr
    totals = {"numpy": 0.0, "scipy": 0.0, "bff": 0.0}
    for line in out.splitlines():
        m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)", line)
        if m and m.group(2).split(".")[0] in totals:
            totals[m.group(2).split(".")[0]] += int(m.group(1)) * 1e-6
    return totals


def run_worker(workload, seed, seconds, trace, run_dir):
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
           "--run-dir", run_dir]
    subprocess.run(cmd, env=_env(), check=True, timeout=WORKER_TIMEOUT_S)
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _round_walls(analyses, traced):
    walls = {}
    for a in analyses:
        if a["traced"] == traced:
            walls[a["round"]] = walls.get(a["round"], 0.0) + a["seconds"]
    return [walls[r] for r in sorted(walls)]


def end_to_end(manifest, setup_s):
    analyses = manifest["analyses"]
    return {
        "setup_s": (setup_s, "s"),
        "wall_s": (statistics.median(_round_walls(analyses, False)), "s"),
        "analysis_p50_s": (statistics.median(a["seconds"] for a in analyses), "s"),
        "peak_rss_mb": (manifest["peak_rss_mb"], "MB"),
    }


PER_LAYER_TIMES = {
    "engine.evaluate_curve_s": "engine.evaluate_curve",
    "engine.find_mee_s": "engine.find_mee",
    "engine.support_set_s": "engine.support_set",
    "engine.support_region_s": "engine.support_region",
    "quadrature.log_integrate_s": "quadrature.log_integrate",
    "quadrature.integrate_s": "quadrature.integrate",
    "meta.log_denominator_s": "meta.log_denominator",
    "meta.read_csv_s": "meta.read_csv",
    "glm.read_csv_s": "glm.read_csv",
    "glm.fit_map_s": "glm.fit_map",
    "glm.metropolis_s": "glm.metropolis",
    "glm.kde_eval_s": "glm.kde_eval",
    "normal.threshold_prob_s": "normal.threshold_prob",
}
PER_LAYER_CALLS = {
    "quadrature.log_integrate_calls": "quadrature.log_integrate",
    "quadrature.integrate_calls": "quadrature.integrate",
    "meta.log_denominator_calls": "meta.log_denominator",
    "meta.loglik_calls": "meta.loglik",
    "glm.fit_map_calls": "glm.fit_map",
    "normal.threshold_prob_calls": "normal.threshold_prob",
}
PER_LAYER_COUNTS = (
    "engine.evaluate_curve_calls", "engine.model_calls", "engine.model_points",
    "meta.loglik_points", "glm.metropolis_draws", "glm.kde_eval_points",
)


def per_layer(manifest, imports):
    """Per-round figures from the traced rounds (times inclusive unless *.self_s)."""
    trace, analyses = manifest["trace"], manifest["analyses"]
    rounds = manifest["rounds"]
    stats, counts = trace["stats"], trace["counts"]
    traced = [a for a in analyses if a["traced"]]
    m = {f"setup.{k}_s": (v, "s") for k, v in imports.items()}
    m["cli.self_s"] = (trace["layer_self_s"]["cli"] / rounds, "s")
    m["cli.output_bytes"] = (sum(a["output_bytes"] for a in traced) / rounds, "bytes")
    m["engine.self_s"] = (trace["layer_self_s"]["engine"] / rounds, "s")
    m["quadrature.self_s"] = (trace["layer_self_s"]["quadrature"] / rounds, "s")
    for name, key in PER_LAYER_TIMES.items():
        m[name] = (stats.get(key, [0, 0.0, 0.0])[1] / rounds, "s")
    for name, key in PER_LAYER_CALLS.items():
        m[name] = (stats.get(key, [0, 0.0, 0.0])[0] / rounds, "count")
    for name in PER_LAYER_COUNTS:
        m[name] = (counts.get(name, 0.0) / rounds, "count")
    kept = counts.get("glm.metropolis_kept", 0.0)
    m["glm.metropolis_accept_ratio"] = (counts.get("glm.metropolis_accepted", 0.0) / kept if kept else 0.0, "ratio")
    m["engine.grid_passes_per_analysis"] = (counts.get("engine.evaluate_curve_calls", 0.0) / len(traced), "count")
    calls = stats.get("meta.loglik", [0])[0]
    m["meta.loglik_points_per_call"] = (counts.get("meta.loglik_points", 0.0) / calls if calls else 0.0, "count")
    untraced, traced_walls = _round_walls(analyses, False), _round_walls(analyses, True)
    m["trace.wall_s"] = (statistics.median(traced_walls), "s")
    m["trace.overhead_s"] = (statistics.median(t - u for t, u in zip(traced_walls, untraced)), "s")
    return m


def run_one(workload, seed, seconds, trace):
    """Set up, measure and check one workload; returns the result object."""
    setup_s = time_setup()
    imports = import_times() if trace else None
    run_dir = os.path.join(HERE, "_runs", f"{workload}-s{seed}-t{trace}-p{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    manifest = run_worker(workload, seed, seconds, trace, run_dir)

    failed = wrong = 0
    for a in manifest["analyses"]:
        errors = check(a)
        if errors:
            failed += 1
            wrong += a["exit_code"] == 0
            print(f"FAILED {a['id']} {' '.join(a['argv'])}", file=sys.stderr)
            for e in errors[:5]:
                print(f"    {e}", file=sys.stderr)
    for a in manifest["analyses"]:
        shutil.rmtree(a["out"], ignore_errors=True)
    shutil.rmtree(os.path.join(run_dir, "inputs"), ignore_errors=True)
    if not trace:
        shutil.rmtree(run_dir, ignore_errors=True)

    metrics = per_layer(manifest, imports) if trace else end_to_end(manifest, setup_s)
    print(f"{workload}: rounds={manifest['rounds']} analyses={len(manifest['analyses'])} "
          f"run_dir={run_dir if trace else '-'}", file=sys.stderr)
    return {
        "correct": wrong == 0,
        "attempted": len(manifest["analyses"]),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS) + ["all"],
                    help="one workload, or 'all' for one result line per workload")
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not os.path.isfile(os.path.join("src", "bff", "cli.py")):
        sys.exit("perfbench: run from the root of a bff source checkout (src/bff/cli.py not found)")
    if args.workload == "all":
        for workload in ROUNDS:
            result = run_one(workload, args.seed, args.seconds, args.trace)
            print(json.dumps({"workload": workload, **result}), flush=True)
    else:
        print(json.dumps(run_one(args.workload, args.seed, args.seconds, args.trace)))


if __name__ == "__main__":
    main()
