"""One measured run of a workload, in a fresh interpreter.

Started by run.py from the root of a source checkout.  It imports bff
from `src/`, builds the workload's rounds from the seed and calls
`bff.cli.main(argv)` for each analysis, timing each call.  Rounds repeat
until the next one would end past `--seconds`; at least one round runs.
With `--trace 1` every round runs twice on the same inputs, first
untraced and then under the tracer, so that the overhead of tracing is
measured on the same work.

It writes `manifest.json` (every analysis with its argv, output
directory, exit code, time and error line) into the run directory; the
checks happen in the parent process after this one has exited, so that
they neither add to this process's memory nor share its imports.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
from time import perf_counter

sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import bff.cli as cli  # noqa: E402

from tracing import Tracer  # noqa: E402
from workloads import ROUNDS  # noqa: E402


def _call(analysis, out_dir, tracer, analysis_id):
    argv = [a.replace("{data}", analysis.get("data_path", "")) for a in analysis["argv"]]
    argv += ["--out", out_dir]
    env = analysis.get("env", {})
    os.environ.update(env)        # run.py starts this process without them
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            if tracer is not None:
                tracer.analysis = analysis_id
            start = perf_counter()
            code = cli.main(argv)
            elapsed = perf_counter() - start
    finally:
        for k in env:
            del os.environ[k]
    return argv, code, elapsed, err.getvalue().strip()


def _output_bytes(out_dir):
    return sum(os.path.getsize(os.path.join(out_dir, f)) for f in os.listdir(out_dir))


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(ROUNDS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--run-dir", required=True)
    args = ap.parse_args()

    make_round = ROUNDS[args.workload]
    tracer = Tracer() if args.trace else None
    passes = (None, tracer) if tracer else (None,)
    inputs = os.path.join(args.run_dir, "inputs")
    os.makedirs(inputs, exist_ok=True)
    records = []
    start = perf_counter()
    r = 0
    while True:
        analyses = make_round(args.seed, r)
        for i, a in enumerate(analyses):
            if "csv" in a:
                a["data_path"] = os.path.join(inputs, f"r{r}-{i}.csv")
                with open(a["data_path"], "w", encoding="utf-8") as fh:
                    fh.write(a["csv"])
        for active in passes:
            if active is not None:
                active.install()
            try:
                for i, a in enumerate(analyses):
                    aid = len(records)
                    out_dir = os.path.join(args.run_dir, f"a{aid:05d}")
                    os.makedirs(out_dir)
                    argv, code, elapsed, err = _call(a, out_dir, active, aid)
                    records.append({
                        "id": aid, "round": r, "traced": active is not None, "argv": argv,
                        "out": out_dir, "exit_code": code, "seconds": elapsed, "stderr": err,
                        "output_bytes": _output_bytes(out_dir), "check": a["check"],
                    })
            finally:
                if active is not None:
                    active.uninstall()
        r += 1
        spent = perf_counter() - start
        if spent + spent / r > args.seconds:
            break

    result = {
        "rounds": r,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "analyses": records,
    }
    if tracer is not None:
        tracer.dump(os.path.join(args.run_dir, "spans.jsonl"))
        result["trace"] = {
            "stats": tracer.stats,
            "counts": dict(tracer.counts),
            "layer_self_s": {layer: tracer.layer_self(layer) for layer in ("cli", "engine", "quadrature")},
        }
    with open(os.path.join(args.run_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main()
