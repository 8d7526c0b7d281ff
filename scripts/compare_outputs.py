"""Compare the CLI outputs of two source trees on the same analyses.

    python3 scripts/compare_outputs.py PARENT_TREE CHANGE_TREE [--seed S] [--rounds R]

Both trees are source checkouts of this repository.  The script runs the
README command-line examples (with the bundled tables) and the analyses
of R rounds of each benchmark workload, built from
`perfbench.workloads.ROUNDS` with seed S, through `bff.cli.main` in one
fresh interpreter per tree (imports from the tree's `src/`, working
directory at the tree's root).  It then reports, per analysis group and
output file kind, how many files are byte-identical, the largest
absolute and relative difference of the numbers in differing CSV files,
and, per `summary.json` field, the largest absolute difference and that
difference over the analysis's grid range (1-D analyses).  Any exit
code, row count or non-numeric mismatch is listed as such.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys
import tempfile
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

from workloads import META_CSV, GLM_CSV, ROUNDS  # noqa: E402

README = [
    ["normal", "--estimate", "-0.14", "--se", "0.064", "--prior", "global:m=-0.56,v=0.0144", "--k", "1"],
    ["binomial", "--y", "178078", "--n", "350757", "--prior", "truncbeta:a=5100,b=4900,l=0.5,u=1"],
    ["meta", "--data", META_CSV, "--theta-prior", "truncbeta:a=5100,b=4900,l=0.5,u=1",
     "--tau-scale", "0.02", "--mode", "joint"],
    ["meta", "--data", META_CSV, "--theta-prior", "truncbeta:a=5100,b=4900,l=0.5,u=1",
     "--tau-scale", "0.02", "--mode", "theta"],
    ["meta", "--data", META_CSV, "--theta-prior", "truncbeta:a=5100,b=4900,l=0.5,u=1",
     "--tau-scale", "0.02", "--mode", "tau"],
    ["replication", "--yo", "0.205", "--so", "0.051", "--yr", "0.435", "--sr", "0.044"],
    ["glm", "--data", GLM_CSV, "--coef", "early_age", "--method", "laplace"],
    ["simulate", "--theta-star", "0", "--kappa2", "4", "--prior", "local:v=4",
     "--n-values", "10,50,200", "--mc", "100000"],
    # a job for each remaining branch of the subcommand runners
    ["normal", "--estimate", "-0.14", "--se", "0.064", "--prior", "global:m=-0.56,v=0.0144",
     "--sweep", "global:m=-0.56,v=0.0144;global:m=0,v=0.04;local:v=0.0144;local:v=1"],
    ["binomial", "--y", "178078", "--n", "350757", "--prior", "truncbeta:a=5100,b=4900,l=0.5,u=1",
     "--sweep", "truncbeta:a=5100,b=4900,l=0.5,u=1;truncbeta:a=1,b=1,l=0.5,u=1"],
    ["meta", "--data", META_CSV, "--theta-prior", "truncbeta:a=5100,b=4900,l=0.5,u=1",
     "--tau-scale", "0.02", "--mode", "theta", "--sweep", "0.01,0.04"],
    ["replication", "--yo", "0.205", "--so", "0.051", "--yr", "0.435", "--sr", "0.044",
     "--k", "0.1,1,3"],
    ["glm", "--data", GLM_CSV, "--coef", "early_age", "--method", "univariate-normal"],
    ["glm", "--data", GLM_CSV, "--coef", "early_age", "--method", "mcmc",
     "--samples", "40000", "--seed", "1"],
    ["simulate", "--theta-star", "0.2", "--kappa2", "1.5", "--prior", "global:m=0.1,v=0.8",
     "--theta0", "0,0.3", "--n-values", "25,100"],
    # MEE refinement of a curve with nine grid-local maxima, and contours
    # of three levels on the default 101 x 101 joint grid
    ["glm", "--data", GLM_CSV, "--coef", "early_age", "--method", "mcmc",
     "--samples", "40000", "--seed", "3"],
    ["meta", "--data", META_CSV, "--theta-prior", "truncbeta:a=5100,b=4900,l=0.5,u=1",
     "--tau-scale", "0.02", "--mode", "joint", "--k", "0.5,1,3"],
]

# runs inside each tree: reads the job list on stdin, writes outputs
RUNNER = r"""
import contextlib, io, json, os, sys
sys.path.insert(0, os.path.abspath("src"))
import bff.cli as cli
codes = []
for job in json.load(sys.stdin):
    os.makedirs(job["out"])
    os.environ.update(job["env"])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        codes.append([cli.main(job["argv"] + ["--out", job["out"]]), err.getvalue().strip()])
    for k in job["env"]:
        del os.environ[k]
print(json.dumps(codes))
"""


def _analyses(seed: int, rounds: int, inputs: str):
    jobs = [("readme", argv, {}) for argv in README]
    for name, make in ROUNDS.items():
        for r in range(rounds):
            for i, a in enumerate(make(seed, r)):
                argv = list(a["argv"])
                if "csv" in a:
                    path = os.path.join(inputs, f"{name}-{r}-{i}.csv")
                    with open(path, "w", encoding="utf-8") as fh:
                        fh.write(a["csv"])
                    argv = [path if x == "{data}" else x for x in argv]
                jobs.append((name, argv, a.get("env", {})))
    return jobs


def _label(source: str, argv) -> str:
    label = f"{source}:{argv[0]}"
    if "--mode" in argv:
        label += "-" + argv[argv.index("--mode") + 1]
    if "--method" in argv:
        label += "-" + argv[argv.index("--method") + 1]
    return label


def _run(tree: str, jobs, tmp: str, label: str):
    """Run every job in `tree`, then move its outputs to tmp/label.

    Both trees write to the same tmp/run paths, so that the `out` echoed
    in summary.json is the same string for both."""
    work = os.path.join(tmp, "run")
    payload = [
        {"argv": argv, "env": env, "out": os.path.join(work, f"a{i:04d}")}
        for i, (_, argv, env) in enumerate(jobs)
    ]
    proc = subprocess.run(
        [sys.executable, "-c", RUNNER], cwd=tree, input=json.dumps(payload),
        capture_output=True, text=True, check=True,
    )
    os.rename(work, os.path.join(tmp, label))
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _number(cell: str):
    try:
        return float(cell)
    except ValueError:
        return None


def _leaves(node, path=""):
    if isinstance(node, dict):
        for k, v in node.items():
            yield from _leaves(v, f"{path}.{k}" if path else k)
    elif isinstance(node, list):
        for v in node:
            yield from _leaves(v, path + "[]")
    else:
        yield path, node


def _grid_range(summary: dict):
    cfg = summary.get("config", {})
    if cfg.get("subcommand") == "meta":
        grid = {"theta": cfg.get("theta_grid"), "tau": cfg.get("tau_grid")}.get(cfg.get("mode"))
    else:
        grid = cfg.get("grid")
    return None if not grid else grid[1] - grid[0]


class Report:
    def __init__(self):
        self.files = defaultdict(lambda: [0, 0])              # (group, kind) -> [identical, total]
        self.csv = defaultdict(lambda: [0.0, 0.0])           # (group, kind) -> [max abs, max rel]
        self.fields = defaultdict(lambda: [0.0, None])       # (group, field) -> [max abs, max abs/range]
        self.mismatches = []

    def compare_csv(self, key, a: bytes, b: bytes):
        ra = list(csv.reader(a.decode().splitlines()))
        rb = list(csv.reader(b.decode().splitlines()))
        if len(ra) != len(rb):
            self.mismatches.append(f"{key}: {len(ra)} vs {len(rb)} rows")
            return
        worst = self.csv[key]
        for row_a, row_b in zip(ra, rb):
            for x, y in zip(row_a, row_b):
                fx, fy = _number(x), _number(y)
                if fx is None or fy is None:
                    if x != y:
                        self.mismatches.append(f"{key}: {x!r} vs {y!r}")
                    continue
                if fx == fy or (math.isnan(fx) and math.isnan(fy)):
                    continue
                d = abs(fx - fy)
                worst[0] = max(worst[0], d)
                worst[1] = max(worst[1], d / max(abs(fx), abs(fy)))

    def compare_summary(self, group, a: bytes, b: bytes):
        sa, sb = json.loads(a), json.loads(b)
        span = _grid_range(sa)
        la, lb = list(_leaves(sa)), list(_leaves(sb))
        if [p for p, _ in la] != [p for p, _ in lb]:
            self.mismatches.append(f"{group}: summary.json fields differ")
            return
        for (path, x), (_, y) in zip(la, lb):
            if x == y:
                continue
            numeric = all(isinstance(v, (int, float)) and not isinstance(v, bool) for v in (x, y))
            if not numeric:
                self.mismatches.append(f"{group}: {path} {x!r} vs {y!r}")
                continue
            entry = self.fields[(group, path)]
            entry[0] = max(entry[0], abs(x - y))
            if span:
                entry[1] = max(entry[1] or 0.0, abs(x - y) / span)

    def print(self):
        print("byte-identical files (identical/total), and largest CSV differences")
        for (group, kind), (same, total) in sorted(self.files.items()):
            line = f"  {group:34s} {kind:16s} {same}/{total}"
            if (group, kind) in self.csv:
                d_abs, d_rel = self.csv[(group, kind)]
                line += f"   max abs {d_abs:.3g}, max rel {d_rel:.3g}"
            print(line)
        print("summary.json fields that differ: max abs, max abs / grid range")
        for (group, path), (d_abs, d_span) in sorted(self.fields.items()):
            span = "-" if d_span is None else f"{d_span:.3g}"
            print(f"  {group:34s} {path:48s} {d_abs:.3g}  {span}")
        print(f"mismatches: {len(self.mismatches)}")
        for m in self.mismatches:
            print("  " + m)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("parent")
    ap.add_argument("change")
    ap.add_argument("--seed", type=int, default=701)
    ap.add_argument("--rounds", type=int, default=1)
    args = ap.parse_args(argv)

    report = Report()
    with tempfile.TemporaryDirectory(prefix="bff-compare-") as tmp:
        inputs = os.path.join(tmp, "inputs")
        os.makedirs(inputs)
        jobs = _analyses(args.seed, args.rounds, inputs)
        codes = [
            _run(os.path.abspath(tree), jobs, tmp, label)
            for tree, label in ((args.parent, "parent"), (args.change, "change"))
        ]
        roots = [os.path.join(tmp, "parent"), os.path.join(tmp, "change")]
        for i, (source, argv, _) in enumerate(jobs):
            group = _label(source, argv)
            if codes[0][i] != codes[1][i]:
                report.mismatches.append(f"{group} #{i}: exit {codes[0][i]} vs {codes[1][i]}")
            dirs = [os.path.join(r, f"a{i:04d}") for r in roots]
            names = sorted(set(os.listdir(dirs[0])) | set(os.listdir(dirs[1])))
            for name in names:
                paths = [os.path.join(d, name) for d in dirs]
                if not all(os.path.exists(p) for p in paths):
                    report.mismatches.append(f"{group} #{i}: {name} written by one tree only")
                    continue
                a, b = (open(p, "rb").read() for p in paths)
                counter = report.files[(group, name)]
                counter[1] += 1
                if a == b:
                    counter[0] += 1
                elif name == "summary.json":
                    report.compare_summary(group, a, b)
                else:
                    report.compare_csv((group, name), a, b)
    report.print()
    return 1 if report.mismatches else 0


if __name__ == "__main__":
    sys.exit(main())
