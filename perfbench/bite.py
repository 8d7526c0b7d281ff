"""Show that the checks in oracles.py catch small errors.

    python3 perfbench/bite.py

Run from the root of a source checkout.  For one analysis of each kind
it writes the program's outputs, confirms that they pass the checks,
then confirms that each of these copies fails them:

* the first support-set end not on a grid edge moved by 1e-6;
* one curve.csv value (the middle row) raised by 1e-6 (for `simulate`,
  one probability scaled by 1 + 1e-6).

The MCMC analysis is checked at its Monte Carlo tolerance, which a
1e-6 shift cannot reach; for it the script runs the 40 000-draw chain
at `--seed 3`, whose spurious k=1 interval the check must reject.
Exits non-zero if any check fails to bite.
"""

from __future__ import annotations

import copy
import csv
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.abspath("src"))
sys.path.insert(0, HERE)

import bff.cli as cli  # noqa: E402

from oracles import check  # noqa: E402
from workloads import closed_form_round, glm_round, meta_round  # noqa: E402

SHIFT = 1e-6


def _pick():
    cf = closed_form_round(1, 0)
    by_kind = {}
    for a in cf:
        key = a["check"]["kind"] + ":" + a["check"].get("prior", "")
        by_kind.setdefault(key, a)
    picked = list(by_kind.values())
    glm = glm_round(1, 0)
    picked += [glm[0], glm[14]]
    meta = meta_round(1, 0)
    picked += [meta[0], meta[3]]
    spurious = copy.deepcopy(glm[-1])
    spurious["argv"][spurious["argv"].index("--seed") + 1] = "3"
    return picked, spurious


def _run(a, out):
    os.makedirs(out)
    argv = list(a["argv"])
    if "csv" in a:
        path = os.path.join(out, "table.csv")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(a["csv"])
        argv = [path if x == "{data}" else x for x in argv]
    code = cli.main(argv + ["--out", out])
    return {"exit_code": code, "stderr": "", "out": out, "argv": argv, "check": a["check"]}


def _shift_end(rec, out):
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    grid = summary["config"].get("grid") or summary["config"].get("theta_grid")
    for s in summary.get("support_sets", []):
        for iv in s["intervals"]:
            for side in ("lower", "upper"):
                if iv[side] is not None and iv[side] not in (grid[0], grid[1]):
                    iv[side] += SHIFT
                    with open(os.path.join(out, "summary.json"), "w", encoding="utf-8") as fh:
                        json.dump(summary, fh)
                    return True
    return False


def _shift_value(rec, out):
    name = "bff_cdf.csv" if rec["check"]["kind"] == "simulate" else "curve.csv"
    path = os.path.join(out, name)
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    row = rows[len(rows) // 2]
    col = 3 if name == "bff_cdf.csv" else len(row) - 1
    value = float(row[col])
    row[col] = repr(value * (1.0 + SHIFT) if name == "bff_cdf.csv" else value + SHIFT)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)
    return True


def main():
    if not os.path.isfile(os.path.join("src", "bff", "cli.py")):
        sys.exit("bite: run from the root of a bff source checkout")
    root = os.path.join(HERE, "_runs", "bite")
    shutil.rmtree(root, ignore_errors=True)
    picked, spurious = _pick()
    ok = True
    for i, a in enumerate(picked):
        out = os.path.join(root, f"a{i}")
        rec = _run(a, out)
        c = rec["check"]
        label = " ".join([c["kind"], c.get("method") or c.get("mode") or c.get("prior", ""), c.get("table", "")]).strip()
        base = check(rec)
        row = [label, "pass" if not base else f"FAIL {base[:1]}"]
        ok &= not base
        for name, mutate in (("end+1e-6", _shift_end), ("value+1e-6", _shift_value)):
            mutated = out + "-" + name
            shutil.copytree(out, mutated)
            if not mutate(rec, mutated):
                row.append(f"{name}: no interior end")
                continue
            caught = check({**rec, "out": mutated})
            row.append(f"{name}: {'caught' if caught else 'MISSED'}")
            ok &= bool(caught)
        print(" | ".join(row))
    rec = _run(spurious, os.path.join(root, "mcmc-seed3"))
    caught = check(rec)
    print(f"glm mcmc --seed 3 | {'caught: ' + caught[0] if caught else 'MISSED'}")
    ok &= bool(caught)
    shutil.rmtree(root, ignore_errors=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
