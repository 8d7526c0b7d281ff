"""Seeded inputs for the three benchmark workloads.

A workload is a list of rounds; round r of a run with seed s is built
from `numpy.random.default_rng([s, r])`, so the same seed always gives
the same analyses and every round has the same make-up.  An analysis is
a dict:

    argv    the `bff` command line without `--out`; "{data}" stands for
            the CSV written from `csv` before the call
    csv     optional text of a study table the program reads
    env     optional environment entries set around the call
    check   what the independent check needs (kind plus parameters)

The program sees only these arguments and the CSV files; the `check`
entries stay on the benchmark's side.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import special

META_CSV = "src/bff/data/coinflip_meta.csv"
GLM_CSV = "src/bff/data/neonatal_births.csv"
GLM_COVARIATES = (
    "early_age", "hydramnios", "breech", "twin_birth", "premature", "anemia",
    "toxemia", "diabetes", "prev_stillbirth", "cord_prolapse", "induced_labour",
    "forceps", "low_weight", "labour_progress",
)
COINFLIP_PRIOR = "truncbeta:a=5100,b=4900,l=0.5,u=1"
MCMC_SAMPLES = 40_000


def _f(x: float) -> str:
    return repr(float(x))


def _ks(values) -> str:
    return ",".join(_f(k) for k in values)


def _k_list(rng, log_k_me: float):
    """Levels below 1, at 1, between 1 and k_ME, and above k_ME.

    Levels closer than 2% to k_ME are left out: there the set shrinks to
    a point and the empty/non-empty verdict says nothing about the code.
    """
    ks = [math.exp(rng.uniform(math.log(0.05), math.log(0.5)))]
    if log_k_me > 0.02:
        ks.append(1.0)
        ks.append(math.exp(rng.uniform(0.2, 0.8) * log_k_me))
    ks.append(math.exp(log_k_me + rng.uniform(0.3, 1.0)))
    return ks


# ---------------------------------------------------------------- closed-form


def _normal(rng, kind: str, sweep: bool = False):
    y = rng.uniform(-2.0, 2.0)
    se = math.exp(rng.uniform(-1.5, 0.5))
    if kind == "global":
        m, v = rng.uniform(-2.0, 2.0), math.exp(rng.uniform(-3.0, 1.0))
        prior = f"global:m={_f(m)},v={_f(v)}"
        log_k_me = 0.5 * math.log1p(v / se**2) + (y - m) ** 2 / (2.0 * (se**2 + v))
        ks = _k_list(rng, log_k_me)
        params = {"prior": "global", "m": m, "v": v}
    elif kind == "local":
        v = math.exp(rng.uniform(-3.0, 1.0))
        prior = f"local:v={_f(v)}"
        ks = _k_list(rng, 0.5 * math.log1p(v / se**2))
        params = {"prior": "local", "v": v}
    else:
        # the auto grid's upper end is y + 8 se + d, so the set's lower end
        # y + se^2 ln(k) / d - d / 2 stays inside it for d >= se / 2, k <= 3
        d = se * rng.uniform(0.5, 2.0)
        prior = f"point:d={_f(d)}"
        ks = [rng.uniform(0.05, 0.5), 1.0, rng.uniform(1.5, 3.0)]
        params = {"prior": "point", "d": d}
    argv = ["normal", "--estimate", _f(y), "--se", _f(se), "--prior", prior, "--k", _ks(ks)]
    check = {"kind": "normal", "y": y, "se": se, "ks": ks, **params}
    if sweep:
        specs = [
            ("global", rng.uniform(-2.0, 2.0), math.exp(rng.uniform(-3.0, 1.0))),
            ("local", None, math.exp(rng.uniform(-3.0, 1.0))),
        ]
        argv += ["--sweep", ";".join(
            f"global:m={_f(m)},v={_f(v)}" if k == "global" else f"local:v={_f(v)}"
            for k, m, v in specs
        )]
        check["sweep"] = [{"prior": k, "m": m, "v": v} for k, m, v in specs]
    return argv, check


def _log_trunc_mass(a: float, b: float, lo: float, hi: float) -> float:
    lower, upper = special.betainc(a, b, lo), special.betainc(a, b, hi)
    if lower > 0.5:
        return math.log(special.betaincc(a, b, lo) - special.betaincc(a, b, hi))
    return math.log(upper - lower)


def _binomial(rng):
    n = int(math.exp(rng.uniform(math.log(20.0), math.log(20_000.0))))
    y = int(np.clip(rng.binomial(n, rng.uniform(0.05, 0.95)), 1, n - 1))
    p_hat = y / n
    a, b = math.exp(rng.uniform(math.log(0.5), math.log(20.0))), math.exp(rng.uniform(math.log(0.5), math.log(20.0)))
    lo_p = max(0.0, p_hat - rng.uniform(0.1, 0.4))
    hi_p = min(1.0, p_hat + rng.uniform(0.1, 0.4))
    half = 6.0 * math.sqrt(p_hat * (1.0 - p_hat) / n)
    grid = [max(0.0, p_hat - half), min(1.0, p_hat + half), int(rng.integers(201, 602))]
    log_denom = (
        special.betaln(a + y, b + n - y) - special.betaln(a, b)
        + _log_trunc_mass(a + y, b + n - y, lo_p, hi_p) - _log_trunc_mass(a, b, lo_p, hi_p)
    )
    log_k_me = y * math.log(p_hat) + (n - y) * math.log1p(-p_hat) - log_denom
    ks = _k_list(rng, log_k_me)
    argv = [
        "binomial", "--y", str(y), "--n", str(n),
        "--prior", f"truncbeta:a={_f(a)},b={_f(b)},l={_f(lo_p)},u={_f(hi_p)}",
        f"--grid={_f(grid[0])},{_f(grid[1])},{grid[2]}", "--k", _ks(ks),
    ]
    check = {"kind": "binomial", "y": y, "n": n, "a": a, "b": b, "l": lo_p, "u": hi_p, "ks": ks}
    return argv, check


def _replication(rng):
    yo = rng.uniform(-1.0, 1.0)
    so = math.exp(rng.uniform(-3.0, -1.0))
    yr = yo + rng.normal(0.0, 2.0 * so)
    sr = math.exp(rng.uniform(-3.0, -1.0))
    log_k_me = 0.5 * math.log1p(so**2 / sr**2) + (yr - yo) ** 2 / (2.0 * (sr**2 + so**2))
    ks = _k_list(rng, log_k_me)
    argv = ["replication", "--yo", _f(yo), "--so", _f(so), "--yr", _f(yr), "--sr", _f(sr), "--k", _ks(ks)]
    check = {"kind": "replication", "yo": yo, "so": so, "yr": yr, "sr": sr, "ks": ks}
    return argv, check


# The cost of one threshold probability grows with the noncentrality
# lambda = n (theta* - theta0)^2 / kappa2 (longer series), so each round
# holds one simulate analysis per rung of this ladder of lambda at the
# largest n: the round's cost then barely depends on the seed.
SIMULATE_LAMBDAS = (0.5, 5.0, 25.0, 100.0, 200.0, 400.0)


def _simulate(rng, mc: bool, lam: float):
    kappa2 = math.exp(rng.uniform(-1.0, 1.0))
    n_values = sorted(int(n) for n in rng.integers(5, 200, size=3))
    theta_star = rng.uniform(-1.0, 1.0)
    offsets = [math.sqrt(lam * rng.uniform(0.8, 1.25) * kappa2 / n_values[-1]) for _ in range(2)]
    theta0 = [theta_star + offsets[0], theta_star - offsets[1]]
    v = math.exp(rng.uniform(-1.0, 1.5))
    if rng.uniform() < 0.5:
        prior, m = f"local:v={_f(v)}", None
    else:
        # |theta0 - m| <= 1.5 sd keeps the tail probabilities away from the
        # lost upper tail of bff_threshold_prob (see Known faults)
        m = theta_star + rng.uniform(-0.5, 0.5) * min(offsets)
        v = max(v, (max(abs(t - m) for t in theta0) / 1.5) ** 2)
        prior = f"global:m={_f(m)},v={_f(v)}"
    argv = [
        "simulate", f"--theta-star={_f(theta_star)}", "--kappa2", _f(kappa2),
        "--prior", prior, f"--theta0={_ks(theta0)}",
        "--n-values", ",".join(str(n) for n in n_values),
    ]
    check = {
        "kind": "simulate", "theta_star": theta_star, "kappa2": kappa2, "m": m, "v": v,
        "theta0": theta0, "n_values": n_values, "mc": 0,
    }
    if mc:
        seed = int(rng.integers(1, 2**31))
        argv += ["--mc", "20000", "--seed", str(seed)]
        check["mc"] = 20_000
    return argv, check


def closed_form_round(seed: int, r: int):
    rng = np.random.default_rng([seed, r])
    made = []
    for kind in ("global", "local", "point"):
        for i in range(8):
            made.append(_normal(rng, kind, sweep=(kind == "global" and i == 0)))
    made += [_binomial(rng) for _ in range(10)]
    made += [_replication(rng) for _ in range(10)]
    made += [_simulate(rng, mc=(i % 2 == 1), lam=lam) for i, lam in enumerate(SIMULATE_LAMBDAS)]
    return [{"argv": argv, "check": check} for argv, check in made]


# ---------------------------------------------------------------- meta


def _synthetic_table(rng):
    """Small-study table and global-normal theta prior as in acceptance 11."""
    n_st = int(rng.integers(3, 9))
    ests = 0.3 + 0.05 * rng.standard_normal(n_st)
    ses = rng.uniform(0.005, 0.05, size=n_st)
    m, v = rng.uniform(0.25, 0.35), rng.uniform(0.001, 0.01)
    tau_scale = rng.uniform(0.005, 0.04)
    text = "id,estimate,se\n" + "".join(
        f"s{i},{_f(e)},{_f(s)}\n" for i, (e, s) in enumerate(zip(ests, ses))
    )
    w = 1.0 / (ses**2 + tau_scale**2)
    center = float(np.sum(w * ests) / np.sum(w))
    return text, m, v, tau_scale, center


def meta_round(seed: int, r: int):
    rng = np.random.default_rng([seed, r])
    base = ["meta", "--data", META_CSV, "--theta-prior", COINFLIP_PRIOR, "--tau-scale", "0.02"]
    coin = {"table": "coinflip", "prior": "truncbeta", "a": 5100.0, "b": 4900.0,
            "l": 0.5, "u": 1.0, "tau_scale": 0.02}
    theta_hi = 0.52 + rng.uniform(0.0, 0.002)
    tau_hi = 0.05 + rng.uniform(0.0, 0.005)
    joint_ks = [1.0, rng.uniform(2.0, 5.0)]
    joint = (
        base + ["--mode", "joint", "--theta-grid", f"0.5,{_f(theta_hi)},21",
                "--tau-grid", f"0,{_f(tau_hi)},21", "--k", _ks(joint_ks)]
    )
    theta_ks = [1.0, rng.uniform(1.2, 1.6)]
    theta = base + ["--mode", "theta", "--theta-grid", f"0.5,{_f(theta_hi)},33", "--k", _ks(theta_ks)]
    tau_ks = [1.0, rng.uniform(2.0, 5.0)]
    tau = base + ["--mode", "tau", "--tau-grid", f"0,{_f(tau_hi)},33", "--k", _ks(tau_ks)]
    text, m, v, tau_scale, center = _synthetic_table(rng)
    syn_ks = [1.0, rng.uniform(0.1, 0.5)]
    synthetic = [
        "meta", "--data", "{data}", "--theta-prior", f"global:m={_f(m)},v={_f(v)}",
        "--tau-scale", _f(tau_scale), "--mode", "theta",
        "--theta-grid", f"{_f(center - 0.12)},{_f(center + 0.12)},33", "--k", _ks(syn_ks),
    ]
    return [
        {"argv": joint, "env": {"BFF_THREADS": "2"},
         "check": {"kind": "meta", "mode": "joint", **coin, "ks": joint_ks, "paper": True}},
        {"argv": theta, "check": {"kind": "meta", "mode": "theta", **coin, "ks": theta_ks, "paper": True}},
        {"argv": tau, "check": {"kind": "meta", "mode": "tau", **coin, "ks": tau_ks, "paper": True}},
        {"argv": synthetic, "csv": text,
         "check": {"kind": "meta", "mode": "theta", "table": "synthetic", "prior": "global",
                   "m": m, "v": v, "tau_scale": tau_scale, "ks": syn_ks, "paper": False}},
    ]


# ---------------------------------------------------------------- glm


def glm_round(seed: int, r: int):
    rng = np.random.default_rng([seed, r])
    out = []
    for method in ("laplace", "univariate-normal"):
        for coef in GLM_COVARIATES:
            ks = [1.0, rng.uniform(0.2, 0.9)]
            out.append({
                "argv": ["glm", "--data", GLM_CSV, "--coef", coef, "--method", method, "--k", _ks(ks)],
                "check": {"kind": "glm", "method": method, "coef": coef, "prior_var": 0.5, "ks": ks},
            })
    # pinned to the CLI's default seed: KDE tail noise puts a spurious k=1
    # interval on some other seeds at this draw count
    out.append({
        "argv": ["glm", "--data", GLM_CSV, "--coef", "early_age", "--method", "mcmc",
                 "--samples", str(MCMC_SAMPLES), "--seed", "1", "--k", "1"],
        "check": {"kind": "glm", "method": "mcmc", "coef": "early_age", "prior_var": 0.5,
                  "ks": [1.0], "samples": MCMC_SAMPLES},
    })
    return out


ROUNDS = {"closed-form": closed_form_round, "meta-coinflip": meta_round, "glm-births": glm_round}
