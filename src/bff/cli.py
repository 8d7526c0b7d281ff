"""Command-line front end.

Each subcommand builds a BFF, evaluates it on a grid, and writes
curve.csv (the sampled log BF01 values), summary.json (MEE, evidence
level, support sets, warnings, config echo), and optionally
sensitivity.csv for prior sweeps.  `simulate` instead tabulates the
sampling distribution of the BFF at chosen truths.  Exit codes: 0 ok,
2 invalid input, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys
import tempfile
from decimal import ROUND_HALF_UP, Decimal

import numpy as np

from . import __version__
from .binomial import BinomialData, TruncBetaPrior, binomial_bff
from .engine import MAX_GRID_POINTS, GridSpec, analyze, evaluate_curve
from .errors import ContractError, DomainError, NumericalError
from .glm import (
    MAX_SAMPLES,
    GlmPrior,
    fit_map,
    glm_coefficient_bff,
    metropolis_sample,
    read_glm_csv,
)
from .meta import (
    MetaPriors,
    meta_joint_bff,
    meta_log_denominator,
    meta_marginal_tau_bff,
    meta_marginal_theta_bff,
    read_meta_csv,
)
from .normal import (
    GlobalNormalPrior,
    LocalNormalPrior,
    NormalSummary,
    PointShiftPrior,
    ReplicationPair,
    log_bff_unitvariance,
    bff_threshold_prob,
    normal_bff,
    normal_closed_summaries,
    replication_bff,
    replication_posterior_hpd,
)

_MODES = ("joint", "theta", "tau")
_METHODS = ("laplace", "mcmc", "univariate-normal")
# simulate --mc draws at most this many values per (n, theta0) pair at once
MAX_MC = 10_000_000


class _CliError(DomainError):
    pass


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-05" or "-9,9,301" as an unknown option; no bff
        # option starts with "-<digit>" or "-.<digit>", so such a token is a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse's default error handler prints multi-line usage; the CLI
    # contract wants one machine-parsable line on stderr instead
    def error(self, message):
        raise _CliError(message)


def _fail(code: int, kind: str, exc: BaseException) -> int:
    line = json.dumps(
        {"error": kind, "exit_code": code, "message": str(exc)}, ensure_ascii=False
    )
    sys.stderr.write(line + "\n")
    return code


# ---------------------------------------------------------------- parsing


def parse_prior_spec(spec: str):
    """Parse 'kind:key=value,...' prior descriptions.

    Kinds: global (m, v), local (v), point (d), truncbeta (a, b and
    optional l, u).
    """
    if not isinstance(spec, str) or not spec.strip():
        raise DomainError(f"empty prior specification {spec!r}")
    kind, _, rest = spec.partition(":")
    kind = kind.strip().lower()
    kv = {}
    if rest.strip():
        for part in rest.split(","):
            key, eq, val = part.partition("=")
            if not eq:
                raise DomainError(f"bad prior parameter {part!r} in {spec!r}")
            try:
                kv[key.strip()] = float(val)
            except ValueError:
                raise DomainError(f"non-numeric prior parameter {part!r} in {spec!r}") from None

    def take(required, optional=()):
        missing = [k for k in required if k not in kv]
        extra = [k for k in kv if k not in required + tuple(optional)]
        if missing or extra:
            raise DomainError(
                f"prior {spec!r}: missing {missing or 'nothing'}, unexpected {extra or 'nothing'}"
            )

    if kind == "global":
        take(("m", "v"))
        return GlobalNormalPrior(kv["m"], kv["v"])
    if kind == "local":
        take(("v",))
        return LocalNormalPrior(kv["v"])
    if kind == "point":
        take(("d",))
        return PointShiftPrior(kv["d"])
    if kind == "truncbeta":
        take(("a", "b"), optional=("l", "u"))
        return TruncBetaPrior(kv["a"], kv["b"], kv.get("l", 0.0), kv.get("u", 1.0))
    raise DomainError(f"unknown prior kind {kind!r} in {spec!r}")


def _float_list(val, name: str):
    if isinstance(val, (list, tuple)):
        out = [float(v) for v in val]
    else:
        try:
            out = [float(p) for p in str(val).split(",") if p.strip()]
        except ValueError:
            raise DomainError(f"--{name}: expected comma-separated numbers, got {val!r}") from None
    if not out:
        raise DomainError(f"--{name}: empty list")
    return out


def _grid_triplet(val, name: str):
    if isinstance(val, (list, tuple)) and len(val) == 3:
        lo, hi, n = float(val[0]), float(val[1]), int(val[2])
    else:
        parts = str(val).split(",")
        if len(parts) != 3:
            raise DomainError(f"--{name}: expected 'lo,hi,points', got {val!r}")
        try:
            lo, hi, n = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError:
            raise DomainError(f"--{name}: expected 'lo,hi,points', got {val!r}") from None
    return [lo, hi, n]


def _str_list(val):
    if isinstance(val, (list, tuple)):
        return [str(v) for v in val]
    return [p.strip() for p in str(val).split(";") if p.strip()]


# ---------------------------------------------------------------- output


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _atomic_write(path: str, text: str):
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".bff-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _write_curve(path: str, curve, two_dim: bool):
    lines = ["theta0,tau0,log_bf01" if two_dim else "theta0,log_bf01"]
    for point, value in curve.rows():
        lines.append(",".join(_fmt(c) for c in point) + "," + _fmt(value))
    _atomic_write(path, "\n".join(lines) + "\n")


def _round2(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return str(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP))


def _display_interval(iv) -> str:
    lo = "-inf" if iv.lower_unbounded and math.isinf(iv.lower) else _round2(iv.lower)
    hi = "inf" if iv.upper_unbounded and math.isinf(iv.upper) else _round2(iv.upper)
    left = "(" if math.isinf(iv.lower) else "["
    right = ")" if math.isinf(iv.upper) else "]"
    return f"{left}{lo}, {hi}{right}"


def _num(x):
    # JSON has no infinities; unbounded endpoints become null
    if x is None or math.isnan(x) or math.isinf(x):
        return None
    return float(x)


def _k_label(k: float):
    if k < 1.0:
        return f"{100.0 * (1.0 - k):g}% conservative confidence set (universal bound)"
    return None


def _support_json(ss):
    return {
        "k": ss.k,
        "label": _k_label(ss.k),
        "empty": ss.empty,
        "intervals": [
            {
                "lower": _num(iv.lower),
                "upper": _num(iv.upper),
                "lower_unbounded": bool(iv.lower_unbounded),
                "upper_unbounded": bool(iv.upper_unbounded),
            }
            for iv in ss.intervals
        ],
        "display": [_display_interval(iv) for iv in ss.intervals],
    }


def _mee_json(mee):
    if not mee.exists:
        return {"exists": False, "diagnostic": mee.diagnostic}
    theta = [float(t) for t in mee.theta_hat]
    return {
        "exists": True,
        "theta": theta,
        "k_me": _num(mee.k_me),
        "log_k_me": float(mee.log_k_me),
        "display": {
            "theta": [_round2(t) for t in theta],
            "k_me": _round2(mee.k_me) if math.isfinite(mee.k_me) else "inf",
        },
    }


def _write_summary(path: str, descriptor, mee, supports, warnings, config, extra=None):
    record = {
        "descriptor": descriptor,
        "mee": _mee_json(mee) if mee is not None else None,
        "support_sets": [_support_json(s) for s in supports],
        "warnings": sorted(set(warnings)),
        "tool_version": __version__,
        "config": config,
    }
    if extra:
        record.update(extra)
    _atomic_write(path, json.dumps(record, indent=2, allow_nan=False) + "\n")


def _collect_warnings(curve=None, mee=None, supports=()):
    ws = []
    if curve is not None:
        ws.extend(curve.warnings)
    if mee is not None and not mee.exists:
        ws.append(f"boundary-mee: {mee.diagnostic}")
    for s in supports:
        ws.extend(s.warnings)
    return ws


def _csv_field(s: str) -> str:
    # prior labels contain commas; quote per RFC 4180
    if any(c in s for c in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


def _write_sensitivity(path: str, blocks, two_dim: bool):
    """blocks: iterable of (prior_label, curve)."""
    header = "prior,theta0,tau0,log_bf01" if two_dim else "prior,theta0,log_bf01"
    lines = [header]
    for label, curve in blocks:
        for point, value in curve.rows():
            lines.append(
                _csv_field(label) + "," + ",".join(_fmt(c) for c in point) + "," + _fmt(value)
            )
    _atomic_write(path, "\n".join(lines) + "\n")


# ---------------------------------------------------------------- config


def _build_config(args, defaults: dict) -> dict:
    cfg = dict(defaults)
    path = getattr(args, "config", None)
    if path:
        with open(path, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"{path}: invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise DomainError(f"{path}: config must be a JSON object")
        unknown = [k for k in loaded if k not in defaults and k != "subcommand"]
        if unknown:
            raise DomainError(f"{path}: unknown config keys {unknown}")
        cfg.update({k: v for k, v in loaded.items() if k != "subcommand"})
    for key in defaults:
        val = getattr(args, key, None)
        if val is not None:
            cfg[key] = val
    return cfg


def _require(cfg: dict, *keys):
    missing = [k for k in keys if cfg.get(k) is None]
    if missing:
        raise DomainError(f"missing required option(s): {', '.join('--' + m.replace('_', '-') for m in missing)}")


def _echo(subcommand: str, cfg: dict) -> dict:
    return {"subcommand": subcommand, **cfg}


def _out_paths(cfg):
    out = cfg.get("out") or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------- normal


_NORMAL_DEFAULTS = {
    "estimate": None,
    "se": None,
    "prior": None,
    "k": [1.0],
    "grid": None,
    "sweep": [],
    "out": ".",
}


def _normal_auto_grid(data: NormalSummary, prior, ks) -> list:
    y, s = data.y, data.sigma
    if isinstance(prior, PointShiftPrior):
        # every k-support set is a half-line [start, inf): the grid must
        # reach past each start, at either end
        starts = [normal_closed_summaries(data, prior, k)[1].intervals[0].lower for k in ks]
        hi = y + 8.0 * s + prior.d
        if max(starts) >= hi:
            hi = max(starts) + 8.0 * s + prior.d
        return [min(y - 8.0 * s - prior.d, min(starts)), hi, 512]
    width = 8.0 * s
    for k in ks:
        _, ss = normal_closed_summaries(data, prior, k)
        if ss.intervals:
            iv = ss.intervals[0]
            width = max(width, 1.3 * (iv.upper - y) + 2.0 * s)
    return [y - width, y + width, 512]


def _run_normal(args) -> int:
    cfg = _build_config(args, _NORMAL_DEFAULTS)
    _require(cfg, "estimate", "se", "prior")
    ks = _float_list(cfg["k"], "k")
    cfg["k"] = ks
    data = NormalSummary(float(cfg["estimate"]), float(cfg["se"]))
    prior = parse_prior_spec(cfg["prior"])
    if isinstance(prior, TruncBetaPrior):
        raise DomainError("the normal analysis takes global, local or point priors")
    grid = _grid_triplet(cfg["grid"], "grid") if cfg["grid"] else _normal_auto_grid(data, prior, ks)
    cfg["grid"] = grid
    cfg["sweep"] = _str_list(cfg["sweep"]) if cfg["sweep"] else []

    model = normal_bff(data, prior)
    gs = GridSpec.one_dim(grid[0], grid[1], grid[2])
    curve, mee, supports = analyze(model, gs, ks)
    out = _out_paths(cfg)
    _write_curve(os.path.join(out, "curve.csv"), curve, two_dim=False)
    _write_summary(
        os.path.join(out, "summary.json"),
        model.descriptor,
        mee,
        supports,
        _collect_warnings(curve, mee, supports),
        _echo("normal", cfg),
    )
    if cfg["sweep"]:
        blocks = []
        for spec in cfg["sweep"]:
            p = parse_prior_spec(spec)
            blocks.append((p.describe(), evaluate_curve(normal_bff(data, p), gs)))
        _write_sensitivity(os.path.join(out, "sensitivity.csv"), blocks, two_dim=False)
    return 0


# ---------------------------------------------------------------- binomial


_BINOMIAL_DEFAULTS = {
    "y": None,
    "n": None,
    "prior": None,
    "k": [1.0],
    "grid": [0.5, 0.515, 601],
    "sweep": [],
    "out": ".",
}


def _run_binomial(args) -> int:
    cfg = _build_config(args, _BINOMIAL_DEFAULTS)
    _require(cfg, "y", "n", "prior")
    ks = _float_list(cfg["k"], "k")
    cfg["k"] = ks
    data = BinomialData(int(cfg["y"]), int(cfg["n"]))
    prior = parse_prior_spec(cfg["prior"])
    if not isinstance(prior, TruncBetaPrior):
        raise DomainError("the binomial analysis takes a truncbeta prior")
    grid = _grid_triplet(cfg["grid"], "grid")
    cfg["grid"] = grid
    cfg["sweep"] = _str_list(cfg["sweep"]) if cfg["sweep"] else []

    model = binomial_bff(data, prior)
    gs = GridSpec.one_dim(grid[0], grid[1], grid[2])
    curve, mee, supports = analyze(model, gs, ks)
    out = _out_paths(cfg)
    _write_curve(os.path.join(out, "curve.csv"), curve, two_dim=False)
    _write_summary(
        os.path.join(out, "summary.json"),
        model.descriptor,
        mee,
        supports,
        _collect_warnings(curve, mee, supports),
        _echo("binomial", cfg),
    )
    if cfg["sweep"]:
        blocks = []
        for spec in cfg["sweep"]:
            p = parse_prior_spec(spec)
            if not isinstance(p, TruncBetaPrior):
                raise DomainError("binomial sweep priors must be truncbeta")
            blocks.append((p.describe(), evaluate_curve(binomial_bff(data, p), gs)))
        _write_sensitivity(os.path.join(out, "sensitivity.csv"), blocks, two_dim=False)
    return 0


# ---------------------------------------------------------------- meta


_META_DEFAULTS = {
    "data": None,
    "theta_prior": None,
    "tau_scale": 0.02,
    "mode": "joint",
    "k": [1.0],
    "theta_grid": None,
    "tau_grid": None,
    "sweep": [],
    "out": ".",
}


def _meta_auto_grids(dataset, priors):
    w = 1.0 / (dataset.std_errors**2 + priors.tau_scale**2)
    center = float(np.sum(w * dataset.estimates) / np.sum(w))
    spread = max(float(np.std(dataset.estimates)), math.sqrt(1.0 / float(np.sum(w))))
    lo, hi = priors.theta_support()
    t_lo = max(lo, center - 10.0 * spread)
    t_hi = min(hi, center + 10.0 * spread)
    tau_hi = 5.0 * max(priors.tau_scale, float(np.std(dataset.estimates)))
    return [t_lo, t_hi, None], [0.0, tau_hi, None]


def _run_meta(args) -> int:
    cfg = _build_config(args, _META_DEFAULTS)
    _require(cfg, "data", "theta_prior")
    ks = _float_list(cfg["k"], "k")
    cfg["k"] = ks
    mode = str(cfg["mode"])
    if mode not in _MODES:
        raise DomainError(f"--mode must be one of {', '.join(_MODES)}, got {mode!r}")
    dataset = read_meta_csv(cfg["data"])
    theta_prior = parse_prior_spec(cfg["theta_prior"])
    if isinstance(theta_prior, (LocalNormalPrior, PointShiftPrior)):
        raise DomainError("the meta analysis takes a truncbeta or global theta prior")
    priors = MetaPriors(theta_prior, float(cfg["tau_scale"]))
    sweep = [float(s) for s in (_float_list(cfg["sweep"], "sweep") if cfg["sweep"] else [])]
    cfg["sweep"] = sweep

    auto_theta, auto_tau = _meta_auto_grids(dataset, priors)
    n_default = 101 if mode == "joint" else 512
    theta_grid = _grid_triplet(cfg["theta_grid"], "theta-grid") if cfg["theta_grid"] else [auto_theta[0], auto_theta[1], n_default]
    tau_grid = _grid_triplet(cfg["tau_grid"], "tau-grid") if cfg["tau_grid"] else [auto_tau[0], auto_tau[1], n_default]
    cfg["theta_grid"], cfg["tau_grid"] = theta_grid, tau_grid

    if mode == "joint":
        gs = GridSpec.two_dim(
            (theta_grid[0], tau_grid[0]), (theta_grid[1], tau_grid[1]),
            (theta_grid[2], tau_grid[2]),
        )
        build = meta_joint_bff
    elif mode == "theta":
        gs = GridSpec.one_dim(theta_grid[0], theta_grid[1], theta_grid[2])
        build = meta_marginal_theta_bff
    else:
        gs = GridSpec.one_dim(tau_grid[0], tau_grid[1], tau_grid[2])
        build = meta_marginal_tau_bff

    log_denom = meta_log_denominator(dataset, priors)
    out = _out_paths(cfg)
    extra = {"log_denominator": log_denom, "mode": mode}
    model = build(dataset, priors, log_denominator=log_denom)
    curve, mee, supports = analyze(model, gs, ks)
    if mode == "joint":
        extra["support_regions"] = [
            {
                "k": k,
                "label": _k_label(k),
                "cells_inside": int(mask.sum()),
                "contour_segments": [
                    [[float(a), float(b)], [float(c), float(d)]]
                    for (a, b), (c, d) in segments
                ],
            }
            for k, (mask, segments) in zip(ks, supports)
        ]
        supports = []
    _write_curve(os.path.join(out, "curve.csv"), curve, two_dim=mode == "joint")
    _write_summary(
        os.path.join(out, "summary.json"),
        model.descriptor,
        mee,
        supports,
        _collect_warnings(curve, mee, supports),
        _echo("meta", cfg),
        extra=extra,
    )
    if sweep:
        blocks = [
            (f"tau-scale={s:g}", evaluate_curve(build(dataset, MetaPriors(theta_prior, s)), gs))
            for s in sweep
        ]
        _write_sensitivity(os.path.join(out, "sensitivity.csv"), blocks, two_dim=mode == "joint")
    return 0


# ---------------------------------------------------------------- replication


_REPLICATION_DEFAULTS = {
    "yo": None,
    "so": None,
    "yr": None,
    "sr": None,
    "k": [1.0],
    "grid": None,
    "out": ".",
}


def _run_replication(args) -> int:
    cfg = _build_config(args, _REPLICATION_DEFAULTS)
    _require(cfg, "yo", "so", "yr", "sr")
    ks = _float_list(cfg["k"], "k")
    cfg["k"] = ks
    pair = ReplicationPair(float(cfg["yo"]), float(cfg["so"]), float(cfg["yr"]), float(cfg["sr"]))
    data, gprior = pair.as_global()
    grid = _grid_triplet(cfg["grid"], "grid") if cfg["grid"] else _normal_auto_grid(data, gprior, ks)
    cfg["grid"] = grid

    model = replication_bff(pair)
    gs = GridSpec.one_dim(grid[0], grid[1], grid[2])
    curve, mee, supports = analyze(model, gs, ks)
    mode, hpd = replication_posterior_hpd(pair)
    out = _out_paths(cfg)
    _write_curve(os.path.join(out, "curve.csv"), curve, two_dim=False)
    _write_summary(
        os.path.join(out, "summary.json"),
        model.descriptor,
        mee,
        supports,
        _collect_warnings(curve, mee, supports),
        _echo("replication", cfg),
        extra={
            "posterior": {
                "mode": mode,
                "hpd": {"lower": hpd.lower, "upper": hpd.upper, "level": 0.95},
                "display": {
                    "mode": _round2(mode),
                    "hpd": f"[{_round2(hpd.lower)}, {_round2(hpd.upper)}]",
                },
            }
        },
    )
    return 0


# ---------------------------------------------------------------- glm


_GLM_DEFAULTS = {
    "data": None,
    "coef": None,
    "method": "laplace",
    "prior_var": 0.5,
    "samples": 200_000,
    "seed": 1,
    "k": [1.0],
    "grid": None,
    "out": ".",
}


def _run_glm(args) -> int:
    cfg = _build_config(args, _GLM_DEFAULTS)
    _require(cfg, "data", "coef")
    ks = _float_list(cfg["k"], "k")
    cfg["k"] = ks
    method = str(cfg["method"])
    if method not in _METHODS:
        raise DomainError(f"--method must be one of {', '.join(_METHODS)}, got {method!r}")
    dataset = read_glm_csv(cfg["data"])
    j = dataset.coefficient_index(str(cfg["coef"]))
    prior = GlmPrior(float(cfg["prior_var"]))
    seed = int(cfg["seed"])
    n_samples = int(cfg["samples"])

    extra_warnings = []
    samples = fit = None
    if method == "mcmc":
        samples, info = metropolis_sample(dataset, prior, n_samples=n_samples, seed=seed)
        extra_warnings.extend(info["warnings"])
        center = float(np.mean(samples[:, j]))
        spread = float(np.std(samples[:, j], ddof=1))
        auto = [float(np.min(samples[:, j])), float(np.max(samples[:, j])), 512]
    elif method == "laplace":
        fit = fit_map(dataset, prior)
        center = float(fit.mode[j])
        cov = np.linalg.inv(fit.neg_hessian)
        spread = math.sqrt(float(cov[j, j]))
        auto = [center - 8.0 * spread, center + 8.0 * spread, 512]
    else:
        fit = fit_map(dataset, None)
        cov = np.linalg.inv(fit.neg_hessian)
        center = float(fit.mode[j])
        spread = math.sqrt(float(cov[j, j]))
        auto = [center - 8.0 * spread, center + 8.0 * spread, 512]

    grid = _grid_triplet(cfg["grid"], "grid") if cfg["grid"] else auto
    cfg["grid"] = grid
    model = glm_coefficient_bff(
        dataset, prior, j, method, n_samples=n_samples, seed=seed, samples=samples, fit=fit
    )
    gs = GridSpec.one_dim(grid[0], grid[1], grid[2])
    curve, mee, supports = analyze(model, gs, ks)

    or_block = None
    if mee.exists:
        or_block = {
            "mee": math.exp(mee.theta_hat[0]),
            "display": _round2(math.exp(mee.theta_hat[0])),
        }
    or_supports = []
    for s in supports:
        or_supports.append(
            {
                "k": s.k,
                "intervals": [
                    {
                        "lower": _num(math.exp(iv.lower)) if math.isfinite(iv.lower) else (0.0 if iv.lower == -math.inf else None),
                        "upper": _num(math.exp(iv.upper)) if math.isfinite(iv.upper) else None,
                        "lower_unbounded": bool(iv.lower_unbounded),
                        "upper_unbounded": bool(iv.upper_unbounded),
                    }
                    for iv in s.intervals
                ],
            }
        )
    out = _out_paths(cfg)
    _write_curve(os.path.join(out, "curve.csv"), curve, two_dim=False)
    _write_summary(
        os.path.join(out, "summary.json"),
        model.descriptor,
        mee,
        supports,
        _collect_warnings(curve, mee, supports) + extra_warnings,
        _echo("glm", cfg),
        extra={"odds_ratio": {"mee": or_block, "support_sets": or_supports}},
    )
    return 0


# ---------------------------------------------------------------- simulate


_SIMULATE_DEFAULTS = {
    "theta_star": 0.0,
    "kappa2": 1.0,
    "prior": None,
    "theta0": [0.0],
    "n_values": [10, 50, 200],
    "gamma_grid": [0.001, 20.0, 61],
    "mc": 0,
    "seed": 1,
    "out": ".",
}


def _run_simulate(args) -> int:
    cfg = _build_config(args, _SIMULATE_DEFAULTS)
    _require(cfg, "prior")
    prior = parse_prior_spec(cfg["prior"])
    if not isinstance(prior, (GlobalNormalPrior, LocalNormalPrior)):
        raise DomainError("simulate takes a global or local normal prior")
    theta_star = float(cfg["theta_star"])
    kappa2 = float(cfg["kappa2"])
    if kappa2 <= 0.0:
        raise DomainError(f"kappa2 must be positive, got {kappa2}")
    theta0s = _float_list(cfg["theta0"], "theta0")
    n_values = [int(n) for n in _float_list(cfg["n_values"], "n-values")]
    if any(n < 1 for n in n_values):
        raise DomainError("n values must be positive integers")
    g_lo, g_hi, g_n = _grid_triplet(cfg["gamma_grid"], "gamma-grid")
    if not (0.0 < g_lo < g_hi) or not 2 <= g_n <= MAX_GRID_POINTS:
        raise DomainError(f"gamma grid needs 0 < lo < hi and 2 to {MAX_GRID_POINTS} points")
    mc = int(cfg["mc"])
    if mc > MAX_MC:
        raise DomainError(f"--mc {mc} exceeds the cap of {MAX_MC} draws")
    gammas = np.exp(np.linspace(math.log(g_lo), math.log(g_hi), g_n))
    seed = int(cfg["seed"])
    cfg.update({"theta0": theta0s, "n_values": n_values, "gamma_grid": [g_lo, g_hi, g_n]})

    rng = np.random.default_rng(seed)
    header = "n,theta0,gamma,prob_bf_le_gamma" + (",mc_estimate" if mc > 0 else "")
    lines = [header]
    for n in n_values:
        for t0 in theta0s:
            m = t0 if isinstance(prior, LocalNormalPrior) else prior.m
            v = prior.v
            if mc > 0:
                draws = rng.normal(theta_star, math.sqrt(kappa2 / n), size=mc)
                b = t0 - m
                center = draws - b * kappa2 / (n * v) - t0
                log_bfs = 0.5 * (
                    math.log1p(n * v / kappa2)
                    + b * b / v
                    - center**2 * v * n / (kappa2 * (v + kappa2 / n))
                )
                log_bfs.sort()
            for g in gammas:
                p = bff_threshold_prob(float(g), t0, theta_star, m, v, kappa2, n)
                row = f"{n},{_fmt(t0)},{_fmt(float(g))},{_fmt(p)}"
                if mc > 0:
                    frac = float(np.searchsorted(log_bfs, math.log(g), side="right")) / mc
                    row += f",{_fmt(frac)}"
                lines.append(row)
    out = _out_paths(cfg)
    _atomic_write(os.path.join(out, "bff_cdf.csv"), "\n".join(lines) + "\n")
    _write_summary(
        os.path.join(out, "summary.json"),
        f"bff-sampling-distribution(theta_star={theta_star:g}, kappa2={kappa2:g}, "
        f"prior={prior.describe()})",
        None,
        [],
        [],
        _echo("simulate", cfg),
    )
    return 0


# ---------------------------------------------------------------- wiring


def _add_common(sp, *, k=True, grid=True, sweep=False, seed=False):
    sp.add_argument("--config", help="JSON file mirroring the flags; explicit flags win")
    sp.add_argument("--out", help="output directory (default .)")
    if k:
        sp.add_argument("--k", help="comma-separated support levels (default 1)")
    if grid:
        sp.add_argument("--grid", help=f"evaluation grid 'lo,hi,points' (at most {MAX_GRID_POINTS} points)")
    if sweep:
        sp.add_argument("--sweep", help="semicolon-separated prior specs for sensitivity.csv")
    if seed:
        sp.add_argument("--seed", type=int, help="random seed (default 1)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="bff", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"bff {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sp = subs.add_parser("normal", help="normal estimate with known standard error")
    sp.add_argument("--estimate", type=float)
    sp.add_argument("--se", type=float)
    sp.add_argument("--prior", help="global:m=..,v=.. | local:v=.. | point:d=..")
    _add_common(sp, sweep=True)
    sp.set_defaults(func=_run_normal)

    sp = subs.add_parser("binomial", help="binomial proportion with truncated beta prior")
    sp.add_argument("--y", type=int)
    sp.add_argument("--n", type=int)
    sp.add_argument("--prior", help="truncbeta:a=..,b=..,l=..,u=..")
    _add_common(sp, sweep=True)
    sp.set_defaults(func=_run_binomial)

    sp = subs.add_parser("meta", help="random-effects meta-analysis")
    sp.add_argument("--data", help="CSV with header id,estimate,se")
    sp.add_argument("--theta-prior", dest="theta_prior", help="truncbeta:.. or global:m=..,v=..")
    sp.add_argument("--tau-scale", dest="tau_scale", type=float, help="half-normal scale (default 0.02)")
    sp.add_argument("--mode", choices=_MODES, help="joint (2-D), theta or tau (default joint)")
    grid_cap = f"; the grid has at most {MAX_GRID_POINTS} points"
    sp.add_argument("--theta-grid", dest="theta_grid", help="'lo,hi,points'" + grid_cap)
    sp.add_argument("--tau-grid", dest="tau_grid", help="'lo,hi,points'" + grid_cap)
    sp.add_argument("--sweep", help="comma-separated tau scales for sensitivity.csv")
    _add_common(sp, grid=False)
    sp.set_defaults(func=_run_meta)

    sp = subs.add_parser("replication", help="replication study against the original")
    sp.add_argument("--yo", type=float, help="original estimate")
    sp.add_argument("--so", type=float, help="original standard error")
    sp.add_argument("--yr", type=float, help="replication estimate")
    sp.add_argument("--sr", type=float, help="replication standard error")
    _add_common(sp)
    sp.set_defaults(func=_run_replication)

    sp = subs.add_parser("glm", help="logistic regression coefficient")
    sp.add_argument("--data", help="CSV with 'outcome' column plus covariates")
    sp.add_argument("--coef", help="coefficient (column) name to test")
    sp.add_argument("--method", choices=_METHODS)
    sp.add_argument("--prior-var", dest="prior_var", type=float, help="prior variance (default 0.5)")
    sp.add_argument("--samples", type=int,
                    help=f"MCMC draws for --method mcmc (default 200000, at most {MAX_SAMPLES})")
    _add_common(sp, seed=True)
    sp.set_defaults(func=_run_glm)

    sp = subs.add_parser("simulate", help="sampling distribution of the BFF")
    sp.add_argument("--theta-star", dest="theta_star", type=float, help="true mean (default 0)")
    sp.add_argument("--kappa2", type=float, help="per-observation variance (default 1)")
    sp.add_argument("--prior", help="local:v=.. or global:m=..,v=..")
    sp.add_argument("--theta0", help="comma-separated tested values (default 0)")
    sp.add_argument("--n-values", dest="n_values", help="comma-separated sample sizes (default 10,50,200)")
    sp.add_argument("--gamma-grid", dest="gamma_grid", help=f"'lo,hi,points', log-spaced (default 0.001,20,61, at most {MAX_GRID_POINTS} points)")
    sp.add_argument("--mc", type=int,
                    help=f"Monte Carlo draws for an empirical column (default off, at most {MAX_MC})")
    _add_common(sp, k=False, grid=False, seed=True)
    sp.set_defaults(func=_run_simulate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (_CliError, ContractError, DomainError) as exc:
        return _fail(2, "invalid-input", exc)
    except OSError as exc:
        return _fail(2, "invalid-input", exc)
    except NumericalError as exc:
        return _fail(3, "numerical-failure", exc)


if __name__ == "__main__":
    sys.exit(main())
