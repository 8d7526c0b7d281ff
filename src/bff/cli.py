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
from dataclasses import dataclass
from decimal import ROUND_HALF_UP, Context, Decimal
from typing import Callable

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
    bff_threshold_prob,
    log_bff_unitvariance,
    normal_bff,
    normal_closed_summaries,
    replication_bff,
    replication_posterior_hpd,
)

# simulate --mc draws at most this many values per (n, theta0) pair at once
MAX_MC = 10_000_000


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse reads "-1e-05" or "-9,9,301" as an unknown option; no bff
        # option starts with "-<digit>" or "-.<digit>", so such a token is a value
        self._negative_number_matcher = re.compile(r"^-\.?\d")

    # argparse's default error handler prints multi-line usage; the CLI
    # contract wants one machine-parsable line on stderr instead
    def error(self, message):
        raise DomainError(message)


def _fail(code: int, kind: str, exc: BaseException) -> int:
    line = json.dumps(
        {"error": kind, "exit_code": code, "message": str(exc)}, ensure_ascii=False
    )
    sys.stderr.write(line + "\n")
    return code


# ---------------------------------------------------------------- parsing


# kind -> (prior class, required parameters, optional parameters)
_PRIOR_KINDS = {
    "global": (GlobalNormalPrior, ("m", "v"), ()),
    "local": (LocalNormalPrior, ("v",), ()),
    "point": (PointShiftPrior, ("d",), ()),
    "truncbeta": (TruncBetaPrior, ("a", "b"), ("l", "u")),
}


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
    if kind not in _PRIOR_KINDS:
        raise DomainError(f"unknown prior kind {kind!r} in {spec!r}")
    cls, required, optional = _PRIOR_KINDS[kind]
    missing = [k for k in required if k not in kv]
    extra = [k for k in kv if k not in required + optional]
    if missing or extra:
        raise DomainError(
            f"prior {spec!r}: missing {missing or 'nothing'}, unexpected {extra or 'nothing'}"
        )
    return cls(**kv)


# Each option has one converter, run on its value whether it came from a
# flag (a string) or from --config (any JSON value); `name` is the flag
# without its dashes, for the error message.


def _float(val, name: str) -> float:
    # bool is an int subclass, but JSON true is no number
    if isinstance(val, (int, float, str)) and not isinstance(val, bool):
        try:
            return float(val)
        except (ValueError, OverflowError):
            pass
    raise DomainError(f"--{name}: expected a number, got {val!r}")


def _count(val, name: str) -> int:
    """A non-negative integer; a fraction is refused, not truncated."""
    n = val
    if isinstance(val, str):
        try:
            n = int(val)
        except ValueError:
            pass
    if not isinstance(n, int) or isinstance(n, bool) or n < 0:
        raise DomainError(f"--{name}: expected a non-negative integer, got {val!r}")
    return n


def _text(val, name: str) -> str:
    if not isinstance(val, str):
        raise DomainError(f"--{name}: expected a string, got {val!r}")
    return val


class _OneOf(tuple):
    """Converter for an option that takes one of a fixed set of strings."""

    def __call__(self, val, name: str) -> str:
        if val not in self:
            raise DomainError(f"--{name} must be one of {', '.join(self)}, got {val!r}")
        return val


def _list_of(item, sep=",", allow_empty=False):
    """Converter for a JSON list, or a string of items split at `sep`."""

    def convert(val, name: str) -> list:
        if isinstance(val, str):
            val = [p.strip() for p in val.split(sep) if p.strip()]
        elif not isinstance(val, (list, tuple)):
            val = [val]
        if not (val or allow_empty):
            raise DomainError(f"--{name}: empty list")
        return [item(v, name) for v in val]

    return convert


def _grid_triplet(val, name: str) -> list:
    parts = val.split(",") if isinstance(val, str) else val
    if not isinstance(parts, (list, tuple)) or len(parts) != 3:
        raise DomainError(f"--{name}: expected 'lo,hi,points', got {val!r}")
    return [_float(parts[0], name), _float(parts[1], name), _count(parts[2], name)]


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


def _write_curves(path: str, blocks, two_dim: bool):
    """blocks: (label, curve) pairs; labels other than None fill a prior column."""
    labelled = blocks[0][0] is not None
    header = "theta0,tau0,log_bf01" if two_dim else "theta0,log_bf01"
    lines = ["prior," + header if labelled else header]
    for label, curve in blocks:
        prefix = _csv_field(label) + "," if labelled else ""
        for point, value in curve.rows():
            lines.append(prefix + ",".join(_fmt(c) for c in point) + "," + _fmt(value))
    _atomic_write(path, "\n".join(lines) + "\n")


def _round2(x: float) -> str:
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    # 330 digits hold any finite double (at most 309 integer digits) to 0.01
    return str(Decimal(repr(x)).quantize(Decimal("0.01"), rounding=ROUND_HALF_UP,
                                         context=Context(prec=330)))


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


def _write_summary(path: str, descriptor, config, mee=None, supports=(), warnings=(), extra=None):
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


def _csv_field(s: str) -> str:
    # prior labels contain commas; quote per RFC 4180
    if any(c in s for c in ',"\n'):
        return '"' + s.replace('"', '""') + '"'
    return s


# ---------------------------------------------------------------- options


@dataclass(frozen=True, eq=False)
class _Option:
    """One option: its flag is --name with '-' for '_', its config key is name."""

    name: str
    convert: Callable  # (value, flag name) -> the checked value
    default: object = None
    help: str | None = None
    required: bool = False

    @property
    def flag(self) -> str:
        return self.name.replace("_", "-")


_CONFIG = _Option("config", _text, help="JSON file mirroring the flags; explicit flags win")
_OUT = _Option("out", _text, ".", "output directory (default .)")
_K = _Option("k", _list_of(_float), [1.0], "comma-separated support levels (default 1)")
_GRID = _Option("grid", _grid_triplet, help=f"evaluation grid 'lo,hi,points' (at most {MAX_GRID_POINTS} points)")
_SWEEP = _Option("sweep", _list_of(_text, ";", allow_empty=True), [], "semicolon-separated prior specs for sensitivity.csv")
_SEED = _Option("seed", _count, 1, "random seed (default 1)")
# --help lists a subcommand's own options, then --config, --out and these
_SHARED = (_K, _GRID, _SWEEP, _SEED)


def _build_config(args, options) -> dict:
    """Defaults, then the --config file, then the flags; every value checked."""
    cfg = {o.name: o.default for o in options}
    if args.config:
        with open(args.config, encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise DomainError(f"{args.config}: invalid JSON ({exc})") from None
        if not isinstance(loaded, dict):
            raise DomainError(f"{args.config}: config must be a JSON object")
        loaded.pop("subcommand", None)
        unknown = [k for k in loaded if k not in cfg]
        if unknown:
            raise DomainError(f"{args.config}: unknown config keys {unknown}")
        # a null value leaves the default in place
        cfg.update((k, v) for k, v in loaded.items() if v is not None)
    for o in options:
        if getattr(args, o.name) is not None:
            cfg[o.name] = getattr(args, o.name)
    missing = [o for o in options if o.required and cfg[o.name] is None]
    if missing:
        raise DomainError(f"missing required option(s): {', '.join('--' + o.flag for o in missing)}")
    for o in options:
        if cfg[o.name] is not None:
            cfg[o.name] = o.convert(cfg[o.name], o.flag)
    return cfg


def _out_paths(cfg):
    out = cfg["out"] or "."
    os.makedirs(out, exist_ok=True)
    return out


# ---------------------------------------------------------------- subcommands


def _analyze(cmd, cfg, model, grid: GridSpec, sweep=(), extra=(), warnings=(), report=None) -> int:
    """Analyze `model` on `grid`; write curve.csv, summary.json (plus `extra` and
    `report(mee, supports)` blocks) and, for a (label, model) `sweep`, sensitivity.csv."""
    curve, mee, supports = analyze(model, grid, cfg["k"])
    extra = dict(extra)
    two_dim = grid.dim == 2
    if two_dim:
        # a 2-D analysis contours support regions instead of bracketing sets
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
            for k, (mask, segments) in zip(cfg["k"], supports)
        ]
        supports = []
    if report is not None:
        extra.update(report(mee, supports))
    warnings = [*curve.warnings, *warnings]
    if not mee.exists:
        warnings.append(f"boundary-mee: {mee.diagnostic}")
    for s in supports:
        warnings.extend(s.warnings)
    out = _out_paths(cfg)
    _write_curves(os.path.join(out, "curve.csv"), [(None, curve)], two_dim)
    _write_summary(
        os.path.join(out, "summary.json"),
        model.descriptor,
        {"subcommand": cmd.name, **cfg},
        mee,
        supports,
        warnings,
        extra,
    )
    if sweep:
        blocks = [(label, evaluate_curve(m, grid)) for label, m in sweep]
        _write_curves(os.path.join(out, "sensitivity.csv"), blocks, two_dim)
    return 0


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


def _normal(cmd, cfg) -> int:
    data = NormalSummary(cfg["estimate"], cfg["se"])
    prior = parse_prior_spec(cfg["prior"])
    if isinstance(prior, TruncBetaPrior):
        raise DomainError("the normal analysis takes global, local or point priors")
    grid = cfg["grid"] = cfg["grid"] or _normal_auto_grid(data, prior, cfg["k"])
    sweep = [(p.describe(), normal_bff(data, p)) for p in map(parse_prior_spec, cfg["sweep"])]
    return _analyze(cmd, cfg, normal_bff(data, prior), GridSpec.one_dim(*grid), sweep)


def _binomial(cmd, cfg) -> int:
    data = BinomialData(cfg["y"], cfg["n"])
    priors = [parse_prior_spec(spec) for spec in [cfg["prior"], *cfg["sweep"]]]
    if not all(isinstance(p, TruncBetaPrior) for p in priors):
        raise DomainError("the binomial analysis and its sweep take truncbeta priors")
    # the default grid spans the coin-flip example's evidence
    grid = cfg["grid"] = cfg["grid"] or [0.5, 0.515, 601]
    sweep = [(p.describe(), binomial_bff(data, p)) for p in priors[1:]]
    return _analyze(cmd, cfg, binomial_bff(data, priors[0]), GridSpec.one_dim(*grid), sweep)


def _meta(cmd, cfg) -> int:
    dataset = read_meta_csv(cfg["data"])
    theta_prior = parse_prior_spec(cfg["theta_prior"])
    if isinstance(theta_prior, (LocalNormalPrior, PointShiftPrior)):
        raise DomainError("the meta analysis takes a truncbeta or global theta prior")
    priors = MetaPriors(theta_prior, cfg["tau_scale"])
    mode = cfg["mode"]
    points = 101 if mode == "joint" else 512
    w = 1.0 / (dataset.std_errors**2 + priors.tau_scale**2)
    center = float(np.sum(w * dataset.estimates) / np.sum(w))
    spread = max(float(np.std(dataset.estimates)), math.sqrt(1.0 / float(np.sum(w))))
    lo, hi = center - 10.0 * spread, center + 10.0 * spread
    if isinstance(theta_prior, TruncBetaPrior):
        # a truncated prior puts no mass outside [l, u]
        lo, hi = max(lo, theta_prior.l), min(hi, theta_prior.u)
    auto_theta = [lo, hi, points]
    tau_hi = 5.0 * max(priors.tau_scale, float(np.std(dataset.estimates)))
    theta_grid = cfg["theta_grid"] = cfg["theta_grid"] or auto_theta
    tau_grid = cfg["tau_grid"] = cfg["tau_grid"] or [0.0, tau_hi, points]
    # the grid is checked before the costly denominator
    if mode == "joint":
        gs = GridSpec.two_dim(*zip(theta_grid, tau_grid))
        build = meta_joint_bff
    elif mode == "theta":
        gs = GridSpec.one_dim(*theta_grid)
        build = meta_marginal_theta_bff
    else:
        gs = GridSpec.one_dim(*tau_grid)
        build = meta_marginal_tau_bff
    log_denom = meta_log_denominator(dataset, priors)
    sweep = [(f"tau-scale={s:g}", build(dataset, MetaPriors(theta_prior, s))) for s in cfg["sweep"]]
    model = build(dataset, priors, log_denominator=log_denom)
    return _analyze(cmd, cfg, model, gs, sweep, {"log_denominator": log_denom, "mode": mode})


def _replication(cmd, cfg) -> int:
    pair = ReplicationPair(cfg["yo"], cfg["so"], cfg["yr"], cfg["sr"])
    data, gprior = pair.as_global()
    grid = cfg["grid"] = cfg["grid"] or _normal_auto_grid(data, gprior, cfg["k"])
    mode, hpd = replication_posterior_hpd(pair)
    posterior = {
        "mode": mode,
        "hpd": {"lower": hpd.lower, "upper": hpd.upper, "level": 0.95},
        "display": {
            "mode": _round2(mode),
            "hpd": f"[{_round2(hpd.lower)}, {_round2(hpd.upper)}]",
        },
    }
    return _analyze(cmd, cfg, replication_bff(pair), GridSpec.one_dim(*grid), extra={"posterior": posterior})


def _glm(cmd, cfg) -> int:
    dataset = read_glm_csv(cfg["data"])
    j = dataset.coefficient_index(cfg["coef"])
    prior = GlmPrior(cfg["prior_var"])
    method, n_samples, seed = cfg["method"], cfg["samples"], cfg["seed"]
    warnings, samples, fit = [], None, None
    if method == "mcmc":
        samples, info = metropolis_sample(dataset, prior, n_samples=n_samples, seed=seed)
        warnings = info["warnings"]
        auto = [float(np.min(samples[:, j])), float(np.max(samples[:, j])), 512]
    else:
        # univariate-normal reruns the normal analysis on the MLE
        fit = fit_map(dataset, prior if method == "laplace" else None)
        center = float(fit.mode[j])
        spread = math.sqrt(float(np.linalg.inv(fit.neg_hessian)[j, j]))
        auto = [center - 8.0 * spread, center + 8.0 * spread, 512]
    grid = cfg["grid"] = cfg["grid"] or auto
    model = glm_coefficient_bff(
        dataset, prior, j, method, n_samples=n_samples, seed=seed, samples=samples, fit=fit
    )
    return _analyze(cmd, cfg, model, GridSpec.one_dim(*grid), warnings=warnings, report=_odds_ratios)


def _odds_ratios(mee, supports) -> dict:
    """The MEE and support sets of a log-odds coefficient on the odds-ratio scale."""
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
    return {"odds_ratio": {"mee": or_block, "support_sets": or_supports}}


def _simulate(cmd, cfg) -> int:
    prior = parse_prior_spec(cfg["prior"])
    if not isinstance(prior, (GlobalNormalPrior, LocalNormalPrior)):
        raise DomainError("simulate takes a global or local normal prior")
    theta_star, kappa2 = cfg["theta_star"], cfg["kappa2"]
    if kappa2 <= 0.0:
        raise DomainError(f"kappa2 must be positive, got {kappa2}")
    theta0s, n_values = cfg["theta0"], cfg["n_values"]
    if any(n < 1 for n in n_values):
        raise DomainError("n values must be positive integers")
    g_lo, g_hi, g_n = cfg["gamma_grid"]
    if not (0.0 < g_lo < g_hi) or not 2 <= g_n <= MAX_GRID_POINTS:
        raise DomainError(f"gamma grid needs 0 < lo < hi and 2 to {MAX_GRID_POINTS} points")
    mc = cfg["mc"]
    if mc > MAX_MC:
        raise DomainError(f"--mc {mc} exceeds the cap of {MAX_MC} draws")
    gammas = np.exp(np.linspace(math.log(g_lo), math.log(g_hi), g_n))

    rng = np.random.default_rng(cfg["seed"])
    header = "n,theta0,gamma,prob_bf_le_gamma" + (",mc_estimate" if mc > 0 else "")
    lines = [header]
    for n in n_values:
        for t0 in theta0s:
            m = t0 if isinstance(prior, LocalNormalPrior) else prior.m
            v = prior.v
            if mc > 0:
                draws = rng.normal(theta_star, math.sqrt(kappa2 / n), size=mc)
                log_bfs = np.sort(log_bff_unitvariance(draws, t0, m, v, kappa2, n))
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
        {"subcommand": cmd.name, **cfg},
    )
    return 0


# ---------------------------------------------------------------- wiring


@dataclass(frozen=True)
class _Command:
    name: str
    help: str
    options: tuple  # in config-echo order; --out is echoed last
    run: Callable  # (command, checked config) -> exit code


_COMMANDS = {cmd.name: cmd for cmd in (
    _Command("normal", "normal estimate with known standard error", (
        _Option("estimate", _float, required=True),
        _Option("se", _float, required=True),
        _Option("prior", _text, help="global:m=..,v=.. | local:v=.. | point:d=..", required=True),
        _K, _GRID, _SWEEP,
    ), _normal),
    _Command("binomial", "binomial proportion with truncated beta prior", (
        _Option("y", _count, required=True),
        _Option("n", _count, required=True),
        _Option("prior", _text, help="truncbeta:a=..,b=..,l=..,u=..", required=True),
        _K, _GRID, _SWEEP,
    ), _binomial),
    _Command("meta", "random-effects meta-analysis", (
        _Option("data", _text, help="CSV with header id,estimate,se", required=True),
        _Option("theta_prior", _text, help="truncbeta:.. or global:m=..,v=..", required=True),
        _Option("tau_scale", _float, 0.02, "half-normal scale (default 0.02)"),
        _Option("mode", _OneOf(("joint", "theta", "tau")), "joint",
                "joint (2-D), theta or tau (default joint)"),
        _K,
        _Option("theta_grid", _grid_triplet, help=f"'lo,hi,points'; the grid has at most {MAX_GRID_POINTS} points"),
        _Option("tau_grid", _grid_triplet, help=f"'lo,hi,points'; the grid has at most {MAX_GRID_POINTS} points"),
        _Option("sweep", _list_of(_float, allow_empty=True), [], "comma-separated tau scales for sensitivity.csv"),
    ), _meta),
    _Command("replication", "replication study against the original", (
        _Option("yo", _float, help="original estimate", required=True),
        _Option("so", _float, help="original standard error", required=True),
        _Option("yr", _float, help="replication estimate", required=True),
        _Option("sr", _float, help="replication standard error", required=True),
        _K, _GRID,
    ), _replication),
    _Command("glm", "logistic regression coefficient", (
        _Option("data", _text, help="CSV with 'outcome' column plus covariates", required=True),
        _Option("coef", _text, help="coefficient (column) name to test", required=True),
        _Option("method", _OneOf(("laplace", "mcmc", "univariate-normal")), "laplace"),
        _Option("prior_var", _float, 0.5, "prior variance (default 0.5)"),
        _Option("samples", _count, 200_000,
                f"MCMC draws for --method mcmc (default 200000, at most {MAX_SAMPLES})"),
        _SEED, _K, _GRID,
    ), _glm),
    _Command("simulate", "sampling distribution of the BFF", (
        _Option("theta_star", _float, 0.0, "true mean (default 0)"),
        _Option("kappa2", _float, 1.0, "per-observation variance (default 1)"),
        _Option("prior", _text, help="local:v=.. or global:m=..,v=..", required=True),
        _Option("theta0", _list_of(_float), [0.0], "comma-separated tested values (default 0)"),
        _Option("n_values", _list_of(_count), [10, 50, 200], "comma-separated sample sizes (default 10,50,200)"),
        _Option("gamma_grid", _grid_triplet, [0.001, 20.0, 61],
                f"'lo,hi,points', log-spaced (default 0.001,20,61, at most {MAX_GRID_POINTS} points)"),
        _Option("mc", _count, 0,
                f"Monte Carlo draws for an empirical column (default off, at most {MAX_MC})"),
        _SEED,
    ), _simulate),
)}

def build_parser(names=tuple(_COMMANDS)) -> argparse.ArgumentParser:
    """The bff parser, holding the named subcommands."""
    parser = _Parser(prog="bff", description=__doc__.splitlines()[0])
    parser.add_argument("--version", action="version", version=f"bff {__version__}")
    subs = parser.add_subparsers(dest="subcommand", required=True)
    for name in names:
        cmd = _COMMANDS[name]
        sp = subs.add_parser(name, help=cmd.help)
        own = [o for o in cmd.options if o not in _SHARED]
        shared = [o for o in _SHARED if o in cmd.options]
        for o in own + [_CONFIG, _OUT] + shared:
            choices = "{" + ",".join(o.convert) + "}" if isinstance(o.convert, _OneOf) else None
            sp.add_argument("--" + o.flag, dest=o.name, metavar=choices, help=o.help)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # only the named subcommand's parser is built; for --help, --version, no
    # argument or an unknown name all are, so usage and errors list each one
    names = argv[:1] if argv and argv[0] in _COMMANDS else tuple(_COMMANDS)
    try:
        args = build_parser(names).parse_args(argv)
        cmd = _COMMANDS[args.subcommand]
        return cmd.run(cmd, _build_config(args, cmd.options + (_OUT,)))
    except (ContractError, DomainError, OSError) as exc:
        return _fail(2, "invalid-input", exc)
    except NumericalError as exc:
        return _fail(3, "numerical-failure", exc)


if __name__ == "__main__":
    sys.exit(main())
