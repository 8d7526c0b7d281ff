"""Independent checks of the files each analysis wrote.

Nothing here imports bff.  Every reported number is compared with a
value computed another way, from the analysis's inputs:

* normal, replication, binomial: log BF01 from `scipy.stats` log
  densities and `scipy.special` beta functions; support-set ends by
  `brentq` on that function; MEE and k_ME from the closed-form maximum.
* simulate: Pr(BF01 <= gamma) from `scipy.stats.ncx2.sf`, with the cut
  and noncentrality derived from the quadratic in the sample mean; the
  `--mc` column within six binomial standard errors.
* meta: a composite Gauss-Legendre oracle in log space, over a box that
  is shown to hold the mass (the log integrand at every box edge that is
  not a prior-support edge lies more than 40 below its peak).
* glm laplace and univariate-normal: the benchmark's own Newton fit on
  the table compressed to its distinct rows.
* glm mcmc: the marginal posterior of the coefficient, by importance
  sampling around a conditional fit at each value and normalised by
  quadrature; ends are compared with a tolerance derived from the KDE's
  Monte Carlo error.

`check(analysis)` returns a list of failure messages; empty means the
outputs are correct.
"""

from __future__ import annotations

import csv
import functools
import json
import math
import os

import numpy as np
from scipy import optimize, special, stats

END_TOL = 1e-8          # support-set ends, in units of the tested value
ROW_TOL = 1e-8          # curve values, log BF01 (absolute; plus 1e-12 relative)
META_TOL = 1e-7         # meta values and log BF01 at reported ends
MEE_TOL = 1e-6          # MEE position, as a share of the grid range
NEG_DROP = 40.0         # a box edge must lie this far below the peak


# ---------------------------------------------------------------- files


def read_curve(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], np.array([[float(x) for x in r] for r in rows[1:]])


def read_summary(out):
    with open(os.path.join(out, "summary.json"), encoding="utf-8") as fh:
        return json.load(fh)


def _close(a, b, tol):
    return abs(a - b) <= tol + 1e-12 * abs(b)


# ---------------------------------------------------------------- 1-D curves


def _grid_axis(grid):
    return np.linspace(float(grid[0]), float(grid[1]), int(grid[2]))


def check_rows(curve_path, grid, log_bf, tol, label="curve.csv"):
    errors = []
    _, rows = read_curve(curve_path)
    xs = _grid_axis(grid)
    if rows.shape != (len(xs), 2):
        return [f"{label}: expected {len(xs)} rows of 2 columns, got {rows.shape}"]
    if not np.array_equal(rows[:, 0], xs):
        errors.append(f"{label}: tested values are not the grid {grid}")
    want = log_bf(rows[:, 0])
    with np.errstate(invalid="ignore"):
        bad = ~((rows[:, 1] == want) | (np.abs(rows[:, 1] - want) <= tol + 1e-12 * np.abs(want)))
    if bad.any():
        i = int(np.argmax(bad))
        errors.append(f"{label}: {int(bad.sum())} rows off, e.g. theta0={rows[i, 0]!r}: "
                      f"{rows[i, 1]!r} vs {want[i]!r}")
    return errors


def oracle_intervals(log_bf, grid, log_k, closed=(False, False)):
    """{x on the grid's range : log_bf(x) >= log_k} as [lo, hi, lo_unb, hi_unb].

    Crossings are bracketed on the grid (as the set is defined there) and
    solved by brentq to full precision.
    """
    xs = _grid_axis(grid)
    g = log_bf(xs) - log_k
    g = np.where(np.isnan(g), -np.inf, g)
    above = g >= 0.0
    f = lambda x: float(log_bf(np.array([x]))[0]) - log_k
    out, start = [], None
    if above[0]:
        start = (float(xs[0]), not closed[0])
    for i in range(len(xs) - 1):
        if above[i] != above[i + 1]:
            x = optimize.brentq(f, float(xs[i]), float(xs[i + 1]), xtol=1e-15, rtol=1e-15, maxiter=500)
            if start is None:
                start = (x, False)
            else:
                out.append([start[0], x, start[1], False])
                start = None
    if start is not None:
        out.append([start[0], float(xs[-1]), start[1], not closed[1]])
    return out


def check_support(summary, log_bf, grid, ks, closed=(False, False), end_check=None):
    """Compare every reported support set with the oracle's.

    `end_check(x, log_k)` replaces the position test for interior ends
    when the oracle is too costly to root-solve (meta): it must return an
    error string or None.
    """
    errors = []
    sets = summary["support_sets"]
    if [s["k"] for s in sets] != list(ks):
        return [f"support levels {[s['k'] for s in sets]} != requested {list(ks)}"]
    for s in sets:
        log_k = math.log(s["k"])
        want = oracle_intervals(log_bf, grid, log_k, closed)
        got = s["intervals"]
        if s["empty"] != (not want) or len(got) != len(want):
            errors.append(f"k={s['k']:g}: {len(got)} intervals (empty={s['empty']}), oracle has {len(want)}")
            continue
        for iv, (lo, hi, lo_unb, hi_unb) in zip(got, want):
            if iv["lower_unbounded"] != lo_unb or iv["upper_unbounded"] != hi_unb:
                errors.append(f"k={s['k']:g}: unbounded flags {iv['lower_unbounded']},{iv['upper_unbounded']} "
                              f"vs oracle {lo_unb},{hi_unb}")
            for side, val, ref, on_edge in (("lower", iv["lower"], lo, lo == float(grid[0])),
                                            ("upper", iv["upper"], hi, hi == float(grid[1]))):
                if val is None:
                    errors.append(f"k={s['k']:g}: {side} end missing")
                elif on_edge:
                    if val != ref:
                        errors.append(f"k={s['k']:g}: {side} end {val!r} should be the grid edge {ref!r}")
                elif end_check is not None:
                    msg = end_check(val, log_k)
                    if msg:
                        errors.append(f"k={s['k']:g}: {side} end {val!r}: {msg}")
                elif not abs(val - ref) <= END_TOL:
                    errors.append(f"k={s['k']:g}: {side} end {val!r} vs oracle {ref!r}")
    return errors


def check_mee_1d(summary, log_bf, grid, x_star):
    """x_star: the oracle's maximiser, or None when there is no MEE."""
    mee = summary["mee"]
    if x_star is None:
        return [] if not mee["exists"] else [f"MEE {mee['theta']} reported where none exists"]
    if not mee["exists"]:
        return [f"no MEE reported; oracle has one at {x_star!r}"]
    errors = []
    span = float(grid[1]) - float(grid[0])
    if not abs(mee["theta"][0] - x_star) <= MEE_TOL * span:
        errors.append(f"MEE {mee['theta'][0]!r} vs oracle {x_star!r}")
    top = float(log_bf(np.array([x_star]))[0])
    if not _close(mee["log_k_me"], top, 1e-9):
        errors.append(f"log k_ME {mee['log_k_me']!r} vs oracle {top!r}")
    return errors


# ---------------------------------------------------------------- normal family


def normal_log_bf(y, se, prior, m=None, v=None, d=None):
    """log BF01(theta0) from scipy.stats log densities."""
    norm = stats.norm

    def f(t):
        t = np.asarray(t, dtype=float)
        num = norm.logpdf(y, loc=t, scale=se)
        if prior == "global":
            return num - norm.logpdf(y, loc=m, scale=math.sqrt(se**2 + v))
        if prior == "local":
            return num - norm.logpdf(y, loc=t, scale=math.sqrt(se**2 + v))
        return num - norm.logpdf(y, loc=t + d, scale=se)

    return f


def _check_normal_like(out, summary, c, f, x_star):
    grid = summary["config"]["grid"]
    errors = check_rows(os.path.join(out, "curve.csv"), grid, f, ROW_TOL)
    errors += check_mee_1d(summary, f, grid, x_star)
    errors += check_support(summary, f, grid, c["ks"])
    return errors


def check_normal(out, summary, c):
    f = normal_log_bf(c["y"], c["se"], c["prior"], c.get("m"), c.get("v"), c.get("d"))
    x_star = None if c["prior"] == "point" else c["y"]
    errors = _check_normal_like(out, summary, c, f, x_star)
    if c["prior"] == "point":
        for s in summary["support_sets"]:
            if not s["intervals"] or not s["intervals"][-1]["upper_unbounded"]:
                errors.append(f"point prior, k={s['k']:g}: the set must run past the upper grid edge")
    if "sweep" in c:
        grid = summary["config"]["grid"]
        with open(os.path.join(out, "sensitivity.csv"), encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        n = int(grid[2])
        if len(rows) != n * len(c["sweep"]):
            return errors + [f"sensitivity.csv: {len(rows)} rows, expected {n * len(c['sweep'])}"]
        for b, p in enumerate(c["sweep"]):
            block = np.array([[float(r[1]), float(r[2])] for r in rows[b * n:(b + 1) * n]])
            g = normal_log_bf(c["y"], c["se"], p["prior"], p.get("m"), p.get("v"))
            want = g(block[:, 0])
            if not np.array_equal(block[:, 0], _grid_axis(grid)) or not np.all(
                np.abs(block[:, 1] - want) <= ROW_TOL + 1e-12 * np.abs(want)
            ):
                errors.append(f"sensitivity.csv block {b} ({p['prior']}) differs from the oracle")
    return errors


def check_replication(out, summary, c):
    f = normal_log_bf(c["yr"], c["sr"], "global", c["yo"], c["so"] ** 2)
    errors = _check_normal_like(out, summary, c, f, c["yr"])
    prec = 1.0 / c["so"] ** 2 + 1.0 / c["sr"] ** 2
    mode = (c["yo"] / c["so"] ** 2 + c["yr"] / c["sr"] ** 2) / prec
    half = stats.norm.ppf(0.975) / math.sqrt(prec)
    post = summary["posterior"]
    for name, got, want in (("mode", post["mode"], mode), ("hpd lower", post["hpd"]["lower"], mode - half),
                            ("hpd upper", post["hpd"]["upper"], mode + half)):
        if not abs(got - want) <= 1e-8:
            errors.append(f"posterior {name} {got!r} vs {want!r}")
    return errors


def _log_trunc_mass(a, b, lo, hi):
    if special.betainc(a, b, lo) > 0.5:
        return math.log(special.betaincc(a, b, lo) - special.betaincc(a, b, hi))
    return math.log(special.betainc(a, b, hi) - special.betainc(a, b, lo))


def check_binomial(out, summary, c):
    y, n, a, b = c["y"], c["n"], c["a"], c["b"]
    log_marginal = (
        special.gammaln(n + 1) - special.gammaln(y + 1) - special.gammaln(n - y + 1)
        + special.betaln(a + y, b + n - y) - special.betaln(a, b)
        + _log_trunc_mass(a + y, b + n - y, c["l"], c["u"]) - _log_trunc_mass(a, b, c["l"], c["u"])
    )
    f = lambda t: stats.binom.logpmf(y, n, np.asarray(t, dtype=float)) - log_marginal
    grid = summary["config"]["grid"]
    errors = check_rows(os.path.join(out, "curve.csv"), grid, f, ROW_TOL)
    errors += check_mee_1d(summary, f, grid, y / n)
    errors += check_support(summary, f, grid, c["ks"])
    return errors


def _simulate_prob(gamma, theta0, theta_star, m, v, kappa2, n):
    """Pr(BF01 <= gamma): log BF01 is a downward quadratic in the mean ybar,
    N(ybar; theta0, kappa2/n) / N(ybar; m, v + kappa2/n), so the event is
    ybar outside [c - r, c + r]."""
    s2, w2 = kappa2 / n, v + kappa2 / n
    a = 0.5 * (1.0 / s2 - 1.0 / w2)                      # -(coefficient of ybar^2)
    c = (theta0 / s2 - m / w2) / (2.0 * a)
    at_c = (0.5 * math.log(w2 / s2) - (c - theta0) ** 2 / (2.0 * s2) + (c - m) ** 2 / (2.0 * w2))
    r2 = (at_c - math.log(gamma)) / a
    if r2 <= 0.0:
        return 1.0
    return float(stats.ncx2.sf(r2 / s2, 1, (theta_star - c) ** 2 / s2))


def check_simulate(out, summary, c):
    errors = []
    with open(os.path.join(out, "bff_cdf.csv"), encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    header, rows = rows[0], rows[1:]
    gammas = np.exp(np.linspace(math.log(0.001), math.log(20.0), 61))
    want_rows = [(n, t0, g) for n in c["n_values"] for t0 in c["theta0"] for g in gammas]
    if len(rows) != len(want_rows) or len(header) != (5 if c["mc"] else 4):
        return [f"bff_cdf.csv: {len(rows)} rows x {len(header)} columns, expected {len(want_rows)}"]
    for row, (n, t0, g) in zip(rows, want_rows):
        if int(row[0]) != n or not _close(float(row[1]), t0, 0.0) or not _close(float(row[2]), float(g), 1e-15):
            errors.append(f"bff_cdf.csv: row {row[:3]} out of order")
            break
        m = t0 if c["m"] is None else c["m"]
        p_want = _simulate_prob(float(g), t0, c["theta_star"], m, c["v"], c["kappa2"], n)
        p = float(row[3])
        if abs(p - p_want) > 1e-7 * p_want:
            errors.append(f"n={n} theta0={t0:g} gamma={g:.4g}: {p!r} vs ncx2.sf {p_want!r}")
        if c["mc"]:
            frac, draws = float(row[4]), c["mc"]
            se = math.sqrt(max(p_want * (1.0 - p_want), 1.0 / draws) / draws)
            if abs(frac - p_want) > 6.0 * se:
                errors.append(f"n={n} theta0={t0:g} gamma={g:.4g}: mc {frac!r} vs {p_want!r} (> 6 se)")
    return errors[:5]


# ---------------------------------------------------------------- meta


def _gl_nodes(lo, hi, panels, order=8):
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(lo, hi, panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    return (mid[:, None] + half[:, None] * x[None, :]).ravel(), (half[:, None] * w[None, :]).ravel()


def _logsumexp_w(logf, w, axis=-1):
    return special.logsumexp(logf, b=np.broadcast_to(w, logf.shape), axis=axis)


class MetaOracle:
    """Marginal likelihoods of the random-effects model by Gauss-Legendre
    quadrature in log space.  theta is integrated over a box of +-40
    conditional standard deviations around the conditional peak (clipped
    to the prior's support), tau over [0, 30 tau_scale]."""

    def __init__(self, est, se, prior, tau_scale):
        self.y, self.s2 = np.asarray(est, float), np.asarray(se, float) ** 2
        self.prior, self.tau_scale = prior, tau_scale
        if prior["prior"] == "truncbeta":
            a, b = prior["a"], prior["b"]
            log_mass = _log_trunc_mass(a, b, prior["l"], prior["u"])
            self.support = (prior["l"], prior["u"])
            self.log_prior = lambda t: stats.beta.logpdf(t, a, b) - log_mass
        else:
            self.support = (-math.inf, math.inf)
            self.log_prior = lambda t: stats.norm.logpdf(t, prior["m"], math.sqrt(prior["v"]))
        self.tau_nodes, self.tau_w = _gl_nodes(0.0, 30.0 * tau_scale, 200)
        self.box_violations = 0
        self.log_tau_prior = stats.halfnorm.logpdf(self.tau_nodes, scale=tau_scale)

    def loglik(self, theta, tau):
        theta, tau = np.broadcast_arrays(np.asarray(theta, float), np.asarray(tau, float))
        var = self.s2 + tau[..., None] ** 2
        return np.sum(-0.5 * np.log(2.0 * math.pi * var) - (self.y - theta[..., None]) ** 2 / (2.0 * var), axis=-1)

    def _theta_box(self, tau):
        prec = np.sum(1.0 / (self.s2 + tau**2))
        center = np.sum(self.y / (self.s2 + tau**2)) / prec
        if self.prior["prior"] == "global":
            p = prec + 1.0 / self.prior["v"]
            center = (center * prec + self.prior["m"] / self.prior["v"]) / p
            prec = p
        sd = 1.0 / math.sqrt(prec)
        lo, hi = max(self.support[0], center - 40.0 * sd), min(self.support[1], center + 40.0 * sd)
        return lo, hi

    def log_marginal_tau(self, tau0):
        """log Int L(theta, tau0) p(theta) dtheta for each tau0, plus a box check."""
        out, bad = [], 0
        for t in np.atleast_1d(tau0):
            lo, hi = self._theta_box(float(t))
            nodes, w = _gl_nodes(lo, hi, 32)
            lf = self.loglik(nodes, float(t)) + self.log_prior(nodes)
            peak = lf.max()
            edge = self.loglik(np.array([lo, hi]), float(t)) + self.log_prior(np.array([lo, hi]))
            inner = [lo > self.support[0], hi < self.support[1]]
            bad += sum(1 for e, i in zip(edge, inner) if i and e > peak - NEG_DROP)
            out.append(_logsumexp_w(lf, w))
        self.box_violations += bad
        return np.array(out)

    def log_marginal_theta(self, theta0):
        """log Int L(theta0, tau) p(tau) dtau for each theta0."""
        th = np.atleast_1d(np.asarray(theta0, float))
        lf = self.loglik(th[:, None], self.tau_nodes[None, :]) + self.log_tau_prior[None, :]
        peak = lf.max(axis=1)
        self.box_violations += int(np.sum(lf[:, -1] > peak - NEG_DROP))
        return _logsumexp_w(lf, self.tau_w, axis=1)

    @functools.cached_property
    def log_denominator(self):
        inner = self.log_marginal_tau(self.tau_nodes)
        lf = inner + self.log_tau_prior
        if lf[-1] > lf.max() - NEG_DROP:
            self.box_violations += 1
        return float(_logsumexp_w(lf, self.tau_w))


def _read_table(path):
    with open(path, encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    return [float(r[1]) for r in rows], [float(r[2]) for r in rows]


@functools.lru_cache(maxsize=8)
def _meta_oracle(path, prior_items, tau_scale):
    est, se = _read_table(path)
    return MetaOracle(est, se, dict(prior_items), tau_scale)


def check_meta(out, summary, c, argv):
    path = argv[argv.index("--data") + 1]
    prior = {k: c[k] for k in ("prior", "a", "b", "l", "u", "m", "v") if k in c}
    oracle = _meta_oracle(path, tuple(sorted(prior.items())), c["tau_scale"])
    errors = []
    denom = oracle.log_denominator
    if not _close(summary["log_denominator"], denom, META_TOL):
        errors.append(f"log_denominator {summary['log_denominator']!r} vs oracle {denom!r}")
    cfg = summary["config"]
    mee = summary["mee"]
    if c["mode"] == "joint":
        errors += _check_meta_joint(out, summary, c, oracle, denom)
    else:
        grid = cfg["theta_grid"] if c["mode"] == "theta" else cfg["tau_grid"]
        marg = oracle.log_marginal_theta if c["mode"] == "theta" else oracle.log_marginal_tau
        f = lambda x: marg(x) - denom
        errors += check_rows(os.path.join(out, "curve.csv"), grid, f, META_TOL)

        def at_end(x, log_k):
            d = float(f(np.array([x]))[0]) - log_k
            return None if abs(d) <= META_TOL else f"oracle log BF01 - log k = {d:.3e}"

        closed = (c["mode"] == "tau" and float(grid[0]) == 0.0, False)
        errors += check_support(summary, f, grid, c["ks"], closed, at_end)
        if not mee["exists"]:
            errors.append("no MEE reported")
        else:
            x = mee["theta"][0]
            xs = _grid_axis(grid)
            h = 1e-3 * (xs[1] - xs[0])
            vals = f(np.array([x - h, x, x + h]))
            if not _close(mee["log_k_me"], float(vals[1]), META_TOL):
                errors.append(f"log k_ME {mee['log_k_me']!r} vs oracle {float(vals[1])!r} at the MEE")
            if vals[1] < max(vals[0], vals[2]) - META_TOL or vals[1] < f(xs).max() - META_TOL:
                errors.append(f"MEE {x!r} is not the maximum of the oracle curve")
    if c.get("paper"):
        errors += _paper_windows(summary, c, oracle)
    if oracle.box_violations:
        errors.append(f"oracle box does not hold the mass ({oracle.box_violations} edges)")
    return errors


def _check_meta_joint(out, summary, c, oracle, denom):
    errors = []
    cfg = summary["config"]
    _, rows = read_curve(os.path.join(out, "curve.csv"))
    t_ax, u_ax = _grid_axis(cfg["theta_grid"]), _grid_axis(cfg["tau_grid"])
    tt, uu = np.meshgrid(t_ax, u_ax, indexing="ij")
    want = oracle.loglik(tt.ravel(), uu.ravel()) - denom
    if rows.shape != (want.size, 3) or not np.array_equal(rows[:, 0], tt.ravel()) or not np.array_equal(rows[:, 1], uu.ravel()):
        return [f"curve.csv: grid rows differ from the {len(t_ax)}x{len(u_ax)} grid"]
    bad = ~(np.abs(rows[:, 2] - want) <= META_TOL + 1e-12 * np.abs(want))
    if bad.any():
        errors.append(f"curve.csv: {int(bad.sum())} joint rows off the oracle")
    mee = summary["mee"]
    if not mee["exists"]:
        return errors + ["no joint MEE reported"]
    th, ta = mee["theta"]
    top = float(oracle.loglik(th, ta)) - denom
    if not _close(mee["log_k_me"], top, META_TOL):
        errors.append(f"joint log k_ME {mee['log_k_me']!r} vs oracle {top!r}")
    h = 1e-3 * np.array([t_ax[1] - t_ax[0], u_ax[1] - u_ax[0]])
    around = [float(oracle.loglik(th + dx, ta + dy)) - denom for dx, dy in ((h[0], 0), (-h[0], 0), (0, h[1]), (0, -h[1]))]
    if top < max(around) - META_TOL or top < want.max() - META_TOL:
        errors.append(f"joint MEE ({th!r}, {ta!r}) is not the maximum of the oracle surface")
    values = want.reshape(tt.shape)
    if [r["k"] for r in summary["support_regions"]] != list(c["ks"]):
        errors.append(f"support levels {[r['k'] for r in summary['support_regions']]} != requested {c['ks']}")
    for region in summary["support_regions"]:
        inside = int(np.sum(values >= math.log(region["k"])))
        if region["cells_inside"] != inside:
            errors.append(f"k={region['k']:g}: {region['cells_inside']} grid points inside, oracle {inside}")
        for seg in region["contour_segments"]:
            for x, y in seg:
                on_line = np.any(np.abs(t_ax - x) <= 1e-15 * (1 + abs(x))) or np.any(np.abs(u_ax - y) <= 1e-15 * (1 + abs(y)))
                if not on_line:
                    errors.append(f"k={region['k']:g}: contour point ({x!r}, {y!r}) is not on a grid line")
                    break
    return errors


def _paper_windows(summary, c, oracle):
    """The acceptance-4 windows of the paper's coin-flip meta-analysis."""
    mee, errors = summary["mee"], []
    if not mee["exists"]:
        return ["paper window: no MEE"]
    if c["mode"] == "joint":
        th, ta = mee["theta"]
        null = float(oracle.loglik(0.5, 0.0)) - summary["log_denominator"]
        checks = [("theta", th, 0.51, 0.002), ("tau", ta, 0.016, 0.001),
                  ("k_ME", mee["k_me"], 14.0, 0.2 * 14.0), ("log BF01(0.5, 0)", null, -1.81e5, 0.01 * 1.81e5)]
    elif c["mode"] == "theta":
        checks = [("theta k_ME", mee["k_me"], 2.2, 0.2 * 2.2)]
    else:
        checks = [("tau k_ME", mee["k_me"], 6.4, 0.2 * 6.4)]
    for name, got, want, tol in checks:
        if not abs(got - want) <= tol:
            errors.append(f"paper window: {name} {got!r} not within {tol:g} of {want:g}")
    return errors


# ---------------------------------------------------------------- glm


@functools.lru_cache(maxsize=2)
def glm_table(path):
    """Design (intercept first) and outcome, compressed to distinct rows:
    returns (names, rows, trials, successes)."""
    with open(path, encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        data = np.array([[float(v) for v in r] for r in reader if r])
    j = header.index("outcome")
    x = np.hstack([np.ones((len(data), 1)), np.delete(data, j, axis=1)])
    names = ["intercept"] + [h for i, h in enumerate(header) if i != j]
    uniq, inv = np.unique(x, axis=0, return_inverse=True)
    inv = inv.ravel()
    trials = np.bincount(inv, minlength=len(uniq)).astype(float)
    succ = np.bincount(inv, weights=data[:, j], minlength=len(uniq))
    return tuple(names), uniq, trials, succ


def _glm_fit(x, trials, succ, prec, fixed=None):
    """Posterior mode (MLE when prec is zero) by Newton; `fixed=(j, b)`
    holds coefficient j at b.  Returns (beta, negative Hessian of the free block)."""
    p = x.shape[1]
    free = np.ones(p, bool)
    beta = np.zeros(p)
    if fixed is not None:
        free[fixed[0]] = False
        beta[fixed[0]] = fixed[1]
    for _ in range(100):
        mu = special.expit(x @ beta)
        grad = (x.T @ (succ - trials * mu) - prec * beta)[free]
        h = (x[:, free].T * (trials * mu * (1.0 - mu))) @ x[:, free] + np.diag(prec[free])
        step = np.linalg.solve(h, grad)
        beta[free] += step
        if np.max(np.abs(step)) < 1e-13 * (1.0 + np.max(np.abs(beta))):
            break
    mu = special.expit(x @ beta)
    h = (x[:, free].T * (trials * mu * (1.0 - mu))) @ x[:, free] + np.diag(prec[free])
    return beta, h


def _glm_log_post(x, trials, succ, prec, beta):
    """Unnormalised log posterior for rows of beta (last axis = coefficients)."""
    eta = beta @ x.T
    return (eta @ succ - np.logaddexp(0.0, eta) @ trials) - 0.5 * (beta**2) @ prec


def check_glm(out, summary, c, argv):
    path = argv[argv.index("--data") + 1]
    names, x, trials, succ = glm_table(path)
    j, v = names.index(c["coef"]), c["prior_var"]
    prior_sd = math.sqrt(v)
    grid = summary["config"]["grid"]
    if c["method"] == "mcmc":
        return _check_glm_mcmc(summary, c, glm_marginal_oracle(path, c["coef"], v))
    prec = np.full(x.shape[1], 1.0 / v)
    prec[0] = 0.0
    if c["method"] == "univariate-normal":
        prec = np.zeros_like(prec)
    beta, h = _glm_fit(x, trials, succ, prec)
    mean, sd = beta[j], math.sqrt(np.linalg.inv(h)[j, j])
    errors = []
    want_grid = [mean - 8.0 * sd, mean + 8.0 * sd, 512]
    if not all(_close(g, w, 1e-9 * (1.0 + abs(w))) for g, w in zip(grid, want_grid)):
        errors.append(f"auto grid {grid} vs oracle {want_grid}")
    norm = stats.norm
    if c["method"] == "laplace":
        f = lambda b: norm.logpdf(b, mean, sd) - norm.logpdf(b, 0.0, prior_sd)
        curv = 1.0 / sd**2 - 1.0 / v          # -(second derivative) of log BF01
        x_star = mean / sd**2 / curv if curv > 0 else None
        if x_star is not None and not (grid[0] < x_star < grid[1]):
            x_star = None
        if c["coef"] == "hydramnios" and summary["mee"]["exists"]:
            errors.append("hydramnios/laplace: the BFF still rises at the boundary, so no MEE may be reported")
    else:
        f = lambda b: norm.logpdf(mean, b, sd) - norm.logpdf(mean, 0.0, math.sqrt(sd**2 + v))
        x_star = mean
    errors += check_rows(os.path.join(out, "curve.csv"), grid, f, 1e-7)
    errors += check_mee_1d(summary, f, grid, x_star)
    errors += check_support(summary, f, grid, c["ks"])
    return errors


@functools.lru_cache(maxsize=2)
def glm_marginal_oracle(path, coef, prior_var, draws=1000, seed=20240318):
    """log marginal posterior density of one coefficient on a grid.

    At each value b the other coefficients are fitted (Newton) and the
    integral over them is estimated by importance sampling from a
    Student-t(8) proposal centred on that fit, scaled by its inverse
    Hessian (the same draws for every b); the result is normalised over b
    by the trapezoid rule on a fine grid.  Returns (xs, log density, sd).
    """
    names, x, trials, succ = glm_table(path)
    j = names.index(coef)
    prec = np.full(x.shape[1], 1.0 / prior_var)
    prec[0] = 0.0
    beta0, h0 = _glm_fit(x, trials, succ, prec)
    sd0 = math.sqrt(np.linalg.inv(h0)[j, j])
    xs = np.linspace(beta0[j] - 9.0 * sd0, beta0[j] + 9.0 * sd0, 241)
    rng = np.random.default_rng(seed)
    free = np.arange(x.shape[1]) != j
    dof, q = 8.0, int(free.sum())
    z = rng.standard_normal((draws, q))
    chi = rng.chisquare(dof, size=draws) / dof
    t_draws = z / np.sqrt(chi)[:, None]
    log_t = stats.multivariate_t(loc=np.zeros(q), shape=np.eye(q), df=dof).logpdf(t_draws)
    logi = np.empty(len(xs))
    for i, b in enumerate(xs):
        beta, h = _glm_fit(x, trials, succ, prec, fixed=(j, b))
        chol = np.linalg.cholesky(np.linalg.inv(h))
        pts = np.repeat(beta[None, :], draws, axis=0)
        pts[:, free] += t_draws @ chol.T
        logw = _glm_log_post(x, trials, succ, prec, pts) - (log_t - np.sum(np.log(np.diag(chol))))
        logi[i] = special.logsumexp(logw) - math.log(draws)
    dx = xs[1] - xs[0]
    log_norm = special.logsumexp(logi, b=np.r_[0.5, np.ones(len(xs) - 2), 0.5] * dx)
    dens = logi - log_norm
    p = np.exp(dens)
    mean = np.sum(p * xs) * dx
    sd = math.sqrt(np.sum(p * (xs - mean) ** 2) * dx)
    return xs, dens, sd


# Integrated autocorrelation time of one coefficient's Metropolis chain,
# measured on pilot chains (see README); the KDE's variance grows by it.
MCMC_TAU_INT = 60.0


def _check_glm_mcmc(summary, c, oracle):
    xs, log_dens, sd = oracle
    v = c["prior_var"]
    kept = c["samples"] - c["samples"] // 10
    h = 0.9 * sd * kept ** -0.2
    log_bf = lambda b: np.interp(b, xs, log_dens) - stats.norm.logpdf(b, 0.0, math.sqrt(v))
    d1 = np.gradient(log_dens, xs)
    f2_over_f = np.gradient(d1, xs) + d1**2

    def tol(b):
        # log-scale KDE error: 5 sd (variance tau R(K) / (n h f)) plus the
        # smoothing bias h^2 f'' / (2 f)
        var = MCMC_TAU_INT / (2.0 * math.sqrt(math.pi)) / (kept * h * math.exp(np.interp(b, xs, log_dens)))
        return 5.0 * math.sqrt(var) + 0.5 * h * h * abs(np.interp(b, xs, f2_over_f))

    errors = []
    sets = summary["support_sets"]
    k1 = [s for s in sets if s["k"] == 1.0]
    if len(k1) != 1 or len(k1[0]["intervals"]) != 1:
        return [f"mcmc: expected a single k=1 interval, got {[s['display'] for s in k1]}"]
    iv = k1[0]["intervals"][0]
    for side in ("lower", "upper"):
        b = iv[side]
        if iv[f"{side}_unbounded"] or b is None:
            errors.append(f"mcmc: k=1 {side} end runs into the sample range")
            continue
        err = float(log_bf(b))
        if abs(err) > tol(b):
            errors.append(f"mcmc: oracle log BF01 at the {side} end {b!r} is {err:.3f}, tolerance {tol(b):.3f}")
    mee = summary["mee"]
    top = float(np.max(log_bf(xs)))
    if not mee["exists"]:
        errors.append("mcmc: no MEE reported")
    elif abs(float(log_bf(mee["theta"][0])) - top) > tol(mee["theta"][0]) or abs(mee["log_k_me"] - top) > tol(mee["theta"][0]):
        errors.append(f"mcmc: MEE {mee['theta'][0]!r} (log k_ME {mee['log_k_me']:.3f}) vs oracle max {top:.3f}")
    return errors


# ---------------------------------------------------------------- dispatch


def check(analysis):
    """Failure messages for one analysis record from the worker's manifest."""
    if analysis["exit_code"] != 0:
        return [f"exit code {analysis['exit_code']}: {analysis['stderr']}"]
    c, out = analysis["check"], analysis["out"]
    try:
        summary = read_summary(out)
        kind = c["kind"]
        if kind == "normal":
            return check_normal(out, summary, c)
        if kind == "replication":
            return check_replication(out, summary, c)
        if kind == "binomial":
            return check_binomial(out, summary, c)
        if kind == "simulate":
            return check_simulate(out, summary, c)
        if kind == "meta":
            return check_meta(out, summary, c, analysis["argv"])
        if kind == "glm":
            return check_glm(out, summary, c, analysis["argv"])
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"]
    return [f"unknown analysis kind {c['kind']!r}"]
