"""Model-agnostic machinery for Bayes factor functions.

A BFF maps each tested null value theta0 to the Bayes factor BF01 in
favour of H0: theta = theta0 against a fixed alternative.  Everything in
this module works on the natural-log scale; ratio-scale numbers appear
only in returned summaries.  Three consumers are served: curve
evaluation over grids, the maximum evidence estimate (the theta0 best
supported by the data, with its evidence level k_ME), and support sets
S_k = {theta0 : BF01(theta0) >= k} obtained by cutting the curve at k.

`analyze` evaluates a grid once, in one model call, and reads the MEE
and the support sets of every level off that curve; `find_mee`,
`support_set` and `support_region` are one-summary views of it.  Models
are vectorized: a 1-D `log_bff` maps an array of theta0 values to one
value each, and a 2-D one maps a (2, N) array (rows theta0 and tau0) to
N values.  Refinement keeps to arrays: the golden sections of all grid
maxima, like the bisections of all level crossings, advance together one
model call per step, and a single point goes to the model as a one-point
array.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import ContractError, DomainError, NumericalError

__all__ = [
    "DensityFn",
    "GridSpec",
    "BffModel",
    "BffCurve",
    "MeeResult",
    "Interval",
    "SupportSet",
    "MAX_GRID_POINTS",
    "analyze",
    "evaluate_curve",
    "find_mee",
    "support_set",
    "support_region",
    "savage_dickey_bff",
    "relative_belief_ratio",
    "laplace_log_bff",
    "combine_sequential",
    "universal_bound_pvalue",
]

_GOLDEN = 0.5 * (math.sqrt(5.0) - 1.0)

# largest grid (points over all dimensions) a GridSpec accepts: a curve
# of this size is 8 MB of values, and each point becomes a CSV line
MAX_GRID_POINTS = 1_000_000


@dataclass(frozen=True)
class DensityFn:
    """A univariate density on the log scale with its support bounds.

    `local=True` marks densities that depend on the tested value (and are
    therefore unusable for Savage-Dickey); `proper=False` marks
    non-normalizable ones.
    """

    log_density: Callable
    lower: float
    upper: float
    descriptor: str
    proper: bool = True
    local: bool = False

    def __post_init__(self):
        if not self.descriptor:
            raise ContractError("DensityFn requires a non-empty descriptor")
        if not self.lower < self.upper:
            raise ContractError(
                f"DensityFn support must have lower < upper, got "
                f"[{self.lower}, {self.upper}]"
            )


@dataclass(frozen=True)
class GridSpec:
    """Axis-aligned evaluation grid; one (lower, upper, points) per dimension."""

    lower: tuple
    upper: tuple
    points: tuple

    def __post_init__(self):
        if not (len(self.lower) == len(self.upper) == len(self.points)):
            raise ContractError("GridSpec fields must have matching lengths")
        if len(self.lower) not in (1, 2):
            raise ContractError("GridSpec supports 1 or 2 dimensions")
        for lo, hi, n in zip(self.lower, self.upper, self.points):
            if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
                raise ContractError(f"grid bounds must be finite with lo < hi, got [{lo}, {hi}]")
            if n < 3:
                raise ContractError(f"grids need at least 3 points per dimension, got {n}")
        total = math.prod(self.points)
        if total > MAX_GRID_POINTS:
            raise ContractError(f"grid has {total} points; at most {MAX_GRID_POINTS} are allowed")

    @property
    def dim(self) -> int:
        return len(self.lower)

    def axes(self):
        return tuple(
            np.linspace(lo, hi, n)
            for lo, hi, n in zip(self.lower, self.upper, self.points)
        )

    @classmethod
    def one_dim(cls, lower: float, upper: float, points: int = 512) -> "GridSpec":
        return cls((lower,), (upper,), (points,))

    @classmethod
    def two_dim(cls, lower, upper, points=(101, 101)) -> "GridSpec":
        return cls(tuple(lower), tuple(upper), tuple(points))


@dataclass(frozen=True)
class BffModel:
    """log BF01 as a function of the tested value, plus domain metadata.

    The engine calls `log_bff` on arrays only: for dim 1 a 1-D array of
    theta0 values, for dim 2 a (2, N) array whose rows are theta0 and
    tau0; a single point is a one-point array.  It must give one value
    per point.  `lower_closed`/`upper_closed` mark finite
    domain endpoints that belong to the parameter space (a maximum there
    is a genuine MEE, not a truncation artifact).
    """

    log_bff: Callable
    lower: tuple
    upper: tuple
    descriptor: str
    dim: int = 1
    lower_closed: tuple = None
    upper_closed: tuple = None

    def __post_init__(self):
        if not self.descriptor:
            raise ContractError("BffModel requires a non-empty descriptor")
        if len(self.lower) != self.dim or len(self.upper) != self.dim:
            raise ContractError("BffModel bounds must match its dimension")
        if self.lower_closed is None:
            object.__setattr__(
                self, "lower_closed", tuple(math.isfinite(b) for b in self.lower)
            )
        if self.upper_closed is None:
            object.__setattr__(
                self, "upper_closed", tuple(math.isfinite(b) for b in self.upper)
            )


@dataclass(frozen=True)
class BffCurve:
    """Grid evaluation of a BFF: one axis per dimension, log BF01 values."""

    axes: tuple
    log_bf: np.ndarray
    descriptor: str
    warnings: tuple = ()

    def rows(self):
        """Yield (point, log_bf) pairs in row-major order."""
        if len(self.axes) == 1:
            for x, v in zip(self.axes[0], self.log_bf):
                yield (float(x),), float(v)
        else:
            for i, x in enumerate(self.axes[0]):
                for j, y in enumerate(self.axes[1]):
                    yield (float(x), float(y)), float(self.log_bf[i, j])


@dataclass(frozen=True)
class MeeResult:
    """Maximum evidence estimate.  exists=False means the BFF has no
    interior maximum (it still climbs at a search boundary); theta_hat
    and the evidence level are then absent."""

    exists: bool
    theta_hat: Optional[tuple]
    k_me: Optional[float]
    log_k_me: Optional[float]
    boundary: bool = False
    diagnostic: Optional[str] = None


@dataclass(frozen=True)
class Interval:
    lower: float
    upper: float
    lower_unbounded: bool = False
    upper_unbounded: bool = False


@dataclass(frozen=True)
class SupportSet:
    """The set {theta0 : BF01 >= k} within a search grid, as intervals."""

    k: float
    intervals: tuple
    warnings: tuple = ()

    @property
    def empty(self) -> bool:
        return len(self.intervals) == 0


def _eval_many(model: BffModel, points: np.ndarray) -> np.ndarray:
    """One model call on a batch: a 1-D array of theta0 values, or a
    (2, N) array whose rows are theta0 and tau0.  One value per point.

    A NumericalError is redone one point at a time (still as one-point
    arrays), so that the failure names the grid point it comes from."""
    try:
        out = np.asarray(model.log_bff(points), dtype=float)
    except NumericalError as exc:
        if points.shape[-1] > 1:
            singles = np.split(points, points.shape[-1], axis=-1)
            return np.concatenate([_eval_many(model, p) for p in singles])
        label = float(points[0]) if model.dim == 1 else tuple(float(v) for v in points[:, 0])
        raise NumericalError(f"{exc} (at grid point {label})") from exc
    if out.shape != points.shape[-1:]:
        raise ContractError(
            f"model {model.descriptor!r} returned shape {out.shape} for "
            f"{points.shape[-1]} points; log_bff must give one value per point"
        )
    return out


def evaluate_curve(model: BffModel, grid: GridSpec) -> BffCurve:
    """Evaluate log BF01 over a grid in one model call.

    NaN values (a model reporting a truncated curve) are kept and flagged
    with a warning; numerical failures are re-raised with the offending
    grid point attached.
    """
    if grid.dim != model.dim:
        raise ContractError(
            f"grid dimension {grid.dim} does not match model dimension {model.dim}"
        )
    axes = grid.axes()
    if model.dim == 1:
        points = axes[0]
    else:
        points = np.stack(np.meshgrid(*axes, indexing="ij")).reshape(2, -1)
    values = _eval_many(model, points).reshape(tuple(len(a) for a in axes))
    warnings = ()
    if np.any(np.isnan(values)):
        warnings = ("truncated-curve: log BF01 undefined on part of the grid",)
    return BffCurve(axes=axes, log_bf=values, descriptor=model.descriptor, warnings=warnings)


def _golden_sections(model: BffModel, a: np.ndarray, b: np.ndarray, tol: float):
    """Golden-section maximization of log BF01 on every bracket [a, b].

    Each bracket follows the one-bracket rule and stops once narrower
    than tol; each step evaluates the new probe of every bracket still
    open in one model call.  Returns the (x, log BF01) arrays of the
    probes the brackets end on.  Updates a and b in place.
    """
    x1, x2 = b - _GOLDEN * (b - a), a + _GOLDEN * (b - a)
    f1, f2 = _eval_many(model, x1), _eval_many(model, x2)
    while (open_ := np.flatnonzero(b - a > tol)).size:
        up = f1[open_] < f2[open_]
        u, d = open_[up], open_[~up]
        # climbing: keep [x1, b], whose lower probe is the old upper one
        a[u], x1[u], f1[u] = x1[u], x2[u], f2[u]
        x2[u] = a[u] + _GOLDEN * (b[u] - a[u])
        # otherwise keep [a, x2], whose upper probe is the old lower one
        b[d], x2[d], f2[d] = x2[d], x1[d], f1[d]
        x1[d] = b[d] - _GOLDEN * (b[d] - a[d])
        f_new = _eval_many(model, np.where(up, x2[open_], x1[open_]))
        f2[u], f1[d] = f_new[up], f_new[~up]
    first = f1 >= f2
    return np.where(first, x1, x2), np.where(first, f1, f2)


def analyze(model: BffModel, grid: GridSpec, ks: Sequence[float] = ()):
    """Evaluate a BFF on a grid once and read every summary off that curve.

    Returns (curve, mee, supports).  For a 1-D model `supports` holds one
    SupportSet per level in `ks`; for a 2-D model one (mask, segments)
    pair per level (see `support_region`).  The MEE is refined from the
    curve's grid maxima, all golden sections together; the crossings of
    every level are bisected together; each takes one model call per step.
    """
    for k in ks:
        if not (k > 0.0 and math.isfinite(k)):
            raise DomainError(f"support level k must be positive and finite, got {k!r}")
    curve = evaluate_curve(model, grid)
    if model.dim == 1:
        return curve, _find_mee_1d(model, grid, curve), _support_sets(model, grid, curve, ks)
    return curve, _find_mee_2d(model, grid, curve), [_support_region(curve, k) for k in ks]


def find_mee(model: BffModel, grid: GridSpec) -> MeeResult:
    """Locate the maximum evidence estimate by grid scan plus refinement.

    1-D refinement is golden-section to 1e-8 of the grid range; 2-D adds
    a Nelder-Mead polish.  A maximizer pushed against a search boundary
    with the curve still climbing outward means the MEE does not exist in
    the searched region (unless that boundary is a closed endpoint of the
    model's own domain, where a boundary maximum is genuine).
    """
    return analyze(model, grid)[1]


def _boundary_is_artificial(model: BffModel, dim_idx: int, side: str, edge: float) -> bool:
    """True when `edge` truncates the domain rather than bounding it."""
    if side == "lower":
        domain_edge = model.lower[dim_idx]
        closed = model.lower_closed[dim_idx]
    else:
        domain_edge = model.upper[dim_idx]
        closed = model.upper_closed[dim_idx]
    if closed and math.isfinite(domain_edge) and math.isclose(edge, domain_edge, rel_tol=0.0, abs_tol=1e-12 * (1.0 + abs(domain_edge))):
        return False
    return True


def _masked_values(curve: BffCurve) -> np.ndarray:
    """The curve's log BF01 with every non-finite value at -inf."""
    finite = np.isfinite(curve.log_bf)
    if not finite.any():
        raise NumericalError("log BF01 is not finite anywhere on the search grid")
    return np.where(finite, curve.log_bf, -np.inf)


def _mee(theta_hat, log_k_me: float) -> MeeResult:
    # a log k_ME beyond ln(float max) gives k_ME = inf, a value, not a fault
    with np.errstate(over="ignore"):
        k_me = float(np.exp(log_k_me))
    return MeeResult(
        exists=True,
        theta_hat=tuple(float(v) for v in theta_hat),
        k_me=k_me,
        log_k_me=float(log_k_me),
        boundary=False,
    )


def _no_mee(boundary: str) -> MeeResult:
    return MeeResult(
        exists=False,
        theta_hat=None,
        k_me=None,
        log_k_me=None,
        boundary=True,
        diagnostic=(
            f"log BF01 is still increasing at the {boundary}; no maximum "
            f"evidence estimate in the searched region"
        ),
    )


def _find_mee_1d(model: BffModel, grid: GridSpec, curve: BffCurve) -> MeeResult:
    xs = curve.axes[0]
    masked = _masked_values(curve)
    n = len(xs)
    step = xs[1] - xs[0]
    tol = 1e-8 * (grid.upper[0] - grid.lower[0])

    # refine every grid-local maximum (the finite global one is among
    # them); the first highest refinement wins if it beats the grid
    padded = np.concatenate([[-np.inf], masked, [-np.inf]])
    peaks = np.flatnonzero(np.isfinite(masked) & (masked >= padded[:-2]) & (masked >= padded[2:]))
    x_ref, f_ref = _golden_sections(
        model, xs[np.maximum(peaks - 1, 0)], xs[np.minimum(peaks + 1, n - 1)], tol
    )
    best = int(np.argmax(np.where(np.isnan(f_ref), -np.inf, f_ref)))
    i_star = int(np.argmax(masked))
    x_hat, f_hat = float(xs[i_star]), float(masked[i_star])
    if f_ref[best] > f_hat:
        x_hat, f_hat = float(x_ref[best]), float(f_ref[best])

    for side, edge in (("lower", float(xs[0])), ("upper", float(xs[-1]))):
        if abs(x_hat - edge) > step:
            continue
        h = max(tol, 1e-7 * (grid.upper[0] - grid.lower[0]))
        inward = edge + h if side == "lower" else edge - h
        f_edge, f_inward = _eval_many(model, np.array([edge, inward]))
        if f_edge > f_inward and _boundary_is_artificial(model, 0, side, edge):
            return _no_mee(f"{side} search boundary {edge:g}")
    return _mee((x_hat,), f_hat)


def _find_mee_2d(model: BffModel, grid: GridSpec, curve: BffCurve) -> MeeResult:
    from scipy import optimize

    t_ax, u_ax = curve.axes
    masked = _masked_values(curve)
    i, j = np.unravel_index(int(np.argmax(masked)), masked.shape)
    x0 = np.array([t_ax[i], u_ax[j]])
    lo = np.array(grid.lower)
    hi = np.array(grid.upper)

    def neg(p):
        return -float(_eval_many(model, np.clip(p, lo, hi).reshape(2, 1))[0])

    res = optimize.minimize(
        neg, x0, method="Nelder-Mead", options={"xatol": 1e-10, "fatol": 1e-12, "maxiter": 2000}
    )
    p_hat = np.clip(res.x, lo, hi)
    f_hat = -neg(p_hat)
    if masked[i, j] > f_hat:
        p_hat = x0
        f_hat = float(masked[i, j])

    steps = (t_ax[1] - t_ax[0], u_ax[1] - u_ax[0])
    for d in range(2):
        for side, edge in (("lower", grid.lower[d]), ("upper", grid.upper[d])):
            if abs(p_hat[d] - edge) > steps[d]:
                continue
            h = max(1e-8 * (grid.upper[d] - grid.lower[d]), 1e-12)
            # columns: p_hat moved onto the edge, and h inward from it
            pair = np.repeat(p_hat[:, None], 2, axis=1)
            pair[d] = edge, edge + h if side == "lower" else edge - h
            f_edge, f_inward = _eval_many(model, pair)
            if f_edge > f_inward and _boundary_is_artificial(model, d, side, edge):
                return _no_mee(f"{side} search boundary of dimension {d} ({edge:g})")
    return _mee(p_hat, f_hat)


def _bisect_crossings(model, lo, hi, f_lo, f_hi, target, tol: float) -> np.ndarray:
    """Bisect every bracket [lo, hi] of a sign change of log BF01 - target.

    Each bracket is plain bisection (it stops once narrower than tol, or
    on an exact zero); each step evaluates the midpoints of all brackets
    still open in one model call.
    """
    done = (f_lo == 0.0) | (f_hi == 0.0)
    root = np.where(f_lo == 0.0, lo, hi)
    for _ in range(200):
        open_ = np.flatnonzero(~done & (hi - lo > tol))
        if open_.size == 0:
            break
        mid = 0.5 * (lo[open_] + hi[open_])
        f_mid = _eval_many(model, mid) - target[open_]
        hit = f_mid == 0.0
        root[open_[hit]] = mid[hit]
        done[open_[hit]] = True
        left = ~hit & ((f_lo[open_] < 0.0) != (f_mid < 0.0))
        right = ~hit & ~left
        hi[open_[left]], f_hi[open_[left]] = mid[left], f_mid[left]
        lo[open_[right]], f_lo[open_[right]] = mid[right], f_mid[right]
    return np.where(done, root, 0.5 * (lo + hi))


def support_set(model: BffModel, k: float, grid: GridSpec) -> SupportSet:
    """Cut a 1-D BFF at level k: the set {theta0 : BF01(theta0) >= k}.

    Crossings are bracketed on the grid and bisected to 1e-10 of the grid
    range.  The set may be empty, and it may run into a search boundary,
    which is flagged (the region can continue past the grid) unless that
    boundary is a closed domain endpoint.
    """
    if model.dim != 1:
        raise ContractError("support_set handles 1-D models; use support_region for 2-D")
    return analyze(model, grid, (k,))[2][0]


def _support_sets(model: BffModel, grid: GridSpec, curve: BffCurve, ks) -> list:
    xs = curve.axes[0]
    targets = np.array([math.log(k) for k in ks]).reshape(-1, 1)
    gaps = np.where(np.isnan(curve.log_bf), -np.inf, curve.log_bf - targets)
    above = gaps >= 0.0
    row, i = np.nonzero(above[:, :-1] != above[:, 1:])
    ends = _bisect_crossings(
        model, xs[i], xs[i + 1], gaps[row, i], gaps[row, i + 1], targets[row, 0],
        1e-10 * (grid.upper[0] - grid.lower[0]),
    )
    return [_assemble_support(model, k, xs, above[r, 0], ends[row == r]) for r, k in enumerate(ks)]


def _assemble_support(model: BffModel, k: float, xs, starts_above: bool, edges) -> SupportSet:
    """Pair up the crossings of level k into intervals, flagging grid ends."""
    intervals = []
    warnings = []
    if starts_above:
        start = float(xs[0])
        start_unbounded = _boundary_is_artificial(model, 0, "lower", start)
        if start_unbounded:
            warnings.append(
                f"unbounded-si-edge: support set at k={k:g} reaches the lower "
                f"search boundary {start:g} and may continue past it"
            )
    else:
        start = None
        start_unbounded = False
    for x in edges:
        if start is None:
            start, start_unbounded = float(x), False
        else:
            intervals.append(Interval(start, float(x), lower_unbounded=start_unbounded))
            start, start_unbounded = None, False
    if start is not None:
        end = float(xs[-1])
        end_unbounded = _boundary_is_artificial(model, 0, "upper", end)
        if end_unbounded:
            warnings.append(
                f"unbounded-si-edge: support set at k={k:g} reaches the upper "
                f"search boundary {end:g} and may continue past it"
            )
        intervals.append(
            Interval(start, end, lower_unbounded=start_unbounded, upper_unbounded=end_unbounded)
        )
    return SupportSet(k=k, intervals=tuple(intervals), warnings=tuple(warnings))


def support_region(model: BffModel, k: float, grid: GridSpec):
    """2-D analogue of support_set: membership mask plus contour segments.

    Returns (mask, segments): mask[i, j] says whether grid point (i, j)
    lies in the region, and segments is a list of ((x1, y1), (x2, y2))
    marching-squares pieces of the BF01 = k contour.
    """
    if model.dim != 2:
        raise ContractError("support_region handles 2-D models")
    return analyze(model, grid, (k,))[2][0]


def _support_region(curve: BffCurve, k: float):
    t_ax, u_ax = curve.axes
    g = curve.log_bf - math.log(k)
    g = np.where(np.isnan(g), -np.inf, g)
    mask = g >= 0.0

    # each cell's corners (i, j), (i+1, j), (i+1, j+1), (i, j+1), and its
    # edges bottom, right, top, left as (low end, high end) corner values
    c = np.stack([g[:-1, :-1], g[1:, :-1], g[1:, 1:], g[:-1, 1:]], axis=-1)
    v1, v2 = c[..., [0, 1, 3, 0]], c[..., [1, 2, 2, 3]]
    cross = ((v1 >= 0.0) != (v2 >= 0.0)) & np.isfinite(v1) & np.isfinite(v2)
    # a cell with a +inf corner draws nothing
    cross &= ~np.any(c == np.inf, axis=-1, keepdims=True)
    # crossings ordered by cell (row-major), then edge
    i, j, e = np.nonzero(cross)
    w = v1[i, j, e] / (v1[i, j, e] - v2[i, j, e])
    along_x = e % 2 == 0
    lo = np.where(along_x, t_ax[i], u_ax[j])
    hi = np.where(along_x, t_ax[i + 1], u_ax[j + 1])
    cut = lo + w * (hi - lo)
    fixed = np.choose(e, [u_ax[j], t_ax[i + 1], u_ax[j + 1], t_ax[i]])
    pts = np.stack([np.where(along_x, cut, fixed), np.where(along_x, fixed, cut)], axis=-1).tolist()

    # a cell's first two crossings make a segment, and a saddle's last two
    _, first, count = np.unique(i * (len(u_ax) - 1) + j, return_index=True, return_counts=True)
    starts = np.sort(np.concatenate([first[count >= 2], first[count == 4] + 2]))
    return mask, [(tuple(pts[s]), tuple(pts[s + 1])) for s in starts]


def savage_dickey_bff(posterior: DensityFn, prior: DensityFn) -> BffModel:
    """BF01(theta0) as the posterior-to-prior density ratio at theta0.

    Valid only for a proper prior that does not move with the tested
    value; construction is refused otherwise.  Evaluation where the prior
    density vanishes is a numerical error; where the posterior density is
    unknown (e.g. beyond an MCMC sample range) the curve reports NaN
    rather than a fabricated value.
    """
    if prior.local:
        raise ContractError(
            "Savage-Dickey requires a prior that is independent of the tested "
            f"value; got local prior {prior.descriptor!r}"
        )
    if not prior.proper:
        raise ContractError(
            f"Savage-Dickey requires a proper prior; got {prior.descriptor!r}"
        )

    lo = max(posterior.lower, prior.lower)
    hi = min(posterior.upper, prior.upper)

    def log_bff(theta):
        arr = np.asarray(theta, dtype=float)
        scalar = arr.ndim == 0
        pts = np.atleast_1d(arr)
        lp_prior = np.atleast_1d(np.asarray(prior.log_density(pts), dtype=float))
        bad = np.isneginf(lp_prior)
        if bad.any():
            where = pts[bad][0]
            raise NumericalError(
                f"prior density is zero at theta0={where:g}; the density ratio "
                f"is undefined there"
            )
        lp_post = np.atleast_1d(np.asarray(posterior.log_density(pts), dtype=float))
        out = lp_post - lp_prior
        return float(out[0]) if scalar else out

    return BffModel(
        log_bff=log_bff,
        lower=(lo,),
        upper=(hi,),
        descriptor=f"savage-dickey[{posterior.descriptor} / {prior.descriptor}]",
        dim=1,
    )


def relative_belief_ratio(posterior: DensityFn, prior: DensityFn, theta0: float) -> float:
    """Ratio-scale posterior/prior density ratio at one point."""
    model = savage_dickey_bff(posterior, prior)
    return float(np.exp(model.log_bff(theta0)))


def _fd_hessian(f, x: np.ndarray) -> np.ndarray:
    """Central finite-difference Hessian with per-coordinate steps."""
    d = len(x)
    h = np.finfo(float).eps ** (1.0 / 3.0) * (1.0 + np.abs(x))
    hess = np.empty((d, d))
    f0 = f(x)
    for i in range(d):
        ei = np.zeros(d)
        ei[i] = h[i]
        hess[i, i] = (f(x + ei) - 2.0 * f0 + f(x - ei)) / h[i] ** 2
        for j in range(i + 1, d):
            ej = np.zeros(d)
            ej[j] = h[j]
            hess[i, j] = hess[j, i] = (
                f(x + ei + ej) - f(x + ei - ej) - f(x - ei + ej) + f(x - ei - ej)
            ) / (4.0 * h[i] * h[j])
    return hess


def _maximize(f, starts) -> tuple:
    from scipy import optimize

    best_x, best_v = None, -math.inf
    for s in starts:
        res = optimize.minimize(
            lambda v: -f(v), np.asarray(s, dtype=float), method="BFGS",
            options={"gtol": 1e-10, "maxiter": 500},
        )
        if -res.fun > best_v:
            best_x, best_v = res.x, -res.fun
    if best_x is None or not math.isfinite(best_v):
        raise NumericalError("maximization failed for all starts")
    return np.atleast_1d(best_x), best_v


def _log_det_dispersion(f, x: np.ndarray, n: int, label: str) -> float:
    """log det of n * (inverse negative Hessian) at a maximizer."""
    if len(x) == 0:
        return 0.0
    neg_hess = -_fd_hessian(f, x)
    eigs = np.linalg.eigvalsh(neg_hess)
    if np.any(eigs <= 0.0):
        raise NumericalError(
            f"negative log-likelihood Hessian for {label} is not positive "
            f"definite at its maximizer (eigenvalues {eigs})"
        )
    sign, logdet = np.linalg.slogdet(neg_hess)
    # V = n * inv(-H): log|V| = d*log(n) - log|-H|
    return len(x) * math.log(n) - logdet


def laplace_log_bff(
    loglik0,
    loglik1,
    log_prior0,
    log_prior1,
    dim_theta: int,
    dim_psi: int,
    n: int,
    *,
    psi_start=None,
    theta_psi_start=None,
    n_restarts: int = 3,
    seed: int = 0,
) -> float:
    """Laplace approximation of log BF01 at a point null with nuisances.

    loglik0(psi) and loglik1(theta_psi) are full-data log likelihoods
    under H0 and H1; the priors are the corresponding log densities.  The
    value is the sum of four terms: the log likelihood-ratio at the two
    maximizers, (dim_theta/2)*log(n/2pi), the log prior ratio at the
    maximizers, and half the log ratio of the per-observation dispersion
    determinants |V0|/|V1| with V = n * (inverse negative Hessian).
    Maximization is quasi-Newton with seeded multi-start.
    """
    if dim_theta < 1:
        raise DomainError(f"dim_theta must be >= 1, got {dim_theta}")
    if dim_psi < 0:
        raise DomainError(f"dim_psi must be >= 0, got {dim_psi}")
    if n < 1:
        raise DomainError(f"n must be >= 1, got {n}")
    rng = np.random.default_rng(seed)

    def starts_around(x0, dim):
        base = np.zeros(dim) if x0 is None else np.asarray(x0, dtype=float)
        yield base
        for _ in range(n_restarts):
            yield base + rng.normal(scale=0.5 * (1.0 + np.abs(base)))

    if dim_psi > 0:
        psi_hat, ll0_max = _maximize(loglik0, starts_around(psi_start, dim_psi))
        lp0 = float(log_prior0(psi_hat))
        log_det_v0 = _log_det_dispersion(loglik0, psi_hat, n, "H0")
    else:
        psi_hat = np.zeros(0)
        ll0_max = float(loglik0(psi_hat))
        lp0 = 0.0 if log_prior0 is None else float(log_prior0(psi_hat))
        log_det_v0 = 0.0

    full_hat, ll1_max = _maximize(
        loglik1, starts_around(theta_psi_start, dim_theta + dim_psi)
    )
    lp1 = float(log_prior1(full_hat))
    log_det_v1 = _log_det_dispersion(loglik1, full_hat, n, "H1")

    return (
        (ll0_max - ll1_max)
        + 0.5 * dim_theta * math.log(n / (2.0 * math.pi))
        + (lp0 - lp1)
        + 0.5 * (log_det_v0 - log_det_v1)
    )


def combine_sequential(log_bf_first: float, log_bf_partial: float) -> float:
    """Combine a log Bayes factor with a partial one for a later batch.

    The partial factor uses the posterior after the first batch as its
    prior, so evidence accumulates by addition on the log scale.  Fold
    repeatedly for more than two batches.
    """
    for name, v in (("log_bf_first", log_bf_first), ("log_bf_partial", log_bf_partial)):
        if not math.isfinite(v):
            raise DomainError(f"{name} must be finite, got {v!r}")
    return float(log_bf_first) + float(log_bf_partial)


def universal_bound_pvalue(bf01: float) -> float:
    """Conservative p-value min(BF01, 1); Pr(BF01 <= k | H0) <= k."""
    if not bf01 > 0.0 or math.isnan(bf01):
        raise DomainError(f"BF01 must be positive, got {bf01!r}")
    return min(float(bf01), 1.0)
