"""Adaptive Gauss-Kronrod quadrature with a row-batched log-space front end.

The integrators here serve the marginal-likelihood denominators, whose
integrands span thousands of log units.  `log_integrate_many` integrates
a family of log integrands ("rows": grid points, outer quadrature nodes)
over one interval, running every stage (scan, peak sharpening, cell
sizing, Gauss-Kronrod panels and their subdivision, shift retries) on
all rows at once, one vectorized integrand call per stage.  Each row is
shifted by its own maximum before exponentiating, so the adaptive rule
only sees numbers of order one, and meets its own relative tolerance.
`log_integrate` is the one-row case, `integrate` the linear-space one.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import DomainError, NumericalError

__all__ = ["integrate", "log_integrate", "log_integrate_many"]

# Kronrod-15 nodes on [-1, 1] (positive half) and weights; the embedded
# Gauss-7 rule uses every second node.
_XK = np.array([0.991455371120813, 0.949107912342759, 0.864864423359769, 0.741531185599394,
                0.586087235467691, 0.405845151377397, 0.207784955007898, 0.0])
_WK = np.array([0.022935322010529, 0.063092092629979, 0.104790010322250, 0.140653259715525,
                0.169004726639267, 0.190350578064785, 0.204432940075298, 0.209482141084728])
_WG = np.array([0.129484966168870, 0.279705391489277, 0.381830050505119, 0.417959183673469])

_NODES = np.concatenate([-_XK[:-1], _XK[::-1]])  # 15 ascending nodes
_WEIGHTS_K = np.concatenate([_WK[:-1], _WK[::-1]])
_GAUSS_IDX = np.arange(1, 15, 2)
_WEIGHTS_G = np.concatenate([_WG[:-1], _WG[::-1]])

# peak sharpening: each sub-scan of the bracket narrows it 8-fold
_SUBSCAN = np.linspace(0.0, 1.0, 17)
# drop-width candidates, as fractions of the interval: 1e-14 doubling
_DROP_STEPS = 1e-14 * 2.0 ** np.arange(47)
# geometric cell edges around the peak: width * 4^k, k = 0..24
_CELL_STEPS = 4.0 ** np.arange(25)
# a cell this many ulp of its midpoint wide is at floating-point
# resolution: its nodes round to a few dozen doubles, so its error
# estimate is rounding jitter that splitting cannot reduce
_RESOLUTION_ULPS = 64.0


def _check_interval(a, b):
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise DomainError(f"integration interval must be finite with a < b, got [{a}, {b}]")


def _panels(a: float, b: float, cuts):
    """Initial cells of each row: [a, b] cut at the row's points of
    `cuts` (shape (R, K)) that lie strictly inside.  A row with no such
    point gets a mild uniform split, so that the error estimator has
    something to compare before declaring victory.  Returns flat
    (row, lo, hi) arrays."""
    cuts = np.clip(cuts, a, b)
    bare = ~np.any((cuts > a) & (cuts < b), axis=1)
    edges = np.concatenate([np.full((len(cuts), 1), a), cuts, np.full((len(cuts), 4), b)], axis=1)
    edges[bare, 1:4] = np.linspace(a, b, 5)[1:4]
    edges.sort(axis=1)
    lo, hi = edges[:, :-1], edges[:, 1:]
    row, col = np.nonzero(hi > lo)
    return row, lo[row, col], hi[row, col]


def _gk15(f, row, lo, hi):
    """Gauss-Kronrod 7-15 panels; returns (kronrod, error_estimate) arrays.
    The estimate is QUADPACK's: the Kronrod-Gauss difference scaled by the
    panel's mean absolute deviation (so it does not depend on the
    integrand's scale), floored at 50 eps of its absolute integral."""
    half = 0.5 * (hi - lo)
    fv = f(0.5 * (lo + hi)[:, None] + half[:, None] * _NODES, row)
    if not np.all(np.isfinite(fv)):
        raise NumericalError(f"integrand returned non-finite values on [{lo.min()}, {hi.max()}]")
    mean2 = fv @ _WEIGHTS_K
    k15 = half * mean2
    diff = np.abs(k15 - half * (fv[:, _GAUSS_IDX] @ _WEIGHTS_G))
    resasc = half * (np.abs(fv - 0.5 * mean2[:, None]) @ _WEIGHTS_K)
    ratio = np.divide(200.0 * diff, resasc, out=np.ones_like(diff), where=resasc > 0.0)
    err = resasc * np.minimum(1.0, ratio**1.5)
    return k15, np.maximum(err, 50.0 * np.finfo(float).eps * half * (np.abs(fv) @ _WEIGHTS_K))


def _adapt(f, row, lo, hi, rows: int, tol_abs: float, tol_rel: float, max_intervals: int):
    """Adaptive GK15 over the cells (row, lo, hi) of `rows` integrals.

    `f(x, row)` maps node lines x (shape (P, 15)) of the cells of rows
    `row` to integrand values.  Each round splits the cell with the worst
    error estimate in every row whose summed estimate still exceeds
    max(tol_abs, tol_rel * |integral|), the test each row meets on its
    own, until no row is left or a row has spent `max_intervals` splits.
    A cell at floating-point resolution is never split, and the test
    leaves out its estimate, which stays in the row's total estimate.
    Returns (values, error_estimates, converged) per row.
    """
    val, err = _gk15(f, row, lo, hi)
    splits = np.zeros(rows, dtype=int)
    while True:
        mid = 0.5 * (lo + hi)
        final = hi - lo <= _RESOLUTION_ULPS * np.abs(np.spacing(mid))
        total = np.bincount(row, val, rows)
        total_err = np.bincount(row, err, rows)
        split_err = np.bincount(row, np.where(final, 0.0, err), rows)
        open_ = split_err > np.maximum(tol_abs, tol_rel * np.abs(total))
        if not np.any(open_ & (splits < max_intervals)):
            return total, total_err, ~open_
        # per row, the splittable cell with the worst estimate comes first
        order = np.lexsort((-err, final, row))
        worst = order[np.diff(row[order], prepend=-1) != 0]
        worst = worst[open_[row[worst]] & (splits[row[worst]] < max_intervals)]
        splits[row[worst]] += 1
        mid = mid[worst]
        keep = np.bincount(worst, minlength=len(row)) == 0
        r2 = row[np.concatenate([worst, worst])]
        lo2, hi2 = np.concatenate([lo[worst], mid]), np.concatenate([mid, hi[worst]])
        v2, e2 = _gk15(f, r2, lo2, hi2)
        row, lo, hi, val, err = (np.concatenate([old[keep], new])
                                 for old, new in zip((row, lo, hi, val, err), (r2, lo2, hi2, v2, e2)))


def integrate(
    f,
    a: float,
    b: float,
    *,
    tol_abs: float = 1e-12,
    tol_rel: float = 1e-10,
    max_intervals: int = 5000,
    breakpoints=(),
):
    """Adaptive integral of a vectorized callable on [a, b].

    Splits the interval with the worst error estimate until the summed
    estimate meets max(tol_abs, tol_rel * |integral|).  Returns
    (value, error_estimate); raises NumericalError if the interval budget
    is exhausted first.

    Subdivision is driven by sampled values, so structure narrower than
    the initial node spacing can be missed entirely; callers that know
    where a sharp feature lives must pass interior `breakpoints` so the
    initial cells resolve it (log_integrate_many does this for its peaks).
    """
    _check_interval(a, b)
    cuts = np.asarray(breakpoints, dtype=float).reshape(1, -1)
    val, err, ok = _adapt(_one_row(f), *_panels(a, b, cuts), 1, tol_abs, tol_rel, max_intervals)
    if not ok[0]:
        raise NumericalError(f"adaptive quadrature failed to converge on [{a}, {b}]: "
                             f"error estimate {err[0]:.3e} after {max_intervals} refinements")
    return float(val[0]), float(err[0])


def _one_row(f):
    """The (node lines, row index) form of a callable of a vector of points."""

    def row_f(x, idx):
        v = np.asarray(f(x.ravel()), dtype=float)
        if v.shape != (x.size,):
            raise NumericalError("integrand must map a vector of points to a vector")
        return v.reshape(x.shape)

    return row_f


def _eval(log_f, x, idx):
    lv = np.asarray(log_f(x, idx), dtype=float)
    if lv.shape != x.shape:
        raise NumericalError("log integrand must map node lines (P, m) to values (P, m)")
    if np.any(np.isnan(lv)):
        raise NumericalError("log integrand returned NaN")
    return lv


def log_integrate_many(
    log_f,
    a: float,
    b: float,
    rows: int,
    *,
    tol_rel: float = 1e-9,
    scan_points: int = 257,
    max_intervals: int = 5000,
):
    """log of the integral of exp(log_f(x, r)) over [a, b] for r < rows.

    `log_f(x, idx)` maps node lines x (shape (P, m)) and the row of each
    line (idx, shape (P,)) to the (P, m) log integrand.  Per row, a scan
    locates the maximum, nested sub-scans of its bracket sharpen it (BFF
    integrands can be far narrower than any fixed scan), cells expand
    geometrically from where the integrand has dropped by e^4, and the
    integrand is exponentiated relative to the maximum, so it stays
    representable however large or small the integral.  A row whose
    evaluation uncovers a higher peak is rescaled and redone.

    Returns (log_values, relative_error_estimates), each of shape (rows,).
    A peak too narrow for doubles is cut down to cells at floating-point
    resolution, and its row comes back with the estimate those cells
    carry, which may exceed tol_rel.  A row whose integrand is zero
    everywhere gives -inf; NaN anywhere raises NumericalError.
    """
    _check_interval(a, b)
    out, rel = np.full(rows, -math.inf), np.zeros(rows)
    if rows == 0:
        return out, rel
    xs = np.linspace(a, b, scan_points)
    ls = _eval(log_f, np.tile(xs, (rows, 1)), np.arange(rows))
    live = np.flatnonzero(np.max(ls, axis=1) > -math.inf)
    i_max = np.argmax(ls[live], axis=1)
    shift, x_hat = ls[live, i_max], xs[i_max]

    lo, hi = xs[np.maximum(i_max - 1, 0)], xs[np.minimum(i_max + 1, scan_points - 1)]
    todo = np.arange(len(live))
    while len(todo):
        sub = lo[todo, None] + (hi - lo)[todo, None] * _SUBSCAN
        lv = _eval(log_f, sub, live[todo])
        k, j = np.arange(len(todo)), np.argmax(lv, axis=1)
        up = lv[k, j] > shift[todo]
        shift[todo[up]], x_hat[todo[up]] = lv[k, j][up], sub[k, j][up]
        left, right = np.maximum(j - 1, 0), np.minimum(j + 1, len(_SUBSCAN) - 1)
        lo[todo], hi[todo] = sub[k, left], sub[k, right]
        # done once the bracket is inside the peak's top or at resolution
        peaked = lv[k, j] - np.minimum(lv[k, left], lv[k, right]) > 1e-3
        todo = todo[peaked & (hi[todo] - lo[todo] > 1e-13 * (1.0 + np.abs(lo[todo]) + np.abs(hi[todo])))]

    # smallest dyadic distance at which log_f falls 4 below its peak on
    # both sides (or leaves [a, b]); a flat integrand gets the interval
    span = b - a
    steps = span * _DROP_STEPS
    side = np.concatenate([x_hat[:, None] - steps, x_hat[:, None] + steps], axis=1)
    dropped = (side <= a) | (side >= b)
    dropped |= ~(_eval(log_f, np.clip(side, a, b), live) > shift[:, None] - 4.0)
    both = dropped[:, : len(steps)] & dropped[:, len(steps):]
    width = np.where(np.any(both, axis=1), steps[np.argmax(both, axis=1)], span)
    # cells expand geometrically away from the peak so that a peak far
    # narrower than the scan spacing is still resolved by the first pass
    ws = width[:, None] * _CELL_STEPS
    cuts = np.concatenate([x_hat[:, None] - ws, x_hat[:, None] + ws], axis=1)
    cell_row, cell_lo, cell_hi = _panels(a, b, cuts)

    pending = np.arange(len(live))
    for _ in range(8):
        keep = np.isin(cell_row, pending)
        local = np.searchsorted(pending, cell_row[keep])
        peak = shift[pending]
        row_shift = shift[pending]

        def shifted(x, r):
            lv = _eval(log_f, x, live[pending[r]])
            np.maximum.at(peak, r, np.max(lv, axis=1))
            return np.exp(np.minimum(lv - row_shift[r, None], 700.0))

        val, err, ok = _adapt(
            shifted, local, cell_lo[keep], cell_hi[keep], len(pending), 0.0, tol_rel, max_intervals
        )
        # the scan missed the true peak, or the budget ran out below it
        redo = (peak > row_shift + 1.0) | (~ok & (peak > row_shift + 1e-9))
        if np.any(~ok & ~redo):
            raise NumericalError(f"adaptive quadrature failed to converge on [{a}, {b}] "
                                 f"after {max_intervals} refinements")
        done = live[pending[~redo]]
        with np.errstate(divide="ignore", invalid="ignore"):
            out[done] = np.where(val > 0.0, row_shift + np.log(val), -math.inf)[~redo]
            rel[done] = np.where(val > 0.0, err / val, 0.0)[~redo]
        shift[pending[redo]] = peak[redo]
        pending = pending[redo]
        if len(pending) == 0:
            return out, rel
    raise NumericalError(f"log-space integration on [{a}, {b}] could not stabilize its scaling shift")


def log_integrate(
    log_f,
    a: float,
    b: float,
    *,
    tol_rel: float = 1e-9,
    scan_points: int = 257,
    max_intervals: int = 5000,
) -> float:
    """log of the integral of exp(log_f) over [a, b], for a log_f that
    maps a vector of points to a vector: the one-row log_integrate_many.
    Returns -inf when the integrand is zero everywhere."""
    val, _ = log_integrate_many(
        _one_row(log_f), a, b, 1, tol_rel=tol_rel, scan_points=scan_points, max_intervals=max_intervals
    )
    return float(val[0])
