"""Numerical membership diagnostics for heavy-tail classes and dependence assumptions.

Each diagnostic evaluates a ratio statistic on a probe grid and grades the
evidence: ``consistent`` (the curve sits inside the tolerance band near the
grid end and is not drifting away), ``inconsistent`` (clearly outside), or
``inconclusive`` (straddling the band, or still approaching it). Limits are
unverifiable from finite grids; verdicts are graded evidence with explicit
tolerances, deterministic and re-runnable from the report fields alone.

Convolution-backed statistics carry certified brackets, and a verdict is only
issued when the whole bracket lands on one side of the band; a too-coarse grid
therefore reads ``inconclusive``, never silently wrong.

These graders differ on purpose from the ratio-curve graders in
``experiments`` (``_verdict_lim`` and its siblings). A diagnostic statistic is
a closed form or a certified bracket, so its error is bounded, not random: a
point counts only when its whole bracket lies inside the band, and
``consistent`` also asks that the error not drift outward. An experiment
sees Monte Carlo estimates instead, and asks only that each binomial 95%
interval near the grid end intersect the band, since a sampling interval can
straddle a band edge by chance. One grader for both would either fail
simulated curves on noise or pass brackets that do not certify the limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import convolution as cv
from .copulas import DependentModel, joint_upper_survival
from .distributions import IntegratedTail, Marginal, ShiftedBy, quantile_grid
from .errors import AssumptionViolated, InvalidInput

DEFAULT_TOL = 0.05
VERDICTS = ("consistent", "inconsistent", "inconclusive")


@dataclass(frozen=True)
class ClassReport:
    """Outcome of one diagnostic: statistic curve, verdict, and its inputs."""

    target_class: str
    probe_grid: np.ndarray
    statistics: np.ndarray
    verdict: str
    tolerance: float
    target_value: float = None
    mode: str = "limit"
    stat_lower: np.ndarray = None
    stat_upper: np.ndarray = None
    running_min: float = None
    curves: dict = None
    notes: tuple = ()

    def __post_init__(self):
        object.__setattr__(self, "probe_grid", np.asarray(self.probe_grid, dtype=float))
        object.__setattr__(self, "statistics", np.asarray(self.statistics, dtype=float))
        if self.verdict not in VERDICTS:
            raise InvalidInput(f"unknown verdict {self.verdict!r}")

    @property
    def pairs(self):
        """statistics as a list of (x, ratio) pairs."""
        return list(zip(self.probe_grid.tolist(), self.statistics.tolist()))

    def recompute_verdict(self) -> str:
        """Re-derive the verdict from the stored fields (purity check)."""
        lo = self.statistics if self.stat_lower is None else self.stat_lower
        hi = self.statistics if self.stat_upper is None else self.stat_upper
        if self.mode == "bounded":
            return bounded_verdict(self.statistics, self.tolerance)
        return limit_verdict(lo, hi, self.target_value, self.tolerance)


def limit_verdict(stat_lower, stat_upper, target: float, tol: float) -> str:
    """Grade a convergence claim from the last quarter of the grid.

    consistent: every bracket in the tail quarter lies inside the band
    [target - tol*scale, target + tol*scale] and the error is not drifting
    outward. inconsistent: every bracket lies fully outside and the curve is
    not approaching. Anything else: inconclusive.
    """
    lo = np.asarray(stat_lower, dtype=float)
    hi = np.asarray(stat_upper, dtype=float)
    n = len(lo)
    if n == 0:
        return "inconclusive"
    k = max(2, n // 4) if n >= 2 else 1
    lo_t, hi_t = lo[-k:], hi[-k:]
    scale = abs(target) if target else 1.0
    band_lo, band_hi = target - tol * scale, target + tol * scale
    mid = 0.5 * (lo + hi)
    err = np.abs(mid - target)
    inside = (lo_t >= band_lo) & (hi_t <= band_hi)
    outside = (hi_t < band_lo) | (lo_t > band_hi)
    if inside.all():
        if err[-1] <= err[-k] + 0.5 * tol * scale:
            return "consistent"
        return "inconclusive"
    if (hi_t < band_lo).any() and (lo_t > band_hi).any():
        # oscillation clear of the band on both sides: no limit at the target
        return "inconsistent"
    if outside.all():
        # still approaching the band? then the grid just ran out early;
        # a strict monotone decay counts even when it is slow (a x^{-1/2}
        # correction term loses well under 30% per quarter window), while
        # flat offsets and growth stay refuted
        approaching = err[-1] <= 0.7 * err[-k] or (
            np.all(np.diff(err[-k:]) <= 0.0) and err[-1] < err[-k])
        if approaching:
            return "inconclusive"
        return "inconsistent"
    return "inconclusive"


_GROWTH_FACTOR = 1.5    # end over the 60% point that refutes boundedness


def bounded_verdict(statistics, tol: float) -> str:
    """Grade a boundedness claim: compare the grid end against the 60% point."""
    stats = np.asarray(statistics, dtype=float)
    n = len(stats)
    if n < 2:
        return "inconclusive"
    base = stats[max(0, int(0.6 * n) - 1)]
    if not math.isfinite(base) or base <= 0:
        return "inconclusive"
    if stats[-1] <= base * (1.0 + tol):
        return "consistent"
    if stats[-1] >= _GROWTH_FACTOR * base:
        return "inconsistent"
    return "inconclusive"


def _probe_grid(d: Marginal, grid=None, positive: bool = False, **window):
    """The given grid, else the quantile window of d's tail."""
    grid = np.asarray(grid if grid is not None else quantile_grid((d,), **window),
                      dtype=float)
    if positive and np.any(grid <= 0):
        raise InvalidInput("grid must be positive")
    return grid


def _nonvanishing(tail, message: str = "tail vanishes on the grid"):
    tail = np.asarray(tail, dtype=float)
    if np.any(tail <= 0):
        raise InvalidInput(message)
    return tail


def long_tail(d: Marginal, y: float = 1.0, grid=None,
              tol: float = DEFAULT_TOL) -> ClassReport:
    """Translation insensitivity: F̄(x+y)/F̄(x) -> 1."""
    if y <= 0:
        raise InvalidInput("y must be positive")
    # the statistic converges at the hazard rate, which for
    # stretched-exponential shapes is still above a 5% band at the
    # quantile window the convolution checks use; this check costs two
    # tail evaluations per point, so probe much deeper by default
    grid = _probe_grid(d, grid, hi_u=1.0 - 1e-8)
    den = _nonvanishing(d.tail(grid))
    ratios = np.asarray(d.tail(grid + y), dtype=float) / den
    return ClassReport("L", grid, ratios,
                       limit_verdict(ratios, ratios, 1.0, tol), tol,
                       target_value=1.0)


def dominated(d: Marginal, y: float = 0.5, grid=None,
              tol: float = DEFAULT_TOL) -> ClassReport:
    """Dominated variation: F̄(xy)/F̄(x) stays bounded as x grows (0 < y < 1)."""
    if not 0 < y < 1:
        raise InvalidInput("y must lie in (0, 1)")
    grid = _probe_grid(d, grid)
    den = _nonvanishing(d.tail(grid))
    ratios = np.asarray(d.tail(grid * y), dtype=float) / den
    return ClassReport("D", grid, ratios, bounded_verdict(ratios, tol), tol,
                       mode="bounded")


def subexponential(d: Marginal, grid=None, grid_step: float = None,
                   tol: float = DEFAULT_TOL) -> ClassReport:
    """Two-fold tail ratio F̄^{*2}(x)/F̄(x) -> 2, convolving the law itself.

    The whole-line convolution is used even when d has a negative part: for
    long-tailed laws this agrees with the positive-part reduction, and for
    non-long-tailed ones (the geometric atom mixture) it is the statistic
    whose running minimum witnesses the sub-2 dip.

    Atomic laws are convolved exactly, and the grid gains every tail jump of
    both the single and the pair law inside the probed range, so ratio dips
    confined to narrow windows between round grid points are still observed.
    """
    grid = _probe_grid(d, grid, positive=True)
    den = _nonvanishing(d.tail(grid))
    if d.truncated_atoms(math.inf) is None:
        num_lo, num_hi = cv.bracket_bounds(
            cv.nfold_tail_bracket(d, 2, grid, grid_step=grid_step))
    else:
        jumps = cv.exact_twofold_ratio_curve(
            d, lo=float(np.min(grid)), hi=float(np.max(grid))).xs
        curve = cv.exact_twofold_ratio_curve(
            d, x_points=np.concatenate((grid, jumps)))
        grid, den = curve.xs, curve.denominators
        num_lo, num_hi = curve.numerators, np.minimum(curve.numerators, 1.0)
    r_lo, r_hi = num_lo / den, num_hi / den
    mid = 0.5 * (r_lo + r_hi)
    return ClassReport("S", grid, mid, limit_verdict(r_lo, r_hi, 2.0, tol), tol,
                       target_value=2.0, stat_lower=r_lo, stat_upper=r_hi,
                       running_min=float(np.minimum.accumulate(mid)[-1]))


def _sstar_integral_atomic(d: Marginal, x: float, rep) -> float:
    locs, _, _ = rep
    locs = np.asarray(locs, dtype=float)
    pts = np.concatenate(([0.0, x], locs, x - locs))
    pts = np.unique(np.clip(pts[(pts >= 0.0) & (pts <= x)], 0.0, x))
    mids = 0.5 * (pts[:-1] + pts[1:])
    vals = (np.asarray(d.tail(x - mids), dtype=float)
            * np.asarray(d.tail(mids), dtype=float))
    return float(np.sum(np.diff(pts) * vals))


def _tail_kinks(d: Marginal) -> list:
    """Points where d's tail is not smooth: its support minimum, and the
    kinks of the law it is built from, mapped through the construction."""
    kinks = [d.support()[0]]
    if isinstance(d, ShiftedBy):
        kinks += [k + d.shift for k in _tail_kinks(d.base)]
    elif isinstance(d, IntegratedTail):
        kinks += _tail_kinks(d.base)
    return sorted({k for k in kinks if math.isfinite(k)})


def _graded_half_rule() -> tuple:
    """10-node Gauss-Legendre panels on [0, 1/2] graded toward 0 by halving.

    The panel edges are 0, 2^-36, 2^-35, ..., 2^-2, 2^-1, so a tail kink or
    an infinite slope at the end of a piece sits in ever smaller panels.
    Returns the nodes and weights of all panels, as offsets from the end in
    units of the piece width.
    """
    t, w = np.polynomial.legendre.leggauss(10)
    edges = np.concatenate(([0.0], 0.5 ** np.arange(36, 0, -1)))
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return ((lo + 0.5 * width * (t + 1.0)).ravel(),
            (0.5 * width * w).ravel())


_HALF_NODES, _HALF_WEIGHTS = _graded_half_rule()
# nodes in one pass of the pair integral, so each tail call takes at most
# this many values (8 MiB of float64)
_PASS_VALUES = 1 << 20


def _sstar_half_integrals(d: Marginal, grid: np.ndarray) -> np.ndarray:
    """∫₀^{x/2} F̄(x-y)F̄(y)dy for every x in grid, in array passes.

    [0, x/2] is split where either factor has a kink (y = k and y = x - k
    for each tail kink k), and each piece is integrated by the composite
    rule graded toward both of its ends. A pass holds at most _PASS_VALUES
    nodes and makes two tail calls, one per factor.
    """
    kinks = np.asarray(_tail_kinks(d))
    xs = grid[:, None]
    # a negative x integrates over [x/2, 0] and counts with a minus sign
    lo, hi = np.minimum(xs / 2.0, 0.0), np.maximum(xs / 2.0, 0.0)
    cuts = np.concatenate((lo, hi, np.tile(kinks, (len(grid), 1)),
                           xs - kinks), axis=1)
    cuts = np.sort(np.clip(cuts, lo, hi), axis=1)
    a, b = cuts[:, :-1].ravel(), cuts[:, 1:].ravel()
    owner = np.repeat(np.arange(len(grid)), cuts.shape[1] - 1)
    keep = b > a
    a, b, owner = a[keep], b[keep], owner[keep]
    x = grid[owner]
    weights = np.concatenate((_HALF_WEIGHTS, _HALF_WEIGHTS))
    step = max(1, _PASS_VALUES // len(weights))
    half = np.zeros(len(grid))
    for s in range(0, len(a), step):
        pa, pb, px = (v[s:s + step, None] for v in (a, b, x))
        width = pb - pa
        y = np.concatenate((pa + width * _HALF_NODES,
                            pb - width * _HALF_NODES), axis=1)
        vals = d._tail_arr(y.ravel())
        np.subtract(px, y, out=y)
        vals *= d._tail_arr(y.ravel())
        sums = vals.reshape(y.shape) @ weights * width[:, 0]
        half += np.bincount(owner[s:s + step], sums, minlength=len(grid))
    return np.sign(grid) * half


def sstar(d: Marginal, grid=None, tol: float = DEFAULT_TOL) -> ClassReport:
    """Self-neighborhood integral: ∫₀ˣ F̄(x-y)F̄(y)dy / (2 m⁺ F̄(x)) -> 1."""
    if not math.isfinite(d.mean()):
        raise AssumptionViolated("the integral criterion requires a finite mean")
    m_plus = d.pos_mean()
    if not (0 < m_plus < math.inf):
        raise AssumptionViolated("positive-part mean must be finite and positive")
    grid = _probe_grid(d, grid)
    den = _nonvanishing(2.0 * m_plus * np.asarray(d.tail(grid), dtype=float))
    x_max = float(np.max(grid))
    rep = d.truncated_atoms(x_max + 1.0)
    if rep is not None:
        vals = np.array([_sstar_integral_atomic(d, float(x), rep)
                         for x in grid])
    else:
        vals = 2.0 * _sstar_half_integrals(d, grid)
    ratios = vals / den
    return ClassReport("Sstar", grid, ratios,
                       limit_verdict(ratios, ratios, 1.0, tol), tol,
                       target_value=1.0)


def fh_tail(d: Marginal, h: float, x):
    """Tail of the h-window law: min(1, ∫_x^{x+h} F̄(t) dt), elementwise
    over x > 0 in one tail_integral call; a scalar x gives a float."""
    if h < 1.0:
        raise InvalidInput("window h must be at least 1")
    xs = np.asarray(x, dtype=float)
    if np.any(xs <= 0.0):
        raise InvalidInput("x must be positive")
    vals = np.minimum(1.0, d.tail_integral(xs, xs + float(h)))
    return float(vals) if xs.ndim == 0 else vals


def strong_subexponential(d: Marginal, h_grid=(1.0, 10.0, 100.0), grid=None,
                          grid_step: float = None,
                          tol: float = DEFAULT_TOL) -> ClassReport:
    """Window-law two-fold ratio -> 2 simultaneously across h in h_grid.

    Uniformity over h in [1, inf) is probed at the grid level: each window h
    induces a law with the fh_tail tail, whose two-fold ratio curve must
    converge like any subexponential law; the report's statistic at x is the
    across-h worst case.
    """
    h_grid = tuple(float(h) for h in h_grid)
    if any(h < 1.0 for h in h_grid) or not h_grid:
        raise InvalidInput("h_grid entries must be at least 1")
    grid = _probe_grid(d, grid, positive=True)
    curves = {}
    worst_lo = None
    worst_hi = None
    worst_dev = None
    for h in h_grid:
        def window_tail(t, h=h):
            # the window law lives on [0, inf): its tail is 1 at t <= 0
            out = np.ones(len(t))
            out[t > 0.0] = fh_tail(d, h, t[t > 0.0])
            return out

        den = _nonvanishing(fh_tail(d, h, grid),
                            f"window tail vanishes on the grid for h={h}")
        lo, hi = cv.bracket_bounds(cv.nfold_tail_bracket_from_tail(
            window_tail, 0.0, 2, grid, grid_step=grid_step))
        lo, hi = lo / den, hi / den
        curves[f"h={h:g}"] = 0.5 * (lo + hi)
        dev = np.abs(0.5 * (lo + hi) - 2.0)
        if worst_dev is None:
            worst_lo, worst_hi, worst_dev = lo, hi, dev
        else:
            take = dev > worst_dev
            worst_lo = np.where(take, lo, worst_lo)
            worst_hi = np.where(take, hi, worst_hi)
            worst_dev = np.maximum(dev, worst_dev)
    mid = 0.5 * (worst_lo + worst_hi)
    return ClassReport("SstarStrong", grid, mid,
                       limit_verdict(worst_lo, worst_hi, 2.0, tol), tol,
                       target_value=2.0, stat_lower=worst_lo,
                       stat_upper=worst_hi, curves=curves)


def check_pair(model: DependentModel, pair) -> tuple:
    i, j = int(pair[0]), int(pair[1])
    if i == j or not (0 <= i < model.dim) or not (0 <= j < model.dim):
        raise InvalidInput(f"pair {pair} is not two distinct coordinates "
                           f"of a {model.dim}-dimensional model")
    return i, j


def h1_report(model: DependentModel, pair=(0, 1), grid=None,
              tol: float = DEFAULT_TOL) -> ClassReport:
    """Pairwise quasi-asymptotic independence:
    P(X_i>x, X_j>x) / (F̄_i(x)+F̄_j(x)) -> 0 along the diagonal."""
    i, j = check_pair(model, pair)
    sub = model.subset((i, j))
    di, dj = sub.marginals
    grid = _probe_grid(di, grid)
    joint = joint_upper_survival(sub, np.column_stack((grid, grid)))
    stats = joint / _nonvanishing(di.tail(grid) + dj.tail(grid),
                                  "both tails vanish on the grid")
    return ClassReport("H1", grid, stats, limit_verdict(stats, stats, 0.0, tol),
                       tol, target_value=0.0)


_H2_RAYS = ((1.0, 1.0), (2.0, 1.0), (1.0, 2.0))


def h2_report(model: DependentModel, pair=(0, 1), grid=None,
              tol: float = DEFAULT_TOL) -> ClassReport:
    """Conditional tail dependence with absolute values:
    P(|X_i| > x_i | X_j > x_j) -> 0 as both thresholds grow.

    The 2-d limit is probed along three rays (diagonal and both 2:1
    off-diagonals); the reported statistic at x is the worst ray.
    """
    i, j = check_pair(model, pair)
    sub = model.subset((i, j))
    di, dj = sub.marginals
    grid = _probe_grid(di, grid, positive=True)
    curves = {}
    for a, b in _H2_RAYS:
        s, t = a * grid, b * grid
        tail_j = _nonvanishing(dj.tail(t),
                               "conditioning tail vanishes on the grid")
        upper_both = joint_upper_survival(sub, np.column_stack((s, t)))
        upper_mixed = joint_upper_survival(sub, np.column_stack((-s, t)))
        # P(X_i <= -s, X_j > t) = F̄_j(t) - P(X_i > -s, X_j > t)
        curves[f"ray={a:g}:{b:g}"] = (
            upper_both + (tail_j - upper_mixed)) / tail_j
    stats = np.maximum.reduce(list(curves.values()))
    return ClassReport("H2", grid, stats, limit_verdict(stats, stats, 0.0, tol),
                       tol, target_value=0.0, curves=curves)
