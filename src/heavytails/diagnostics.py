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

These graders differ on purpose from the ratio-curve grader in
``experiments`` (``_verdict``). A diagnostic statistic is
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
import numbers
from dataclasses import dataclass

import numpy as np

from . import convolution as cv
from .copulas import DependentModel, joint_upper_survival
from .distributions import (_HALF_NODES, _HALF_WEIGHTS,
                            GeometricAtomMixture, Marginal, ShiftedBy,
                            _kinked_integrals, _tail_kinks, quantile_grid)
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
    stat_lower: np.ndarray = None
    stat_upper: np.ndarray = None
    running_min: float = None
    curves: dict = None

    def __post_init__(self):
        object.__setattr__(self, "probe_grid", np.asarray(self.probe_grid, dtype=float))
        object.__setattr__(self, "statistics", np.asarray(self.statistics, dtype=float))
        if self.verdict not in VERDICTS:
            raise InvalidInput(f"unknown verdict {self.verdict!r}")


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


# example11's default grids: L and D probe just below its atoms
# 2^(n+1) - 1, where its tail halves, and the other checks take 24 points
# over its first eleven atoms, [1, 2047]
_MIXTURE_ATOM_GRID = tuple(float(2 ** (n + 1)) - 1.5 for n in range(1, 11))
_ATOM_SPAN_END = 2047.0


def _probe_grid(d: Marginal, grid=None, positive: bool = False,
                below_atoms: bool = False, **window):
    """The given grid; else an atomic law's atom grid (with below_atoms the
    L and D one); else the quantile window of d's tail.

    example11, shifted or not, takes the grids above moved by the total
    shift, except that the span of its other checks starts at the first
    atom of rho the shift leaves positive, so a shift below -1 does not
    probe at or below zero. A finite law's L and D probe just below each
    positive atom, by 0.5 or by half the gap to the previous one when that
    is smaller, and its other checks 24 geometric points from the first
    positive atom to the last L and D point.
    """
    base, offset = d, 0.0
    while isinstance(base, ShiftedBy):
        base, offset = base.base, offset + base.shift
    atoms = d.truncated_atoms(math.inf) if grid is None else None
    if atoms is not None and isinstance(base, GeometricAtomMixture):
        if below_atoms:
            grid = offset + np.asarray(_MIXTURE_ATOM_GRID)
        else:
            locs = base.truncated_atoms(math.inf)[0]
            rho = locs[(locs >= 1.0) & (locs + offset > 0)]
            first = rho[0] if len(rho) else 1.0
            grid = offset + np.geomspace(first, max(first, _ATOM_SPAN_END),
                                         24)
    elif atoms is not None and np.any(atoms[0] > 0):
        locs = atoms[0][atoms[0] > 0]
        grid = locs - np.minimum(0.5, np.diff(locs, prepend=-np.inf) / 2)
        if not below_atoms and grid[-1] > locs[0]:
            grid = np.geomspace(locs[0], grid[-1], 24)
    grid = np.asarray(grid if grid is not None else quantile_grid((d,), **window),
                      dtype=float)
    if (grid.ndim != 1 or not grid.size or not np.all(np.isfinite(grid))
            or np.any(np.diff(grid) <= 0)):
        raise InvalidInput(
            "x grid must be nonempty, finite and strictly increasing")
    if positive and np.any(grid <= 0):
        raise InvalidInput("grid must be positive")
    return grid


def _nonvanishing(tail, message: str = "tail vanishes on the grid"):
    tail = np.asarray(tail, dtype=float)
    if np.any(tail <= 0):
        raise InvalidInput(message)
    return tail


# L and D cost two tail evaluations per point, so they probe much deeper
# than the convolution checks: L converges at the hazard rate, and D on a
# shifted law only where the shift is small against x
_DEEP_WINDOW = {"below_atoms": True, "hi_u": 1.0 - 1e-8}


def long_tail(d: Marginal, grid=None, tol: float = DEFAULT_TOL) -> ClassReport:
    """Translation insensitivity: F̄(x+1)/F̄(x) -> 1."""
    grid = _probe_grid(d, grid, **_DEEP_WINDOW)
    den = _nonvanishing(d.tail(grid))
    ratios = np.asarray(d.tail(grid + 1.0), dtype=float) / den
    return ClassReport("L", grid, ratios,
                       limit_verdict(ratios, ratios, 1.0, tol), tol,
                       target_value=1.0)


def dominated(d: Marginal, grid=None, tol: float = DEFAULT_TOL) -> ClassReport:
    """Dominated variation: F̄(x/2)/F̄(x) stays bounded as x grows."""
    grid = _probe_grid(d, grid, **_DEEP_WINDOW)
    den = _nonvanishing(d.tail(grid))
    ratios = np.asarray(d.tail(grid * 0.5), dtype=float) / den
    return ClassReport("D", grid, ratios, bounded_verdict(ratios, tol), tol)


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
    grid = np.unique(np.concatenate((grid, cv.tail_jumps(
        d, float(np.min(grid)), float(np.max(grid))))))
    den = _nonvanishing(d.tail(grid))
    r_lo, r_hi, mid = cv.ratio_bracket(
        *cv.nfold_tail_bracket(d, 2, grid, grid_step=grid_step), den)
    return ClassReport("S", grid, mid, limit_verdict(r_lo, r_hi, 2.0, tol), tol,
                       target_value=2.0, stat_lower=r_lo, stat_upper=r_hi,
                       running_min=float(np.minimum.accumulate(mid)[-1]))


def _sstar_half_integrals(d: Marginal, grid: np.ndarray) -> np.ndarray:
    """∫₀^{x/2} F̄(x-y)F̄(y)dy for every x in grid, by _kinked_integrals.

    [0, x/2] is cut where either factor has a kink (y = k and y = x - k for
    each tail kink k). A continuous law takes the graded rule to depth 36
    toward both ends of each piece. Between the cuts of an atomic law both
    factors are constant, so one midpoint node per piece is exact.
    """
    kinks = np.asarray(_tail_kinks(d))
    # a negative x integrates over [x/2, 0] and counts with a minus sign
    lo, hi = np.minimum(grid / 2.0, 0.0), np.maximum(grid / 2.0, 0.0)
    cuts = np.concatenate((np.broadcast_to(kinks, (len(grid), len(kinks))),
                           grid[:, None] - kinks), axis=1)
    rule = ((np.array([0.5]), np.array([0.5])) if d.truncated_atoms(math.inf)
            is not None else (_HALF_NODES, _HALF_WEIGHTS))

    def integrand(y, rows):
        vals = d.tail(y)
        vals *= d.tail(np.subtract(grid[rows], y, out=y))
        return vals

    return np.sign(grid) * _kinked_integrals(integrand, lo, hi, cuts, *rule)


def sstar(d: Marginal, grid=None, tol: float = DEFAULT_TOL) -> ClassReport:
    """Self-neighborhood integral: ∫₀ˣ F̄(x-y)F̄(y)dy / (2 m⁺ F̄(x)) -> 1."""
    if not math.isfinite(d.mean()):
        raise AssumptionViolated("the integral criterion requires a finite mean")
    m_plus = d.pos_mean()
    if not (0 < m_plus < math.inf):
        raise AssumptionViolated("positive-part mean must be finite and positive")
    grid = _probe_grid(d, grid)
    den = _nonvanishing(2.0 * m_plus * np.asarray(d.tail(grid), dtype=float))
    ratios = 2.0 * _sstar_half_integrals(d, grid) / den
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


def strong_subexponential(d: Marginal, grid=None, grid_step: float = None,
                          tol: float = DEFAULT_TOL) -> ClassReport:
    """Window-law two-fold ratio -> 2 simultaneously across h in 1, 10, 100.

    Uniformity over h in [1, inf) is probed at the grid level: each window h
    induces a law with the fh_tail tail, whose two-fold ratio curve must
    converge like any subexponential law; the report's statistic at x is the
    across-h worst case.
    """
    grid = _probe_grid(d, grid, positive=True)
    curves, brackets = {}, []
    for h in (1.0, 10.0, 100.0):
        def window_tail(t, h=h):
            # the window law lives on [0, inf): its tail is 1 at t <= 0
            out = np.ones(len(t))
            out[t > 0.0] = fh_tail(d, h, t[t > 0.0])
            return out

        den = _nonvanishing(fh_tail(d, h, grid),
                            f"window tail vanishes on the grid for h={h}")
        brackets.append(cv.ratio_bracket(*cv.nfold_tail_bracket_from_tail(
            window_tail, 0.0, 2, grid, grid_step=grid_step), den))
        curves[f"h={h:g}"] = brackets[-1][2]
    # (lower, upper, mid) at the h farthest from 2, the first h on a tie
    stacked = np.array(brackets)
    worst = np.argmax(np.abs(stacked[:, 2] - 2.0), axis=0)
    worst_lo, worst_hi, mid = np.take_along_axis(
        stacked, worst[None, None, :], axis=0)[0]
    return ClassReport("SstarStrong", grid, mid,
                       limit_verdict(worst_lo, worst_hi, 2.0, tol), tol,
                       target_value=2.0, stat_lower=worst_lo,
                       stat_upper=worst_hi, curves=curves)


def check_pair(model: DependentModel, pair) -> tuple:
    """(i, j), two distinct coordinates of model; a fraction, a boolean or
    a string is rejected, never truncated."""
    coords = [int(v) if isinstance(v, numbers.Real)
              and not isinstance(v, (bool, np.bool_))
              and float(v).is_integer() else -1 for v in pair]
    if (len(coords) != 2 or coords[0] == coords[1]
            or not all(0 <= c < model.dim for c in coords)):
        raise InvalidInput(f"pair {pair} is not two distinct coordinates "
                           f"of a {model.dim}-dimensional model")
    return tuple(coords)


def _pair_survival(model: DependentModel, pair: tuple, s, t) -> np.ndarray:
    """P(X_i > s, X_j > t) elementwise, read off the whole model: every
    other coordinate takes threshold -inf, where its tail is 1, so the
    copula's cdf there is the pair's own copula."""
    xs = np.full((len(s), model.dim), -np.inf)
    xs[:, pair[0]], xs[:, pair[1]] = s, t
    return joint_upper_survival(model, xs)


def h1_report(model: DependentModel, pair=(0, 1), grid=None,
              tol: float = DEFAULT_TOL) -> ClassReport:
    """Pairwise quasi-asymptotic independence:
    P(X_i>x, X_j>x) / (F̄_i(x)+F̄_j(x)) -> 0 along the diagonal."""
    i, j = check_pair(model, pair)
    di, dj = model.marginals[i], model.marginals[j]
    grid = _probe_grid(di, grid)
    joint = _pair_survival(model, (i, j), grid, grid)
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
    di, dj = model.marginals[i], model.marginals[j]
    grid = _probe_grid(di, grid, positive=True)
    curves = {}
    for a, b in _H2_RAYS:
        s, t = a * grid, b * grid
        tail_j = _nonvanishing(dj.tail(t),
                               "conditioning tail vanishes on the grid")
        upper_both = _pair_survival(model, (i, j), s, t)
        upper_mixed = _pair_survival(model, (i, j), -s, t)
        # P(X_i <= -s, X_j > t) = F̄_j(t) - P(X_i > -s, X_j > t)
        curves[f"ray={a:g}:{b:g}"] = (
            upper_both + (tail_j - upper_mixed)) / tail_j
    stats = np.maximum.reduce(list(curves.values()))
    return ClassReport("H2", grid, stats, limit_verdict(stats, stats, 0.0, tol),
                       tol, target_value=0.0, curves=curves)
