"""Marginal distribution families with closed-form tails, quantiles and tail integrals.

Every family exposes the same small surface:

* ``tail(x)``        survival P(X > x), vectorized,
* ``quantile(u)``    generalized inverse inf{x : F(x) >= u} on 0 < u < 1,
* ``mean()``         extended-real mean (math.inf for infinite-mean laws),
* ``pos_mean()``     integral of the tail over [0, inf), the positive-part mean,
* ``tail_integral(a, b)``  exact partial integral of the tail, vectorized,
* ``sample(rng, size)``    inverse-transform draws from a numpy Generator,
* ``truncated_atoms(threshold)``  exact atomic representation when one exists.

Class tags are declared hints about heavy-tail class membership: L for
long-tailed and D for dominatedly varying; a shifted or integrated law keeps
its base's tags. Diagnostics never read them; the theorem presets'
hypotheses do (experiments.HYPOTHESES).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import AssumptionViolated, InvalidInput

TAG_LONG = "L"
TAG_DOMINATED = "D"


def _special():
    """scipy.special, imported on first use: only Lognormal, the Weibull
    tail integral and Poisson.tail need it, so the import path stays
    numpy-only."""
    from scipy import special
    return special


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidInput(msg)


def _graded_half_rule(depth: int) -> tuple:
    """10-node Gauss-Legendre panels on [0, 1/2] graded toward 0 by halving.

    The panel edges are 0, 2^-depth, 2^-(depth-1), ..., 2^-2, 2^-1, so a
    tail kink or an infinite slope at the end of a piece sits in ever
    smaller panels. Returns the nodes and weights of all panels, as offsets
    from the end in units of the piece width.
    """
    t, w = np.polynomial.legendre.leggauss(10)
    edges = np.concatenate(([0.0], 0.5 ** np.arange(depth, 0, -1)))
    lo, width = edges[:-1, None], np.diff(edges)[:, None]
    return ((lo + 0.5 * width * (t + 1.0)).ravel(),
            (0.5 * width * w).ravel())


_HALF_NODES, _HALF_WEIGHTS = _graded_half_rule(36)
# the shallower rule for pieces of a finite window whose integrand has
# bounded slope at both ends (IntegratedTail)
_WINDOW_NODES, _WINDOW_WEIGHTS = _graded_half_rule(12)
# nodes in one pass of a fixed-node integral, so each tail call takes at most
# this many values (2 MiB of float64). A window's bits do not depend on its
# pass; 20,000 IntegratedTail(Pareto(2.5, 1)) windows run fastest at 2^18
# to 2^19 (0.19 s, against 0.21 s at 2^20 and 0.36 s at 2^21; BENCH_27.json)
_PASS_VALUES = 1 << 18
# the rule on a piece [c, inf): nodes y in (0, 1], graded toward y = 0 and
# then toward y = 1, at t = c + L (y^-4 - 1), where dt/dy = -4 L y^-5
_LOG_Y = np.concatenate((np.log(_HALF_NODES), np.log1p(-_HALF_NODES)))
_FAR_STRETCH, _FAR_DECAY = np.expm1(-4.0 * _LOG_Y), np.exp(-5.0 * _LOG_Y)
_FAR_WEIGHTS = np.concatenate((_HALF_WEIGHTS, _HALF_WEIGHTS))


def _kinked_integrals(integrand, lo, hi, cuts, nodes, weights) -> np.ndarray:
    """The integral of integrand over each window [lo[i], hi[i]], split at
    the cuts of row i that fall inside it; cuts broadcasts to one row per
    window.

    A finite piece takes the rule (nodes, weights) of _graded_half_rule
    toward both of its ends. A piece [c, inf) is mapped onto y in (0, 1] by
    t = c + L (y^-4 - 1), L = max(|c|, 1), and takes the rule to depth 36:
    an integrand decaying like t^-beta becomes y^(4 beta - 5) near y = 0,
    bounded for beta >= 5/4, and the panels graded toward y = 0 are
    ratio-16 panels in t out to about 1e43 L.

    integrand(t, rows) takes the nodes of one pass as rows of k =
    2 len(nodes) nodes, and the window of each row as a column, and returns
    its values in t's shape; it may overwrite t. A finite piece fills one
    row and an unbounded one 720 / k rows, so k must divide 720 (2, 240 and
    720 do). A pass holds whole windows, as many as fit in _PASS_VALUES
    nodes were every piece unbounded. Each piece and then each window is
    summed along its own row, so a window's bits never depend on the
    others.
    """
    k = 2 * len(nodes)
    far_rows = len(_FAR_WEIGHTS) // k
    lo, hi = lo[:, None], hi[:, None]
    cuts = np.broadcast_to(cuts, (len(lo), np.shape(cuts)[-1]))
    cuts = np.sort(np.clip(np.concatenate((lo, hi, cuts), axis=1), lo, hi),
                   axis=1)
    lo, hi = cuts[:, :-1], cuts[:, 1:]      # pieces, one row per window
    near_w = np.concatenate((weights, weights))
    step = max(1, _PASS_VALUES // (lo.shape[1] * len(_FAR_WEIGHTS)))
    out = np.empty(len(cuts))
    for s in range(0, len(cuts), step):
        keep = hi[s:s + step] > lo[s:s + step]
        rows = np.nonzero(keep)[0]
        pa, pb = lo[s:s + step][keep], hi[s:s + step][keep]
        far = np.isinf(pb)
        x, y, c = pa[~far, None], pb[~far, None], pa[far, None]
        width, scale = y - x, np.maximum(np.abs(c), 1.0)
        offsets = width * nodes
        t = np.empty((len(x) + len(c) * far_rows, k))
        np.add(x, offsets, out=t[:len(x), :len(nodes)])
        np.subtract(y, offsets, out=t[:len(x), len(nodes):])
        t[len(x):] = (c + scale * _FAR_STRETCH).reshape(-1, k)
        g = integrand(t, s + np.concatenate(
            (rows[~far], np.repeat(rows[far], far_rows)))[:, None])
        # row sums rather than a matrix product, whose rounding may
        # depend on the number of rows: a window's bits must not
        sums = np.empty(len(pa))
        near = np.multiply(g[:len(x)], near_w, out=g[:len(x)])
        sums[~far] = np.sum(near, axis=1) * width[:, 0]
        jac = 4.0 * scale * _FAR_DECAY
        sums[far] = np.sum(g[len(x):].reshape(jac.shape) * jac
                           * _FAR_WEIGHTS, axis=1)
        out[s:s + step] = np.bincount(rows, sums, minlength=len(keep))
    return out


def _apply(fn, x):
    """Run an array kernel on scalar or array input, preserving the shape."""
    arr = np.asarray(x, dtype=float)
    out = fn(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else np.asarray(out).reshape(arr.shape)


class Marginal:
    """Common behaviour for every marginal family."""

    tags: frozenset = frozenset()

    # families implement _tail_arr, _ppf_arr and _tail_integral_arr on 1-d
    # float arrays
    def _tail_arr(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _ppf_arr(self, u: np.ndarray) -> np.ndarray:
        """Inverse transform that overwrites u, which the caller owns."""
        raise NotImplementedError

    def _tail_integral_arr(self, a: np.ndarray, b: np.ndarray) -> np.ndarray:
        """tail_integral on 1-d arrays with b >= a elementwise."""
        raise NotImplementedError

    def tail(self, x):
        """P(X > x)."""
        return _apply(self._tail_arr, x)

    def cdf(self, x):
        return _apply(lambda a: 1.0 - self._tail_arr(a), x)

    def quantile(self, u):
        """Generalized inverse inf{x : F(x) >= u}; rejects u outside (0, 1)."""
        arr = np.asarray(u, dtype=float)
        if not np.all((arr > 0.0) & (arr < 1.0)):
            raise InvalidInput("quantile requires 0 < u < 1")
        return _apply(self._ppf_arr, arr.copy())

    def ppf_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Engine hook: inverse transform on u in [0, 1) without the
        open-interval check. It overwrites a float array u and returns it.

        It is nondecreasing up to rounding: two uniforms u < u' whose
        values decrease lie less than montecarlo._MAX_WINDOW / 1024 apart
        (tests/test_montecarlo.py measures every family), which a settled
        max relies on."""
        return self._ppf_arr(np.asarray(u, dtype=float))

    def mean(self) -> float:
        raise NotImplementedError

    def pos_mean(self) -> float:
        """Positive-part mean, the tail integrated over [0, inf)."""
        return self.tail_integral(0.0, math.inf)

    def tail_integral(self, a, b):
        """Integral of tail(t) dt over [a, b], elementwise over a and b
        broadcast together; b may be inf. Scalar bounds give a float."""
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                                   np.asarray(b, dtype=float))
        _require(bool(np.all(b >= a)), "need b >= a")
        out = self._tail_integral_arr(a.ravel(), b.ravel())
        return float(out[0]) if a.ndim == 0 else out.reshape(a.shape)

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """i.i.d. draws by inverse transform; same stream state, same output."""
        _require(int(size) >= 0, "sample size must be nonnegative")
        return self._ppf_arr(rng.random(int(size)))

    def support(self) -> tuple:
        """(inf, sup) of the support; entries may be infinite."""
        raise NotImplementedError

    def truncated_atoms(self, threshold: float):
        """Exact atoms at or below threshold plus the overflow mass above it.

        Returns (locations, masses, overflow) for purely atomic laws, None for
        continuous ones. The overflow bucket carries P(X > threshold) exactly.
        """
        return None


@dataclass(frozen=True)
class Pareto(Marginal):
    """Power-law tail (x/scale)^(-alpha) on [scale, inf)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        _require(self.alpha > 0, "alpha must be positive")
        _require(0 < self.scale < math.inf, "scale must be positive and finite")

    tags = frozenset({TAG_LONG, TAG_DOMINATED})

    def _tail_arr(self, x):
        return np.where(x <= self.scale, 1.0,
                        (self.scale / np.maximum(x, self.scale)) ** self.alpha)

    def _ppf_arr(self, u):
        np.subtract(1.0, u, out=u)
        u **= -1.0 / self.alpha
        if self.scale != 1.0:   # x * 1.0 == x: skip the pass
            u *= self.scale
        return u

    def mean(self):
        if self.alpha <= 1:
            return math.inf
        return self.alpha * self.scale / (self.alpha - 1.0)

    def support(self):
        return (self.scale, math.inf)

    def _tail_integral_arr(self, a, b):
        s, al = self.scale, self.alpha
        lo = np.maximum(a, s)
        hi = np.maximum(b, lo)
        with np.errstate(invalid="ignore"):  # inf - inf on empty windows
            # the window as lo * (1 + w / lo) keeps full precision however
            # narrow it is against its depth
            grow = np.log1p((hi - lo) / lo)
            if al == 1.0:
                power = s * grow
            else:  # hi = inf gives inf for al < 1 and drops out for al > 1
                power = (-s**al * lo ** (1.0 - al) * np.expm1((1.0 - al) * grow)
                         / (al - 1.0))
        flat = np.maximum(0.0, np.minimum(b, s) - a)  # where the tail is 1
        return flat + np.where(hi > lo, power, 0.0)


@dataclass(frozen=True)
class Weibull(Marginal):
    """Stretched-exponential tail exp(-(x/scale)^shape), heavy for shape < 1."""

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        _require(0 < self.shape < 1, "shape must lie in (0, 1)")
        _require(0 < self.scale < math.inf, "scale must be positive and finite")

    tags = frozenset({TAG_LONG})

    def _tail_arr(self, x):
        return np.where(x <= 0, 1.0, np.exp(-np.maximum(x, 0.0) ** self.shape / self.scale**self.shape))

    def _ppf_arr(self, u):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)
        u **= 1.0 / self.shape
        u *= self.scale
        return u

    def mean(self):
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def support(self):
        return (0.0, math.inf)

    def _tail_integral_arr(self, a, b):
        c, lam = self.shape, self.scale
        k = 1.0 / c
        lo = np.maximum(a, 0.0)
        hi = np.maximum(b, lo)
        u_lo, u_hi = (lo / lam) ** c, (hi / lam) ** c
        # past the mean of Gamma(k), the lower incomplete gammas both round
        # toward 1: take the difference of the upper ones, which is the upper
        # gamma itself at hi = inf (gammaincc(k, inf) = 0)
        deep = ~np.isfinite(hi) | (u_lo >= k)
        sc = _special()
        reg = np.empty_like(lo)
        reg[deep] = sc.gammaincc(k, u_lo[deep]) - sc.gammaincc(k, u_hi[deep])
        # a shallow finite window: regularized lower incomplete gammas
        reg[~deep] = sc.gammainc(k, u_hi[~deep]) - sc.gammainc(k, u_lo[~deep])
        flat = np.maximum(0.0, np.minimum(b, 0.0) - a)
        return flat + np.where(hi > lo, lam * k * math.gamma(k) * reg, 0.0)


@dataclass(frozen=True)
class Lognormal(Marginal):
    """exp(mu + sigma Z) for standard normal Z."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _require(self.sigma > 0, "sigma must be positive")
        # load scipy.special here, so a forked worker inherits it rather
        # than importing it in every process
        _special()

    tags = frozenset({TAG_LONG})

    def _tail_arr(self, x):
        out = np.ones_like(x)
        pos = x > 0
        z = (np.log(x, where=pos, out=np.ones_like(x)) - self.mu) / self.sigma
        out[pos] = _special().ndtr(-z[pos])
        return out

    def _ppf_arr(self, u):
        _special().ndtri(u, out=u)
        u *= self.sigma
        u += self.mu
        return np.exp(u, out=u)

    def mean(self):
        try:
            return math.exp(self.mu + 0.5 * self.sigma**2)
        except OverflowError:
            raise OverflowError("lognormal mean exp(mu + sigma^2/2) "
                                "exceeds the largest float") from None

    def support(self):
        return (0.0, math.inf)

    def _upper_integral(self, x):
        # integral of the tail from x to infinity; 0 at x = inf
        pos = x > 0
        z = (np.log(np.where(pos, x, 1.0)) - self.mu) / self.sigma
        ndtr = _special().ndtr
        with np.errstate(invalid="ignore"):  # inf * 0 at x = inf
            upper = self.mean() * ndtr(self.sigma - z) - x * ndtr(-z)
        return np.where(pos, np.where(np.isinf(x), 0.0, upper), self.mean() - x)

    def _tail_integral_arr(self, a, b):
        return self._upper_integral(a) - self._upper_integral(b)


@dataclass(frozen=True)
class Exponential(Marginal):
    """Light-tailed control family, tail exp(-rate x)."""

    rate: float = 1.0

    def __post_init__(self):
        _require(self.rate > 0, "rate must be positive")

    def _tail_arr(self, x):
        return np.where(x <= 0, 1.0, np.exp(-self.rate * np.maximum(x, 0.0)))

    def _ppf_arr(self, u):
        np.negative(u, out=u)
        np.log1p(u, out=u)
        np.negative(u, out=u)
        u /= self.rate
        return u

    def mean(self):
        return 1.0 / self.rate

    def support(self):
        return (0.0, math.inf)

    def _tail_integral_arr(self, a, b):
        lo = np.maximum(a, 0.0)
        hi = np.maximum(b, lo)
        r = self.rate
        with np.errstate(invalid="ignore"):  # inf - inf on empty windows
            decay = np.exp(-r * lo) * -np.expm1(-r * (hi - lo)) / r
        flat = np.maximum(0.0, np.minimum(b, 0.0) - a)
        return flat + np.where(hi > lo, decay, 0.0)


def _normalize_atoms(atoms):
    items = sorted((float(l), float(m)) for l, m in atoms)
    _require(len(items) > 0, "need at least one atom")
    locs = [l for l, _ in items]
    _require(all(b > a for a, b in zip(locs, locs[1:])), "atom locations must be distinct")
    _require(all(m > 0 for _, m in items), "atom masses must be positive")
    _require(all(math.isfinite(l) for l in locs), "atom locations must be finite")
    return tuple(items)


class _AtomTable(Marginal):
    """Lookups shared by the purely atomic families.

    A family provides _table = (locs, masses, cdf, suffix) with sorted
    locations, suffix[i] being the tail just right of locs[i], and _beyond,
    the mass its table leaves out above the last location.
    """

    _beyond = 0.0

    def _tail_arr(self, x):
        locs, _, _, suffix = self._table
        idx = np.searchsorted(locs, x, side="right")
        return np.where(idx == 0, 1.0, suffix[np.maximum(idx - 1, 0)])

    def _ppf_arr(self, u):
        locs, _, cdf, _ = self._table
        return np.take(locs, np.searchsorted(cdf, u, side="left"), mode="clip",
                       out=u)

    def truncated_atoms(self, threshold):
        locs, masses, _, _ = self._table
        keep = locs <= threshold
        return locs[keep], masses[keep], float(np.sum(masses[~keep])) + self._beyond

    def _tail_integral_arr(self, a, b):
        """Sum of width times height over the steps of the tail in [a, b].

        The windows are grouped by their number of steps and each group is
        summed along its rows, which is the order of one np.sum per window.
        """
        locs, _, _, suffix = self._table
        unbounded = np.isinf(b)
        if math.isinf(self.mean()):
            out = np.where(unbounded, math.inf, 0.0)
            b = np.where(unbounded, a, b)
        else:
            out = np.zeros(len(a))
            # the tail is 0 beyond the last atom
            b = np.where(unbounded, np.maximum(a, locs[-1]), b)
        first = np.searchsorted(locs, a, side="right")   # first atom above a
        inner = np.searchsorted(locs, b, side="left") - first
        # heights[first + j]: the tail right of a for j = 0, then right of
        # each atom inside the window
        heights = np.concatenate(([1.0], suffix))
        live = b > a
        for m in np.unique(inner[live]):
            rows = np.flatnonzero(live & (inner == m))
            steps = first[rows, None] + np.arange(m + 1)
            pts = np.empty((len(rows), m + 2))
            pts[:, 0], pts[:, -1] = a[rows], b[rows]
            pts[:, 1:-1] = locs[steps[:, :-1]]
            out[rows] = np.sum(np.diff(pts, axis=1) * heights[steps], axis=1)
        return out


@dataclass(frozen=True)
class DiscreteAtoms(_AtomTable):
    """Finite atomic law given as (location, mass) pairs; masses sum to 1."""

    atoms: tuple

    def __post_init__(self):
        object.__setattr__(self, "atoms", _normalize_atoms(self.atoms))
        total = math.fsum(m for _, m in self.atoms)
        _require(abs(total - 1.0) <= 1e-12, f"atom masses must sum to 1, got {total}")

    @cached_property
    def _table(self):
        locs = np.array([l for l, _ in self.atoms])
        masses = np.array([m for _, m in self.atoms])
        suffix = np.concatenate((np.cumsum(masses[::-1])[::-1][1:], [0.0]))
        return locs, masses, np.cumsum(masses), suffix

    def mean(self):
        locs, masses, _, _ = self._table
        return float(np.dot(locs, masses))

    def support(self):
        return (self.atoms[0][0], self.atoms[-1][0])


@dataclass(frozen=True)
class ShiftedBy(Marginal):
    """base shifted by a constant: X + shift."""

    base: Marginal
    shift: float

    def __post_init__(self):
        _require(math.isfinite(self.shift), "shift must be finite")

    @property
    def tags(self):
        return self.base.tags

    def _tail_arr(self, x):
        return self.base._tail_arr(x - self.shift)

    def _ppf_arr(self, u):
        out = self.base._ppf_arr(u)
        out += self.shift
        return out

    def mean(self):
        m = self.base.mean()
        return m if math.isinf(m) else m + self.shift

    def support(self):
        lo, hi = self.base.support()
        return (lo + self.shift, hi + self.shift)

    def _tail_integral_arr(self, a, b):
        return self.base._tail_integral_arr(a - self.shift, b - self.shift)

    def truncated_atoms(self, threshold):
        rep = self.base.truncated_atoms(threshold - self.shift)
        if rep is None:
            return None
        locs, masses, overflow = rep
        return locs + self.shift, masses, overflow


_MIXTURE_DEPTH = 200  # atoms tabulated; the suffix beyond carries mass 2^-200
# sigma: a finite atom law on [-3, 0) with positive mass in (-3, -2]
_SIGMA_ATOMS = ((-2.5, 0.5), (-0.5, 0.5))


@dataclass(frozen=True)
class GeometricAtomMixture(_AtomTable):
    """Mixture q*rho + (1-q)*sigma of a sparse unbounded atom law and a negative part.

    rho puts mass 2^-(n+1) on 2^(n+1)-1 for n >= 0, so its tail halves exactly
    at every atom: heavy (no exponential moment), dominatedly varying (the
    tail at most doubles when x halves), yet not long-tailed. sigma is the
    atom law _SIGMA_ATOMS. Config name: ``example11``.
    """

    q: float = 0.5
    tags = frozenset({TAG_DOMINATED})

    def __post_init__(self):
        _require(0 < self.q < 1, "q must lie strictly between 0 and 1")

    @cached_property
    def _table(self):
        # merged atom table: sigma atoms weighted 1-q, then rho atoms weighted q
        locs = [l for l, _ in _SIGMA_ATOMS]
        masses = [(1.0 - self.q) * m for _, m in _SIGMA_ATOMS]
        for n in range(_MIXTURE_DEPTH):
            locs.append(float(2 ** (n + 1) - 1))
            masses.append(self.q * 2.0 ** (-(n + 1)))
        locs = np.array(locs)
        masses = np.array(masses)
        cdf = np.cumsum(masses)
        # suffix tails: exact dyadic remainders for the rho section
        suffix = np.empty_like(masses)
        ns = len(_SIGMA_ATOMS)
        suffix[ns:] = self.q * 2.0 ** (-np.arange(1, _MIXTURE_DEPTH + 1))
        sig_suffix = np.concatenate((np.cumsum(masses[:ns][::-1])[::-1][1:], [0.0]))
        suffix[:ns] = sig_suffix + self.q
        return locs, masses, cdf, suffix

    def mean(self):
        return math.inf  # the rho part has divergent mean

    def support(self):
        return (_SIGMA_ATOMS[0][0], math.inf)

    @property
    def _beyond(self):
        return self.q * 2.0 ** (-_MIXTURE_DEPTH)


_SIGN = np.uint64(1 << 63)


def _ordered(x: np.ndarray) -> np.ndarray:
    """uint64 keys of float64 values, in the order of the values."""
    bits = x.view(np.uint64)
    return np.where(bits & _SIGN, ~bits, bits | _SIGN)


def _unordered(keys: np.ndarray) -> np.ndarray:
    """The float64 values of _ordered keys."""
    return np.where(keys & _SIGN, keys ^ _SIGN, ~keys).view(np.float64)


@dataclass(frozen=True)
class IntegratedTail(Marginal):
    """Law with tail min(1, integral of base tail from x to infinity).

    Requires the base law to have a finite positive-part mean. It keeps
    the base's tags: the integrated tail of a long-tailed (dominatedly
    varying) base with finite mean is long-tailed (dominatedly varying).
    """

    base: Marginal

    def __post_init__(self):
        if not math.isfinite(self.base.pos_mean()):
            raise AssumptionViolated("integrated tail requires a finite positive-part mean")

    @property
    def tags(self):
        return self.base.tags

    def _tail_arr(self, x):
        return np.minimum(1.0, self.base.tail_integral(x, math.inf))

    def _ppf_arr(self, u):
        u[:] = self._first_at_or_below(1.0 - u, self._support_lo)
        return u

    def _first_at_or_below(self, targets, start: float) -> np.ndarray:
        """Per target, the least float t >= start at which the base tail
        integrated from t to infinity is at most the target.

        A bisection over the ordered float64 bit patterns of [start, inf]:
        always 64 rounds, one tail_integral call over the batch each, since
        a round at least halves a span of under 2^64 patterns. The integral
        is nonincreasing in t, and start lies at or below every answer.
        """
        targets = np.asarray(targets, dtype=float)
        lo = np.full(targets.shape, _ordered(np.array([start]))[0] - 1)
        hi = np.full(targets.shape, _ordered(np.array([math.inf]))[0])
        for _ in range(64):
            mid = hi - (hi - lo) // 2
            below = self.base.tail_integral(_unordered(mid), math.inf) <= targets
            hi = np.where(below, mid, hi)
            lo = np.where(below, lo, mid)
        return _unordered(hi)

    def mean(self):
        # finite iff t * tail(t) is summable along dyadic t. The decade ratio of
        # that product decides it; decay within ~7% of critical is conservatively
        # reported as infinite.
        probes = [self.base.tail_integral(2.0**k, math.inf) * 2.0**k for k in (30, 40)]
        if probes[1] > 0.0 and probes[1] > 0.95 * probes[0]:
            return math.inf
        lo = max(self._support_lo, 0.0)
        return lo + self.tail_integral(lo, math.inf)

    @cached_property
    def _support_lo(self):
        # below the base support the base tail is 1, so the integral from
        # one unit below it is at least 1
        return float(self._first_at_or_below(
            np.array([1.0]), self.base.support()[0] - 1.0)[0])

    def support(self):
        return (self._support_lo, math.inf)

    def _tail_integral_arr(self, a, b):
        """The tail integrated over each window [a, b] by _kinked_integrals,
        one base tail_integral call per pass.

        Each window is cut at the tail's kinks (_tail_kinks), among them
        _support_lo, where min(1, .) sets in. The tail has slope at most 1
        in magnitude, so a finite piece takes the graded rule to depth 12.
        """
        return _kinked_integrals(
            lambda t, rows: np.minimum(1.0,
                                       self.base.tail_integral(t, math.inf)),
            a, b, np.asarray(_tail_kinks(self)),
            _WINDOW_NODES, _WINDOW_WEIGHTS)


def _tail_kinks(d: Marginal) -> list:
    """Points where d's tail is not smooth: its support minimum, its atoms,
    and the kinks of the law it is built from, mapped through the
    construction."""
    kinks = [d.support()[0]]
    atoms = d.truncated_atoms(math.inf)
    if atoms is not None:
        kinks += atoms[0].tolist()
    if isinstance(d, ShiftedBy):
        kinks += [k + d.shift for k in _tail_kinks(d.base)]
    elif isinstance(d, IntegratedTail):
        kinks += _tail_kinks(d.base)
    return sorted({k for k in kinks if math.isfinite(k)})


def quantile_grid(marginals, hi_u: float = 1.0 - 1e-4) -> np.ndarray:
    """Geometric grid of 24 points spanning the marginals' upper tail decades.

    The low end is the largest 0.9-quantile across marginals, so every
    coordinate is already in its tail; the high end is the largest
    hi_u-quantile, so the heaviest tail reaches its deep-asymptotic regime.
    A top quantile that overflows the floats is an error.
    """
    with np.errstate(over="ignore"):
        lo = max(max(float(m.quantile(0.9)) for m in marginals), 1e-9)
        hi = max(float(m.quantile(hi_u)) for m in marginals)
    if hi <= lo:
        hi = lo * 100.0
    if not math.isfinite(hi):
        raise InvalidInput("the default grid's top quantile overflows")
    return np.geomspace(lo, hi, 24)
