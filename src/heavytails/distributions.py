"""Marginal distribution families with closed-form tails, quantiles and tail integrals.

Every family exposes the same small surface:

* ``tail(x)``        survival P(X > x), vectorized,
* ``quantile(u)``    generalized inverse inf{x : F(x) >= u} on 0 < u < 1,
* ``mean()``         extended-real mean (math.inf for infinite-mean laws),
* ``pos_mean()``     integral of the tail over [0, inf), the positive-part mean,
* ``tail_integral(a, b)``  exact partial integral of the tail,
* ``sample(rng, size)``    inverse-transform draws from a numpy Generator,
* ``truncated_atoms(threshold)``  exact atomic representation when one exists.

Class tags are declared hints about heavy-tail class membership (tokens
L, D, S, Sstar, SstarStrong, HeavyK); diagnostics never read them, they only
label families for catalogs and preset validation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import special as sc

from .errors import AssumptionViolated, InvalidInput

TAG_LONG = "L"
TAG_DOMINATED = "D"
TAG_SUBEXP = "S"
TAG_SSTAR = "Sstar"
TAG_SSTAR_STRONG = "SstarStrong"
TAG_HEAVY = "HeavyK"

ALL_TAGS = frozenset(
    {TAG_LONG, TAG_DOMINATED, TAG_SUBEXP, TAG_SSTAR, TAG_SSTAR_STRONG, TAG_HEAVY}
)


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise InvalidInput(msg)


def _apply(fn, x):
    """Run an array kernel on scalar or array input, preserving the shape."""
    arr = np.asarray(x, dtype=float)
    out = fn(np.atleast_1d(arr))
    return float(out[0]) if arr.ndim == 0 else np.asarray(out).reshape(arr.shape)


class Marginal:
    """Common behaviour for every marginal family."""

    tags: frozenset = frozenset()

    # families implement _tail_arr and _ppf_arr on 1-d float arrays
    def _tail_arr(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _ppf_arr(self, u: np.ndarray) -> np.ndarray:
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
        return _apply(self._ppf_arr, u)

    def ppf_from_uniform(self, u: np.ndarray) -> np.ndarray:
        """Engine hook: inverse transform on u in [0, 1) without the open-interval check."""
        return self._ppf_arr(np.asarray(u, dtype=float))

    def mean(self) -> float:
        raise NotImplementedError

    def pos_mean(self) -> float:
        """Positive-part mean, the tail integrated over [0, inf)."""
        return self.tail_integral(0.0, math.inf)

    def tail_integral(self, a: float, b: float) -> float:
        """Integral of tail(t) dt over [a, b]; b may be math.inf."""
        raise NotImplementedError

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


def _piecewise_const_integral(locs, suffix_tails, a, b):
    """Integral over [a, b] of a right-continuous step tail.

    locs: sorted atom locations. suffix_tails[i] = tail just right of locs[i];
    the tail left of locs[0] is 1. b must be finite.
    """
    if b <= a:
        return 0.0
    pts = np.concatenate(([a], locs[(locs > a) & (locs < b)], [b]))
    idx = np.searchsorted(locs, pts[:-1], side="right") - 1
    heights = np.where(idx >= 0, suffix_tails[np.maximum(idx, 0)], 1.0)
    return float(np.sum(np.diff(pts) * heights))


@dataclass(frozen=True)
class Pareto(Marginal):
    """Power-law tail (x/scale)^(-alpha) on [scale, inf)."""

    alpha: float
    scale: float = 1.0

    def __post_init__(self):
        _require(self.alpha > 0, "alpha must be positive")
        _require(self.scale > 0, "scale must be positive")

    @property
    def tags(self):
        base = {TAG_LONG, TAG_DOMINATED, TAG_SUBEXP, TAG_HEAVY}
        if self.alpha > 1:
            base |= {TAG_SSTAR, TAG_SSTAR_STRONG}
        return frozenset(base)

    def _tail_arr(self, x):
        with np.errstate(divide="ignore"):
            t = np.where(x <= self.scale, 1.0, (self.scale / np.maximum(x, self.scale)) ** self.alpha)
        return t

    def _ppf_arr(self, u):
        return self.scale * (1.0 - u) ** (-1.0 / self.alpha)

    def mean(self):
        if self.alpha <= 1:
            return math.inf
        return self.alpha * self.scale / (self.alpha - 1.0)

    def support(self):
        return (self.scale, math.inf)

    def tail_integral(self, a, b):
        _require(b >= a, "need b >= a")
        s, al = self.scale, self.alpha
        lo, hi = max(a, s), b
        out = max(0.0, min(b, s) - a)  # region where the tail is 1
        if hi > lo:
            if math.isinf(hi):
                if al <= 1:
                    return math.inf
                out += s**al * lo ** (1.0 - al) / (al - 1.0)
            elif al == 1.0:
                out += s * math.log(hi / lo)
            else:
                out += s**al * (lo ** (1.0 - al) - hi ** (1.0 - al)) / (al - 1.0)
        return out


@dataclass(frozen=True)
class Weibull(Marginal):
    """Stretched-exponential tail exp(-(x/scale)^shape), heavy for shape < 1."""

    shape: float
    scale: float = 1.0

    def __post_init__(self):
        _require(0 < self.shape < 1, "shape must lie in (0, 1)")
        _require(self.scale > 0, "scale must be positive")

    tags = frozenset({TAG_LONG, TAG_SUBEXP, TAG_SSTAR, TAG_SSTAR_STRONG, TAG_HEAVY})

    def _tail_arr(self, x):
        return np.where(x <= 0, 1.0, np.exp(-np.maximum(x, 0.0) ** self.shape / self.scale**self.shape))

    def _ppf_arr(self, u):
        return self.scale * (-np.log1p(-u)) ** (1.0 / self.shape)

    def mean(self):
        return self.scale * math.gamma(1.0 + 1.0 / self.shape)

    def support(self):
        return (0.0, math.inf)

    def tail_integral(self, a, b):
        _require(b >= a, "need b >= a")
        out = max(0.0, min(b, 0.0) - a)
        lo = max(a, 0.0)
        if b > lo:
            c, lam = self.shape, self.scale
            k = 1.0 / c
            hi_reg = 1.0 if math.isinf(b) else float(sc.gammainc(k, (b / lam) ** c))
            lo_reg = float(sc.gammainc(k, (lo / lam) ** c))
            out += lam * k * math.gamma(k) * (hi_reg - lo_reg)
        return out


@dataclass(frozen=True)
class Lognormal(Marginal):
    """exp(mu + sigma Z) for standard normal Z."""

    mu: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _require(self.sigma > 0, "sigma must be positive")

    tags = frozenset({TAG_LONG, TAG_SUBEXP, TAG_SSTAR, TAG_SSTAR_STRONG, TAG_HEAVY})

    def _tail_arr(self, x):
        out = np.ones_like(x)
        pos = x > 0
        z = (np.log(x, where=pos, out=np.ones_like(x)) - self.mu) / self.sigma
        out[pos] = sc.ndtr(-z[pos])
        return out

    def _ppf_arr(self, u):
        return np.exp(self.mu + self.sigma * sc.ndtri(u))

    def mean(self):
        return math.exp(self.mu + 0.5 * self.sigma**2)

    def support(self):
        return (0.0, math.inf)

    def _upper_integral(self, x):
        # integral of the tail from x to infinity
        if x <= 0:
            return self.mean() - x
        z = (math.log(x) - self.mu) / self.sigma
        return self.mean() * sc.ndtr(self.sigma - z) - x * sc.ndtr(-z)

    def tail_integral(self, a, b):
        _require(b >= a, "need b >= a")
        if math.isinf(b):
            return self._upper_integral(a)
        return self._upper_integral(a) - self._upper_integral(b)


@dataclass(frozen=True)
class Exponential(Marginal):
    """Light-tailed control family, tail exp(-rate x)."""

    rate: float = 1.0

    def __post_init__(self):
        _require(self.rate > 0, "rate must be positive")

    tags = frozenset()

    def _tail_arr(self, x):
        return np.where(x <= 0, 1.0, np.exp(-self.rate * np.maximum(x, 0.0)))

    def _ppf_arr(self, u):
        return -np.log1p(-u) / self.rate

    def mean(self):
        return 1.0 / self.rate

    def support(self):
        return (0.0, math.inf)

    def tail_integral(self, a, b):
        _require(b >= a, "need b >= a")
        out = max(0.0, min(b, 0.0) - a)
        lo = max(a, 0.0)
        if b > lo:
            hi_term = 0.0 if math.isinf(b) else math.exp(-self.rate * b)
            out += (math.exp(-self.rate * lo) - hi_term) / self.rate
        return out


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
        idx = np.searchsorted(cdf, u, side="left")
        return locs[np.minimum(idx, len(locs) - 1)]

    def truncated_atoms(self, threshold):
        locs, masses, _, _ = self._table
        keep = locs <= threshold
        return locs[keep], masses[keep], float(np.sum(masses[~keep])) + self._beyond

    def tail_integral(self, a, b):
        _require(b >= a, "need b >= a")
        locs, _, _, suffix = self._table
        if math.isinf(b):
            if math.isinf(self.mean()):
                return math.inf
            b = max(a, float(locs[-1]))  # tail is 0 beyond the last atom
        return _piecewise_const_integral(locs, suffix, a, b)


@dataclass(frozen=True)
class DiscreteAtoms(_AtomTable):
    """Finite atomic law given as (location, mass) pairs; masses sum to 1."""

    atoms: tuple

    def __post_init__(self):
        object.__setattr__(self, "atoms", _normalize_atoms(self.atoms))
        total = math.fsum(m for _, m in self.atoms)
        _require(abs(total - 1.0) <= 1e-12, f"atom masses must sum to 1, got {total}")

    tags = frozenset()

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
        return self.base._ppf_arr(u) + self.shift

    def mean(self):
        m = self.base.mean()
        return m if math.isinf(m) else m + self.shift

    def support(self):
        lo, hi = self.base.support()
        return (lo + self.shift, hi + self.shift)

    def tail_integral(self, a, b):
        return self.base.tail_integral(a - self.shift, b if math.isinf(b) else b - self.shift)

    def truncated_atoms(self, threshold):
        rep = self.base.truncated_atoms(threshold - self.shift)
        if rep is None:
            return None
        locs, masses, overflow = rep
        return locs + self.shift, masses, overflow


_MIXTURE_DEPTH = 200  # atoms tabulated; the suffix beyond carries mass 2^-200


@dataclass(frozen=True)
class GeometricAtomMixture(_AtomTable):
    """Mixture q*rho + (1-q)*sigma of a sparse unbounded atom law and a negative part.

    rho puts mass 2^-(n+1) on 2^(n+1)-1 for n >= 0, so its tail halves exactly
    at every atom: heavy (no exponential moment) yet not long-tailed. sigma is
    a finite atom law on [-3, 0) with positive mass in (-3, -2]. Config name:
    ``example11``.
    """

    q: float = 0.5
    sigma_atoms: tuple = ((-2.5, 0.5), (-0.5, 0.5))

    def __post_init__(self):
        _require(0 < self.q < 1, "q must lie strictly between 0 and 1")
        object.__setattr__(self, "sigma_atoms", _normalize_atoms(self.sigma_atoms))
        total = math.fsum(m for _, m in self.sigma_atoms)
        _require(abs(total - 1.0) <= 1e-12, "sigma atom masses must sum to 1")
        _require(all(-3.0 <= l < 0.0 for l, _ in self.sigma_atoms),
                 "sigma atoms must lie in [-3, 0)")
        _require(any(-3.0 < l <= -2.0 for l, _ in self.sigma_atoms),
                 "sigma must put positive mass in (-3, -2]")

    tags = frozenset({TAG_HEAVY})

    @cached_property
    def _table(self):
        # merged atom table: sigma atoms weighted 1-q, then rho atoms weighted q
        locs = [l for l, _ in self.sigma_atoms]
        masses = [(1.0 - self.q) * m for _, m in self.sigma_atoms]
        for n in range(_MIXTURE_DEPTH):
            locs.append(float(2 ** (n + 1) - 1))
            masses.append(self.q * 2.0 ** (-(n + 1)))
        locs = np.array(locs)
        masses = np.array(masses)
        cdf = np.cumsum(masses)
        # suffix tails: exact dyadic remainders for the rho section
        suffix = np.empty_like(masses)
        ns = len(self.sigma_atoms)
        suffix[ns:] = self.q * 2.0 ** (-np.arange(1, _MIXTURE_DEPTH + 1))
        sig_suffix = np.concatenate((np.cumsum(masses[:ns][::-1])[::-1][1:], [0.0]))
        suffix[:ns] = sig_suffix + self.q
        return locs, masses, cdf, suffix

    def mean(self):
        return math.inf  # the rho part has divergent mean

    def support(self):
        return (float(self.sigma_atoms[0][0]), math.inf)

    @property
    def _beyond(self):
        return self.q * 2.0 ** (-_MIXTURE_DEPTH)


@dataclass(frozen=True)
class IntegratedTail(Marginal):
    """Law with tail min(1, integral of base tail from x to infinity).

    Requires the base law to have a finite positive-part mean.
    """

    base: Marginal

    def __post_init__(self):
        if not math.isfinite(self.base.pos_mean()):
            raise AssumptionViolated("integrated tail requires a finite positive-part mean")

    tags = frozenset()

    def _tail_arr(self, x):
        flat = np.atleast_1d(x).astype(float)
        vals = np.array([min(1.0, self.base.tail_integral(t, math.inf)) for t in flat])
        return vals.reshape(np.shape(x))

    def _ppf_arr(self, u):
        from scipy.optimize import brentq

        flat = np.atleast_1d(u).astype(float)
        lo0, _ = self.base.support()
        out = np.empty_like(flat)
        for i, ui in enumerate(flat):
            target = 1.0 - ui

            def g(t):
                return min(1.0, self.base.tail_integral(t, math.inf)) - target

            lo, hi = min(lo0, 0.0) - 1.0, 1.0
            while g(hi) > 0:
                hi *= 2.0
            while g(lo) < 0:
                lo = lo * 2.0 - 1.0
            out[i] = brentq(g, lo, hi, xtol=1e-12, rtol=1e-14)
        return out.reshape(np.shape(u))

    def mean(self):
        from scipy.integrate import quad

        # finite iff t * tail(t) is summable along dyadic t. The decade ratio of
        # that product decides it; decay within ~7% of critical is conservatively
        # reported as infinite.
        probes = [self.base.tail_integral(2.0**k, math.inf) * 2.0**k for k in (30, 40)]
        if probes[1] > 0.0 and probes[1] > 0.95 * probes[0]:
            return math.inf
        lo = max(self._support_lo, 0.0)
        val, _ = quad(lambda t: min(1.0, self.base.tail_integral(t, math.inf)),
                      lo, math.inf, limit=200)
        return lo + val

    @cached_property
    def _support_lo(self):
        from scipy.optimize import brentq

        def g(t):
            return self.base.tail_integral(t, math.inf) - 1.0

        lo = min(self.base.support()[0], 0.0) - 1.0
        hi = 1.0
        while g(hi) > 0:
            hi *= 2.0
        while g(lo) < 0:
            lo = lo * 2.0 - 1.0
        if g(lo) == 0.0:
            return lo
        return brentq(g, lo, hi, xtol=1e-12)

    def support(self):
        return (self._support_lo, math.inf)

    def tail_integral(self, a, b):
        from scipy.integrate import quad

        val, _ = quad(lambda t: min(1.0, self.base.tail_integral(t, math.inf)),
                      a, b, limit=200)
        return val


def quantile_grid(marginals, n: int = 24, lo_u: float = 0.9,
                  hi_u: float = 1.0 - 1e-4) -> np.ndarray:
    """Geometric grid spanning the marginals' upper tail decades.

    The low end is the largest lo_u-quantile across marginals, so every
    coordinate is already in its tail; the high end is the largest
    hi_u-quantile, so the heaviest tail reaches its deep-asymptotic regime.
    """
    lo = max(max(float(m.quantile(lo_u)) for m in marginals), 1e-9)
    hi = max(float(m.quantile(hi_u)) for m in marginals)
    if hi <= lo:
        hi = lo * 100.0
    return np.geomspace(lo, hi, int(n))
