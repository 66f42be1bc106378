"""Deterministic convolution oracles: lattice measures and n-fold tail brackets.

Every bracket comes back in one format: two float arrays (lower, upper) on
the probes, lower <= P(S_n > x) <= upper, both clamped to 1. Two paths fill
it:

* purely atomic laws convolve exactly (direct product-sum enumeration that
  keeps every pair mass, with an overflow bucket at +infinity standing in for
  the far tail, which is exact for every probe below the truncation
  threshold), so lower equals upper up to rounding. ``_atom_measure`` is the
  one place a law's atom table becomes a lattice measure, and ``nfold_atoms``
  powers it. The exact two-fold ratio curve is the n = 2 case probed at
  ``tail_jumps``, every atom of the single and the pair law in a range;
* continuous laws are bracketed between two lattice envelopes. Rounding every
  summand's location up to the grid produces a stochastically larger variable,
  hence an upper bound on P(S_n > x); rounding down gives the lower bound.
  Domination survives convolution, so the bracket provably contains the truth,
  and halving the step refines both envelopes monotonically. Each envelope
  of S_n is built only as far as its two halves, S_floor(n/2) and
  S_ceil(n/2); the last product is read at the probes alone, off the two
  factors, and never formed.

Supports must be bounded below. Mass above x_max - (n-1) * min(support, 0)
is clamped to the top of the grid (lower envelope) or to the overflow bucket
(upper envelope); any such mass keeps the full remaining sum above every probe,
so the clamp changes no probed tail and array sizes stay bounded.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .distributions import Marginal
from .errors import HeavyTailsError, InvalidInput, ResourceLimit

ATOM_CAP = 1 << 22
MERGE_TOL = 1e-12
MASS_TOL = 1e-15
# values per gathered block when the last product is read at the probes
_PROBE_CHUNK = 1 << 18


@dataclass(frozen=True)
class LatticeMeasure:
    """Finite atom list plus an overflow bucket at +infinity.

    locs must be strictly increasing, masses nonnegative.
    """

    locs: np.ndarray
    masses: np.ndarray
    inf_mass: float = 0.0

    def __post_init__(self):
        locs = np.asarray(self.locs, dtype=float)
        masses = np.asarray(self.masses, dtype=float)
        object.__setattr__(self, "locs", locs)
        object.__setattr__(self, "masses", masses)
        if locs.ndim != 1 or locs.shape != masses.shape:
            raise InvalidInput("locs and masses must be 1-d arrays of equal length")
        if len(locs) and not np.all(np.diff(locs) > 0):
            raise InvalidInput("locations must be strictly increasing")
        if np.any(masses < 0) or self.inf_mass < 0:
            raise InvalidInput("masses must be nonnegative")
        if not np.all(np.isfinite(locs)):
            raise InvalidInput("locations must be finite (use inf_mass for the bucket)")

    def total(self) -> float:
        return math.fsum(self.masses.tolist()) + self.inf_mass

    @cached_property
    def _suffix(self):
        """Mass at index i or above, with 0 past the last atom."""
        return np.append(np.cumsum(self.masses[::-1])[::-1], 0.0)

    def tail(self, x):
        """P(> x): a float for a scalar x, else an array."""
        xs = np.atleast_1d(np.asarray(x, dtype=float))
        tails = (self._suffix[np.searchsorted(self.locs, xs, side="right")]
                 + self.inf_mass)
        return float(tails[0]) if np.ndim(x) == 0 else tails


def convolve_atoms(a: LatticeMeasure, b: LatticeMeasure) -> LatticeMeasure:
    """Exact distribution of the independent sum, by direct product-sum.

    Every pair mass is kept; atoms closer than MERGE_TOL merge. The overflow
    bucket absorbs products with either factor's bucket. Total mass is
    conserved to 1e-15 (checked).
    """
    sums = _pair_sums(a, b).ravel()
    order = np.argsort(sums, kind="stable")
    sums, prods = sums[order], np.multiply.outer(a.masses, b.masses).ravel()[order]
    starts = _merge_starts(sums, MERGE_TOL)
    locs, masses = sums[starts], np.add.reduceat(prods, starts)

    fa = math.fsum(a.masses.tolist())
    fb = math.fsum(b.masses.tolist())
    inf_mass = a.inf_mass * (fb + b.inf_mass) + b.inf_mass * fa
    out = LatticeMeasure(locs, masses, inf_mass=inf_mass)
    if abs(out.total() - a.total() * b.total()) > MASS_TOL * max(1.0, a.total() * b.total()):
        raise HeavyTailsError("mass conservation violated in convolve_atoms")
    return out


def _pair_sums(a: LatticeMeasure, b: LatticeMeasure) -> np.ndarray:
    """a.locs[i] + b.locs[j] at [i, j], within the atom cap."""
    if len(a.locs) * len(b.locs) > ATOM_CAP:
        raise ResourceLimit(f"product-sum would create {len(a.locs) * len(b.locs)} atoms "
                            f"(cap {ATOM_CAP})")
    return np.add.outer(a.locs, b.locs)


def _merge_starts(sorted_locs, tol) -> np.ndarray:
    """Index of the first atom of each run of atoms less than tol apart."""
    new_group = np.empty(len(sorted_locs), dtype=bool)
    new_group[:1] = True
    np.greater(np.diff(sorted_locs), tol, out=new_group[1:])
    return np.flatnonzero(new_group)


def _power(base, n: int, mul):
    """base multiplied with itself n times under mul, by repeated squaring.

    The order of the products is fixed, so every caller gets the same bits.
    """
    acc = None
    while n:
        if n & 1:
            acc = base if acc is None else mul(acc, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return acc


def nfold_atoms(m: LatticeMeasure, n: int, clamp_above: float = None) -> LatticeMeasure:
    """n-fold self-convolution; atoms above clamp_above move to the bucket."""
    if n < 1:
        raise InvalidInput("n must be at least 1")

    def clamp(x: LatticeMeasure) -> LatticeMeasure:
        if clamp_above is None:
            return x
        cut = np.searchsorted(x.locs, clamp_above, side="right")
        if cut >= len(x.locs):
            return x
        extra = float(np.sum(x.masses[cut:]))
        return LatticeMeasure(x.locs[:cut], x.masses[:cut],
                              inf_mass=x.inf_mass + extra)

    return _power(clamp(m), n, lambda a, b: clamp(convolve_atoms(a, b)))


def _bracket(xs, lows, highs) -> tuple:
    """(lower, upper) arrays on the probes xs: both ends clamped to 1, since
    an envelope tail can round a few ulps above it, and put in order."""
    lower = np.minimum(np.minimum(lows, highs), 1.0)
    upper = np.minimum(np.maximum(highs, lows), 1.0)
    bad = ~((0.0 <= lower) & (lower <= upper))  # a NaN tail fails too
    if np.any(bad):
        i = int(np.argmax(bad))
        raise InvalidInput(f"bracket out of order at x={xs[i]}: "
                           f"[{lower[i]}, {upper[i]}]")
    return lower, upper


def _probes(xs, n: int) -> np.ndarray:
    """xs as a float array, after the checks every n-fold bracket shares."""
    if n < 1:
        raise InvalidInput("n must be at least 1")
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size == 0:
        raise InvalidInput("need at least one probe")
    if not np.all(np.isfinite(xs)):
        raise InvalidInput("probes must be finite")
    return xs


@dataclass(frozen=True)
class _Grid:
    """Lattice on multiples of step: index k carries location (k0 + k) * step."""

    k0: int
    step: float
    masses: np.ndarray
    inf_mass: float = 0.0

    @property
    def locs(self):
        return (self.k0 + np.arange(len(self.masses))) * self.step

    def measure(self) -> LatticeMeasure:
        return LatticeMeasure(self.locs, self.masses, inf_mass=self.inf_mass)


def _grid_convolve(a: _Grid, b: _Grid, clamp_k: int, side: str) -> _Grid:
    # an upper envelope clamped whole into the overflow has no finite atoms
    masses = (np.convolve(a.masses, b.masses) if len(a.masses) and len(b.masses)
              else np.zeros(0))
    g = _Grid(a.k0 + b.k0, a.step, masses, _overflow(a, b))
    return _grid_clamp(g, clamp_k, side)


def _overflow(a: _Grid, b: _Grid) -> float:
    """Overflow mass of A + B: a bucket plus anything stays in the bucket."""
    fa, fb = float(np.sum(a.masses)), float(np.sum(b.masses))
    return a.inf_mass * (fb + b.inf_mass) + b.inf_mass * fa


def _grid_clamp(g: _Grid, clamp_k: int, side: str) -> _Grid:
    cut = clamp_k - g.k0 + 1  # first index with location strictly above clamp
    if cut < 0:
        cut = 0
    if cut >= len(g.masses):
        return g
    if side == "upper":
        spill = float(np.sum(g.masses[cut:]))
        return _Grid(g.k0, g.step, g.masses[:cut].copy(), g.inf_mass + spill)
    extra = float(np.sum(g.masses[cut + 1:]))
    head = g.masses[:cut + 1].copy()
    head[cut] += extra
    return _Grid(g.k0, g.step, head, g.inf_mass)


def _product_tails(a: _Grid, b: _Grid, xs) -> np.ndarray:
    """P(A + B > x) at each probe, read off the two factors without forming
    their product.

    K is the index the product's tail would find for x, and the tail
    there is sum_i a_i S_B(K - i) plus the overflow, where S_B(j) is B's mass
    at index j or above. All terms are nonnegative, so the rounding stays
    relative. Each distinct K takes one row of a sliding window over the
    padded S_B, and the rows are gathered in blocks of at most _PROBE_CHUNK
    values, one matrix-vector product per block. The cut c comes from each
    block's last K, so a probe's value can move in its last bits (up to
    ~1e-15 relative) with the other probes that share its block.
    """
    inf_mass = _overflow(a, b)
    la, lb = len(a.masses), len(b.masses)
    if la == 0 or lb == 0:
        return np.full(len(xs), inf_mass)
    locs = (a.k0 + b.k0 + np.arange(la + lb - 1)) * a.step
    ks, where = np.unique(np.searchsorted(locs, xs, side="right"),
                          return_inverse=True)
    suffix = np.cumsum(b.masses[::-1])[::-1]
    # padded[p] = S_B(p - la + 1): B's total below index 0, nothing past its end
    padded = np.concatenate((np.full(la - 1, suffix[0]), suffix, np.zeros(la)))
    rows = sliding_window_view(padded, la)
    reverse = a.masses[::-1].copy()  # contiguous, so the product runs in BLAS
    # heads[c]: A's mass at indices la - c and above, where S_B is B's total
    # for every K up to la - c
    heads = np.concatenate(([0.0], np.cumsum(reverse))) * suffix[0]
    per_block = max(1, _PROBE_CHUNK // la)
    tails = np.empty(len(ks))
    for i in range(0, len(ks), per_block):
        block = ks[i:i + per_block]
        c = max(0, la - int(block[-1]))
        tails[i:i + per_block] = rows[block, c:] @ reverse[c:] + heads[c]
    return tails[where] + inf_mass


def lattice_tails(tail_fn, lo: float, hi: float, step: float) -> tuple:
    """(k_lo, tails): a law's tail, clipped to [0, 1], at the lattice bounds
    k * step for k_lo <= k <= ceil(hi / step), with k_lo = floor(lo / step)."""
    if step <= 0:
        raise InvalidInput("step must be positive")
    k_lo = math.floor(lo / step)
    k_hi = max(math.ceil(hi / step), k_lo + 1)
    if k_hi - k_lo + 1 > ATOM_CAP:
        raise ResourceLimit("grid would exceed the atom cap; increase step")
    bounds = np.arange(k_lo, k_hi + 1) * step
    return k_lo, np.clip(np.asarray(tail_fn(bounds), dtype=float), 0.0, 1.0)


def discretize_tail(k_lo: int, step: float, tails, side: str) -> _Grid:
    """Lattice envelope of a law given by its lattice_tails.

    The caller warrants that no mass sits strictly below the first bound.
    side='lower' rounds interval mass down (stochastically smaller),
    side='upper' rounds it up and parks mass beyond the last bound in the
    overflow bucket.
    """
    if side not in ("lower", "upper"):
        raise InvalidInput("side must be 'lower' or 'upper'")
    interval = np.maximum(tails[:-1] - tails[1:], 0.0)  # mass in (g_k, g_{k+1}]
    left = max(0.0, 1.0 - float(tails[0]))              # mass at or below g_klo
    right = float(tails[-1])                            # mass above g_khi
    masses = np.zeros(len(tails))
    if side == "lower":
        masses[:-1] += interval
        masses[0] += left
        masses[-1] += right
        return _Grid(k_lo, step, masses, 0.0)
    masses[1:] += interval
    masses[0] += left
    return _Grid(k_lo, step, masses, right)


def nfold_tail_bracket_from_tail(tail_fn, support_min: float, n: int, xs,
                                 grid_step: float = None) -> tuple:
    """(lower, upper) arrays: lower <= P(S_n > x) <= upper at each probe x,
    where S_n sums n i.i.d. copies of a law given by its tail function with
    support bounded below by support_min."""
    xs = _probes(xs, n)
    if not math.isfinite(support_min):
        raise InvalidInput("support must be bounded below")
    x_max = float(np.max(xs))
    step = float(grid_step) if grid_step else max(x_max, 1.0) / 4096.0
    clamp_val = x_max - (n - 1) * min(support_min, 0.0) + 2.0 * step
    clamp_k = math.ceil(clamp_val / step)
    hi = (clamp_k + 1) * step

    # one tail evaluation serves both envelopes
    k_lo, lattice = lattice_tails(tail_fn, support_min, hi, step)
    tails = []
    for side in ("lower", "upper"):
        g = _grid_clamp(discretize_tail(k_lo, step, lattice, side),
                        clamp_k, side)
        if n == 1:
            tails.append(g.measure().tail(xs))
            continue
        mul = partial(_grid_convolve, clamp_k=clamp_k, side=side)
        half = _power(g, n // 2, mul)
        rest = half if n % 2 == 0 else mul(half, g)
        # the clamp moves mass only above every probe: the last product
        # needs none
        tails.append(_product_tails(half, rest, xs))
    return _bracket(xs, *tails)


def _atom_measure(d: Marginal, x_max: float, n: int):
    """d's atoms as a lattice measure, exact for n-fold sums probed up to
    x_max; None for a law that is not purely atomic."""
    s_min = d.support()[0]
    rep = d.truncated_atoms(x_max - (n - 1) * min(s_min, 0.0)
                            - min(s_min, 0.0) + 1.0)
    if rep is None:
        return None
    locs, masses, overflow = rep
    return LatticeMeasure(np.asarray(locs, dtype=float),
                          np.asarray(masses, dtype=float), inf_mass=overflow)


def nfold_tail_bracket(d: Marginal, n: int, xs, grid_step: float = None) -> tuple:
    """(lower, upper) arrays: lower <= P(X_1 + ... + X_n > x) <= upper at
    each probe x, X_i i.i.d. with law d.

    Purely atomic laws take the exact path: every pair mass is kept, so
    lower equals upper and matches exact enumeration up to rounding.
    Continuous laws are bracketed by lattice envelopes.
    """
    xs = _probes(xs, n)
    x_max = float(np.max(xs))
    s_min = d.support()[0]
    base = _atom_measure(d, x_max, n)
    if base is None:
        return nfold_tail_bracket_from_tail(d.tail, s_min, n, xs,
                                            grid_step=grid_step)
    m = nfold_atoms(base, n, clamp_above=x_max - (n - 1) * min(s_min, 0.0) + 0.5)
    tails = m.tail(xs)
    return _bracket(xs, tails, tails)


def ratio_bracket(lower, upper, tail) -> tuple:
    """(lower / tail, upper / tail, their mean): a bracket of P(S_n > x) as
    bounds on the ratio to a tail, with the midpoint that curves report."""
    r_lo, r_hi = lower / tail, upper / tail
    return r_lo, r_hi, 0.5 * (r_lo + r_hi)


def tail_jumps(d: Marginal, lo: float, hi: float) -> np.ndarray:
    """lo and every atom of d and of its two-fold law in [lo, hi], sorted.

    Both tails are step functions that jump only there, so a two-fold
    bracket probed at these points sees every value the ratio
    P(X_1 + X_2 > x) / P(X > x) takes on [lo, hi]. A law without atoms
    gives lo alone. The pair sums up to hi are merged as convolve_atoms
    merges them, but carry no masses: the bracket forms the pair law.
    """
    base = _atom_measure(d, hi, 2)
    if base is None:
        return np.array([float(lo)])
    sums = _pair_sums(base, base)
    sums = np.sort(sums[np.triu(sums <= hi)])  # symmetric: one half holds all
    locs = np.concatenate((sums[_merge_starts(sums, MERGE_TOL)], base.locs))
    return np.unique(np.append(locs[(locs >= lo) & (locs <= hi)], lo))
