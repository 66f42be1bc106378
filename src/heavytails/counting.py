"""Counting laws for randomly stopped sums: pmf, mean, tail, and sampling.

All samplers are driven by a numpy Generator so that one stream state yields
one output sequence. Every random draw is one inversion of one uniform, so a
law moves its stream by exactly one 64-bit word per draw: Poisson (a cdf
table with a guide table, for means up to 2^16), Geometric1 (a closed form)
and Zeta (a table, else a closed form with fixed unit corrections). A
Poisson mean above 2^16 keeps numpy's sampler, whose word count depends on
the draw. Deterministic and Geometric1(1) draws consume no randomness at all,
which lets a Deterministic(n) stopped sum reproduce the fixed-n estimate
bitwise.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .distributions import _special
from .errors import InvalidInput

_ZETA_EXACT_BELOW = 512
_ZETA_STEPS = 2       # unit corrections each way after the analytic guess
_TAU_CLAMP = 1 << 62  # int64-representable guard for astronomically large draws
_POISSON_MAX = 1e18   # largest Poisson mean; numpy's sampler stops near 9.2e18
_POISSON_TABLE_MAX = float(1 << 16)  # larger means keep numpy's sampler
_CUT_MASS = 2.0 ** -53  # most mass each end of a Poisson table drops


def _check_count(k) -> int:
    kk = int(k)
    if kk != k or kk < 0:
        raise InvalidInput(f"count argument must be a nonnegative integer, got {k!r}")
    return kk


class CountingLaw:
    def pmf(self, k: int) -> float:
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def tail(self, k: int) -> float:
        """P(tau > k)."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        raise NotImplementedError


@dataclass(frozen=True)
class Poisson(CountingLaw):
    lam: float

    def __post_init__(self):
        if not 0 <= self.lam <= _POISSON_MAX:
            raise InvalidInput(f"lam must be in [0, 1e18], got {self.lam!r}")

    def pmf(self, k):
        k = _check_count(k)
        if self.lam == 0:
            return 1.0 if k == 0 else 0.0
        return math.exp(k * math.log(self.lam) - self.lam - math.lgamma(k + 1))

    def mean(self):
        return self.lam

    def tail(self, k):
        k = _check_count(k)
        return float(_special().gammainc(k + 1, self.lam))

    @cached_property
    def _table(self):
        """(cdf, guide, start): cdf[j] = P(tau <= start + j), in float64.

        The pmf is built by its ratio recurrence outward from the mode m,
        over 10 sqrt(lam) + 30 steps each way (beyond them lies less than
        1e-23 of mass for every mean up to 2^16), and normalised by the sum
        of the terms it keeps. Up to m the cdf sums the pmf from below; past
        m it is 1 minus the sum from above, so both tails keep their
        relative precision. Two cuts each drop less than 2^-53 of mass:
        below, the terms under `start`, whose mass start takes (none while
        e^-lam >= 2^-53); above, the terms past the first entry whose float
        cdf is 1. Up to mean 2^16 the entries stay within 4e-16 of the
        incomplete gamma function. guide[i] = #{j : cdf[j] <= i / M} over
        M >= 16 len(cdf) buckets, a power of two so that u * M is exact.
        """
        lam, m = self.lam, math.floor(self.lam)
        steps = math.ceil(10.0 * math.sqrt(lam) + 30.0)
        lo = max(0, m - steps)
        down = np.cumprod(np.arange(m, lo, -1.0) / lam)[::-1] if m > lo else []
        up = np.cumprod(lam / np.arange(m + 1.0, m + steps + 1.0))
        below = np.cumsum(np.concatenate((down, [1.0])))
        above = np.cumsum(up[::-1])[::-1]  # above[j]: terms m + 1 + j and up
        total = below[-1] + above[0]
        cdf = np.concatenate((below / total,
                              1.0 - np.append(above[1:], 0.0) / total))
        first = int(np.searchsorted(cdf, _CUT_MASS))
        cdf = cdf[first:int(np.searchsorted(cdf, 1.0)) + 1]
        buckets = 1 << max(10, (16 * len(cdf) - 1).bit_length())
        guide = np.searchsorted(cdf, np.arange(buckets) / buckets,
                                side="right")
        return cdf, guide.astype(np.int64), lo + first

    def sample(self, rng, size):
        """Inversion of one uniform u per draw: tau = start + #{j : cdf[j]
        <= u}. The guide entry of u's bucket is that count wherever the
        next table entry lies above u; the few other draws take one
        searchsorted. Means above 2^16 draw from numpy's sampler."""
        if self.lam > _POISSON_TABLE_MAX:
            return rng.poisson(self.lam, int(size)).astype(np.int64,
                                                           copy=False)
        cdf, guide, start = self._table
        u = rng.random(int(size))
        k = guide[(u * len(guide)).astype(np.intp)]
        miss = np.flatnonzero(cdf[k] <= u)
        k[miss] = np.searchsorted(cdf, u[miss], side="right")
        return k + start


@dataclass(frozen=True)
class Geometric1(CountingLaw):
    """Support {1, 2, ...}: p at 1, p(1-p)^(k-1) beyond. Light-tailed."""

    p: float

    def __post_init__(self):
        if not 0 < self.p <= 1:
            raise InvalidInput("p must lie in (0, 1]")

    def pmf(self, k):
        k = _check_count(k)
        if k == 0:
            return 0.0
        return self.p * (1.0 - self.p) ** (k - 1)

    def mean(self):
        return 1.0 / self.p

    def tail(self, k):
        k = _check_count(k)
        return (1.0 - self.p) ** k

    def sample(self, rng, size):
        if self.p == 1.0:
            return np.ones(int(size), dtype=np.int64)
        v = 1.0 - rng.random(int(size))  # in (0, 1]
        with np.errstate(over="ignore"):  # p near 5e-324 divides to inf
            draws = np.ceil(np.log(v) / math.log1p(-self.p))
        # a tiny p draws far past int64; clamp before the cast, as Zeta does
        return np.clip(draws, 1.0, float(_TAU_CLAMP)).astype(np.int64)


@dataclass(frozen=True)
class Zeta(CountingLaw):
    """pmf proportional to k^(-s) on {1, 2, ...} with s in (1, 2]: infinite mean.

    Normalization and tails use an exact partial sum below 512 plus an
    Euler-Maclaurin remainder, absolute error below 1e-13. Sampling inverts
    that same tail: a table lookup up to 512, a closed-form guess with a
    fixed number of unit corrections above.
    """

    s: float

    def __post_init__(self):
        if not 1.0 < self.s <= 2.0:
            raise InvalidInput("s must lie in (1, 2]")

    @cached_property
    def _head(self):
        # head[k] = sum_{j<=k} j^-s for k = 0..511, head[0] = 0
        j = np.arange(1, _ZETA_EXACT_BELOW, dtype=float)
        return np.concatenate(([0.0], np.cumsum(j ** (-self.s))))

    def _suffix(self, k):
        """sum_{j>=k} j^-s for k >= 1 (array in, array out)."""
        k = np.asarray(k, dtype=float)
        big = np.maximum(k, _ZETA_EXACT_BELOW)
        s = self.s
        em = (big ** (1.0 - s) / (s - 1.0) + 0.5 * big ** (-s)
              + s / 12.0 * big ** (-s - 1.0)
              - s * (s + 1.0) * (s + 2.0) / 720.0 * big ** (-s - 3.0))
        small = k < _ZETA_EXACT_BELOW
        if np.any(small):
            idx = np.clip(k.astype(np.int64), 1, _ZETA_EXACT_BELOW)
            head_part = self._head[_ZETA_EXACT_BELOW - 1] - self._head[idx - 1]
            # below the cut, big is the cut and em its remainder
            em = np.where(small, head_part + em, em)
        return em

    @cached_property
    def _norm(self):
        return float(self._suffix(np.array(1.0)))

    def pmf(self, k):
        k = _check_count(k)
        if k == 0:
            return 0.0
        return k ** (-self.s) / self._norm

    def mean(self):
        return math.inf  # s <= 2

    def tail(self, k):
        k = _check_count(k)
        return float(self._suffix(np.array(float(k + 1)))) / self._norm

    @cached_property
    def _table(self):
        # -suffix(k + 1) for k = 1..512: nondecreasing, for searchsorted
        return -self._suffix(np.arange(2.0, _ZETA_EXACT_BELOW + 2.0))

    def sample(self, rng, size):
        """Inversion: tau = min{k >= 1 : suffix(k + 1) <= (1 - u) Z}.

        Draws up to 512 come from a table lookup. Above that, the midpoint
        form suffix(k + 1) ~ (k + 1/2)^(1-s) / (s - 1) of the leading
        Euler-Maclaurin term is inverted, and _ZETA_STEPS unit steps up, then
        down, against the same suffix settle the draw exactly wherever the
        guess is off by at most that many. That holds for every draw below
        2^40; far above it the float suffix is flat, and any such draw lies
        far past TAU_CAP.
        """
        u = rng.random(int(size))
        target = (1.0 - u) * self._norm
        k = np.searchsorted(self._table, -target) + 1.0
        far = np.flatnonzero(k > _ZETA_EXACT_BELOW)
        if far.size:
            t, s = target[far], self.s
            with np.errstate(over="ignore"):
                guess = np.ceil((t * (s - 1.0)) ** (1.0 / (1.0 - s)) - 0.5)
            kf = np.clip(guess, _ZETA_EXACT_BELOW + 1.0, float(_TAU_CLAMP))
            for _ in range(_ZETA_STEPS):
                kf += self._suffix(kf + 1.0) > t
            for _ in range(_ZETA_STEPS):
                kf -= (kf > _ZETA_EXACT_BELOW + 1.0) & (self._suffix(kf) <= t)
            k[far] = kf
        return np.minimum(k, float(_TAU_CLAMP)).astype(np.int64)


@dataclass(frozen=True)
class Deterministic(CountingLaw):
    n: int

    def __post_init__(self):
        if int(self.n) != self.n or self.n < 0:
            raise InvalidInput("n must be a nonnegative integer")
        object.__setattr__(self, "n", int(self.n))

    def pmf(self, k):
        k = _check_count(k)
        return 1.0 if k == self.n else 0.0

    def mean(self):
        return float(self.n)

    def tail(self, k):
        k = _check_count(k)
        return 1.0 if k < self.n else 0.0

    def sample(self, rng, size):
        # consumes no randomness by design
        return np.full(int(size), self.n, dtype=np.int64)
