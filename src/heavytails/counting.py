"""Counting laws for randomly stopped sums: pmf, mean, tail, and sampling.

All samplers are driven by a numpy Generator so that one stream state yields
one output sequence; Deterministic draws consume no randomness at all, which
lets a Deterministic(n) stopped sum reproduce the fixed-n estimate bitwise.
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

    def sample(self, rng, size):
        return rng.poisson(self.lam, int(size)).astype(np.int64, copy=False)


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
