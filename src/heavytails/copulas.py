"""Copulas, dependent random vectors, and joint survival algebra.

Three copula kinds cover the dependence range the experiments need:
Independence, Comonotone (perfect positive dependence, not absolutely
continuous), and the FGM family with density
1 + sum_{i<j} a_ij (1-2u_i)(1-2u_j). The density is multilinear in u, so its
extrema sit at the 2^n cube vertices; that makes density bounds and the
admissibility region exact finite computations. It also makes each
conditional law of one coordinate given the earlier ones linear in u, so FGM
vectors are drawn by sequential conditional inversion: one uniform per
coordinate, no rejection and no data-dependent loop.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .counting import CountingLaw
from .distributions import Marginal
from .errors import AssumptionViolated, InvalidInput, ModelConfigError

_SURVIVAL_DIM_CAP = 16
_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)  # inverse transforms take u in [0, 1)


class Copula:
    dim: int

    def cdf(self, u):
        """C(u) for u in [0,1]^dim; accepts a vector or a batch (m, dim)."""
        raise NotImplementedError

    def density(self, u):
        raise NotImplementedError

    def density_bounds(self) -> tuple:
        """Exact (min, max) of the density over the cube."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, count: int) -> np.ndarray:
        raise NotImplementedError

    def subset(self, idx: tuple) -> "Copula":
        """Marginal copula of the coordinates idx (order preserved)."""
        raise NotImplementedError

    def head(self, k: int) -> "Copula":
        return self.subset(tuple(range(k)))

    def _check_u(self, u):
        arr = np.asarray(u, dtype=float)
        if arr.ndim == 1:
            arr = arr[None, :]
        if arr.ndim != 2 or arr.shape[1] != self.dim:
            raise InvalidInput(f"expected points in [0,1]^{self.dim}")
        if not np.all((arr >= 0.0) & (arr <= 1.0)):
            raise InvalidInput("copula arguments must lie in [0, 1]")
        return arr

    @staticmethod
    def _ret(u, vals):
        return float(vals[0]) if np.asarray(u).ndim == 1 else vals


@dataclass(frozen=True)
class Independence(Copula):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("dim must be at least 1")

    def cdf(self, u):
        arr = self._check_u(u)
        return self._ret(u, np.prod(arr, axis=1))

    def density(self, u):
        arr = self._check_u(u)
        return self._ret(u, np.ones(arr.shape[0]))

    def density_bounds(self):
        return (1.0, 1.0)

    def sample(self, rng, count):
        return rng.random((int(count), self.dim))

    def subset(self, idx):
        return Independence(len(idx))


@dataclass(frozen=True)
class Comonotone(Copula):
    dim: int

    def __post_init__(self):
        if self.dim < 1:
            raise InvalidInput("dim must be at least 1")

    def cdf(self, u):
        arr = self._check_u(u)
        return self._ret(u, np.min(arr, axis=1))

    def density(self, u):
        raise AssumptionViolated(
            "the comonotone copula is not absolutely continuous; it has no density"
        )

    def density_bounds(self):
        raise AssumptionViolated(
            "the comonotone copula is not absolutely continuous; it has no density"
        )

    def sample(self, rng, count):
        one = rng.random(int(count))
        return np.repeat(one[:, None], self.dim, axis=1)

    def subset(self, idx):
        return Comonotone(len(idx))


def _vertex_values(a: np.ndarray):
    """Density values 1 + sum a_ij e_i e_j over all sign vertices e."""
    dim = a.shape[0]
    vals = []
    for eps in itertools.product((-1.0, 1.0), repeat=dim):
        e = np.array(eps)
        vals.append((1.0 + 0.5 * e @ a @ e, eps))
    return vals


def fgm_admissible(a) -> tuple:
    """(admissible, witness): witness is a sign vertex with negative density, or None."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput("coefficient matrix must be square")
    if not np.allclose(a, a.T, atol=0.0):
        raise InvalidInput("coefficient matrix must be symmetric")
    if np.any(np.diag(a) != 0.0):
        raise InvalidInput("coefficient matrix must have zero diagonal")
    worst = min(_vertex_values(a), key=lambda t: t[0])
    if worst[0] < 0.0:
        return False, worst[1]
    return True, None


@dataclass(frozen=True)
class FGM(Copula):
    """FGM copula with pairwise coefficient matrix a (symmetric, zero diagonal)."""

    dim: int
    coeffs: tuple  # flattened upper triangle, row-major

    def __post_init__(self):
        if self.dim < 2:
            raise InvalidInput("FGM needs dimension at least 2")
        want = self.dim * (self.dim - 1) // 2
        coeffs = tuple(float(c) for c in np.atleast_1d(np.asarray(self.coeffs, dtype=float)))
        if len(coeffs) != want:
            raise InvalidInput(f"need {want} upper-triangle coefficients, got {len(coeffs)}")
        object.__setattr__(self, "coeffs", coeffs)
        ok, witness = fgm_admissible(self.matrix)
        if not ok:
            raise InvalidInput(
                f"inadmissible FGM coefficients: density is negative at sign vertex {witness}"
            )

    @classmethod
    def bivariate(cls, a: float) -> "FGM":
        return cls(2, (float(a),))

    @property
    def matrix(self) -> np.ndarray:
        a = np.zeros((self.dim, self.dim))
        it = iter(self.coeffs)
        for i in range(self.dim):
            for j in range(i + 1, self.dim):
                a[i, j] = a[j, i] = next(it)
        return a

    @cached_property
    def _mat(self):
        return self.matrix

    def cdf(self, u):
        arr = self._check_u(u)
        w = 1.0 - arr
        quad = 0.5 * np.einsum("bi,ij,bj->b", w, self._mat, w)
        return self._ret(u, np.prod(arr, axis=1) * (1.0 + quad))

    def density(self, u):
        arr = self._check_u(u)
        return self._ret(u, self._density_batch(arr))

    def _density_batch(self, arr):
        v = 1.0 - 2.0 * arr
        return 1.0 + 0.5 * np.einsum("bi,ij,bj->b", v, self._mat, v)

    def density_bounds(self):
        vals = [v for v, _ in _vertex_values(self._mat)]
        return (min(vals), max(vals))

    def sample(self, rng, count):
        """Sequential conditional inversion: exactly dim uniforms per row.

        Given U_1..U_{k-1}, U_k has density 1 + c (1 - 2u) on [0, 1] with
        c = sum_{i<k} a_ik v_i / (1 + sum_{i<j<k} a_ij v_i v_j), v = 1 - 2u;
        admissibility keeps |c| <= 1. Its cdf t + c t (1 - t) is inverted at
        the row's k-th uniform w in the cancellation-free form
        t = 2w / ((1 + c) + sqrt((1 + c)^2 - 4cw)). A zero prefix density
        (a zero-density vertex) gives c = 0, and c = -1 with w = 0 gives 0.
        """
        u = rng.random((int(count), self.dim))
        v = 1.0 - 2.0 * u
        dens = np.ones(len(u))      # density of the coordinates drawn so far
        for k in range(1, self.dim):
            num = v[:, :k] @ self._mat[:k, k]
            c = np.divide(num, dens, out=np.zeros_like(num), where=dens > 0.0)
            np.clip(c, -1.0, 1.0, out=c)
            w = u[:, k]
            b = 1.0 + c
            root = np.sqrt(b * b - 4.0 * c * w)
            root += b
            t = np.divide(2.0 * w, np.maximum(root, _TINY, out=root))
            u[:, k] = np.minimum(t, _BELOW_ONE, out=t)
            v[:, k] = 1.0 - 2.0 * t
            dens += v[:, k] * num
        return u

    def subset(self, idx):
        sub = self._mat[np.ix_(idx, idx)]
        tri = tuple(sub[i, j] for i in range(len(idx)) for j in range(i + 1, len(idx)))
        return FGM(len(idx), tri)


@dataclass(frozen=True)
class DependentModel:
    """A dependent random vector: copula plus one marginal per coordinate.

    An optional counting law tau turns it into a randomly stopped sequence;
    when tau exceeds the copula dimension, fresh independent copies of the
    copula block extend the sequence.
    """

    copula: Copula
    marginals: tuple
    tau: CountingLaw = None

    def __post_init__(self):
        margs = tuple(self.marginals)
        object.__setattr__(self, "marginals", margs)
        if len(margs) != self.copula.dim:
            raise ModelConfigError(
                f"{len(margs)} marginals for a copula of dimension {self.copula.dim}"
            )
        if not all(isinstance(m, Marginal) for m in margs):
            raise InvalidInput("marginals must be Marginal instances")

    @property
    def dim(self) -> int:
        return self.copula.dim

    def identical_marginals(self) -> bool:
        return all(m == self.marginals[0] for m in self.marginals[1:])

    def subset(self, idx: tuple) -> "DependentModel":
        return DependentModel(self.copula.subset(idx),
                              tuple(self.marginals[i] for i in idx), self.tau)

    def sample_vector(self, rng: np.random.Generator, count: int) -> np.ndarray:
        """(count, dim) draws assembled by inverse transform on copula uniforms."""
        u = self.copula.sample(rng, count)
        out = np.empty_like(u)
        for k, m in enumerate(self.marginals):
            out[:, k] = m.ppf_from_uniform(u[:, k])
        return out


def _subset_cdf(copula: Copula, subset: tuple, u: np.ndarray) -> float:
    """Marginal copula cdf on a coordinate subset, evaluated without rebuilding."""
    us = u[list(subset)]
    if isinstance(copula, Comonotone):
        return float(np.min(us))
    prod = float(np.prod(us))
    if isinstance(copula, FGM):
        w = 1.0 - us
        a = copula._mat[np.ix_(subset, subset)]
        return prod * (1.0 + 0.5 * float(w @ a @ w))
    if isinstance(copula, Independence):
        return prod
    return float(copula.subset(subset).cdf(us))


def joint_upper_survival(model: DependentModel, xs) -> float:
    """P(X_1 > x_1, ..., X_n > x_n) by inclusion-exclusion over copula marginals."""
    xs = np.asarray(xs, dtype=float)
    n = model.dim
    if xs.shape != (n,):
        raise InvalidInput(f"need one threshold per coordinate, got shape {xs.shape}")
    if n > _SURVIVAL_DIM_CAP:
        raise InvalidInput(f"survival algebra capped at {_SURVIVAL_DIM_CAP} dimensions")
    u = np.array([m.cdf(x) for m, x in zip(model.marginals, xs)])
    total = 1.0
    for r in range(1, n + 1):
        sign = (-1.0) ** r
        for subset in itertools.combinations(range(n), r):
            total += sign * _subset_cdf(model.copula, subset, u)
    return min(max(total, 0.0), 1.0)
