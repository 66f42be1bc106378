"""Copulas, dependent random vectors, and joint survival algebra.

Three copula kinds cover the dependence range the experiments need:
Independence, Comonotone (perfect positive dependence, not absolutely
continuous), and the FGM family with density
1 + sum_{i<j} a_ij (1-2u_i)(1-2u_j). The density is multilinear in u, so its
extrema sit at the 2^n cube vertices; that makes the admissibility region an
exact finite computation. It also makes each
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
from .errors import InvalidInput, ModelConfigError

_SURVIVAL_DIM_CAP = 16
_TINY = np.finfo(float).tiny
_BELOW_ONE = np.nextafter(1.0, 0.0)  # inverse transforms take u in [0, 1)
_FGM_BATCH = 1 << 16    # rows per FGM conditional-inversion pass


class Copula:
    dim: int

    def cdf(self, u):
        """C(u) for u in [0,1]^dim; accepts a vector or a batch (m, dim)."""
        raise NotImplementedError

    def sample(self, rng: np.random.Generator, count: int,
               out: np.ndarray = None) -> np.ndarray:
        """(count, dim) uniforms; written into out, a C-contiguous (count,
        dim) float array, when one is given."""
        raise NotImplementedError

    @property
    def words_per_row(self) -> int:
        """64-bit stream words that one row of sample draws: one per
        coordinate, so count rows move the stream by count * words_per_row
        words, and bit_generator.advance of that many skips them."""
        return self.dim

    def subset(self, idx: tuple) -> "Copula":
        """Marginal copula of the coordinates idx (order preserved)."""
        raise NotImplementedError

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

    def sample(self, rng, count, out=None):
        return rng.random((int(count), self.dim), out=out)

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

    def sample(self, rng, count, out=None):
        one = rng.random(int(count))
        if out is None:
            out = np.empty((len(one), self.dim))
        out[:] = one[:, None]
        return out

    @property
    def words_per_row(self):
        return 1

    def subset(self, idx):
        return Comonotone(len(idx))


def _vertex_values(a: np.ndarray) -> tuple:
    """(values, signs): the density 1 + sum_{i<j} a_ij e_i e_j at every sign
    vertex e, the rows of signs in itertools.product((-1, 1), ...) order."""
    dim = a.shape[0]
    bits = (np.arange(2 ** dim)[:, None] >> np.arange(dim - 1, -1, -1)) & 1
    signs = 2.0 * bits - 1.0
    return 1.0 + 0.5 * ((signs @ a) * signs).sum(axis=1), signs


def fgm_admissible(a) -> tuple:
    """(admissible, witness): witness is a sign vertex with negative density, or None."""
    a = np.asarray(a, dtype=float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise InvalidInput("coefficient matrix must be square")
    if not np.all(np.isfinite(a)):
        raise InvalidInput("coefficients must be finite")
    if np.any(a != a.T):
        raise InvalidInput("coefficient matrix must be symmetric")
    if np.any(np.diag(a) != 0.0):
        raise InvalidInput("coefficient matrix must have zero diagonal")
    vals, signs = _vertex_values(a)
    k = int(np.argmin(vals))
    if vals[k] < 0.0:
        return False, tuple(signs[k].tolist())
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

    def sample(self, rng, count, out=None):
        """Sequential conditional inversion: exactly dim uniforms per row.

        Given U_1..U_{k-1}, U_k has density 1 + c (1 - 2u) on [0, 1] with
        c = sum_{i<k} a_ik v_i / (1 + sum_{i<j<k} a_ij v_i v_j), v = 1 - 2u;
        admissibility keeps |c| <= 1. Its cdf t + c t (1 - t) is inverted at
        the row's k-th uniform w in the cancellation-free form
        t = 2w / ((1 + c) + sqrt((1 + c)^2 - 4cw)). A zero prefix density
        (a zero-density vertex) gives c = 0, and c = -1 with w = 0 gives 0.
        The uniforms are one draw; the inversion runs over row batches of
        at most _FGM_BATCH, so its temporaries stay a few MiB whatever count.
        """
        u = rng.random((int(count), self.dim), out=out)
        for lo in range(0, len(u), _FGM_BATCH):
            self._invert(u[lo:lo + _FGM_BATCH])
        return u

    def _invert(self, u):
        """The conditional inversion of sample, in place over rows u.

        At k = 1 the prefix density is exactly 1 and |a_01 v_0| <= 1, so c
        is the product itself. The last coordinate feeds no later one, so v
        holds only the first dim - 1 columns.
        """
        last = self.dim - 1
        v = 1.0 - 2.0 * u[:, :last]
        num = c = v[:, 0] * self._mat[0, 1]
        dens = 1.0                  # density of the coordinates drawn so far
        # each step writes its intermediates into these, not fresh arrays
        root, t = np.empty(len(u)), np.empty(len(u))
        for k in range(1, self.dim):
            if k > 1:
                num = v[:, :k] @ self._mat[:k, k]
                c = np.divide(num, dens, out=np.zeros_like(num),
                              where=dens > 0.0)
                np.clip(c, -1.0, 1.0, out=c)
            w = u[:, k]
            b = 1.0 + c
            np.multiply(4.0, c, out=t)
            t *= w                                  # 4 c w
            np.multiply(b, b, out=root)
            root -= t
            np.sqrt(root, out=root)
            root += b
            np.maximum(root, _TINY, out=root)
            np.multiply(2.0, w, out=t)
            t /= root
            np.minimum(t, _BELOW_ONE, out=t)
            u[:, k] = t
            if k < last:
                v[:, k] = 1.0 - 2.0 * t
                dens = dens + v[:, k] * num

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
        """(count, dim) draws by inverse transform, written over the copula
        uniforms. Identical marginals transform all values in one pass;
        otherwise each column is transformed as a contiguous copy, which the
        vector kernels run faster than a strided view."""
        u = self.copula.sample(rng, count)
        if self.identical_marginals():
            return self.marginals[0].ppf_from_uniform(
                u.ravel()).reshape(u.shape)
        for k, m in enumerate(self.marginals):
            u[:, k] = m.ppf_from_uniform(u[:, k].copy())
        return u


def joint_upper_survival(model: DependentModel, xs):
    """P(X_1 > x_1, ..., X_n > x_n) by inclusion-exclusion over copula
    marginals. xs is one threshold vector, giving a float, or a batch
    (m, n), giving m values; each subset's own copula cdf serves the batch."""
    xs = np.asarray(xs, dtype=float)
    n = model.dim
    if xs.ndim not in (1, 2) or xs.shape[-1] != n:
        raise InvalidInput(f"need one threshold per coordinate, got shape {xs.shape}")
    if n > _SURVIVAL_DIM_CAP:
        raise InvalidInput(f"survival algebra capped at {_SURVIVAL_DIM_CAP} dimensions")
    rows = np.atleast_2d(xs)
    u = np.column_stack([m.cdf(rows[:, k]) for k, m in enumerate(model.marginals)])
    total = np.ones(len(rows))
    for r in range(1, n + 1):
        sign = (-1.0) ** r
        for subset in itertools.combinations(range(n), r):
            # a copula's one-dimensional marginals are uniform
            total += sign * (u[:, subset[0]] if r == 1
                             else model.copula.subset(subset).cdf(u[:, subset]))
    return Copula._ret(xs, np.clip(total, 0.0, 1.0))
