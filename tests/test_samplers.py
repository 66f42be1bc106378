"""Sampler tests: FGM conditional inversion and Zeta table-plus-analytic
inversion, against closed forms, the stream layout and a bisection."""

import warnings

import numpy as np
import pytest

from heavytails.copulas import FGM
from heavytails.counting import _TAU_CLAMP, Zeta
from heavytails.montecarlo import TAU_CAP
from heavytails.rng import block_stream

N = 2_000_000


class Fixed:
    """Stands in for a Generator: random() returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape):
        assert self.u.shape == (shape if isinstance(shape, tuple)
                                else (shape,))
        return self.u.copy()


FGMS = [FGM.bivariate(1.0), FGM.bivariate(-1.0), FGM(3, (0.5, -0.2, 0.2)),
        FGM(3, (0.4, -0.3, 0.2))]


@pytest.mark.parametrize("copula", FGMS, ids=lambda c: str(c.coeffs))
def test_fgm_draws_match_the_closed_form_cdf(copula):
    u = copula.sample(block_stream(11, 0), N)
    assert not np.isnan(u).any()
    assert u.min() >= 0.0 and u.max() <= 1.0
    # empirical cdf at every grid point: cumulative cell counts
    cuts = np.linspace(0.1, 0.9, 7 if copula.dim == 2 else 5)
    edges = [np.concatenate(([0.0], cuts, [1.0]))] * copula.dim
    cells, _ = np.histogramdd(u, bins=edges)
    for axis in range(copula.dim):
        cells = np.cumsum(cells, axis=axis)
    emp = cells[(slice(0, len(cuts)),) * copula.dim].ravel() / N
    points = np.stack(np.meshgrid(*[cuts] * copula.dim, indexing="ij"),
                      axis=-1).reshape(-1, copula.dim)
    exact = copula.cdf(points)
    z = (emp - exact) / np.sqrt(exact * (1.0 - exact) / N)
    assert np.abs(z).max() <= 5.0, np.abs(z).max()


@pytest.mark.parametrize("copula", FGMS, ids=lambda c: str(c.coeffs))
def test_fgm_consumes_exactly_dim_words_per_row(copula):
    count = 5000
    rng = block_stream(3, 7)
    u = copula.sample(rng, count)
    ref = block_stream(3, 7)
    words = ref.random(copula.dim * count)
    np.testing.assert_array_equal(u[:, 0], words[::copula.dim])
    np.testing.assert_array_equal(rng.random(4), ref.random(4))


def test_fgm_degenerate_corners_give_no_nan():
    # c = -1 with w = 0 (a 0/0 in the inverse), and a prefix density of zero
    # at a vertex: (u1, u2) = (0, 0) under a_12 = -1 has density 1 - 1 = 0
    rows = [[0.0, 0.0, 0.0], [0.0, 0.0, 0.5], [0.0, 0.0, 1 - 2 ** -53],
            [1 - 2 ** -53, 1 - 2 ** -53, 0.3], [0.0, 1 - 2 ** -53, 0.0]]
    for copula in (FGM(3, (-1.0, 0.0, 0.0)), FGM(3, (1.0, 0.0, 0.0))):
        u = copula.sample(Fixed(rows), len(rows))
        assert np.all((u >= 0.0) & (u < 1.0)), u
    u = FGM.bivariate(-1.0).sample(Fixed([[0.0, 0.0], [0.0, 1 - 2 ** -53]]),
                                   2)
    assert np.all((u >= 0.0) & (u < 1.0)), u


def bisection_draws(z, u):
    """The bisection Zeta sampler this package used before its table-plus-
    analytic inverse, fed the uniforms u. It is the original loop except
    that each round works only on draws whose bracket is still wider than
    one, which the original leaves unchanged anyway."""
    target = (1.0 - u) * z._norm
    clamp = float(_TAU_CLAMP)
    with np.errstate(over="ignore"):
        lead = (target * (z.s - 1.0)) ** (1.0 / (1.0 - z.s))
        hi = np.minimum(np.maximum(np.ceil(lead * 4.0 + 8.0), 8.0), clamp)
    while True:  # grow until suffix(hi+1) <= target everywhere (or clamped)
        bad = (z._suffix(hi + 1.0) > target) & (hi < clamp)
        if not np.any(bad):
            break
        hi = np.minimum(np.where(bad, hi * 2.0, hi), clamp)
    lo = np.zeros_like(hi)  # invariant: suffix(lo+1) > target >= suffix(hi+1)
    live = np.arange(len(u))
    for _ in range(128):
        live = live[hi[live] - lo[live] > 1.0]
        if not live.size:
            break
        lo_, hi_, t = lo[live], hi[live], target[live]
        mid = np.floor((lo_ + hi_) / 2.0)
        take_hi = (z._suffix(mid + 1.0) <= t) & (mid > lo_)
        hi[live] = np.where(take_hi, mid, hi_)
        lo[live] = np.where(take_hi | (mid <= lo_), lo_, mid)
    return np.maximum(np.minimum(hi, clamp), 1.0).astype(np.int64)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("s", [1.01, 1.2, 1.5, 2.0])
def test_zeta_draws_equal_the_bisection(s):
    z = Zeta(s)
    u = np.concatenate((block_stream(17, 0).random(N),
                        [0.0, 1e-300, 0.5, 1 - 2 ** -40, 1 - 2 ** -53]))
    got = z.sample(Fixed(u), len(u))
    want = bisection_draws(z, u)
    assert got.min() >= 1
    below = (got < 2 ** 40) & (want < 2 ** 40)
    np.testing.assert_array_equal(got[below], want[below])
    # far out the float suffix is flat; only the side of the cap matters
    assert np.all((got[~below] > TAU_CAP) & (want[~below] > TAU_CAP))


def test_zeta_sample_is_seeded_and_in_range():
    z = Zeta(1.2)
    a = z.sample(block_stream(4, 0), 10_000)
    b = z.sample(block_stream(4, 0), 10_000)
    np.testing.assert_array_equal(a, b)
    assert a.dtype == np.int64
    assert a.min() >= 1 and a.max() <= _TAU_CLAMP
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        Zeta(1.01).sample(block_stream(4, 1), 10_000)
