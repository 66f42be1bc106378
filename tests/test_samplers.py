"""Sampler tests: FGM conditional inversion, Zeta table-plus-analytic
inversion and Poisson table inversion, against closed forms, the stream
layout, the general inversion step, a bisection and the incomplete gamma
function; the one-pass inverse transform of identical marginals; and the
FGM admissibility check against a vertex-by-vertex loop."""

import itertools
import math
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy import special as sc
from scipy import stats

from heavytails import copulas
from heavytails.copulas import (Comonotone, DependentModel, FGM,
                                Independence, _vertex_values, fgm_admissible)
from heavytails.counting import (_POISSON_TABLE_MAX, _TAU_CLAMP,
                                 Deterministic, Geometric1, Poisson, Zeta)
from heavytails.distributions import (DiscreteAtoms, IntegratedTail, Pareto,
                                      ShiftedBy, Weibull)
from heavytails.montecarlo import TAU_CAP
from heavytails.rng import block_stream

N = 2_000_000


class Fixed:
    """Stands in for a Generator: random() returns the given uniforms."""

    def __init__(self, u):
        self.u = np.asarray(u, dtype=float)

    def random(self, shape, out=None):
        assert self.u.shape == (shape if isinstance(shape, tuple)
                                else (shape,))
        if out is None:
            return self.u.copy()
        out[:] = self.u
        return out


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


@pytest.mark.parametrize("copula", [
    FGM.bivariate(0.5), FGM.bivariate(-1.0), FGM(3, (0.5, -0.2, 0.2)),
    FGM(4, (0.2, 0.1, -0.1, 0.3, 0.15, -0.2))], ids=lambda c: str(c.coeffs))
def test_fgm_batches_give_the_one_pass_bits(copula, monkeypatch):
    # a count that is no multiple of the batch leaves a short last batch
    count = (1 << 18) + 7
    batched = copula.sample(block_stream(5, 1), count)
    monkeypatch.setattr(copulas, "_FGM_BATCH", count)
    assert np.array_equal(batched, copula.sample(block_stream(5, 1), count))


@pytest.mark.parametrize("copula", [
    Independence(2), Comonotone(3), FGM.bivariate(0.5),
    FGM(3, (0.5, -0.2, 0.2))], ids=repr)
def test_sample_into_a_view_gives_the_same_rows_and_words(copula):
    # rows drawn in two calls into views of one buffer are the rows of one
    # call, and the stream stops where it does
    buf = np.full(3 * 1000 * copula.dim, np.nan)
    head = buf[: 400 * copula.dim].reshape(400, -1)
    tail = buf[400 * copula.dim: 1000 * copula.dim].reshape(600, -1)
    rng = block_stream(7, 2)
    assert copula.sample(rng, 400, out=head) is head
    assert copula.sample(rng, 600, out=tail) is tail
    ref = block_stream(7, 2)
    assert np.array_equal(buf[: 1000 * copula.dim],
                          copula.sample(ref, 1000).ravel())
    assert np.isnan(buf[1000 * copula.dim:]).all()
    assert rng.random() == ref.random()


def general_step_inversion(copula, u):
    """FGM conditional inversion with the general step at every coordinate:
    the prefix density and the clipped ratio c formed even where they are
    exact identities."""
    a = copula.matrix
    u = u.copy()
    v = 1.0 - 2.0 * u
    dens = np.ones(len(u))
    for k in range(1, copula.dim):
        num = v[:, :k] @ a[:k, k]
        c = np.divide(num, dens, out=np.zeros_like(num), where=dens > 0.0)
        np.clip(c, -1.0, 1.0, out=c)
        w = u[:, k]
        b = 1.0 + c
        root = np.maximum(np.sqrt(b * b - 4.0 * c * w) + b, copulas._TINY)
        u[:, k] = np.minimum(2.0 * w / root, copulas._BELOW_ONE)
        v[:, k] = 1.0 - 2.0 * u[:, k]
        dens += v[:, k] * num
    return u


@pytest.mark.parametrize("copula", [
    FGM.bivariate(1.0), FGM.bivariate(-1.0), FGM.bivariate(0.3),
    FGM(3, (0.5, -0.2, 0.2)), FGM(3, (-1.0, 0.0, 0.0)),
    FGM(4, (0.2, 0.1, -0.1, 0.3, 0.15, -0.2))], ids=lambda c: str(c.coeffs))
def test_fgm_inversion_equals_the_general_step(copula):
    # at k = 1 the density is 1 and |c| <= 1, so skipping the division and
    # the clip there, and the update after the last coordinate, moves no bit
    count = 100_003
    words = block_stream(9, 4).random((count, copula.dim))
    assert np.array_equal(copula.sample(block_stream(9, 4), count),
                          general_step_inversion(copula, words))


@pytest.mark.parametrize("marginal", [
    Pareto(1.5, 1.0), Weibull(0.5, 1.0), ShiftedBy(Pareto(2.0, 1.0), -3.0),
    DiscreteAtoms(((1.0, 0.5), (2.0, 0.3), (5.0, 0.2))),
    IntegratedTail(Pareto(2.5, 1.0))], ids=repr)
def test_identical_marginals_transform_in_one_pass(marginal):
    # one inverse transform over all values gives each column's bits
    model = DependentModel(FGM(3, (0.5, -0.2, 0.2)), (marginal,) * 3)
    u = model.copula.sample(block_stream(2, 3), 4001)
    want = np.column_stack([marginal.ppf_from_uniform(u[:, k].copy())
                            for k in range(3)])
    assert np.array_equal(model.sample_vector(block_stream(2, 3), 4001), want)


def test_fgm_sampling_peaks_near_its_output():
    # the inversion temporaries cover one batch, not all rows
    tracemalloc.start()
    try:
        u = FGM.bivariate(0.5).sample(block_stream(5, 2), 1 << 21)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * u.nbytes, peak / u.nbytes


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


POISSON_MEANS = [0.0, 0.3, 2.0, 6.0, 100.0, _POISSON_TABLE_MAX]


@pytest.mark.parametrize("lam", POISSON_MEANS)
def test_poisson_draws_invert_the_table(lam):
    # the guide lookup settles each draw as a search of the whole table
    # does, on the entries themselves, the bucket edges j / M and the
    # uniforms one ulp either side of both
    p = Poisson(lam)
    cdf, guide, start = p._table
    edges = np.arange(len(guide)) / len(guide)
    u = np.concatenate((cdf, edges, block_stream(19, 0).random(N // 4),
                        [np.nextafter(1.0, 0.0)]))
    u = np.concatenate((u, np.nextafter(u, 0.0), np.nextafter(u, 2.0)))
    u = u[u < 1.0]
    got = p.sample(Fixed(u), len(u))
    assert got.dtype == np.int64
    np.testing.assert_array_equal(
        got, start + np.searchsorted(cdf, u, side="right"))


@pytest.mark.parametrize("lam", POISSON_MEANS)
def test_poisson_table_is_the_incomplete_gamma_cdf(lam):
    cdf, _, start = Poisson(lam)._table
    k = start + np.arange(len(cdf))
    want = sc.gammaincc(k + 1, lam) if lam else np.ones(len(k))
    np.testing.assert_allclose(cdf, want, rtol=0.0, atol=1e-12)
    assert np.all(np.diff(cdf) >= 0) and cdf[-1] == 1.0


@pytest.mark.parametrize("lam", [2.0, 100.0, _POISSON_TABLE_MAX])
def test_poisson_table_cuts_drop_less_than_half_an_ulp(lam):
    # P(tau < start) and P(tau > the last entry), in 40-digit arithmetic
    mpmath = pytest.importorskip("mpmath")
    cdf, _, start = Poisson(lam)._table
    last = start + len(cdf) - 1
    with mpmath.workdps(40):
        below = (mpmath.gammainc(start, lam, mpmath.inf, regularized=True)
                 if start else 0)
        above = mpmath.gammainc(last + 1, 0, lam, regularized=True)
    assert below < 2.0 ** -53 and above < 2.0 ** -53
    assert (start > 0) == (lam > 36.8)  # e^-lam < 2^-53


@pytest.mark.parametrize("lam", [2.0, 100.0])
def test_poisson_pmf_passes_a_chi_square_test(lam):
    draws = Poisson(lam).sample(block_stream(23, 0), N)
    dist = stats.poisson(lam)
    # one bin per value with at least 50 expected draws, one per tail
    ks = np.flatnonzero(N * dist.pmf(np.arange(int(4 * lam) + 40)) >= 50)
    lo, hi = int(ks[0]), int(ks[-1])
    observed = np.concatenate((
        [np.count_nonzero(draws < lo)],
        np.bincount(draws[(draws >= lo) & (draws <= hi)] - lo,
                    minlength=hi - lo + 1),
        [np.count_nonzero(draws > hi)]))
    expected = N * np.concatenate(([dist.cdf(lo - 1)],
                                   dist.pmf(np.arange(lo, hi + 1)),
                                   [dist.sf(hi)]))
    if lo == 0:  # no lower tail bin
        observed, expected = observed[1:], expected[1:]
    chi2 = float(np.sum((observed - expected) ** 2 / expected))
    assert stats.chi2.sf(chi2, len(observed) - 1) > 1e-3, chi2
    assert abs(draws.mean() - lam) < 4.0 * math.sqrt(lam / N)


def test_poisson_means_above_the_cap_keep_numpys_sampler():
    lam = _POISSON_TABLE_MAX + 1.0
    p = Poisson(lam)
    got = p.sample(block_stream(5, 0), 10_000)
    assert "_table" not in vars(p)
    assert got.dtype == np.int64 and got.min() >= 0
    np.testing.assert_array_equal(got,
                                  block_stream(5, 0).poisson(lam, 10_000))
    assert abs(got.mean() - lam) < 4.0 * math.sqrt(lam / 10_000)


@pytest.mark.parametrize("law, words", [
    (Poisson(0.0), 1), (Poisson(0.3), 1), (Poisson(4.0), 1),
    (Poisson(100.0), 1), (Poisson(_POISSON_TABLE_MAX), 1),
    (Geometric1(0.3), 1), (Geometric1(1e-300), 1), (Zeta(1.01), 1),
    (Zeta(1.5), 1), (Deterministic(5), 0), (Geometric1(1.0), 0)],
    ids=repr)
def test_counting_laws_draw_a_fixed_word_count(law, words):
    # drawing size lengths moves the stream as advancing words * size does
    for size in (1, 7, 16_384):
        rng = block_stream(9, 1)
        law.sample(rng, size)
        ref = block_stream(9, 1)
        ref.bit_generator.advance(words * size)
        np.testing.assert_array_equal(rng.random(4), ref.random(4))


def admissible_by_loop(a):
    """Vertex values and (admissible, witness), one sign vertex at a time."""
    vals = []
    for eps in itertools.product((-1.0, 1.0), repeat=a.shape[0]):
        e = np.array(eps)
        vals.append((1.0 + 0.5 * e @ a @ e, eps))
    worst = min(vals, key=lambda t: t[0])
    verdict = (False, worst[1]) if worst[0] < 0.0 else (True, None)
    return np.array([v for v, _ in vals]), verdict


def symmetric(dim, upper):
    a = np.zeros((dim, dim))
    a[np.triu_indices(dim, 1)] = upper
    return a + a.T


def admissibility_cases():
    rng = np.random.default_rng(8)
    cases = [symmetric(2, [1.0]), symmetric(2, [-1.0]), np.zeros((4, 4)),
             # a zero-density vertex at (1, 1, 1), and one below zero
             symmetric(3, [-0.5, -0.5, 0.0]),
             symmetric(3, [-0.5, -0.5, -0.25])]
    for dim in range(2, 7):
        pairs = dim * (dim - 1) // 2
        for scale in (0.3, 1.0):
            cases += [symmetric(dim, scale * rng.uniform(-1.0, 1.0, pairs))
                      for _ in range(4)]
        # every coefficient on the boundary a = +-1
        cases += [symmetric(dim, rng.choice([-1.0, 1.0], pairs))
                  for _ in range(3)]
    return cases


@pytest.mark.parametrize("a", admissibility_cases(),
                         ids=lambda a: f"d{a.shape[0]}")
def test_vertex_check_matches_the_loop(a):
    want_vals, want = admissible_by_loop(a)
    vals, _ = _vertex_values(a)
    np.testing.assert_allclose(vals, want_vals, rtol=0.0, atol=1e-12)
    assert fgm_admissible(a) == want


def test_vertex_cases_cover_both_verdicts_and_zero_density():
    verdicts = [admissible_by_loop(a) for a in admissibility_cases()]
    assert {ok for _, (ok, _) in verdicts} == {True, False}
    assert any(ok and vals.min() == 0.0 for vals, (ok, _) in verdicts)
