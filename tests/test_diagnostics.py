"""Diagnostics tests: closed forms, independent quadrature oracles, verdict logic."""

import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate

from heavytails import diagnostics as dg
from heavytails.copulas import (FGM, Comonotone, DependentModel, Independence,
                                joint_upper_survival)
from heavytails.distributions import (
    DiscreteAtoms,
    Exponential,
    GeometricAtomMixture,
    IntegratedTail,
    Lognormal,
    Pareto,
    ShiftedBy,
    Weibull,
)
from heavytails.errors import AssumptionViolated, InvalidInput


class TestVerdictLogic:
    def test_inside_band_consistent(self):
        stats = np.full(16, 1.01)
        assert dg.limit_verdict(stats, stats, 1.0, 0.05) == "consistent"

    def test_flat_outside_inconsistent(self):
        stats = np.full(16, 0.368)
        assert dg.limit_verdict(stats, stats, 1.0, 0.05) == "inconsistent"

    def test_straddle_inconclusive(self):
        stats = np.array([1.2, 1.1, 1.04, 1.06, 1.04, 1.06, 1.04, 1.06])
        assert dg.limit_verdict(stats, stats, 1.0, 0.05) == "inconclusive"

    def test_oscillation_through_band_inconsistent(self):
        stats = np.tile([1.5, 2.7], 8)
        assert dg.limit_verdict(stats, stats, 2.0, 0.05) == "inconsistent"

    def test_approaching_inconclusive(self):
        # clearly outside but closing fast: grid ran out, not a refutation
        stats = 1.0 + 2.0 * np.exp(-np.linspace(0, 3, 16))
        assert dg.limit_verdict(stats, stats, 1.0, 0.05) == "inconclusive"

    def test_bracket_too_wide_inconclusive(self):
        mid = np.full(12, 2.0)
        assert dg.limit_verdict(mid - 0.5, mid + 0.5, 2.0, 0.05) == "inconclusive"

    def test_bounded_flat_consistent(self):
        assert dg.bounded_verdict(np.full(20, 1.74), 0.05) == "consistent"

    def test_bounded_growth_inconsistent(self):
        assert dg.bounded_verdict(np.geomspace(1, 1e6, 20), 0.05) == "inconsistent"

    def test_empty_curve_inconclusive(self):
        assert dg.limit_verdict([], [], 1.0, 0.05) == "inconclusive"

    def test_inside_band_drifting_outward_inconclusive(self):
        # the last quarter, 0.99 then 1.04, sits inside [0.95, 1.05], but
        # its error grows from 0.01 to 0.04, by more than tol / 2 = 0.025
        stats = np.array([1.2, 1.1, 1.05, 1.02, 1.0, 0.99, 0.99, 1.04])
        assert dg.limit_verdict(stats, stats, 1.0, 0.05) == "inconclusive"

    @pytest.mark.parametrize("stats", [
        [], [2.0],
        # the base, the 60% point, is stats[2] of five
        [1.0, 1.0, math.inf, 1.0, 1.0], [1.0, 1.0, math.nan, 1.0, 1.0],
        [1.0, 1.0, 0.0, 1.0, 1.0], [1.0, 1.0, -1.0, 1.0, 1.0],
        # the end is 1.2 times the base: above 1 + tol, below 1.5
        [1.0, 1.0, 1.0, 1.0, 1.2],
    ], ids=["empty", "one-point", "inf-base", "nan-base", "zero-base",
            "negative-base", "between"])
    def test_bounded_undecided_inconclusive(self, stats):
        assert dg.bounded_verdict(stats, 0.05) == "inconclusive"

    def test_report_purity(self):
        # each verdict is its grader's, re-derived from the report's fields
        r = dg.long_tail(Pareto(1.0, 1.0))
        assert r.verdict == dg.limit_verdict(r.statistics, r.statistics,
                                             r.target_value, r.tolerance)
        r = dg.dominated(Weibull(0.5, 1.0))
        assert r.verdict == dg.bounded_verdict(r.statistics, r.tolerance)
        r = dg.subexponential(GeometricAtomMixture())
        assert r.verdict == dg.limit_verdict(r.stat_lower, r.stat_upper,
                                             r.target_value, r.tolerance)

    def test_report_statistic_per_probe(self):
        r = dg.long_tail(Pareto(1.0, 1.0))
        assert r.statistics.shape == r.probe_grid.shape

    def test_bad_verdict_rejected(self):
        with pytest.raises(InvalidInput):
            dg.ClassReport("L", [1.0], [1.0], "maybe", 0.05)


class TestLongTail:
    def test_pareto_closed_form(self):
        grid = np.geomspace(10.0, 1000.0, 13)  # hits 1000 exactly
        r = dg.long_tail(Pareto(1.0, 1.0), grid)
        assert r.verdict == "consistent"
        assert r.statistics[-1] == pytest.approx(1000.0 / 1001.0, rel=1e-12)

    def test_exponential_memoryless(self):
        r = dg.long_tail(Exponential(1.0))
        assert r.verdict == "inconsistent"
        np.testing.assert_allclose(r.statistics, math.exp(-1.0), rtol=1e-12)

    def test_mixture_halving_at_atoms(self):
        grid = np.array([2.0 ** (n + 1) - 1.5 for n in range(3, 13)])
        r = dg.long_tail(GeometricAtomMixture(), grid)
        assert r.verdict == "inconsistent"
        np.testing.assert_allclose(r.statistics, 0.5, rtol=0)


class TestDominated:
    def test_pareto_exactly_two_to_alpha(self):
        for alpha in (0.8, 1.0, 2.0):
            r = dg.dominated(Pareto(alpha, 1.0))
            assert r.verdict == "consistent"
            np.testing.assert_allclose(r.statistics, 2.0 ** alpha, rtol=1e-12)

    def test_weibull_unbounded(self):
        r = dg.dominated(Weibull(0.5, 1.0))
        assert r.verdict == "inconsistent"
        # closed form of the end statistic: exp(sqrt(x)(1 - sqrt(1/2)))
        x = r.probe_grid[-1]
        expected = math.exp(math.sqrt(x) * (1.0 - math.sqrt(0.5)))
        assert r.statistics[-1] == pytest.approx(expected, rel=1e-10)

    def test_lognormal_unbounded(self):
        assert dg.dominated(Lognormal(0.0, 1.0)).verdict == "inconsistent"


class TestSubexponential:
    def test_exponential_ratio_one_plus_x(self):
        grid = np.linspace(2.0, 9.0, 8)
        r = dg.subexponential(Exponential(1.0), grid, grid_step=0.002)
        assert r.verdict == "inconsistent"
        np.testing.assert_allclose(r.statistics, 1.0 + grid, rtol=0.01)

    def test_pareto_consistent(self):
        assert dg.subexponential(Pareto(1.5, 1.0)).verdict == "consistent"

    def test_mixture_dip_matches_frozen_constant(self):
        # on [1, 2047] the augmented probe set sees every tail jump, so the
        # running minimum reproduces the rational-arithmetic oracle exactly
        r = dg.subexponential(GeometricAtomMixture(), np.geomspace(1.0, 2047.0, 24))
        assert r.verdict == "inconsistent"
        assert r.running_min == 1.25
        assert 2.0 - r.running_min > 0.05

    def test_mixture_brackets_stay_exact_deep_in_the_tail(self):
        r = dg.subexponential(GeometricAtomMixture(), np.geomspace(1.0, 1e9, 24))
        np.testing.assert_array_equal(r.stat_lower, r.stat_upper)
        assert r.running_min == 1.25

    def test_rejects_nonpositive_grid(self):
        with pytest.raises(InvalidInput):
            dg.subexponential(Pareto(1.0, 1.0), np.array([-1.0, 2.0]))


def simpson_self_integral(d, x, n=4001):
    """Independent oracle: Simpson rule for ∫₀ˣ F̄(x-y)F̄(y)dy on a fixed grid."""
    ys = np.linspace(0.0, x, n)
    vals = np.asarray(d.tail(x - ys), dtype=float) * np.asarray(d.tail(ys),
                                                                dtype=float)
    return float(integrate.simpson(vals, x=ys))


class TestSstar:
    def test_pareto_two_consistent(self):
        r = dg.sstar(Pareto(2.0, 1.0), np.geomspace(10.0, 1000.0, 12))
        assert r.verdict == "consistent"
        assert abs(r.statistics[-1] - 1.0) < 0.05

    def test_quadrature_against_simpson(self):
        d = Pareto(2.0, 1.0)
        x = 50.0
        r = dg.sstar(d, np.array([20.0, 30.0, x]))
        integral = r.statistics[-1] * 2.0 * d.pos_mean() * d.tail(x)
        assert integral == pytest.approx(simpson_self_integral(d, x), rel=1e-6)

    def test_exponential_grows(self):
        grid = np.geomspace(2.0, 30.0, 10)
        r = dg.sstar(Exponential(1.0), grid)
        assert r.verdict == "inconsistent"
        # integral is exactly x e^{-x}, so the statistic is x/2
        np.testing.assert_allclose(r.statistics, grid / 2.0, rtol=1e-13)

    def test_infinite_mean_rejected(self):
        with pytest.raises(AssumptionViolated):
            dg.sstar(Pareto(0.5, 1.0))

    def test_atomic_exact_path(self):
        # finite atom law inside its support: statistic computed piecewise-exactly
        d = DiscreteAtoms(((1.0, 0.5), (2.0, 0.25), (4.0, 0.25)))
        r = dg.sstar(d, np.array([2.5, 3.0, 3.5]))
        x = 3.5
        ys = np.linspace(0.0, x, 200001)
        vals = np.asarray(d.tail(x - ys)) * np.asarray(d.tail(ys))
        riemann = float(np.trapezoid(vals, ys))
        integral = r.statistics[-1] * 2.0 * d.pos_mean() * float(d.tail(x))
        assert integral == pytest.approx(riemann, abs=2e-4)


def kink_aware_sstar(d, kinks, grid):
    """Reference sstar statistic: adaptive quadrature of the half-integral
    told every point where a factor of F̄(x-y)F̄(y) has a kink."""
    den = 2.0 * d.pos_mean() * np.asarray(d.tail(grid), dtype=float)
    vals = []
    for x in grid.tolist():
        points = sorted({p for k in kinks for p in (k, x - k)
                         if 0.0 < p < x / 2.0})
        half, _ = integrate.quad(
            lambda y: float(d.tail(x - y)) * float(d.tail(y)), 0.0, x / 2.0,
            points=points or None, epsabs=0.0, epsrel=1e-13, limit=500)
        vals.append(2.0 * half)
    return np.array(vals) / den


# each law with the points where its tail is not smooth
KINKED_LAWS = [
    (Pareto(1.5, 1.0), [1.0]),
    (Pareto(1.05, 1.0), [1.0]),
    (Pareto(3.0, 0.2), [0.2]),
    (Weibull(0.2, 1.0), [0.0]),
    (Weibull(0.5, 1.0), [0.0]),
    (Lognormal(0.0, 1.0), [0.0]),
    (Lognormal(0.0, 2.0), [0.0]),
    (ShiftedBy(Pareto(2.0, 1.0), -0.5), [0.5]),
    # support starts where the integrated Pareto tail reaches 1, at 2/3;
    # the base law's kink at 1 stays a kink of the second derivative
    (IntegratedTail(Pareto(2.5, 1.0)), [2.0 / 3.0, 1.0]),
]


@pytest.mark.parametrize("d,kinks", KINKED_LAWS, ids=[repr(d) for d, _ in
                                                      KINKED_LAWS])
def test_sstar_matches_the_kink_aware_reference(d, kinks):
    r = dg.sstar(d)
    np.testing.assert_allclose(r.statistics,
                               kink_aware_sstar(d, kinks, r.probe_grid),
                               rtol=1e-12, atol=0.0)


def test_sstar_memory_is_bounded_on_the_largest_grid():
    # 10,000 points is the most a lo/hi config grid spans; the pair
    # integral runs in passes of at most 2^20 nodes, 8 MiB per array
    grid = np.geomspace(2.0, 1e6, 10_000)
    tracemalloc.start()
    try:
        r = dg.sstar(Lognormal(0.0, 1.0), grid)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(np.isfinite(r.statistics))
    assert peak < 64 * 2 ** 20, peak / 2 ** 20


# the atom laws of the class-atoms and dense-atoms golden configs, each with
# its golden grid
CLASS_ATOMS = DiscreteAtoms(((0.5, 0.4), (2.0, 0.3), (7.0, 0.2), (40.0, 0.1)))
DENSE_ATOMS = DiscreteAtoms(tuple((k / 10, 0.005) for k in range(1, 201)))
ATOM_GRIDS = [(CLASS_ATOMS, np.geomspace(1.0, 30.0, 8)),
              (DENSE_ATOMS, np.geomspace(1.0, 15.0, 8))]


@pytest.mark.parametrize("d,grid", [
    (Pareto(1.5, 1.0), None), (Weibull(0.5, 1.0), None),
    (Lognormal(0.0, 1.0), None), (ShiftedBy(Pareto(2.5, 1.0), -1.0), None),
    ATOM_GRIDS[1]], ids=["pareto", "weibull", "lognormal", "shifted", "atoms"])
def test_sstar_point_does_not_depend_on_its_neighbours(d, grid):
    r = dg.sstar(d, grid=grid)
    g = r.probe_grid
    alone = [dg.sstar(d, grid=g[i:i + 1]).statistics[0] for i in range(len(g))]
    assert r.statistics.tolist() == alone


def fraction_sstar(atoms, x):
    """Exact ∫₀ˣ F̄(x-y)F̄(y)dy / (2 m⁺ F̄(x)) of a finite atom law, in
    rationals: both factors are constant between the points 0, x, every
    atom and x minus every atom."""
    atoms = [(Fraction(l), Fraction(m)) for l, m in atoms]
    x = Fraction(x)

    def tail(t):
        return sum((m for l, m in atoms if l > t), Fraction(0))

    pts = sorted({p for l, _ in atoms for p in (l, x - l) if 0 < p < x}
                 | {Fraction(0), x})
    integral = sum(((b - a) * tail((a + b) / 2) * tail(x - (a + b) / 2)
                    for a, b in zip(pts, pts[1:])), Fraction(0))
    m_plus = sum((l * m for l, m in atoms if l > 0), Fraction(0))
    return integral / (2 * m_plus * tail(x))


@pytest.mark.parametrize("d,grid", ATOM_GRIDS, ids=["class-atoms",
                                                    "dense-atoms"])
def test_atomic_sstar_matches_a_rational_enumeration(d, grid):
    r = dg.sstar(d, grid=grid)
    exact = np.array([float(fraction_sstar(d.atoms, x)) for x in grid])
    # measured 1.7e-16 (class-atoms) and 4.3e-16 (dense-atoms)
    np.testing.assert_allclose(r.statistics, exact, rtol=1e-14, atol=0.0)


def test_atomic_laws_default_to_the_atom_grids():
    mixture = GeometricAtomMixture()
    for check in (dg.long_tail, dg.dominated):
        assert check(mixture).probe_grid.tolist() == [
            2.0 ** (n + 1) - 1.5 for n in range(1, 11)]
    span = np.geomspace(1.0, 2047.0, 24)
    np.testing.assert_array_equal(
        dg.strong_subexponential(mixture).probe_grid, span)
    assert np.isin(span, dg.subexponential(mixture).probe_grid).all()
    # a finite law probes its own atoms: L and D 0.5 below each positive
    # one, or half the gap to the previous one when that is smaller, and
    # the others 24 points from the first to the last L and D point
    far = DiscreteAtoms(((-1.0, 0.25), (1.0, 0.25), (1.4, 0.25),
                         (4096.0, 0.25)))
    for check in (dg.long_tail, dg.dominated):
        np.testing.assert_allclose(check(far).probe_grid, [0.5, 1.2, 4095.5],
                                   rtol=1e-15)
    np.testing.assert_allclose(dg.sstar(far).probe_grid,
                               np.geomspace(1.0, 4095.5, 24), rtol=1e-15)
    # a shift moves the atoms, and the grids are read off the moved ones
    shifted = ShiftedBy(far, -1.2)
    np.testing.assert_allclose(dg.long_tail(shifted).probe_grid,
                               [-0.3, 4094.3], rtol=1e-15)
    np.testing.assert_allclose(dg.sstar(shifted).probe_grid,
                               np.geomspace(0.2, 4094.3, 24), rtol=1e-15)


@pytest.mark.parametrize("offset, first", [
    (0.5, 1.0), (3.0, 1.0), (-0.75, 1.0), (-1.0, 3.0), (-3.0, 7.0)])
def test_shifted_atom_mixture_span_starts_at_its_first_positive_atom(
        offset, first):
    # the span of S, Sstar and SstarStrong runs from the first atom of rho
    # the shift leaves positive to 2047, moved by the shift: a shift above
    # -1 moves [1, 2047] whole, as before
    law = ShiftedBy(GeometricAtomMixture(), offset)
    span = offset + np.geomspace(first, 2047.0, 24)
    np.testing.assert_array_equal(
        dg.strong_subexponential(law).probe_grid, span)
    assert np.isin(span, dg.subexponential(law).probe_grid).all()
    assert span[0] > 0.0


@pytest.mark.parametrize("offset", [0.0, 3.0, -0.25])
@pytest.mark.parametrize("d", [CLASS_ATOMS, DENSE_ATOMS],
                         ids=["class-atoms", "dense-atoms"])
def test_finite_atom_laws_read_every_check_on_their_own_grids(d, offset):
    # example11's grids run past the last atom, where every tail vanishes
    law = ShiftedBy(d, offset) if offset else d
    checks = (dg.long_tail, dg.dominated, dg.subexponential, dg.sstar,
              dg.strong_subexponential)
    verdicts = [check(law).verdict for check in checks]
    assert all(v in dg.VERDICTS for v in verdicts), verdicts
    # bounded support: the tail one step past the last L point is zero
    lt = dg.long_tail(law)
    assert lt.verdict == "inconsistent" and lt.statistics[-1] == 0.0


class TestWindowLaw:
    def test_fh_closed_form(self):
        got = dg.fh_tail(Pareto(2.0, 1.0), 1.0, 10.0)
        assert got == pytest.approx(1.0 / 10.0 - 1.0 / 11.0, rel=1e-12)

    def test_fh_upper_bound(self):
        for d in (Pareto(1.5, 1.0), Weibull(0.5, 1.0), Exponential(1.0)):
            for h in (1.0, 5.0, 50.0):
                for x in (0.5, 3.0, 20.0):
                    assert dg.fh_tail(d, h, x) <= min(1.0, h * float(d.tail(x))) + 1e-15

    def test_fh_elementwise(self):
        d, xs = Weibull(0.5, 1.0), np.array([0.5, 3.0, 20.0])
        assert dg.fh_tail(d, 5.0, xs).tolist() == [dg.fh_tail(d, 5.0, x)
                                                   for x in xs]

    def test_fh_makes_one_tail_integral_call(self, monkeypatch):
        d, xs = Pareto(1.5, 1.0), np.geomspace(1.0, 100.0, 50)
        calls = []
        real = Pareto.tail_integral
        monkeypatch.setattr(Pareto, "tail_integral",
                            lambda self, a, b: calls.append(1) or real(self, a, b))
        dg.fh_tail(d, 10.0, xs)
        assert len(calls) == 1

    def test_fh_validation(self):
        with pytest.raises(InvalidInput):
            dg.fh_tail(Pareto(1.0, 1.0), 0.5, 1.0)
        with pytest.raises(InvalidInput):
            dg.fh_tail(Pareto(1.0, 1.0), 1.0, 0.0)

    def test_strong_subexponential_pareto(self):
        # on the default grid every window curve ends within 10% of 2, though
        # the verdict may still be withheld; a deeper grid certifies it
        r = dg.strong_subexponential(Pareto(2.0, 1.0), tol=0.10)
        assert r.verdict != "inconsistent"
        for curve in r.curves.values():
            assert abs(curve[-1] - 2.0) / 2.0 < 0.10
        deep = dg.strong_subexponential(Pareto(2.0, 1.0),
                                        grid=np.geomspace(4.0, 1000.0, 24),
                                        tol=0.10)
        assert deep.verdict == "consistent"

    def test_strong_subexponential_pareto_tail_rounding_above_one(self):
        # a window-law envelope tail rounds to 1 + 2^-52 near the grid start;
        # both bracket ends are clamped to 1, so a verdict is issued where
        # "bracket out of order at x=4.64..." was raised
        r = dg.strong_subexponential(Pareto(1.5, 1.0))
        assert r.verdict == "inconclusive"
        assert np.all(r.stat_lower <= r.stat_upper)
        assert r.statistics[-1] == pytest.approx(2.155, abs=1e-3)


class TestIntegratedTail:
    def test_exponential_fixed_point(self):
        it = IntegratedTail(Exponential(1.0))
        for x in (0.5, 2.0, 5.0):
            assert it.tail(x) == pytest.approx(math.exp(-x), rel=1e-12)

    def test_pareto_reciprocal(self):
        it = IntegratedTail(Pareto(2.0, 1.0))
        assert it.tail(5.0) == pytest.approx(0.2, rel=1e-12)
        assert it.tail(0.5) == 1.0

    def test_tail_convex_on_tail_region(self):
        # start past the min(1, .) cap so the pure integral region is probed
        for base in (Pareto(2.0, 1.0), Weibull(0.5, 1.0)):
            it = IntegratedTail(base)
            xs = np.linspace(5.0, 50.0, 25)
            vals = np.asarray(it.tail(xs), dtype=float)
            second = np.diff(vals, 2)
            assert np.all(second >= -1e-10)
            assert np.all(np.diff(vals) <= 1e-15)

    def test_infinite_mean_rejected(self):
        with pytest.raises(AssumptionViolated):
            IntegratedTail(Pareto(1.0, 1.0))

    def test_strong_subexponential_window_curves(self):
        # the window law integrates the integrated tail over [x, x + h];
        # the figures come from an adaptive quad per window (epsrel 1.5e-8)
        r = dg.strong_subexponential(IntegratedTail(Pareto(2.5, 1.0)))
        assert r.verdict == "inconclusive"
        assert r.statistics[0] == pytest.approx(2.7294382493087124, rel=1e-8)
        assert r.statistics[-1] == pytest.approx(2.1265544716478306,
                                                 rel=1e-8)
        assert r.stat_lower[-1] == pytest.approx(2.1258453779614337,
                                                 rel=1e-8)
        assert r.stat_upper[-1] == pytest.approx(2.1272635653342276,
                                                 rel=1e-8)


class TestJointUpperSurvival:
    # thresholds below, inside and above the bulk of both marginals; the
    # shifted law puts mass on negative values, the Pareto law does not
    MARGINALS = (Pareto(1.5, 1.0), ShiftedBy(Pareto(2.0, 1.0), -2.0))
    LEVELS = (-5.0, -1.5, -0.5, 0.0, 0.7, 1.0, 2.5, 10.0, 300.0)

    @staticmethod
    def batch(dim):
        levels = TestJointUpperSurvival.LEVELS
        return np.array(np.meshgrid(*[levels] * dim)).reshape(dim, -1).T

    def model(self, copula):
        margs = tuple(self.MARGINALS[k % 2] for k in range(copula.dim))
        return DependentModel(copula, margs)

    def cases(self):
        a = (0.5, -0.3, 0.2)
        amat = np.array([[0.0, a[0], a[1]], [a[0], 0.0, a[2]],
                         [a[1], a[2], 0.0]])

        def fgm3(u):
            quad = sum(amat[i, j] * u[:, i] * u[:, j]
                       for i in range(3) for j in range(i + 1, 3))
            return np.prod(1.0 - u, axis=1) * (1.0 + quad)

        return [
            (FGM.bivariate(0.8), lambda u: (1.0 - u[:, 0]) * (1.0 - u[:, 1])
             * (1.0 + 0.8 * u[:, 0] * u[:, 1])),
            (FGM.bivariate(-1.0), lambda u: (1.0 - u[:, 0]) * (1.0 - u[:, 1])
             * (1.0 - u[:, 0] * u[:, 1])),
            # the survival copula of an FGM copula is the same FGM copula
            (FGM(3, a), fgm3),
            (Independence(2), lambda u: (1.0 - u[:, 0]) * (1.0 - u[:, 1])),
            (Comonotone(2), lambda u: np.minimum(1.0 - u[:, 0],
                                                 1.0 - u[:, 1])),
        ]

    def test_batch_equals_row_by_row_bit_for_bit(self):
        for copula, _ in self.cases():
            model = self.model(copula)
            xs = self.batch(copula.dim)
            got = joint_upper_survival(model, xs)
            assert isinstance(got, np.ndarray) and got.shape == (len(xs),)
            rows = [joint_upper_survival(model, x) for x in xs]
            assert all(isinstance(r, float) for r in rows)
            assert np.array_equal(got, np.array(rows)), copula

    def test_batch_matches_closed_forms(self):
        for copula, closed in self.cases():
            model = self.model(copula)
            xs = self.batch(copula.dim)
            u = np.column_stack([m.cdf(xs[:, k])
                                 for k, m in enumerate(model.marginals)])
            assert np.any(xs < 0) and np.any((u > 0) & (u < 1))
            np.testing.assert_allclose(joint_upper_survival(model, xs),
                                       closed(u), rtol=0, atol=1e-12)

    def test_rejects_a_threshold_shape_that_does_not_fit(self):
        model = self.model(Independence(2))
        for xs in ([1.0], np.ones((4, 3)), np.ones((2, 2, 2))):
            with pytest.raises(InvalidInput):
                joint_upper_survival(model, xs)


class TestDependenceDiagnostics:
    def test_fgm_h1_closed_form(self):
        d = Pareto(1.5, 1.0)
        a = 1.0
        model = DependentModel(FGM.bivariate(a), (d, d))
        grid = np.geomspace(5.0, 500.0, 12)
        r = dg.h1_report(model, (0, 1), grid)
        u = 1.0 - np.asarray(d.tail(grid), dtype=float)
        expected = (1.0 - u) * (1.0 + a * u * u) / 2.0
        # inclusion-exclusion in the survival evaluation cancels near u=1,
        # leaving absolute noise around 1e-13
        np.testing.assert_allclose(r.statistics, expected, rtol=1e-6, atol=1e-12)
        assert r.verdict == "consistent"

    def test_independence_h1_half_tail(self):
        d = Pareto(1.5, 1.0)
        model = DependentModel(Independence(2), (d, d))
        grid = np.geomspace(5.0, 500.0, 12)
        r = dg.h1_report(model, (0, 1), grid)
        np.testing.assert_allclose(
            r.statistics, np.asarray(d.tail(grid)) / 2.0, rtol=1e-6, atol=1e-12)
        assert r.verdict == "consistent"

    def test_comonotone_h1_half(self):
        d = Pareto(1.5, 1.0)
        model = DependentModel(Comonotone(2), (d, d))
        r = dg.h1_report(model)
        np.testing.assert_allclose(r.statistics, 0.5, rtol=1e-12)
        assert r.verdict == "inconsistent"

    def test_comonotone_h2_one(self):
        d = Pareto(1.5, 1.0)
        model = DependentModel(Comonotone(2), (d, d))
        r = dg.h2_report(model)
        assert r.verdict == "inconsistent"
        np.testing.assert_allclose(r.curves["ray=1:1"], 1.0, rtol=0)

    def test_h2_implies_h1_on_model_zoo(self):
        d = Pareto(1.5, 1.0)
        e = ShiftedBy(Pareto(2.0, 1.0), -1.0)
        zoo = [
            DependentModel(FGM.bivariate(1.0), (d, d)),
            DependentModel(FGM.bivariate(-0.7), (d, e)),
            DependentModel(Independence(2), (d, e)),
            DependentModel(Comonotone(2), (d, d)),
            DependentModel(FGM(3, (0.4, 0.4, 0.4)), (d, d, d)),
        ]
        for model in zoo:
            r2 = dg.h2_report(model, (0, 1))
            r1 = dg.h1_report(model, (0, 1))
            if r2.verdict == "consistent":
                assert r1.verdict == "consistent", type(model.copula).__name__

    def test_pair_validation(self):
        d = Pareto(1.5, 1.0)
        model = DependentModel(Independence(2), (d, d))
        with pytest.raises(InvalidInput):
            dg.h1_report(model, (0, 0))
        with pytest.raises(InvalidInput):
            dg.h2_report(model, (0, 5))


class TestClassHierarchy:
    def test_sstar_tagged_families_pass_weaker_diagnostics(self):
        # these families belong to the integral class S*, so the weaker
        # diagnostics must never refute them; slow convergers may read
        # inconclusive, the power laws must read consistent outright
        fams = [Pareto(1.5, 1.0), Pareto(2.0, 1.0), Lognormal(0.0, 1.0),
                Weibull(0.4, 1.0), Weibull(0.5, 1.0)]
        deep = np.geomspace(10.0, 3000.0, 24)
        for d in fams:
            # the default quantile window can be too shallow for a strict
            # call (hazards like ln x / x decay slowly); it must never refute
            assert dg.subexponential(d).verdict != "inconsistent", repr(d)
            assert dg.long_tail(d).verdict != "inconsistent", repr(d)
            # the bracket width scales with the lattice step, so the deep
            # window needs a pinned step to keep the whole last quarter
            # of brackets inside the band
            assert dg.subexponential(d, deep,
                                     grid_step=0.375).verdict == "consistent", repr(d)
            assert dg.long_tail(d, deep).verdict == "consistent", repr(d)
