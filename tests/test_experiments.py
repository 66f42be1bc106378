"""Ratio-curve experiments: denominators, exact paths, verdicts, presets."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from heavytails import experiments as ex
from heavytails import montecarlo as mc
from heavytails.copulas import Comonotone, DependentModel, FGM, Independence
from heavytails.counting import Geometric1, Poisson, Zeta
from heavytails.distributions import (DiscreteAtoms, Exponential, Pareto,
                                      ShiftedBy, Weibull, quantile_grid)
from heavytails.errors import AssumptionViolated, InvalidInput
from heavytails.risk import presets, run_preset


def pareto_pair(alpha, copula=None):
    cop = copula if copula is not None else FGM.bivariate(1.0)
    return DependentModel(cop, (Pareto(alpha, 1.0), Pareto(alpha, 1.0)))


def single(f, tau=None):
    return DependentModel(Independence(1), (f,), tau=tau)


class TestDenominators:
    def test_n_tail_three_copies(self):
        # 3 * (1/10) for a unit-scale power tail with index one
        got = ex.Denominator("n_tail", n=3).values(single(Pareto(1.0, 1.0)),
                                                   10.0)
        assert got[0] == pytest.approx(0.3, rel=1e-15)

    def test_n_tail_rejects_bad_n(self):
        for n in (0, 2.5, True, math.nan, math.inf, "2", None):
            with pytest.raises(InvalidInput,
                               match="n_tail needs a positive integer n"):
                ex.Denominator("n_tail", n=n)

    def test_n_tail_stores_an_integer(self):
        for n in (2, 2.0, np.int64(2), np.float64(2.0)):
            den = ex.Denominator("n_tail", n=n)
            assert type(den.n) is int and den.describe() == "n_tail(n=2)"

    def test_discounted_geometric_thresholds(self):
        # Five identical unit-index tails under discount weights 1.05^-k,
        # at thresholds x*1.05^k, telescope into x^{-1} * sum of 1.05^{-k};
        # check against the explicit sum.
        model = DependentModel(Independence(5),
                               tuple(Pareto(1.0, 1.0) for _ in range(5)))
        den = ex.Denominator("sum_tails")
        weights = tuple(1.05 ** -k for k in range(1, 6))
        for x in (5.0, 50.0, 500.0):
            want = sum(1.05 ** -k for k in range(1, 6)) / x
            assert den.values(model, x, weights)[0] == pytest.approx(
                want, rel=1e-14)

    def test_mean_tau_tail_geometric(self):
        f = Pareto(0.8, 1.0)
        x = 25.0
        got = ex.Denominator("mean_tau_tail").values(
            single(f, Geometric1(0.5)), x)
        assert got[0] == 2.0 * f.tail(x)

    def test_mean_tau_tail_infinite_mean_flagged(self):
        with pytest.raises(AssumptionViolated):
            ex.Denominator("mean_tau_tail").values(
                single(Pareto(1.0, 1.0), Zeta(1.5)), 10.0)

    def test_denominator_kind_validation(self):
        with pytest.raises(InvalidInput):
            ex.Denominator("geometric")
        with pytest.raises(InvalidInput):
            ex.Denominator("n_tail")
        with pytest.raises(InvalidInput):
            ex.Denominator("discounted")

    def test_sum_tails_values_match_marginals(self):
        model = DependentModel(FGM(3, (0.5, 0.5, 0.5)),
                               (Pareto(0.8, 1.0), Pareto(0.8, 1.5),
                                Pareto(0.8, 2.0)))
        xs = np.array([10.0, 100.0])
        got = ex.Denominator("sum_tails").values(model, xs)
        want = [sum(m.tail(x) for m in model.marginals) for x in xs]
        assert np.allclose(got, want, rtol=1e-15)

    def test_weighted_sum_tails_are_the_weighted_terms_tails(self):
        model = DependentModel(FGM(3, (0.5, 0.5, 0.5)),
                               (Pareto(0.8, 1.0), Pareto(1.2, 1.5),
                                Pareto(2.0, 2.0)))
        xs = np.array([10.0, 100.0])
        den = ex.Denominator("sum_tails")
        # P(w X > x) = tail(x / w) for w > 0, and 0 deep in the tail else
        got = den.values(model, xs, (2.0, 0.0, -1.0))
        assert np.array_equal(got, model.marginals[0].tail(xs / 2.0))
        assert np.array_equal(den.values(model, xs, (1.0, 1.0, 1.0)),
                              den.values(model, xs))
        with pytest.raises(InvalidInput, match="positive weight"):
            den.values(model, xs, (0.0, -1.0, -0.0))

    def test_weighted_fgm_pareto_curve_reads_consistent(self):
        # X1 + X2 / 2 on unit-index Pareto: tail 1.5 / x against a weighted
        # denominator of 1 / x + 0.5 / x, so the ratio tends to one
        curve = ex.run_experiment(
            pareto_pair(1.0), "SumN", ex.Denominator("sum_tails"),
            x_grid=np.geomspace(5.0, 500.0, 8), samples=20_000, seed=13,
            weights=(1.0, 0.5), numerator="mc")
        assert curve.points[-1].denominator == pytest.approx(1.5 / 500.0)
        assert curve.verdict == "consistent"

    def test_grid_values_equal_pointwise_values_bit_for_bit(self):
        model = DependentModel(Independence(3),
                               (Pareto(0.8, 1.0), Pareto(1.2, 1.5),
                                ShiftedBy(Pareto(2.0, 1.0), -1.0)),
                               tau=Geometric1(0.25))
        xs = np.geomspace(0.5, 5e4, 37)
        discount = tuple(1.05 ** -k for k in range(1, 4))
        for den, weights in ((ex.Denominator("sum_tails"), None),
                             (ex.Denominator("n_tail", n=3), None),
                             (ex.Denominator("mean_tau_tail"), None),
                             (ex.Denominator("sum_tails"), discount)):
            want = np.array([den.values(model, float(x), weights)[0]
                             for x in xs])
            assert np.array_equal(den.values(model, xs, weights),
                                  want), den.kind

    def test_claim_and_run_options_reject_bad_values(self):
        den = ex.Denominator("sum_tails")
        with pytest.raises(InvalidInput, match="semantics"):
            ex.Claim("SumN", "bogus", den)
        # the options are checked when the experiment is built, before it
        # sees a model or a grid
        model = pareto_pair(1.0)
        with pytest.raises(InvalidInput, match="numerator"):
            ex.experiment(model, "SumN", den, numerator="maybe",
                          tolerance=0.05)
        with pytest.raises(InvalidInput, match="tolerance"):
            ex.experiment(model, "SumN", den, numerator="auto",
                          tolerance=0.0)
        ex.experiment(model, "SumN", den, numerator="mc", tolerance=0.05)

    def test_claim_parses_its_quantity_where_it_is_written(self):
        den = ex.Denominator("sum_tails")
        with pytest.raises(InvalidInput, match="unknown quantity 'SumNN'"):
            ex.Claim("SumNN", "lim", den)
        assert ex.Claim("SumTau", "lim", den).quantity is mc.SumTau
        assert ex.Claim(mc.MaxN, "lim", den).quantity is mc.MaxN


class TestComonotoneSumExact:
    """The two-copy comonotone sum doubles one coordinate, so its tail is
    the marginal tail at x/2 and the ratio to one tail is 2^alpha."""

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_dyadic_grid_bit_exact(self, alpha):
        model = pareto_pair(alpha, Comonotone(2))
        xs = np.array([4.0 ** k for k in range(1, 7)])
        curve = ex.run_experiment(
            model, "SumN", ex.Denominator("n_tail", n=1), x_grid=xs,
            numerator="exact", predicted=2.0 ** alpha, tolerance=1e-9,
            experiment_id="comonotone-double")
        assert np.all(curve.ratios == 2.0 ** alpha)
        assert curve.verdict == "consistent"
        assert all(p.stderr == 0.0 for p in curve.points)
        assert curve.samples == 0

    @pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
    def test_arbitrary_grid_to_float_precision(self, alpha):
        model = pareto_pair(alpha, Comonotone(2))
        xs = np.geomspace(2.0, 1e6, 101)
        curve = ex.run_experiment(
            model, "SumN", ex.Denominator("n_tail", n=1), x_grid=xs,
            numerator="exact", predicted=2.0 ** alpha)
        np.testing.assert_allclose(curve.ratios, 2.0 ** alpha, rtol=5e-16)

    def test_exact_requires_identical_marginals(self):
        model = DependentModel(Comonotone(2),
                               (Pareto(1.0, 1.0), Pareto(2.0, 1.0)))
        with pytest.raises(InvalidInput):
            ex.run_experiment(model, "SumN", ex.Denominator("n_tail", n=1),
                              x_grid=np.array([8.0]), numerator="exact")


class TestExactMaxCurve:
    def test_bivariate_fgm_matches_closed_form(self):
        # 1 - C(u,u) over 2(1-u) with C(u,u) = u^2(1 + a(1-u)^2) reduces
        # to (1+u)/2 - a u^2 (1-u)/2. Verify the copula algebra path.
        curves = run_preset("T3.3", seed=0)
        assert len(curves) == 1
        c = curves[0]
        f = Pareto(1.5, 1.0)
        u = np.array([1.0 - f.tail(p.x) for p in c.points])
        want = (1.0 + u) / 2.0 - u * u * (1.0 - u) / 2.0
        np.testing.assert_allclose(c.ratios, want, rtol=1e-10)
        assert c.verdict == "consistent"
        assert abs(c.ratios[-1] - 1.0) <= 6e-4

    def test_monotone_approach_over_last_decade(self):
        c = run_preset("T3.3", seed=0)[0]
        xs = c.grid
        tail_idx = xs >= xs[-1] / 10.0
        assert np.all(np.diff(c.ratios[tail_idx]) >= 0.0)

    def test_exact_unavailable_for_stopped_quantities(self):
        model = DependentModel(Independence(2),
                               (Pareto(1.5, 1.0), Pareto(1.5, 1.0)),
                               tau=Poisson(2.0))
        with pytest.raises(InvalidInput):
            ex.run_experiment(model, "SumTau", ex.Denominator("mean_tau_tail"),
                              x_grid=np.array([10.0]), numerator="exact")

    def test_exact_unavailable_beyond_three_dims(self):
        model = DependentModel(Independence(4),
                               tuple(Pareto(1.5, 1.0) for _ in range(4)))
        with pytest.raises(InvalidInput):
            ex.run_experiment(model, "MaxN", ex.Denominator("sum_tails"),
                              x_grid=np.array([10.0]), numerator="exact")


class TestExactVersusMonteCarlo:
    def test_max_estimates_bracket_exact_curve(self):
        model = pareto_pair(1.5)
        xs = np.geomspace(3.0, 300.0, 8)
        den = ex.Denominator("sum_tails")
        exact = ex.run_experiment(model, "MaxN", den, x_grid=xs,
                                  numerator="exact")
        mc = ex.run_experiment(model, "MaxN", den, x_grid=xs, numerator="mc",
                               samples=200_000, seed=5)
        for pe, pm in zip(exact.points, mc.points):
            slack = 4.0 * max(pm.stderr, 1e-12)
            assert abs(pm.numerator - pe.numerator) <= slack

    def test_comonotone_sum_estimates_bracket_exact_curve(self):
        model = pareto_pair(1.0, Comonotone(2))
        xs = np.geomspace(4.0, 1e4, 5)
        den = ex.Denominator("n_tail", n=1)
        exact = ex.run_experiment(model, "SumN", den, x_grid=xs,
                                  numerator="exact")
        mc = ex.run_experiment(model, "SumN", den, x_grid=xs, numerator="mc",
                               samples=100_000, seed=6)
        for pe, pm in zip(exact.points, mc.points):
            assert abs(pm.numerator - pe.numerator) <= 4.0 * max(pm.stderr,
                                                                 1e-12)

    @pytest.mark.parametrize("copula, quantity", [
        (FGM.bivariate(1.0), "MaxN"), (Comonotone(2), "SumN")])
    def test_weights_leave_no_closed_form(self, copula, quantity):
        # the closed forms are of the unweighted statistics: with weights
        # [3, 3] auto must simulate, and exact has nothing to compute
        model = pareto_pair(1.5, copula)
        den = ex.Denominator("sum_tails")
        kw = dict(x_grid=[5.0], samples=20_000, seed=1, weights=(3.0, 3.0))
        auto = ex.run_experiment(model, quantity, den, **kw)
        assert auto.samples == 20_000
        assert auto == ex.run_experiment(model, quantity, den, numerator="mc",
                                         **kw)
        # 3 X_1 + 3 X_2 > 5 always, since Pareto(1.5, 1) draws exceed one
        if quantity == "SumN":
            assert auto.points[0].numerator == 1.0
        with pytest.raises(InvalidInput, match="no closed form"):
            ex.run_experiment(model, quantity, den, numerator="exact", **kw)


class TestVerdictSemantics:
    """Graded on exact constant curves, so the outcomes are deterministic."""

    @staticmethod
    def _constant_two_curve(**kw):
        model = pareto_pair(1.0, Comonotone(2))
        xs = np.array([4.0 ** k for k in range(1, 7)])
        return ex.run_experiment(model, "SumN",
                                 ex.Denominator("n_tail", n=1), x_grid=xs,
                                 numerator="exact", **kw)

    def test_lim_consistent_at_true_limit(self):
        c = self._constant_two_curve(predicted=2.0, tolerance=0.05)
        assert c.verdict == "consistent"

    def test_lim_inconsistent_at_wrong_limit(self):
        c = self._constant_two_curve(predicted=1.0, tolerance=0.05)
        assert c.verdict == "inconsistent"

    def test_liminf_consistent(self):
        c = self._constant_two_curve(predicted=2.0, tolerance=0.05,
                                     semantics="liminf")
        assert c.verdict == "consistent"

    def test_liminf_inconsistent_when_curve_dips_below(self):
        c = self._constant_two_curve(predicted=3.0, tolerance=0.05,
                                     semantics="liminf")
        assert c.verdict == "inconsistent"

    def test_liminf_inconclusive_without_witness(self):
        # The curve never comes near 1.5 from above, so a liminf of 1.5 is
        # neither witnessed nor contradicted.
        c = self._constant_two_curve(predicted=1.5, tolerance=0.05,
                                     semantics="liminf")
        assert c.verdict == "inconclusive"

    def test_divergence_consistent_past_bound(self):
        c = self._constant_two_curve(semantics="divergence",
                                     divergence_bound=1.5)
        assert c.verdict == "consistent"
        assert math.isinf(c.predicted_limit)

    def test_divergence_inconsistent_below_bound(self):
        c = self._constant_two_curve(semantics="divergence",
                                     divergence_bound=10.0)
        assert c.verdict == "inconsistent"

    def test_running_min_tracks_cumulative_minimum(self):
        curves = run_preset("T3.3", seed=0)
        c = curves[0]
        rm = np.minimum.accumulate(c.ratios)
        assert np.allclose([p.running_min for p in c.points], rm, rtol=0)

    def test_bad_arguments_rejected(self):
        model = pareto_pair(1.0, Comonotone(2))
        xs = np.array([4.0, 16.0])
        den = ex.Denominator("n_tail", n=1)
        with pytest.raises(InvalidInput):
            ex.run_experiment(model, "SumN", den, x_grid=xs,
                              semantics="limsup")
        with pytest.raises(InvalidInput):
            ex.run_experiment(model, "SumN", den, x_grid=xs,
                              numerator="guess")
        with pytest.raises(InvalidInput):
            ex.run_experiment(model, "SumN", den, x_grid=xs, tolerance=0.0)
        with pytest.raises(InvalidInput):
            ex.run_experiment(model, "SumN", den,
                              x_grid=np.array([16.0, 4.0]))

    def test_vanishing_denominator_rejected(self):
        atoms = DiscreteAtoms(((1.0, 0.5), (2.0, 0.5)))
        model = DependentModel(Independence(2), (atoms, atoms))
        with pytest.raises(InvalidInput):
            ex.run_experiment(model, "SumN", ex.Denominator("n_tail", n=1),
                              x_grid=np.array([5.0]), samples=1000)


NO_HITS = "no tail hits at the grid end; increase samples or shorten the grid"


def _relative_error_liminf(ratios, rel, predicted, tol):
    """The liminf rule as first written, on relative stderrs rel = se / num:
    kept as the reference the interval rule restates."""
    band_lo, band_hi = predicted * (1.0 - tol), predicted * (1.0 + tol)
    run = np.minimum.accumulate(ratios)
    i_min = int(np.argmin(ratios))
    noise_min = ex.Z95 * rel[i_min] * max(ratios[i_min], 0.0)
    if run[-1] + noise_min < band_lo:
        return "inconsistent"
    witness = ratios - ex.Z95 * rel * np.abs(ratios)
    if run[-1] >= band_lo - noise_min and np.any(witness <= band_hi):
        return "consistent"
    return "inconclusive"


class TestIntervalVerdicts:
    """Every verdict reads the printed interval; no hits at the grid end
    reads inconclusive under every semantics."""

    def test_liminf_restates_the_relative_error_rule(self):
        # curves with hits at every point, predicted > 0 and no ci_high
        # clipped at 1, where (num -/+ Z95 se) / den is ratio -/+ Z95 rel
        # ratio
        rng = np.random.default_rng(20011)
        seen = set()
        for _ in range(5000):
            points = int(rng.integers(2, 13))
            samples = int(rng.integers(100, 10 ** 6))
            hits = np.sort(rng.integers(1, samples // 50 + 2, points))[::-1]
            num = hits / samples
            se = np.sqrt(num * (1.0 - num) / samples)
            predicted = float(rng.uniform(0.2, 5.0))
            tol = float(rng.uniform(0.01, 0.3))
            den = num / (predicted * np.exp(rng.normal(0.0, 0.3, points)))
            lo, hi = ex.wald_interval(num, se)
            assert np.all(num + ex.Z95 * se < 1.0)
            ratios = num / den
            got = ex._verdict("liminf", ratios, lo / den, hi / den,
                              predicted, tol, None)
            assert got == _relative_error_liminf(ratios, se / num, predicted,
                                                 tol)
            seen.add(got)
        assert seen == {"consistent", "inconsistent", "inconclusive"}

    def test_zero_hit_liminf_curves_are_inconclusive_without_warnings(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curves = ex.PRESETS["T3.2"].run(samples=16400, seed=0)
        assert [c.verdict for c in curves] == ["inconclusive"] * 2
        assert all(c.points[-1].numerator == 0 for c in curves)
        assert all(c.notes[-1] == NO_HITS for c in curves)

    @pytest.mark.parametrize("semantics", ex.SEMANTICS)
    def test_no_hits_at_the_grid_end_is_inconclusive(self, semantics):
        curve = ex.run_experiment(
            pareto_pair(1.0, Independence(2)), "SumN",
            ex.Denominator("n_tail", n=1), x_grid=[2.0, 1e9], samples=1000,
            seed=0, semantics=semantics, divergence_bound=0.5)
        assert [p.numerator > 0 for p in curve.points] == [True, False]
        assert curve.verdict == "inconclusive"
        assert curve.notes == (NO_HITS,)


class TestEquivalence:
    """equivalent: every graded interval inside the band, out of band of
    the verdict, which asks only that each interval meet it."""

    curve = staticmethod(TestVerdictSemantics._constant_two_curve)

    def test_exact_curve_inside_the_band(self):
        assert self.curve(predicted=2.0, tolerance=0.05).equivalent is True
        assert self.curve(predicted=1.0, tolerance=0.05).equivalent is False

    def test_only_lim_claims_carry_it(self):
        for semantics in ("liminf", "divergence"):
            curve = self.curve(predicted=2.0, tolerance=0.05,
                               semantics=semantics)
            assert curve.equivalent is None, semantics

    def test_only_the_graded_points_count_and_the_edges_are_inside(self):
        curve = self.curve(predicted=2.0, tolerance=0.5)
        points = list(curve.points)
        assert len(points) == 6      # graded on the last max(2, 6 // 4) = 2

        def with_interval(i, lo, hi):
            moved = points.copy()
            moved[i] = dataclasses.replace(points[i], ci_low=lo, ci_high=hi)
            return dataclasses.replace(curve, points=tuple(moved))

        below, above = np.nextafter(1.0, 0.0), np.nextafter(3.0, 4.0)
        assert with_interval(3, 0.1, 9.0).equivalent is True
        assert with_interval(4, 1.0, 3.0).equivalent is True
        assert with_interval(4, below, 3.0).equivalent is False
        assert with_interval(5, 1.0, above).equivalent is False

    def test_each_presets_value_at_its_own_budget(self):
        # seed 0, workers 2: T3.1 holds 4 of its 6 graded intervals inside
        # the band, T4.3 2 of 6 and T4.4ii 3 of 6; all read consistent
        want = {"T3.1:SumN": False, "T3.1:RunMaxN": False,
                "T3.2:SumN": None, "T3.2:RunMaxN": None, "T3.3": True,
                "C3.1:SumN": True, "C3.1:RunMaxN": True, "T4.1": True,
                "T4.2:MaxTau": None, "T4.2:SumTau": None, "T4.3": False,
                "T4.4i:RunMaxTau": True, "T4.4i:SumTau": True,
                "T4.4ii:RunMaxTau": False, "T4.4ii:SumTau": False,
                "C5.1": True, "C5.2": True}
        curves = [c for preset_id in presets()
                  for c in run_preset(preset_id, seed=0, workers=2)]
        assert {c.experiment_id: c.equivalent for c in curves} == want
        assert {c.verdict for c in curves} == {"consistent"}


class TestSampleSizeGate:
    def test_starved_run_is_inconclusive_with_advice(self):
        model = pareto_pair(0.8)
        xs = np.geomspace(10.0, 1e5, 8)
        c = ex.run_experiment(model, "SumN", ex.Denominator("n_tail", n=2),
                              x_grid=xs, samples=2000, seed=3)
        assert c.verdict == "inconclusive"
        assert any("samples" in n for n in c.notes)


class TestPathwiseOrdering:
    def test_sum_ratio_below_running_max_ratio(self):
        model = pareto_pair(0.8)
        xs = np.geomspace(10.0, 1e4, 6)
        den = ex.Denominator("n_tail", n=2)
        c_sum = ex.run_experiment(model, "SumN", den, x_grid=xs,
                                  samples=100_000, seed=9)
        c_run = ex.run_experiment(model, "RunMaxN", den, x_grid=xs,
                                  samples=100_000, seed=9)
        assert np.all(c_sum.ratios <= c_run.ratios)


class TestVerdictStability:
    def test_doubling_samples_keeps_verdicts(self):
        model = pareto_pair(0.8)
        xs = np.geomspace(10.0, 1e4, 12)
        den = ex.Denominator("n_tail", n=2)
        for seed in (3, 4, 5):
            v1 = ex.run_experiment(model, "SumN", den, x_grid=xs,
                                   samples=300_000, seed=seed,
                                   tolerance=0.1).verdict
            v2 = ex.run_experiment(model, "SumN", den, x_grid=xs,
                                   samples=600_000, seed=seed,
                                   tolerance=0.1).verdict
            assert v1 == v2 == "consistent"


class TestTheoremSuite:
    def test_registry_ids(self):
        assert set(ex.PRESETS) == {"T3.1", "T3.2", "T3.3", "C3.1", "T4.1",
                                   "T4.2", "T4.3", "T4.4i", "T4.4ii"}

    def test_unknown_id_rejected(self):
        with pytest.raises(InvalidInput):
            run_preset("T9.9")

    def test_presets_satisfy_their_own_hypotheses(self):
        for tid, preset in ex.PRESETS.items():
            _, checked = preset.check(preset.model)
            assert all(notes == () for _, _, notes in checked), tid

    def test_single_claim_uses_bare_id(self):
        c = run_preset("T4.1", samples=50_000, seed=11)
        assert len(c) == 1 and c[0].experiment_id == "T4.1"

    def test_multi_claim_ids_carry_quantity(self):
        curves = run_preset("T3.2", samples=50_000, seed=11)
        assert [c.experiment_id for c in curves] == ["T3.2:SumN",
                                                     "T3.2:RunMaxN"]

    def test_claims_share_one_pass_and_match_single_runs(self, monkeypatch):
        # comonotone identical marginals give SumN a closed form, so only
        # RunMaxN is simulated, in one engine call for the whole suite
        d = Pareto(0.8, 1.0)
        model = DependentModel(Comonotone(2), (d, d))
        calls = []
        real = mc.estimate_tails

        def spy(model, quantities, *args, **kwargs):
            calls.append([q.token for q in quantities])
            return real(model, quantities, *args, **kwargs)

        monkeypatch.setattr(mc, "estimate_tails", spy)
        curves = run_preset("C3.1", model=model, samples=20_000, seed=4)
        assert calls == [["RunMaxN"]]
        assert [c.samples for c in curves] == [0, 20_000]
        preset = ex.PRESETS["C3.1"]
        for claim, curve in zip(preset.claims, curves):
            [alone] = dataclasses.replace(
                preset, preset_id=curve.experiment_id, claims=(claim,)).run(
                model=model, x_grid=curve.grid, samples=20_000, seed=4)
            assert alone == curve

    @pytest.mark.parametrize("preset_id", ["C3.1", "T4.4i"])
    def test_curves_form_rates_from_the_engine_hits(self, preset_id,
                                                    monkeypatch):
        # the engine returns int64 hit counts, one row per simulated claim;
        # each curve's numerator is hits / n and its stderr the binomial
        # one, bit for bit
        returned = []
        real = mc.estimate_tails

        def spy(*args, **kwargs):
            returned.append(real(*args, **kwargs))
            return returned[-1]

        monkeypatch.setattr(mc, "estimate_tails", spy)
        n = 4096
        curves = ex.PRESETS[preset_id].run(samples=n, seed=3)
        [(hits, notes)] = returned
        assert notes == ()
        assert hits.dtype == np.int64
        assert hits.shape == (len(curves), len(curves[0].points))
        for row, curve in zip(hits, curves):
            p_hat = row / n
            assert curve.samples == n
            assert [p.numerator for p in curve.points] == p_hat.tolist()
            assert [p.stderr for p in curve.points] == np.sqrt(
                p_hat * (1.0 - p_hat) / n).tolist()

    def test_reduced_sample_run_consistent(self):
        c = run_preset("T4.1", samples=200_000, seed=11)[0]
        assert c.verdict == "consistent"
        assert c.semantics == "lim"
        assert c.denominator == "mean_tau_tail"

    def test_custom_model_violating_hypotheses_is_stamped(self):
        bad = DependentModel(Independence(2),
                             (Pareto(2.0, 1.0), Pareto(2.0, 1.0)),
                             tau=Poisson(2.0))
        curves = run_preset("T4.4i", model=bad, samples=20_000, seed=2)
        for c in curves:
            assert any(n.startswith("hypotheses unverified") for n in c.notes)
            assert any("mean" in n for n in c.notes)

    def test_custom_model_meeting_hypotheses_not_stamped(self):
        ok = DependentModel(Independence(2),
                            (Pareto(0.8, 1.0), Pareto(0.8, 1.0)),
                            tau=Geometric1(0.7))
        c = run_preset("T4.1", model=ok, samples=20_000, seed=2)[0]
        assert not any(n.startswith("hypotheses unverified") for n in c.notes)


def test_run_experiment_records_the_infinite_mean_advisory():
    model = DependentModel(Independence(2),
                           (Pareto(1.0, 1.0), Pareto(1.0, 1.0)),
                           tau=Zeta(1.5))
    curve = ex.run_experiment(model, "SumTau", ex.Denominator("n_tail", n=1),
                              x_grid=np.geomspace(5.0, 500.0, 6),
                              samples=20_000, seed=7)
    assert curve.notes[0].startswith(
        "the counting law has infinite mean but the experiment uses 'lim' "
        "semantics")


_PARETO = Pareto(2.0, 1.0)
_STOPPED = DependentModel(Independence(2), (_PARETO, _PARETO),
                          tau=Poisson(2.0))

# hypothesis -> (a preset that assumes it, a model that breaks it alone
# among that preset's hypotheses, the one issue it yields)
BROKEN = {
    "bounded_density": ("T3.3", DependentModel(
        Comonotone(2), (_PARETO, _PARETO)),
        "copula is not of the bounded-density family"),
    "long_tailed": ("T3.3", DependentModel(
        FGM.bivariate(1.0), (_PARETO, Exponential(1.0))),
        "Exponential is not declared long-tailed"),
    "dominated": ("T3.2", DependentModel(
        FGM.bivariate(1.0), (Weibull(0.5, 1.0), _PARETO)),
        "Weibull is not declared dominatedly varying"),
    "nonnegative": ("T3.2", DependentModel(
        FGM.bivariate(1.0), (_PARETO, ShiftedBy(_PARETO, -2.0))),
        "ShiftedBy is not nonnegative"),
    "infinite_mean_count": ("T4.2", _STOPPED,
                            "divergence needs an infinite-mean counting law"),
    "negative_drift": ("T4.4i", _STOPPED, "summand mean must be negative"),
    "nonnegative_drift": ("T4.4ii", dataclasses.replace(
        _STOPPED, marginals=(ShiftedBy(_PARETO, -3.0),) * 2),
        "this variant assumes a nonnegative summand mean"),
    "independent_blocks": ("T4.4ii", dataclasses.replace(
        _STOPPED, copula=FGM.bivariate(0.5)),
        "uniform density bound over all lengths needs independent blocks"),
}


def test_every_hypothesis_is_broken_below():
    assert sorted(BROKEN) == sorted(ex.HYPOTHESES)


@pytest.mark.parametrize("name", sorted(BROKEN))
def test_each_hypothesis_yields_exactly_its_own_issue(name):
    preset_id, model, issue = BROKEN[name]
    preset = ex.PRESETS[preset_id]
    assert name in preset.hypotheses
    assert ex.HYPOTHESES[name](model) == (issue,)
    issues = [i for n in preset.hypotheses for i in ex.HYPOTHESES[n](model)]
    assert issues == [issue]


@pytest.mark.parametrize("preset_id, name", [
    (pid, name) for pid, preset in ex.PRESETS.items()
    for name in preset.hypotheses])
def test_every_named_hypothesis_reaches_the_notes(preset_id, name):
    # a hypothesis that the run enforces fails the check before any note
    # exists, so no preset may name it as an advisory
    _, checked = ex.PRESETS[preset_id].check(BROKEN[name][1])
    for _, _, notes in checked:
        assert any(BROKEN[name][2] in note for note in notes), notes


def test_per_marginal_hypotheses_name_each_marginal_that_breaks_them():
    model = DependentModel(Independence(3), (
        Exponential(1.0), _PARETO, DiscreteAtoms(((1.0, 0.5), (2.0, 0.5)))))
    assert ex.HYPOTHESES["long_tailed"](model) == (
        "Exponential is not declared long-tailed",
        "DiscreteAtoms is not declared long-tailed")


class TestDivergenceCertificate:
    def test_zeta_partial_sum_crosses_ten(self):
        n, s = ex.divergence_certificate(Zeta(1.5), 10.0)
        assert n == 190
        assert 10.0 < s < 10.1

    def test_finite_mean_law_cannot_certify(self):
        with pytest.raises(AssumptionViolated):
            ex.divergence_certificate(Geometric1(0.5), 10.0, n_max=5000)

    def test_poisson_certifies_below_its_mean(self):
        n, s = ex.divergence_certificate(Poisson(2.0), 1.9)
        assert s > 1.9 and n < 50

    def test_bound_must_be_positive(self):
        with pytest.raises(InvalidInput):
            ex.divergence_certificate(Zeta(1.5), 0.0)


class TestDefaultGrid:
    def test_spans_marginal_tail_quantiles(self):
        model = DependentModel(FGM.bivariate(1.0),
                               (Pareto(0.8, 1.0), Pareto(1.2, 1.0)))
        xs = quantile_grid(model.marginals)
        assert len(xs) == 24
        assert xs[0] == pytest.approx(Pareto(0.8, 1.0).quantile(0.9),
                                      rel=1e-12)
        assert xs[-1] == pytest.approx(Pareto(0.8, 1.0).quantile(1 - 1e-4),
                                       rel=1e-12)
