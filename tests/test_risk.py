"""Ruin models: discounting, arrival counts, surplus paths, presets."""

import numpy as np
import pytest

from heavytails import experiments as ex
from heavytails import montecarlo as mc
from heavytails import risk
from heavytails.copulas import Comonotone, DependentModel, FGM, Independence
from heavytails.counting import Deterministic, Geometric1
from heavytails.distributions import Pareto, ShiftedBy
from heavytails.errors import InvalidInput, ModelConfigError
from heavytails.rng import BLOCK_SIZE, block_stream


def ruin_estimates(model, xs, samples, seed):
    """(hits, p_hat, stderr) per surplus in xs from the model's ruin preset:
    the running-max estimate of the engine on its own claims."""
    (curve,) = model.preset(x_grid=xs).run(samples=samples, seed=seed)
    return [(round(p.numerator * samples), p.numerator, p.stderr)
            for p in curve.points]


def fgm_claims(alpha=1.0):
    return DependentModel(FGM.bivariate(1.0),
                          (Pareto(alpha, 1.0), Pareto(alpha, 1.0)))


class TestDiscreteModelBasics:
    def test_horizon_is_claims_dimension(self):
        m = risk.DiscreteRiskModel(fgm_claims(), rate=0.05)
        assert m.horizon == 2

    def test_discount_weights_closed_form(self):
        m = risk.DiscreteRiskModel(fgm_claims(), rate=0.05)
        np.testing.assert_allclose(m.discount_weights(),
                                   [1.05 ** -1, 1.05 ** -2], rtol=1e-15)
        flat = risk.DiscreteRiskModel(fgm_claims(), rate=0.0)
        assert np.all(flat.discount_weights() == 1.0)

    def test_rate_floor_and_counting_law_rejected(self):
        with pytest.raises(InvalidInput):
            risk.DiscreteRiskModel(fgm_claims(), rate=-1.0)
        stopped = DependentModel(Independence(2),
                                 (Pareto(1.0, 1.0), Pareto(1.0, 1.0)),
                                 tau=Geometric1(0.5))
        with pytest.raises(ModelConfigError):
            risk.DiscreteRiskModel(stopped, rate=0.0)


class TestDiscreteRuinProbabilities:
    def test_zero_rate_matches_plain_running_max_bitwise(self):
        claims = fgm_claims()
        m = risk.DiscreteRiskModel(claims, rate=0.0)
        xs = [20.0, 100.0, 400.0]
        ours = ruin_estimates(m, xs, samples=200_000, seed=5)
        plain, _ = mc.estimate_tail(claims, mc.RunMaxN, xs, 200_000, 5)
        assert ([(h, h / 200_000) for h in plain.tolist()]
                == [h[:2] for h in ours])

    def test_single_period_ruin_is_the_claim_tail(self):
        claim = Pareto(2.0, 1.0)
        m = risk.DiscreteRiskModel(
            DependentModel(Independence(1), (claim,)), rate=0.0)
        ((_, p_hat, stderr),) = ruin_estimates(m, [5.0], samples=100_000,
                                               seed=4)
        assert abs(p_hat - claim.tail(5.0)) <= 4.0 * stderr

    def test_ruin_nonincreasing_in_surplus(self):
        m = risk.DiscreteRiskModel(fgm_claims(), rate=0.05)
        hits = [h for h, _, _ in ruin_estimates(
            m, [10.0, 30.0, 90.0, 270.0], samples=100_000, seed=7)]
        assert hits == sorted(hits, reverse=True)

    def test_higher_rate_never_increases_ruin(self):
        # Nonnegative claims discounted harder give a pathwise smaller
        # running maximum, so with a shared seed the hit counts must drop.
        claims = fgm_claims()
        xs = [15.0, 60.0]
        low, high = (ruin_estimates(risk.DiscreteRiskModel(claims, rate=r),
                                    xs, samples=150_000, seed=9)
                     for r in (0.0, 0.1))
        for lo_e, hi_e in zip(low, high):
            assert hi_e[0] <= lo_e[0]

    def test_ruin_nondecreasing_in_horizon_pathwise(self):
        claims = fgm_claims()
        m = risk.DiscreteRiskModel(claims, rate=0.05)
        rows = claims.sample_vector(block_stream(21, 0), 20_000)
        disc = np.cumsum(rows * m.discount_weights(), axis=1)
        for x in (5.0, 25.0):
            by_one = disc[:, 0] > x
            by_two = np.max(disc, axis=1) > x
            assert np.all(by_two >= by_one)


class TestSurplusPath:
    def test_starts_at_initial_surplus_with_full_horizon(self):
        m = risk.DiscreteRiskModel(fgm_claims(), rate=0.05)
        path = m.surplus_path(12.0, seed=3)
        assert path[0] == (0, 12.0)
        assert [k for k, _ in path] == [0, 1, 2]

    @pytest.mark.parametrize("surplus", [2.0, 15.0])
    def test_ruin_sign_matches_discounted_exceedance(self, surplus):
        claims = fgm_claims()
        m = risk.DiscreteRiskModel(claims, rate=0.05)
        for rep in range(6):
            path = m.surplus_path(surplus, seed=3, replicate=rep)
            ruined = min(u for _, u in path) < 0.0
            rows = claims.sample_vector(block_stream(3, 0), rep + 1)
            disc = np.cumsum(rows[-1] * m.discount_weights())
            assert ruined == bool(disc.max() > surplus)

    @pytest.mark.parametrize("claims", [
        fgm_claims(),
        DependentModel(Comonotone(3), (Pareto(1.0, 1.0), Pareto(2.0, 1.0),
                                       ShiftedBy(Pareto(1.5, 1.0), -1.0)))],
        ids=["fgm", "comonotone"])
    @pytest.mark.parametrize("replicate", [0, 1, BLOCK_SIZE - 1, BLOCK_SIZE])
    def test_replicate_is_the_row_drawn_in_full(self, claims, replicate):
        # the path advances its block's stream past the rows before its
        # own and draws one row: the last row of the whole block prefix
        m = risk.DiscreteRiskModel(claims, rate=0.05)
        block, row = divmod(replicate, BLOCK_SIZE)
        x_j = claims.sample_vector(block_stream(3, block), row + 1)[-1]
        disc = np.cumsum(x_j * m.discount_weights())
        want = [(0, 12.0)] + [(k, float(1.05 ** k * (12.0 - disc[k - 1])))
                              for k in range(1, m.horizon + 1)]
        assert m.surplus_path(12.0, seed=3, replicate=replicate) == want

    def test_path_validation(self):
        m = risk.DiscreteRiskModel(fgm_claims(), rate=0.05)
        with pytest.raises(InvalidInput):
            m.surplus_path(-1.0, seed=3)
        with pytest.raises(InvalidInput):
            m.surplus_path(5.0, seed=3, replicate=-2)
        with pytest.raises(InvalidInput):
            m.surplus_path(5.0, seed=-1)


class TestDiscreteRuinCurve:
    def test_denominator_is_discounted_tail_sum(self):
        m = risk.DiscreteRiskModel(fgm_claims(), rate=0.05)
        curve = m.preset(x_grid=np.geomspace(10.0, 1e3, 6),
                         samples=50_000).run(seed=11)[0]
        assert curve.denominator == "sum_tails"
        for p in curve.points:
            want = 1.0 / (1.05 * p.x) + 1.0 / (1.1025 * p.x)
            assert p.denominator == pytest.approx(want, rel=1e-14)

    def test_reduced_sample_preset_consistent(self):
        [curve] = risk.RISK_PRESETS["C5.1"].run(samples=500_000, seed=11)
        assert curve.verdict == "consistent"
        assert curve.experiment_id == "C5.1"


class TestArrivalModelBasics:
    def arrival(self, **kw):
        args = dict(claim_size=Pareto(2.0, 1.0), loading=0.1, intensity=2.0,
                    horizon=1.0)
        args.update(kw)
        return risk.ArrivalRiskModel(**args)

    def test_net_claim_has_negative_drift(self):
        m = self.arrival()
        # mean claim 2, premium per claim 2.2, so the net drift is -0.2
        assert m.premium_per_claim == pytest.approx(2.2, rel=1e-15)
        assert m.net_claim().mean() == pytest.approx(-0.2, rel=1e-12)
        assert m.expected_count == 2.0

    def test_validation(self):
        with pytest.raises(ModelConfigError):
            self.arrival(claim_size=ShiftedBy(Pareto(2.0, 1.0), -3.0))
        with pytest.raises(ModelConfigError):
            self.arrival(claim_size=Pareto(1.0, 1.0))
        with pytest.raises(InvalidInput):
            self.arrival(loading=0.0)
        with pytest.raises(InvalidInput):
            self.arrival(intensity=0.0)
        with pytest.raises(InvalidInput):
            self.arrival(horizon=-1.0)

    def test_zero_horizon_cannot_ruin(self):
        # no preset here: its denominator, the expected count, is zero
        m = self.arrival(horizon=0.0)
        hits, _ = mc.estimate_tail(m.dependence_model(), mc.RunMaxTau,
                                   [0.5, 5.0], 50_000, 2)
        assert hits.tolist() == [0, 0]

    def test_ruin_nonincreasing_in_surplus(self):
        hits = [h for h, _, _ in ruin_estimates(
            self.arrival(), [3.0, 10.0, 40.0], samples=100_000, seed=8)]
        assert hits == sorted(hits, reverse=True)

    def test_deterministic_count_reduces_to_fixed_running_max(self):
        # With the count pinned at the block dimension, the stopped path
        # must reproduce the fixed-horizon estimator bit for bit.
        net = self.arrival().net_claim()
        stopped = DependentModel(Independence(2), (net, net),
                                 tau=Deterministic(2))
        fixed = DependentModel(Independence(2), (net, net))
        xs = [2.0, 8.0]
        a, _ = mc.estimate_tail(stopped, mc.RunMaxTau, xs, 100_000, 13)
        b, _ = mc.estimate_tail(fixed, mc.RunMaxN, xs, 100_000, 13)
        assert a.tolist() == b.tolist()


class TestArrivalRuinCurve:
    def test_denominator_uses_unshifted_claim_tail(self):
        m = risk.ArrivalRiskModel(Pareto(2.0, 1.0), loading=0.1,
                                  intensity=2.0, horizon=1.0)
        curve = m.preset(x_grid=np.geomspace(5.0, 100.0, 5),
                         samples=50_000).run(seed=11)[0]
        for p in curve.points:
            assert p.denominator == pytest.approx(2.0 / p.x ** 2, rel=1e-14)

    def test_reduced_sample_preset_consistent(self):
        [curve] = risk.RISK_PRESETS["C5.2"].run(samples=500_000, seed=11)
        assert curve.verdict == "consistent"
        assert curve.denominator.startswith("mean_count_x_claim_tail")


class TestPresetCatalog:
    def test_ids_and_descriptions(self):
        assert set(risk.RISK_PRESETS) == {"C5.1", "C5.2"}
        for pid, preset in risk.RISK_PRESETS.items():
            assert preset.preset_id == pid
            assert preset.description

    def test_one_registry_and_runner_for_every_preset(self):
        assert list(risk.presets()) == (list(ex.PRESETS)
                                        + list(risk.RISK_PRESETS))
        assert risk.run_preset("T3.3") == ex.PRESETS["T3.3"].run()
        assert risk.run_preset("C5.2", samples=20_000, seed=3) == (
            risk.RISK_PRESETS["C5.2"].run(samples=20_000, seed=3))
        model = risk.RISK_PRESETS["C5.1"].model
        with pytest.raises(InvalidInput, match="custom model"):
            risk.run_preset("C5.1", model=model)
