"""Monte Carlo engine tests: oracles, bitwise reproducibility, stream layout."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as ss

from heavytails import montecarlo as mc
from heavytails.copulas import Comonotone, DependentModel, FGM, Independence
from heavytails.counting import Deterministic, Geometric1, Poisson, Zeta
from heavytails.distributions import Exponential, Pareto, ShiftedBy
from heavytails.errors import InvalidInput, ModelConfigError


def indep_pair(d):
    return DependentModel(Independence(2), (d, d))


class TestQuantity:
    def test_tokens_round_trip(self):
        for token in ("SumN", "MaxN", "RunMaxN", "SumTau", "MaxTau",
                      "RunMaxTau"):
            q = mc.parse_quantity(token)
            assert q.token == token
            assert mc.parse_quantity(q) is q

    def test_unknown_token_rejected(self):
        with pytest.raises(InvalidInput):
            mc.parse_quantity("Sum")
        with pytest.raises(InvalidInput):
            mc.Quantity("median", False)


class TestEstimateAgainstOracles:
    def test_gamma_convolution(self):
        m = indep_pair(Exponential(1.0))
        xs = [2.0, 5.0, 8.0]
        for e in mc.estimate_tail(m, "SumN", xs, 200_000, seed=7):
            true = float(ss.gamma(2).sf(e.x))
            assert abs(e.p_hat - true) <= 4.0 * max(e.stderr, 1e-9), e.x

    def test_independent_max(self):
        d = Pareto(1.5, 1.0)
        m = indep_pair(d)
        xs = [3.0, 10.0, 30.0]
        for e in mc.estimate_tail(m, "MaxN", xs, 200_000, seed=9):
            true = 1.0 - (1.0 - float(d.tail(e.x))) ** 2
            assert abs(e.p_hat - true) <= 4.0 * max(e.stderr, 1e-9), e.x

    def test_comonotone_sum_halving(self):
        d = Pareto(1.0, 1.0)
        m = DependentModel(Comonotone(2), (d, d))
        xs = [4.0, 10.0]
        for e in mc.estimate_tail(m, "SumN", xs, 200_000, seed=21):
            true = float(d.tail(e.x / 2.0))  # the pair is 2 X1
            assert abs(e.p_hat - true) <= 4.0 * max(e.stderr, 1e-9), e.x

    def test_mean_over_seeds_unbiased(self):
        m = indep_pair(Exponential(1.0))
        x = 5.0
        true = float(ss.gamma(2).sf(x))
        ps = [mc.estimate_tail(m, "SumN", [x], 50_000, seed=s)[0].p_hat
              for s in range(5)]
        pooled_se = np.sqrt(true * (1 - true) / (5 * 50_000))
        assert abs(np.mean(ps) - true) <= 4.0 * pooled_se


class TestBitwiseReproducibility:
    def test_worker_count_invariance(self):
        m = indep_pair(Pareto(0.8, 1.0))
        xs = [10.0, 100.0, 1000.0]
        base = [e.hits for e in
                mc.estimate_tail(m, "SumN", xs, 120_000, seed=5, workers=1)]
        for w in (2, 3, 8):
            got = [e.hits for e in
                   mc.estimate_tail(m, "SumN", xs, 120_000, seed=5, workers=w)]
            assert got == base, w

    def test_worker_invariance_stopped(self):
        d = Pareto(0.8, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Geometric1(0.5))
        xs = [20.0, 200.0]
        base = [e.hits for e in
                mc.estimate_tail(m, "SumTau", xs, 100_000, seed=31, workers=1)]
        got = [e.hits for e in
               mc.estimate_tail(m, "SumTau", xs, 100_000, seed=31, workers=4)]
        assert got == base

    def test_same_seed_same_hits_different_seed_not(self):
        m = indep_pair(Exponential(1.0))
        a = mc.estimate_tail(m, "SumN", [3.0], 100_000, seed=1)[0]
        b = mc.estimate_tail(m, "SumN", [3.0], 100_000, seed=1)[0]
        c = mc.estimate_tail(m, "SumN", [3.0], 100_000, seed=2)[0]
        assert a.hits == b.hits
        assert a.hits != c.hits  # equal only with probability ~ 1/sqrt(N)

    def test_deterministic_tau_reduces_to_fixed(self):
        d = Pareto(0.8, 1.0)
        plain = DependentModel(FGM.bivariate(1.0), (d, d))
        stopped = DependentModel(FGM.bivariate(1.0), (d, d),
                                 tau=Deterministic(2))
        xs = [5.0, 50.0, 500.0]
        for q_fixed, q_tau in (("SumN", "SumTau"), ("MaxN", "MaxTau"),
                               ("RunMaxN", "RunMaxTau")):
            a = [e.hits for e in
                 mc.estimate_tail(plain, q_fixed, xs, 90_000, seed=13)]
            b = [e.hits for e in
                 mc.estimate_tail(stopped, q_tau, xs, 90_000, seed=13)]
            assert a == b, q_fixed

    def test_unit_weights_are_identity(self):
        m = indep_pair(Pareto(1.0, 1.0))
        xs = [4.0, 40.0]
        a = [e.hits for e in
             mc.estimate_tail(m, "RunMaxN", xs, 80_000, seed=3)]
        b = [e.hits for e in
             mc.estimate_tail(m, "RunMaxN", xs, 80_000, seed=3,
                              weights=[1.0, 1.0])]
        assert a == b

    def test_counting_lane_is_separate(self):
        # capping every length at 1 makes Geometric1 and Deterministic(1)
        # simulate the same statistic; the copula stream must not have been
        # perturbed by how many counting draws were consumed
        d = Pareto(1.0, 1.0)
        g = DependentModel(Independence(2), (d, d), tau=Geometric1(0.5))
        one = DependentModel(Independence(2), (d, d), tau=Deterministic(1))
        xs = [3.0, 30.0]
        a = [e.hits for e in
             mc.estimate_tail(g, "SumTau", xs, 60_000, seed=8, tau_cap=1)]
        b = [e.hits for e in
             mc.estimate_tail(one, "SumTau", xs, 60_000, seed=8, tau_cap=1)]
        assert a == b

    def test_ragged_segments_match_naive_loop(self):
        # white box: replay the exact block streams and recompute every
        # replicate's statistic with a plain python loop over its segment
        models = (
            DependentModel(FGM.bivariate(0.5), (Pareto(0.8, 1.0),) * 2,
                           tau=Geometric1(0.3)),
            # negative summands, and tau = 0 in about three of four replicates
            DependentModel(Independence(3),
                           (ShiftedBy(Pareto(2.0, 1.0), -3.0),) * 3,
                           tau=Poisson(0.3)),
        )
        seed, count, cap = 19, 3000, mc.TAU_CAP
        kinds = ("sum", "max", "runmax")
        for m in models:
            rng = mc.block_stream(seed, 0)
            tau_rng = mc.block_stream(seed, mc._TAU_LANE + 0)
            stats, _ = mc._stats_stopped(m, kinds, rng, tau_rng, count, cap)

            rng = mc.block_stream(seed, 0)
            tau_rng = mc.block_stream(seed, mc._TAU_LANE + 0)
            taus = np.minimum(m.tau.sample(tau_rng, count), cap)
            blocks = (taus + m.dim - 1) // m.dim
            weight = blocks * m.dim
            cum = np.cumsum(weight)
            naive = np.empty((len(kinds), count))
            i = 0
            while i < count:
                prev = int(cum[i - 1]) if i else 0
                j = max(int(np.searchsorted(cum, prev + mc._CHUNK_VALUES,
                                            side="right")), i + 1)
                nb = int(blocks[i:j].sum())
                flat = m.marginals[0].ppf_from_uniform(
                    m.copula.sample(rng, nb).ravel())
                pos = 0
                for k in range(i, j):
                    seg = flat[pos:pos + int(taus[k])]
                    pos += int(blocks[k]) * m.dim
                    empty = len(seg) == 0
                    naive[0, k] = 0.0 if empty else seg.sum()
                    naive[1, k] = -np.inf if empty else seg.max()
                    naive[2, k] = 0.0 if empty else np.cumsum(seg).max()
                i = j
            # sums are per segment and maxima exact; the running maximum is
            # a difference of one chunk-wide cumsum, so tiny cancellation
            # noise against the per-segment loop is expected there
            np.testing.assert_allclose(stats[0], naive[0], rtol=1e-12)
            np.testing.assert_array_equal(stats[1], naive[1])
            np.testing.assert_allclose(stats[2], naive[2], rtol=1e-8,
                                       atol=1e-8)

    def test_stopped_sums_keep_precision_under_very_heavy_tails(self):
        # Pareto(0.1) summands push a chunk-wide running total to ~1e60; each
        # replicate's sum must still be its own, as a math.fsum loop gives it
        d = Pareto(0.1, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Poisson(4.0))
        seed, count, x = 3, mc.BLOCK_SIZE, 10.0
        stats, _ = mc._stats_stopped(m, ("sum",), mc.block_stream(seed, 0),
                                     mc.block_stream(seed, mc._TAU_LANE),
                                     count, mc.TAU_CAP)
        taus = m.tau.sample(mc.block_stream(seed, mc._TAU_LANE), count)
        blocks = (taus + 1) // 2
        flat = d.ppf_from_uniform(
            m.copula.sample(mc.block_stream(seed, 0), int(blocks.sum())).ravel())
        starts = np.cumsum(2 * blocks) - 2 * blocks
        loop = np.array([math.fsum(flat[a:a + t])
                         for a, t in zip(starts, taus)])
        assert int(np.count_nonzero(stats[0] > x)) == int(
            np.count_nonzero(loop > x))
        np.testing.assert_allclose(stats[0], loop, rtol=1e-12)


MARGINALS = (Pareto(0.8, 1.0), Pareto(1.5, 2.0), Exponential(1.0),
             ShiftedBy(Pareto(2.0, 1.0), -3.0))
COUNTING = (Poisson(2.0), Poisson(0.3), Geometric1(0.4), Zeta(1.5),
            Deterministic(1), Deterministic(5))


@st.composite
def shared_pass_cases(draw):
    dim = draw(st.integers(2, 3))
    family = draw(st.sampled_from(("independence", "comonotone", "fgm")))
    if family == "independence":
        copula = Independence(dim)
    elif family == "comonotone":
        copula = Comonotone(dim)
    else:   # |a_ij| <= 1/3 keeps every trivariate vertex density >= 0
        pairs = dim * (dim - 1) // 2
        copula = FGM(dim, tuple(draw(st.lists(st.floats(-1 / 3, 1 / 3),
                                              min_size=pairs,
                                              max_size=pairs))))
    stopped = draw(st.booleans())
    weights = None
    if stopped:
        model = DependentModel(copula, (draw(st.sampled_from(MARGINALS)),) * dim,
                               tau=draw(st.sampled_from(COUNTING)))
    else:
        model = DependentModel(copula, tuple(
            draw(st.sampled_from(MARGINALS)) for _ in range(dim)))
        if draw(st.booleans()):
            weights = draw(st.lists(st.floats(-2.0, 2.0), min_size=dim,
                                    max_size=dim))
    tokens = [t for t, q in mc.QUANTITIES.items() if q.stopped == stopped]
    quantities = draw(st.lists(st.sampled_from(tokens), min_size=1,
                               max_size=4))
    return dict(model=model, quantities=quantities, weights=weights,
                # the second range spans two blocks, so two workers split it
                samples=draw(st.integers(1, 2000)
                             | st.integers(mc.BLOCK_SIZE + 1,
                                           2 * mc.BLOCK_SIZE + 50)),
                seed=draw(st.integers(0, 2 ** 64 - 1)),
                workers=draw(st.sampled_from((1, 2))),
                tau_cap=draw(st.sampled_from((8, 64))))


class TestSharedPass:
    @settings(max_examples=40, deadline=None)
    @given(case=shared_pass_cases())
    def test_shared_pass_matches_separate_calls(self, case):
        xs = [-1.0, 0.5, 3.0, 40.0]
        shared = mc.estimate_tails(case["model"], case["quantities"], xs,
                                   case["samples"], case["seed"],
                                   workers=case["workers"],
                                   weights=case["weights"],
                                   tau_cap=case["tau_cap"])
        assert len(shared) == len(case["quantities"])
        for q, row in zip(case["quantities"], shared):
            alone = mc.estimate_tail(case["model"], q, xs, case["samples"],
                                     case["seed"], weights=case["weights"],
                                     tau_cap=case["tau_cap"])
            assert row == alone, q

    def test_mixed_stopped_and_fixed_rejected(self):
        d = Pareto(1.0, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Poisson(2.0))
        with pytest.raises(InvalidInput):
            mc.estimate_tails(m, ["SumN", "SumTau"], [1.0], 100, seed=1)
        with pytest.raises(InvalidInput):
            mc.estimate_tails(m, [], [1.0], 100, seed=1)

    def test_stopped_block_memory_is_bounded(self):
        # one infinite-mean Zeta block (the T4.2 model) touches about 26M
        # coordinates in slices of _CHUNK_VALUES; the live float64 data per
        # slice stays near 3 x 8 x _CHUNK_VALUES bytes
        d = Pareto(1.0, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Zeta(1.5))
        tracemalloc.start()
        try:
            mc._stats_stopped(m, ("max", "sum"), mc.block_stream(0, 0),
                              mc.block_stream(0, mc._TAU_LANE),
                              mc.BLOCK_SIZE, mc.TAU_CAP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= 4 * 8 * mc._CHUNK_VALUES, peak / 2 ** 20


class TestPathwiseOrderings:
    def test_runmax_dominates_sum_and_max_dominated_by_sum(self):
        # on shared draws: max of prefix sums >= final sum, and for
        # nonnegative terms the largest term <= the sum
        d = Pareto(1.2, 1.0)
        m = DependentModel(FGM.bivariate(1.0), (d, d))
        xs = [5.0, 20.0, 80.0]
        sums = mc.estimate_tail(m, "SumN", xs, 100_000, seed=27)
        runs = mc.estimate_tail(m, "RunMaxN", xs, 100_000, seed=27)
        maxs = mc.estimate_tail(m, "MaxN", xs, 100_000, seed=27)
        for s, r, x in zip(sums, runs, maxs):
            assert r.hits >= s.hits >= x.hits

    def test_geometric_unit_probability_collapses_quantities(self):
        # p=1 forces tau == 1, where sum, max and running max all equal X1
        d = Pareto(1.5, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Geometric1(1.0))
        xs = [2.0, 8.0]
        got = {q: [e.hits for e in mc.estimate_tail(m, q, xs, 60_000, seed=4)]
               for q in ("SumTau", "MaxTau", "RunMaxTau")}
        assert got["SumTau"] == got["MaxTau"] == got["RunMaxTau"]


class TestStoppedEdgeCases:
    def test_tau_zero_gives_empty_statistics(self):
        d = Pareto(1.0, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Poisson(0.0))
        for q in ("SumTau", "MaxTau", "RunMaxTau"):
            e = mc.estimate_tail(m, q, [0.5], 10_000, seed=2)[0]
            assert e.hits == 0, q

    def test_zeta_cap_is_reported(self):
        d = Pareto(0.8, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Zeta(1.5))
        e = mc.estimate_tail(m, "MaxTau", [50.0], 20_000, seed=17,
                             tau_cap=1 << 12)[0]
        assert e.notes and "capped" in e.notes[0]

    def test_zeta_maxtau_dominates_single_tail(self):
        # tau >= 1 always, so the stopped max is stochastically above one draw
        d = Pareto(0.8, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Zeta(1.5))
        x = 50.0
        e = mc.estimate_tail(m, "MaxTau", [x], 20_000, seed=23,
                             tau_cap=1 << 12)[0]
        assert e.p_hat > float(d.tail(x))

    def test_poisson_sumtau_wald_mean(self):
        # E S_tau = E tau * E X for independent stopping: check via moderate x
        d = Exponential(1.0)
        m = DependentModel(Independence(2), (d, d), tau=Poisson(2.0))
        # P(S_tau > 0) = P(tau >= 1) = 1 - e^-2 with positive summands
        e = mc.estimate_tail(m, "SumTau", [1e-12], 100_000, seed=29)[0]
        true = 1.0 - np.exp(-2.0)
        assert abs(e.p_hat - true) <= 4.0 * max(e.stderr, 1e-9)


class TestValidation:
    def test_missing_tau_rejected(self):
        m = indep_pair(Pareto(1.0, 1.0))
        with pytest.raises(ModelConfigError):
            mc.estimate_tail(m, "SumTau", [1.0], 100, seed=1)

    def test_non_identical_marginals_rejected_for_stopped(self):
        m = DependentModel(Independence(2),
                           (Pareto(1.0, 1.0), Exponential(1.0)),
                           tau=Geometric1(0.5))
        with pytest.raises(ModelConfigError):
            mc.estimate_tail(m, "SumTau", [1.0], 100, seed=1)

    def test_weights_rejected_for_stopped(self):
        d = Pareto(1.0, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Geometric1(0.5))
        with pytest.raises(InvalidInput):
            mc.estimate_tail(m, "SumTau", [1.0], 100, seed=1,
                             weights=[1.0, 1.0])

    def test_weights_shape_checked(self):
        m = indep_pair(Pareto(1.0, 1.0))
        with pytest.raises(InvalidInput):
            mc.estimate_tail(m, "SumN", [1.0], 100, seed=1, weights=[1.0])

    def test_bad_samples_workers_xs(self):
        m = indep_pair(Pareto(1.0, 1.0))
        with pytest.raises(InvalidInput):
            mc.estimate_tail(m, "SumN", [1.0], 0, seed=1)
        with pytest.raises(InvalidInput):
            mc.estimate_tail(m, "SumN", [1.0], 2.5, seed=1)
        with pytest.raises(InvalidInput):
            mc.estimate_tail(m, "SumN", [1.0], 100, seed=1, workers=0)
        with pytest.raises(InvalidInput):
            mc.estimate_tail(m, "SumN", [], 100, seed=1)
        with pytest.raises(InvalidInput):
            mc.estimate_tail(m, "SumN", [np.inf], 100, seed=1)

    def test_bad_seed(self):
        m = indep_pair(Pareto(1.0, 1.0))
        with pytest.raises(InvalidInput):
            mc.estimate_tail(m, "SumN", [1.0], 100, seed=-1)
        with pytest.raises(InvalidInput):
            mc.estimate_tail(m, "SumN", [1.0], 100, seed=1.5)


class TestTailEstimate:
    def test_ci_clipped(self):
        e = mc.TailEstimate(1.0, 0.999, 0.01, 999, 1000, 0)
        lo, hi = e.ci()
        assert 0.0 <= lo <= hi <= 1.0

    def test_stderr_formula(self):
        m = indep_pair(Exponential(1.0))
        e = mc.estimate_tail(m, "SumN", [3.0], 40_000, seed=6)[0]
        assert e.p_hat == e.hits / e.samples
        assert e.stderr == pytest.approx(
            np.sqrt(e.p_hat * (1 - e.p_hat) / e.samples), rel=1e-12)

    def test_shifted_negative_mean_runmax(self):
        # net-claim style marginals with mean -1: running max still finite
        # and the tail estimate is a probability
        z = ShiftedBy(Pareto(2.0, 1.0), -3.0)
        m = DependentModel(Independence(2), (z, z), tau=Poisson(2.0))
        e = mc.estimate_tail(m, "RunMaxTau", [5.0], 50_000, seed=41)[0]
        assert 0.0 <= e.p_hat <= 1.0
        assert e.p_hat < 0.2  # deep in the tail of a mean-negative walk
