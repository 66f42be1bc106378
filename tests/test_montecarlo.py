"""Monte Carlo engine tests: oracles, bitwise reproducibility, stream layout."""

import inspect
import math
import os
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats as ss

from heavytails import experiments as ex
from heavytails import montecarlo as mc
from heavytails.copulas import (Comonotone, DependentModel, FGM, Independence,
                                _BELOW_ONE, _FGM_BATCH)
from heavytails.counting import Deterministic, Geometric1, Poisson, Zeta
from heavytails.distributions import (DiscreteAtoms, Exponential,
                                      IntegratedTail, Lognormal, Pareto,
                                      ShiftedBy, Weibull)
from heavytails.errors import (InvalidInput, ModelConfigError,
                               WorkerCrashed)
from heavytails.risk import RISK_PRESETS as RISK
from heavytails.rng import BLOCK_SIZE, MAX_SAMPLES


def indep_pair(d):
    return DependentModel(Independence(2), (d, d))


def rates(hits, samples):
    """p_hat = hits / samples and its binomial stderr, as the grader forms
    them from the engine's counts."""
    p_hat = hits / samples
    return p_hat, np.sqrt(p_hat * (1.0 - p_hat) / samples)


@pytest.fixture
def every_share_forks(monkeypatch):
    """Each share gets its own process however few values it draws; forked
    workers inherit the patch."""
    monkeypatch.setattr(mc, "_SHARE_VALUES", 1)


@pytest.fixture
def forks(monkeypatch):
    """The list of processes the pool starts, appended as each starts."""
    from multiprocessing.context import ForkProcess
    real = ForkProcess.start
    started = []

    def recording(proc):
        started.append(proc)
        # no test here forks more than three: fail before a runaway worker
        # count could start many more
        assert len(started) <= 3, len(started)
        return real(proc)

    monkeypatch.setattr(ForkProcess, "start", recording)
    return started


def listed(result):
    """An engine result (hits, notes) with the counts as nested lists, so
    two results compare with ==."""
    hits, notes = result
    return hits.tolist(), notes


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


class TestHitCounts:
    @pytest.mark.parametrize("model,quantities", [
        (indep_pair(Pareto(0.8, 1.0)), ["SumN", "MaxN", "RunMaxN", "SumN"]),
        (DependentModel(Independence(2), (Pareto(0.8, 1.0),) * 2,
                        tau=Poisson(2.0)), ["RunMaxTau", "MaxTau"]),
    ], ids=["fixed", "stopped"])
    def test_one_int64_row_per_quantity_in_request_order(self, model,
                                                         quantities):
        xs = [0.5, 3.0, 40.0, 400.0, 4000.0]
        hits, notes = mc.estimate_tails(model, quantities, xs, 3000, seed=2)
        assert hits.dtype == np.int64
        assert hits.shape == (len(quantities), len(xs))
        assert notes == ()
        for q, row in zip(quantities, hits):
            alone, _ = mc.estimate_tail(model, q, xs, 3000, seed=2)
            assert alone.dtype == np.int64 and alone.shape == (len(xs),)
            assert row.tolist() == alone.tolist(), q


class TestEstimateAgainstOracles:
    def test_gamma_convolution(self):
        m = indep_pair(Exponential(1.0))
        xs = [2.0, 5.0, 8.0]
        hits, _ = mc.estimate_tail(m, "SumN", xs, 200_000, seed=7)
        for x, p_hat, stderr in zip(xs, *rates(hits, 200_000)):
            true = float(ss.gamma(2).sf(x))
            assert abs(p_hat - true) <= 4.0 * max(stderr, 1e-9), x

    def test_independent_max(self):
        d = Pareto(1.5, 1.0)
        m = indep_pair(d)
        xs = [3.0, 10.0, 30.0]
        hits, _ = mc.estimate_tail(m, "MaxN", xs, 200_000, seed=9)
        for x, p_hat, stderr in zip(xs, *rates(hits, 200_000)):
            true = 1.0 - (1.0 - float(d.tail(x))) ** 2
            assert abs(p_hat - true) <= 4.0 * max(stderr, 1e-9), x

    def test_comonotone_sum_halving(self):
        d = Pareto(1.0, 1.0)
        m = DependentModel(Comonotone(2), (d, d))
        xs = [4.0, 10.0]
        hits, _ = mc.estimate_tail(m, "SumN", xs, 200_000, seed=21)
        for x, p_hat, stderr in zip(xs, *rates(hits, 200_000)):
            true = float(d.tail(x / 2.0))  # the pair is 2 X1
            assert abs(p_hat - true) <= 4.0 * max(stderr, 1e-9), x

    def test_mean_over_seeds_unbiased(self):
        m = indep_pair(Exponential(1.0))
        x = 5.0
        true = float(ss.gamma(2).sf(x))
        ps = [mc.estimate_tail(m, "SumN", [x], 50_000, seed=s)[0][0] / 50_000
              for s in range(5)]
        pooled_se = np.sqrt(true * (1 - true) / (5 * 50_000))
        assert abs(np.mean(ps) - true) <= 4.0 * pooled_se


class TestBitwiseReproducibility:
    def test_worker_count_invariance(self, every_share_forks):
        m = indep_pair(Pareto(0.8, 1.0))
        xs = [10.0, 100.0, 1000.0]
        base = mc.estimate_tail(m, "SumN", xs, 120_000, seed=5,
                                workers=1)[0].tolist()
        for w in (2, 3, 8):
            got = mc.estimate_tail(m, "SumN", xs, 120_000, seed=5,
                                   workers=w)[0].tolist()
            assert got == base, w

    def test_huge_worker_count_forks_one_process_per_block_but_the_first(
            self, every_share_forks, forks):
        m = indep_pair(Pareto(0.8, 1.0))
        args = (m, ["SumN", "RunMaxN"], [10.0, 100.0], 2 * BLOCK_SIZE, 9)
        one = listed(mc.estimate_tails(*args, workers=1))
        assert forks == []
        assert listed(mc.estimate_tails(*args, workers=10 ** 9)) == one
        # the caller runs block 0 itself
        assert len(forks) == 1

    def test_interrupt_in_the_callers_share_kills_every_worker(
            self, monkeypatch, every_share_forks):
        import multiprocessing as mp
        import time
        real = mc._simulate_block

        def interrupted_on_block_zero(*args):
            if args[-1] == 0:       # the caller's own share
                raise KeyboardInterrupt
            time.sleep(60)          # a forked worker still running
            return real(*args)

        monkeypatch.setattr(mc, "_simulate_block", interrupted_on_block_zero)
        m = indep_pair(Pareto(0.8, 1.0))
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            mc.estimate_tail(m, "SumN", [10.0], 3 * BLOCK_SIZE, seed=3,
                             workers=3)
        assert time.monotonic() - t0 < 30
        assert mp.active_children() == []

    def test_a_lost_worker_outranks_the_callers_exception(
            self, monkeypatch, every_share_forks):
        real = mc._simulate_block

        def fail_both_shares(*args):
            if args[-1] == 0:       # the caller's share raises
                raise ModelConfigError("block 0 failed")
            if args[-1] == 1:       # the forked worker dies mid-run
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(mc, "_simulate_block", fail_both_shares)
        m = indep_pair(Pareto(0.8, 1.0))
        with pytest.raises(WorkerCrashed) as info:
            mc.estimate_tail(m, "SumN", [10.0], 4 * BLOCK_SIZE, seed=3,
                             workers=2)
        msg = str(info.value)
        assert "blocks 1-3 step 2 of 4" in msg and "blocks 0-2" not in msg

    def test_a_lost_one_block_share_is_named_alone(self, monkeypatch,
                                                   every_share_forks):
        real = mc._simulate_block

        def die_on_block_one(*args):
            if args[-1] == 1:       # the forked worker's only block
                os._exit(3)
            return real(*args)

        monkeypatch.setattr(mc, "_simulate_block", die_on_block_one)
        m = indep_pair(Pareto(0.8, 1.0))
        with pytest.raises(WorkerCrashed) as info:
            mc.estimate_tail(m, "SumN", [10.0], 2 * BLOCK_SIZE, seed=3,
                             workers=2)
        assert str(info.value) == ("a worker process died; block 1 of 2 "
                                   "(seed 3) returned no result")

    @pytest.mark.parametrize("workers", [1, 2])
    def test_worker_error_reaches_the_caller(self, workers,
                                             every_share_forks):
        class NegativeLength(Geometric1):
            def sample(self, rng, size):
                return -super().sample(rng, size)

        d = Pareto(0.8, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=NegativeLength(0.5))
        with pytest.raises(ModelConfigError,
                           match="^counting law produced a negative length$"):
            mc.estimate_tail(m, "SumTau", [1.0], 2 * BLOCK_SIZE, seed=3,
                             workers=workers)

    def test_worker_invariance_stopped(self, every_share_forks):
        d = Pareto(0.8, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Geometric1(0.5))
        xs = [20.0, 200.0]
        base = mc.estimate_tail(m, "SumTau", xs, 100_000, seed=31,
                                workers=1)[0].tolist()
        got = mc.estimate_tail(m, "SumTau", xs, 100_000, seed=31,
                               workers=4)[0].tolist()
        assert got == base

    def test_same_seed_same_hits_different_seed_not(self):
        m = indep_pair(Exponential(1.0))
        a = mc.estimate_tail(m, "SumN", [3.0], 100_000, seed=1)[0][0]
        b = mc.estimate_tail(m, "SumN", [3.0], 100_000, seed=1)[0][0]
        c = mc.estimate_tail(m, "SumN", [3.0], 100_000, seed=2)[0][0]
        assert a == b
        assert a != c  # equal only with probability ~ 1/sqrt(N)

    def test_deterministic_tau_reduces_to_fixed(self):
        # Deterministic(n) on an n-dimensional copula draws the fixed-n
        # rows: max and runmax are the fixed-n values bit for bit, and sums
        # (reduceat's order, not left to right) agree to rounding, so every
        # hit count is the fixed-n one
        d = Pareto(0.8, 1.0)
        xs = [5.0, 50.0, 500.0]
        for copula in [FGM.bivariate(1.0)] + [Independence(n)
                                              for n in range(2, 7)]:
            plain = DependentModel(copula, (d,) * copula.dim)
            stopped = DependentModel(copula, (d,) * copula.dim,
                                     tau=Deterministic(copula.dim))
            for q_fixed, q_tau in (("SumN", "SumTau"), ("MaxN", "MaxTau"),
                                   ("RunMaxN", "RunMaxTau")):
                a = mc.estimate_tail(plain, q_fixed, xs, 90_000,
                                     seed=13)[0].tolist()
                b = mc.estimate_tail(stopped, q_tau, xs, 90_000,
                                     seed=13)[0].tolist()
                assert a == b, (copula, q_fixed)

    def test_stopped_runs_walk_no_more_columns_than_their_replicates(
            self, monkeypatch):
        # the column walk of _reduce_rows costs one Python step per column,
        # so only the fixed-length path, with the copula's few columns,
        # calls it; a stopped runmax walks columns in _running_max, at most
        # one per replicate of its slice, so equal long lengths are not
        # walked one column per term. The terms are signed, so the runmax
        # is walked rather than read from the sum
        shapes, walks = [], []
        reduce = mc._reduce_rows

        def spy(rect, kinds):
            shapes.append(rect.shape)
            return reduce(rect, kinds)

        src, first = inspect.getsourcelines(mc._running_max)
        step = first + next(i for i, line in enumerate(src)
                            if "pos[:k] += 1" in line)

        def local(frame, event, arg):
            if event == "line" and frame.f_lineno == step:
                walks[-1][1] += 1
            return local

        def trace(frame, event, arg):
            if frame.f_code is mc._running_max.__code__:
                walks.append([len(frame.f_locals["eff"]), 0])
                return local
            return None

        monkeypatch.setattr(mc, "_reduce_rows", spy)
        d = ShiftedBy(Pareto(0.8, 1.0), -2.0)
        for tau in (Deterministic(5_000), Poisson(3.0)):
            m = DependentModel(FGM.bivariate(1.0), (d, d), tau=tau)
            sys.settrace(trace)
            try:
                mc.estimate_tails(m, ["SumTau", "MaxTau", "RunMaxTau"],
                                  [5.0, 500.0], 3_000, seed=13)
            finally:
                sys.settrace(None)
            assert walks and all(cols <= reps for reps, cols in walks), tau
            walks.clear()
        assert shapes == []
        plain = DependentModel(FGM.bivariate(1.0), (d, d))
        mc.estimate_tail(plain, "SumN", [5.0], 1_000, seed=13)
        assert shapes == [(1_000, plain.dim)]

    @pytest.mark.parametrize("model,weights", [
        (indep_pair(Pareto(1.0, 1.0)), None),
        (DependentModel(FGM.bivariate(1.0), (Pareto(0.8, 1.0),
                                              Weibull(0.5, 1.0))), None),
        (DependentModel(Independence(3), (Exponential(1.0),) * 3),
         [2.0, 0.0, -0.0]),
        # signed terms: the running max is walked
        (indep_pair(ShiftedBy(Pareto(2.0, 1.0), -3.0)), None),
        (indep_pair(Pareto(1.0, 1.0)), [1.0, -0.5]),
    ], ids=["pareto", "fgm-mixed", "exponential-weighted", "shifted",
            "negative-weight"])
    def test_runmax_hits_equal_the_column_walk(self, model, weights,
                                               monkeypatch):
        # on nonnegative terms estimate_tails reads RunMaxN from the sum's
        # hits, which must be the hits of the walked running max
        xs = np.array([-1.0, 0.0, 0.5, 3.0, 40.0])
        kinds = ("max", "runmax", "sum")
        weights = None if weights is None else np.asarray(weights)
        vals = model.sample_vector(mc.block_stream(8, 0), 5000)
        if weights is not None:
            vals = vals * weights
        want = mc._count_hits(mc._reduce_rows(vals, kinds), xs)
        walked = []
        reduce = mc._reduce_rows
        monkeypatch.setattr(mc, "_reduce_rows", lambda rect, ks: (
            walked.append(ks), reduce(rect, ks))[1])
        token = {"max": "MaxN", "runmax": "RunMaxN", "sum": "SumN"}
        for ks in (kinds, ("runmax",), ("runmax", "max")):
            got, _ = mc.estimate_tails(model, [token[k] for k in ks], xs,
                                       5000, seed=8, weights=weights)
            assert np.array_equal(got, want[[kinds.index(k) for k in ks]])
        signed = weights is not None and weights.min() < 0
        signed |= model.marginals[0].support()[0] < 0
        assert ("runmax" in walked[1]) == signed

    def test_unit_weights_are_identity(self):
        m = indep_pair(Pareto(1.0, 1.0))
        xs = [4.0, 40.0]
        a = mc.estimate_tail(m, "RunMaxN", xs, 80_000, seed=3)[0].tolist()
        b = mc.estimate_tail(m, "RunMaxN", xs, 80_000, seed=3,
                             weights=[1.0, 1.0])[0].tolist()
        assert a == b

    def test_counting_lane_is_separate(self, monkeypatch):
        # capping every length at 1 makes Geometric1 and Deterministic(1)
        # simulate the same statistic; the copula stream must not have been
        # perturbed by how many counting draws were consumed
        d = Pareto(1.0, 1.0)
        g = DependentModel(Independence(2), (d, d), tau=Geometric1(0.5))
        one = DependentModel(Independence(2), (d, d), tau=Deterministic(1))
        xs = [3.0, 30.0]
        monkeypatch.setattr(mc, "TAU_CAP", 1)
        a = mc.estimate_tail(g, "SumTau", xs, 60_000, seed=8)[0].tolist()
        b = mc.estimate_tail(one, "SumTau", xs, 60_000, seed=8)[0].tolist()
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
            # one column: a replicate fills its rows exactly, so no value
            # is a pad
            DependentModel(Independence(1), (Pareto(0.8, 1.0),),
                           tau=Geometric1(0.3)),
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
            # sums are per segment (reduceat, not left to right, so to a
            # relative 1e-12) and maxima exact; each running maximum adds
            # its own segment left to right, so it is that segment's
            # cumsum max bit for bit
            np.testing.assert_allclose(stats[0], naive[0], rtol=1e-12)
            np.testing.assert_array_equal(stats[1], naive[1])
            np.testing.assert_array_equal(stats[2], naive[2])

    @pytest.mark.parametrize("model", [
        DependentModel(Independence(2), (Pareto(0.8, 1.0),) * 2,
                       tau=Poisson(6.0)),
        DependentModel(FGM.bivariate(0.5), (Pareto(0.8, 1.0),) * 2,
                       tau=Poisson(6.0)),
        DependentModel(Independence(3),
                       (ShiftedBy(Pareto(2.0, 1.0), -3.0),) * 3,
                       tau=Poisson(6.0)),
    ], ids=["independence", "fgm", "dim3"])
    def test_a_replicate_reduces_alone_as_among_others(self, model):
        # replicate 0 draws the same length and values from the same
        # streams whether its block holds 1 replicate (a one-replicate last
        # block) or 500, and each statistic reads only its own draws, so
        # all three are equal bit for bit
        kinds = ("sum", "max", "runmax")
        for seed in range(40):
            alone, among = (
                mc._stats_stopped(model, kinds, mc.block_stream(seed, 0),
                                  mc.block_stream(seed, mc._TAU_LANE),
                                  count, mc.TAU_CAP)[0][:, 0]
                for count in (1, 500))
            np.testing.assert_array_equal(alone, among, err_msg=str(seed))

    # seed 3, block 0 of Independence(2), Pareto(0.1, 1) and Poisson(4):
    # Pareto(0.1) summands push a slice-wide running total to ~1e60
    HEAVY = DependentModel(Independence(2), (Pareto(0.1, 1.0),) * 2,
                           tau=Poisson(4.0))

    def heavy_segments(self, seed):
        taus = self.HEAVY.tau.sample(mc.block_stream(seed, mc._TAU_LANE),
                                     mc.BLOCK_SIZE)
        blocks = (taus + 1) // 2
        flat = self.HEAVY.marginals[0].ppf_from_uniform(
            self.HEAVY.copula.sample(mc.block_stream(seed, 0),
                                     int(blocks.sum())).ravel())
        starts = np.cumsum(2 * blocks) - 2 * blocks
        return [flat[a:a + t] for a, t in zip(starts, taus)]

    def heavy_stats(self, seed, kinds):
        stats, _ = mc._stats_stopped(self.HEAVY, kinds,
                                     mc.block_stream(seed, 0),
                                     mc.block_stream(seed, mc._TAU_LANE),
                                     mc.BLOCK_SIZE, mc.TAU_CAP)
        return stats[0]

    def test_stopped_sums_keep_precision_under_very_heavy_tails(self):
        # each replicate's sum must still be its own, as a math.fsum loop
        # gives it
        seed, x = 3, 10.0
        stats = self.heavy_stats(seed, ("sum",))
        loop = np.array([math.fsum(seg) for seg in self.heavy_segments(seed)])
        assert int(np.count_nonzero(stats > x)) == int(
            np.count_nonzero(loop > x))
        np.testing.assert_allclose(stats, loop, rtol=1e-12)

    def test_stopped_running_maxima_keep_precision_under_very_heavy_tails(
            self):
        # the running maximum of each replicate is its own segment's: the
        # hits are the math.fsum loop's (a slice-wide cumsum differenced per
        # replicate, pads zeroed, counts 239 of them on these draws), and
        # every value is the segment's cumsum max bit for bit
        seed, x = 3, 10.0
        stats = self.heavy_stats(seed, ("runmax",))
        segments = self.heavy_segments(seed)
        exact = np.array([max((math.fsum(seg[:k]) for k in
                               range(1, len(seg) + 1)), default=0.0)
                          for seg in segments])
        assert int(np.count_nonzero(stats > x)) == int(
            np.count_nonzero(exact > x)) == 15_700
        np.testing.assert_array_equal(stats, [
            np.cumsum(seg).max() if len(seg) else 0.0 for seg in segments])

    @pytest.mark.parametrize("kinds", [("sum", "max", "runmax"), ("runmax",)])
    def test_running_maxima_of_hand_built_lengths(self, kinds):
        # every length around the powers of two up to 2^12, three times
        # each, zero-length replicates, one replicate at TAU_CAP, in shuffled
        # order; negative summands, and dim 3 pads replicates by 1 and 2
        powers = [1 << k for k in range(13)]
        lengths = [0, 1] + [p + d for p in powers for d in (-1, 0, 1)]
        eff = np.array(3 * lengths + [mc.TAU_CAP], dtype=np.int64)
        np.random.default_rng(1).shuffle(eff)
        model = DependentModel(Independence(3),
                               (ShiftedBy(Pareto(2.0, 1.0), -3.0),) * 3,
                               tau=Poisson(1.0))
        sizes = (eff + 2) // 3 * 3
        starts = np.cumsum(sizes) - sizes
        rows = int(sizes.sum()) // 3
        stats = np.empty((len(kinds), len(eff)))
        mc._reduce_slice(model, kinds, model.copula.sample(
            mc.block_stream(6, 0), rows).ravel(), eff, sizes, starts, stats)
        flat = model.marginals[0].ppf_from_uniform(model.copula.sample(
            mc.block_stream(6, 0), rows).ravel())
        segments = [flat[a:a + t] for a, t in zip(starts, eff)]
        runmax = [np.cumsum(seg).max() if len(seg) else 0.0
                  for seg in segments]
        np.testing.assert_array_equal(stats[kinds.index("runmax")], runmax)
        if "sum" in kinds:
            np.testing.assert_allclose(
                stats[kinds.index("sum")],
                [math.fsum(seg) for seg in segments], rtol=1e-12)
            np.testing.assert_array_equal(
                stats[kinds.index("max")],
                [seg.max() if len(seg) else -np.inf for seg in segments])


class TestShareCount:
    """workers is a ceiling: a share forks only when every share draws at
    least _SHARE_VALUES values, and the hits never depend on it."""

    C31 = ex.PRESETS["C3.1"]
    T42 = ex.PRESETS["T4.2"]

    def c31_pass(self, workers):
        xs = ex.quantile_grid(self.C31.model.marginals)
        return listed(mc.estimate_tails(
            self.C31.model, [c.quantity for c in self.C31.claims], xs,
            262_144, 0, workers=workers))

    def test_the_rule(self):
        fixed = indep_pair(Pareto(1.0, 1.0))
        poisson = DependentModel(Independence(2), (Pareto(1.0, 1.0),) * 2,
                                 tau=Poisson(2.0))
        g = mc._SHARE_VALUES
        # (model, stopped, samples, workers, blocks) -> shares
        assert mc._share_count(fixed, False, g // 2 - 1, 8, 64) == 1
        assert mc._share_count(fixed, False, g // 2, 8, 64) == 1
        assert mc._share_count(fixed, False, g, 8, 64) == 2
        assert mc._share_count(fixed, False, 8 * g, 8, 64) == 8
        assert mc._share_count(fixed, False, 8 * g, 8, 5) == 5
        assert mc._share_count(fixed, False, 8 * g, 3, 64) == 3
        # a Poisson(2) pair draws E[tau] + dim - 1 = 3 values a replicate
        assert mc._share_count(poisson, True, g // 3, 8, 64) == 1
        assert mc._share_count(poisson, True, g, 8, 64) == 3
        # an infinite-mean count draws up to TAU_CAP values: it always forks
        assert mc._share_count(self.T42.model, True, 2, 8, 1) == 1
        assert mc._share_count(self.T42.model, True, 2, 8, 2) == 2

    def test_c31_at_its_benchmark_budget_forks_nothing(self, forks):
        one = self.c31_pass(workers=1)
        assert self.c31_pass(workers=2) == one
        assert forks == []

    @pytest.mark.parametrize("workers,forked", [(2, 1), (3, 2), (8, 3)])
    def test_c31_below_a_lower_floor_forks_w_minus_one(self, monkeypatch,
                                                       forks, workers,
                                                       forked):
        one = self.c31_pass(workers=1)
        assert forks == []
        # 2^18 replicates of 2 values hold 4 shares of 2^17 values
        monkeypatch.setattr(mc, "_SHARE_VALUES", 1 << 17)
        assert self.c31_pass(workers) == one
        assert len(forks) == forked

    def test_an_infinite_mean_count_at_two_blocks_forks_one(self, forks):
        args = (self.T42.model, [c.quantity for c in self.T42.claims],
                ex.quantile_grid(self.T42.model.marginals), 2 * BLOCK_SIZE, 0)
        one = listed(mc.estimate_tails(*args, workers=1))
        assert forks == []
        assert listed(mc.estimate_tails(*args, workers=2)) == one
        assert len(forks) == 1

    @pytest.mark.parametrize("model,quantities", [
        (indep_pair(Pareto(0.8, 1.0)), ["SumN", "MaxN"]),
        (DependentModel(Independence(2), (Pareto(0.8, 1.0),) * 2,
                        tau=Poisson(2.0)), ["SumTau", "MaxTau"]),
    ], ids=["fixed", "stopped"])
    def test_bytes_do_not_depend_on_workers_on_either_side_of_the_floor(
            self, monkeypatch, forks, model, quantities):
        # at 2^17 values a share, 3 blocks make one share and 12 blocks
        # make three, for 2 and 3 values a replicate alike
        monkeypatch.setattr(mc, "_SHARE_VALUES", 1 << 17)
        xs = [1.5, 10.0, 100.0, 1000.0]
        for blocks, shares in ((3, 1), (12, 3)):
            samples = blocks * BLOCK_SIZE
            one = listed(mc.estimate_tails(model, quantities, xs, samples,
                                           seed=4, workers=1))
            for workers in (2, 3):
                forks.clear()
                got = mc.estimate_tails(model, quantities, xs, samples,
                                        seed=4, workers=workers)
                assert listed(got) == one, (blocks, workers)
                assert len(forks) == min(workers, shares) - 1

    @pytest.mark.parametrize("outcome", ["return", "error", "lost",
                                         "interrupt"])
    def test_no_child_is_left_behind(self, monkeypatch, every_share_forks,
                                     outcome):
        real = mc._simulate_block

        def block(*args):
            if outcome == "error":
                raise ModelConfigError("every block fails")
            if outcome == "lost" and args[-1] == 1:
                os._exit(3)
            if outcome == "interrupt" and args[-1] == 0:
                raise KeyboardInterrupt
            return real(*args)

        monkeypatch.setattr(mc, "_simulate_block", block)
        raised = {"return": None, "error": ModelConfigError,
                  "lost": WorkerCrashed, "interrupt": KeyboardInterrupt}
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)
        m = indep_pair(Pareto(0.8, 1.0))
        args = (m, "SumN", [10.0], 3 * BLOCK_SIZE, 3)
        if raised[outcome] is None:
            mc.estimate_tail(*args, workers=3)
        else:
            with pytest.raises(raised[outcome]):
                mc.estimate_tail(*args, workers=3)
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)


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
        # forked workers inherit the patched cap, and every share forks
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(mc, "TAU_CAP", case["tau_cap"])
            patch.setattr(mc, "_SHARE_VALUES", 1)
            shared, notes = mc.estimate_tails(
                case["model"], case["quantities"], xs, case["samples"],
                case["seed"], workers=case["workers"],
                weights=case["weights"])
            assert len(shared) == len(case["quantities"])
            for q, row in zip(case["quantities"], shared):
                alone = mc.estimate_tail(case["model"], q, xs,
                                         case["samples"], case["seed"],
                                         weights=case["weights"])
                assert (row.tolist(), notes) == listed(alone), q

    def test_mixed_stopped_and_fixed_rejected(self):
        d = Pareto(1.0, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Poisson(2.0))
        with pytest.raises(InvalidInput):
            mc.estimate_tails(m, ["SumN", "SumTau"], [1.0], 100, seed=1)
        with pytest.raises(InvalidInput):
            mc.estimate_tails(m, [], [1.0], 100, seed=1)

    # the T4.2 model: an infinite-mean Zeta count over Pareto(1) pairs
    T42 = DependentModel(Independence(2), (Pareto(1.0, 1.0),) * 2,
                         tau=Zeta(1.5))

    @pytest.mark.parametrize("model,kinds,extra", [
        (T42, ("max", "sum"), 0),
        # runmax reads each replicate's terms where they lie, with a few
        # arrays of one value per replicate
        (T42, ("runmax",), 0),
        # FGM adds the temporaries of its inversion: about ten arrays of
        # copulas._FGM_BATCH rows, whatever the slice size
        (DependentModel(FGM.bivariate(0.5), (Pareto(1.0, 1.0),) * 2,
                        tau=Zeta(1.5)), ("max", "sum"), 10 * 8 * _FGM_BATCH),
        # a light count's block is one slice smaller than the budget, held
        # in one buffer of its own values; the rest is arrays of one value
        # per replicate: the lengths, the layout, the statistics and
        # runmax's walk (measured: 1.50 MiB on C5.2, 2.05 MiB on T4.4i,
        # 0.31 MiB of values each)
        (RISK["C5.2"].model, ("runmax",), 8 * 8 * BLOCK_SIZE),
        (ex.PRESETS["T4.4i"].model, ("runmax", "sum"), 12 * 8 * BLOCK_SIZE),
    ], ids=["T4.2", "T4.2-runmax", "fgm", "C5.2-runmax", "T4.4i"])
    def test_stopped_block_memory_is_bounded(self, model, kinds, extra):
        # one infinite-mean Zeta block touches about 26M coordinates in
        # slices of at most max(_CHUNK_VALUES, TAU_CAP) values, a capped
        # replicate filling one alone; the inverse transform overwrites the
        # uniforms, so the live float64 data per slice stays near one array
        # of that many values (measured: 8.7 MiB on T4.2, 11.2 MiB on FGM);
        # the bound leaves 25% for the per-replicate index arrays. A block
        # smaller than a slice is held to about two arrays of its own
        # values, not to the budget.
        taus = model.tau.sample(mc.block_stream(0, mc._TAU_LANE),
                                mc.BLOCK_SIZE)
        dim = model.dim
        values = int(np.sum((np.minimum(taus, mc.TAU_CAP) + dim - 1)
                            // dim * dim))
        tracemalloc.start()
        try:
            mc._stats_stopped(model, kinds, mc.block_stream(0, 0),
                              mc.block_stream(0, mc._TAU_LANE),
                              mc.BLOCK_SIZE, mc.TAU_CAP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        slice_values = max(mc._CHUNK_VALUES, mc.TAU_CAP)
        bound = 8 * min(1.25 * slice_values, 2 * values) + extra
        assert peak <= bound, (peak / 2 ** 20, bound / 2 ** 20)

    @pytest.mark.parametrize("model", [
        T42,
        DependentModel(Independence(2), (Pareto(1.5, 1.0),) * 2,
                       tau=Poisson(2.0)),
    ], ids=["T4.2", "poisson"])
    def test_slice_budget_moves_no_statistic(self, model, monkeypatch):
        # every statistic reduces each replicate's own segment, so how
        # replicates are grouped into slices cannot move a bit
        kinds = ("sum", "max", "runmax")
        got = {}
        for budget in (1 << 22, 1 << 20, 1 << 16, 1 << 12):
            monkeypatch.setattr(mc, "_CHUNK_VALUES", budget)
            got[budget], _ = mc._stats_stopped(
                model, kinds, mc.block_stream(5, 0),
                mc.block_stream(5, mc._TAU_LANE), mc.BLOCK_SIZE, mc.TAU_CAP)
        for budget in (1 << 20, 1 << 16, 1 << 12):
            np.testing.assert_array_equal(got[budget], got[1 << 22])

    def test_slices_span_settled_replicates(self, monkeypatch):
        # against T4.2's grid end a block settles its longest replicates,
        # and the slices fill across them: at 2^22 the block reduces in one
        # slice, at 2^12 in many, and every statistic keeps its bits; the
        # hits are those of the full draw
        grid = TestSettledReplicates.GRID
        (_, full), mask = TestSettledReplicates().run_both(
            self.T42, ("max", "sum"), grid, mc.BLOCK_SIZE, mc.TAU_CAP,
            monkeypatch)
        reduce, slices = mc._reduce_slice, []
        monkeypatch.setattr(mc, "_reduce_slice", lambda *a: (
            slices.append(len(a[3])), reduce(*a))[1])
        got, reduced = {}, {}
        for budget in (1 << 22, 1 << 16, 1 << 12):
            monkeypatch.setattr(mc, "_CHUNK_VALUES", budget)
            slices.clear()
            got[budget], _ = mc._stats_stopped(
                self.T42, ("max", "sum"), mc.block_stream(4, 0),
                mc.block_stream(4, mc._TAU_LANE), mc.BLOCK_SIZE, mc.TAU_CAP,
                float(grid.max()))
            assert sum(slices) == mc.BLOCK_SIZE
            reduced[budget] = len(slices)
        # fewer slices at the default budget than settled replicates
        assert reduced[1 << 22] == 1
        assert reduced[1 << 16] < np.count_nonzero(mask) < reduced[1 << 12]
        for budget in (1 << 16, 1 << 12):
            np.testing.assert_array_equal(got[budget], got[1 << 22])
        np.testing.assert_array_equal(got[1 << 22][:, ~mask], full[:, ~mask])
        assert np.array_equal(mc._count_hits(got[1 << 22], grid),
                              mc._count_hits(full, grid))


class TestNonnegativeRunningMax:
    """A running max of nonnegative terms reads the sum's hits on the
    stopped path too: it walks no running max, and a long replicate
    settles as the sum does."""

    T44II = ex.PRESETS["T4.4ii"].model

    def spy(self, monkeypatch):
        walks, settled = [], []
        walk, settle = mc._running_max, mc._settle
        monkeypatch.setattr(mc, "_running_max", lambda *a: (
            walks.append(len(a[2])), walk(*a))[1])
        monkeypatch.setattr(mc, "_settle", lambda model, kinds, *a: (
            settled.append(kinds), settle(model, kinds, *a))[1])
        return walks, settled

    def test_stopped_runmax_takes_the_sum_hits(self, monkeypatch):
        xs = np.geomspace(3.0, 300.0, 8)
        # one block's running maxima, walked
        stats, _ = mc._stats_stopped(
            self.T44II, ("runmax",), mc.block_stream(5, 0),
            mc.block_stream(5, mc._TAU_LANE), BLOCK_SIZE, mc.TAU_CAP)
        walked = mc._count_hits(stats, xs)[0].tolist()
        walks, _ = self.spy(monkeypatch)
        (runmax, total), _ = mc.estimate_tails(
            self.T44II, ["RunMaxTau", "SumTau"], xs, BLOCK_SIZE, seed=5)
        alone, _ = mc.estimate_tail(self.T44II, "RunMaxTau", xs, BLOCK_SIZE,
                                    seed=5)
        assert walks == []
        assert (runmax.tolist() == alone.tolist() == total.tolist()
                == walked)

    def test_zeta_stopped_runmax_settles(self, monkeypatch):
        walks, settled = self.spy(monkeypatch)
        grid = np.geomspace(10.0, 1e4, 8)
        runmax = listed(mc.estimate_tail(TestSharedPass.T42, "RunMaxTau",
                                         grid, 4096, seed=4))
        assert walks == [] and settled and set(settled) == {("sum",)}
        total = listed(mc.estimate_tail(TestSharedPass.T42, "SumTau", grid,
                                        4096, seed=4))
        assert runmax == total


class TestStreamAdvance:
    """A stream skips n words by advance exactly as drawing n words moves
    it, so _settle may skip the rows it does not need."""

    @pytest.mark.parametrize("drawn", [0, 1, 3, 4, 5, 11])
    def test_advance_equals_drawing_the_words(self, drawn):
        for skip in range(10):
            rng = mc.block_stream(7, 3)
            rng.random(drawn)
            rng.bit_generator.advance(skip)
            ref = mc.block_stream(7, 3)
            ref.random(drawn + skip)
            assert np.array_equal(rng.random(9), ref.random(9)), skip

    @pytest.mark.parametrize("copula", [Independence(3), Comonotone(3),
                                        FGM.bivariate(0.5)], ids=repr)
    @pytest.mark.parametrize("rows", [1, 37, 4096])
    def test_rows_advance_words_per_row_words(self, copula, rows):
        rng = mc.block_stream(2, 0)
        copula.sample(rng, rows)
        ref = mc.block_stream(2, 0)
        ref.bit_generator.advance(rows * copula.words_per_row)
        np.testing.assert_array_equal(copula.sample(rng, 4),
                                      copula.sample(ref, 4))


class TestBlockStream:
    def test_first_words_are_pinned(self):
        # the generator and its seeding fix every Monte Carlo byte; a change
        # to either in numpy fails here before it fails the goldens
        assert mc.block_stream(0, 0).random(4).tolist() == [
            0.15390745621903046, 0.8581780487903488, 0.8192615347374336,
            0.35904550197725715]
        assert mc.block_stream(0, mc._TAU_LANE).random(4).tolist() == [
            0.16916399486569322, 0.3725850901549548, 0.2892826700720911,
            0.7411881639665792]

    def test_keys_are_injective(self):
        # list entropy would pack these two keys to the same seed words
        a = mc.block_stream(1 << 32, 5).random(4)
        assert not np.array_equal(
            a, mc.block_stream(0, 1 + 5 * (1 << 32)).random(4))
        for seed, block in ((0, 0), (5, 3), (1 << 32, 7)):
            assert not np.array_equal(
                mc.block_stream(seed, block).random(4),
                mc.block_stream(seed, mc._TAU_LANE + block).random(4))


class TestSettledReplicates:
    """Long stopped replicates settled against the grid end give the hits
    that drawing them in full gives, and leave the stream where it would be.
    """

    GRID = np.geomspace(10.0, 1e4, 8)

    def run_both(self, model, kinds, xs, count, cap, monkeypatch):
        masks = []
        real = mc._settles

        def spy(*args):
            masks.append(real(*args))
            return masks[-1]

        monkeypatch.setattr(mc, "_settles", spy)
        got = [mc._stats_stopped(model, kinds, mc.block_stream(4, 0),
                                 mc.block_stream(4, mc._TAU_LANE), count, cap,
                                 top)[0]
               for top in (float(np.max(xs)), math.inf)]
        return got, masks[0]

    @pytest.mark.parametrize("model,kinds,xs,count,cap", [
        (TestSharedPass.T42, ("max", "sum"), GRID, BLOCK_SIZE, mc.TAU_CAP),
        (DependentModel(FGM.bivariate(0.5), (Pareto(1.0, 1.0),) * 2,
                        tau=Zeta(1.5)), ("max", "sum"), GRID, 4096,
         mc.TAU_CAP),
        (DependentModel(Comonotone(2), (Pareto(1.0, 1.0),) * 2,
                        tau=Zeta(1.2)), ("max", "sum"), GRID, 2000, 1 << 16),
        (DependentModel(Independence(3), (Pareto(1.0, 1.0),) * 3,
                        tau=Zeta(1.2)), ("max", "sum"), GRID, 2000, 1 << 16),
        (TestSharedPass.T42, ("sum",), GRID, 4096, mc.TAU_CAP),
        (TestSharedPass.T42, ("max",), GRID, 4096, mc.TAU_CAP),
        # negative support: the sum is never decided, the max alone settles
        (DependentModel(Independence(2),
                        (ShiftedBy(Pareto(2.0, 1.0), -3.0),) * 2,
                        tau=Zeta(1.2)), ("max",), [-5.0, 2.0, 50.0], 2000,
         1 << 16),
        # a float quantile that steps down by a few ulps here and there
        (DependentModel(Independence(2), (Lognormal(0.0, 1.0),) * 2,
                        tau=Zeta(1.2)), ("max",), [1.0, 5.0, 20.0], 2000,
         1 << 16),
    ], ids=["T4.2", "fgm", "comonotone", "independence3", "sum-alone",
            "max-alone", "shifted", "lognormal"])
    def test_hits_equal_the_full_draw(self, model, kinds, xs, count, cap,
                                      monkeypatch):
        xs = np.asarray(xs)
        (settled, full), mask = self.run_both(model, kinds, xs, count, cap,
                                              monkeypatch)
        assert 0 < np.count_nonzero(mask) < count
        assert np.array_equal(mc._count_hits(settled, xs),
                              mc._count_hits(full, xs))
        # every replicate after a settled one saw the same draws
        assert np.array_equal(settled[:, ~mask], full[:, ~mask])
        # a settled max is the full max or a lower bound above the grid end
        if "max" in kinds:
            top = settled[kinds.index("max"), mask]
            whole = full[kinds.index("max"), mask]
            assert np.all((top == whole) | ((top > xs.max()) & (top <= whole)))
        if "sum" in kinds:
            assert np.all(settled[kinds.index("sum"), mask] > xs.max())

    def test_undecided_sum_settles_nothing(self, monkeypatch):
        model = DependentModel(Independence(2),
                               (ShiftedBy(Pareto(2.0, 1.0), -3.0),) * 2,
                               tau=Zeta(1.2))
        (settled, full), mask = self.run_both(
            model, ("max", "sum"), [50.0], 2000, 1 << 16, monkeypatch)
        assert not mask.any()
        assert np.array_equal(settled, full)

    def test_a_nan_value_stops_the_pieces_and_stays_the_max(self,
                                                            monkeypatch):
        # the first piece's largest uniform maps to NaN; without it no
        # value tops the grid end and every piece would be drawn
        bad = Independence(2).sample(mc.block_stream(4, 0),
                                     mc._PIECE_FIRST).max()

        class NanAtOne(Pareto):
            def _ppf_arr(self, u):
                hit = u == bad
                out = super()._ppf_arr(u)
                out[hit] = math.nan
                return out

        model = DependentModel(Independence(2), (NanAtOne(1.0, 1.0),) * 2,
                               tau=Zeta(1.5))
        pieces = []
        sample = Independence.sample
        monkeypatch.setattr(Independence, "sample",
                            lambda self, g, n, out=None: (
                                pieces.append(n), sample(self, g, n, out))[1])
        rows = 8 * mc._PIECE_MAX
        rng = mc.block_stream(4, 0)
        got = mc._settle(model, ("max",), rng, 2 * rows, rows, 1e300,
                         np.empty(2 * mc._PIECE_MAX))
        assert math.isnan(got[0])
        assert pieces == [mc._PIECE_FIRST]
        # the skip leaves the stream where drawing every row would
        whole = mc.block_stream(4, 0)
        whole.random(2 * rows)
        assert rng.random() == whole.random()

    @pytest.mark.parametrize("kinds", [("max", "sum", "runmax"), ("runmax",)])
    def test_runmax_keeps_the_slice_path(self, kinds, monkeypatch):
        (settled, full), mask = self.run_both(
            TestSharedPass.T42, kinds, self.GRID, 4096, mc.TAU_CAP,
            monkeypatch)
        assert not mask.any()
        assert np.array_equal(settled, full)


class TestCountHits:
    def test_equals_the_comparison_loop(self):
        rng = np.random.default_rng(5)
        stats = rng.choice([-np.inf, -1.0, 0.0, -0.0, 0.5, 2.0, 7.0, np.inf,
                            np.nan], size=(3, 500))
        stats[1] = rng.standard_cauchy(500)
        stats[1, ::7] = np.nan
        xs = np.array([2.0, -np.inf, 0.0, 7.0, 0.5, np.inf, 2.0, -1.0, -0.0,
                       1e9, -3.0])
        loop = np.array([[np.count_nonzero(s > x) for x in xs]
                         for s in stats])
        got = mc._count_hits(stats, xs)
        assert got.dtype == np.int64
        assert np.array_equal(got, loop)


# every family's inverse transform stays on its support, down to u = 0:
# a settled stopped sum is the bound length * support()[0]
SUPPORT_FAMILIES = MARGINALS + (
    Weibull(0.5, 1.0), Weibull(0.3, 3.0), Lognormal(0.0, 1.0),
    Lognormal(-2.0, 0.5), DiscreteAtoms(((0.5, 0.4), (2.0, 0.3), (7.0, 0.3))),
    ShiftedBy(DiscreteAtoms(((0.0, 0.5), (3.0, 0.5))), -1.0),
    IntegratedTail(Pareto(2.5, 1.0)))


def quantile_reach(law, u) -> float:
    """The widest u' - u over u < u' in the array u whose values decrease:
    how far in u the inverse transform fails to be nondecreasing."""
    u = np.unique(u)
    vals = law.ppf_from_uniform(u.copy())
    top = np.maximum.accumulate(vals)
    drops = np.flatnonzero(top[:-1] > vals[1:]) + 1
    if not len(drops):
        return 0.0
    # the first uniform whose value lies above each dropped one
    first = np.searchsorted(top, vals[drops], side="right")
    return float(np.max(u[drops] - u[first]))


@pytest.mark.parametrize("law", SUPPORT_FAMILIES, ids=repr)
def test_quantile_reach_is_far_inside_the_max_window(law):
    # a settled max transforms only the uniforms within _MAX_WINDOW of a
    # piece's largest, which is exact while every decrease of the float
    # quantile spans less than that in u. IntegratedTail bisects 64 rounds
    # per value, about 7 us, so it takes the coarser grid; on the fine one
    # it measures no decrease either.
    bits, draws = ((14, 1 << 16) if isinstance(law, IntegratedTail)
                   else (20, 10 ** 6))
    grid = np.concatenate(([0.0, _BELOW_ONE],
                           np.arange(1 << bits) / 2.0 ** bits))
    grid = np.concatenate((grid, np.nextafter(grid, 0.0),
                           np.nextafter(grid, 1.0)))
    grid = grid[(grid >= 0.0) & (grid < 1.0)]
    for u in (grid, np.random.default_rng(23).random(draws)):
        assert quantile_reach(law, u) < mc._MAX_WINDOW / 1024


def test_quantile_reach_sees_a_decrease():
    class Dips(Pareto):
        def _ppf_arr(self, u):
            dip = (u > 0.5) & (u < 0.5 + 1e-9)
            out = super()._ppf_arr(u)
            out[dip] = 1.0
            return out

    u = np.array([0.25, 0.5, 0.5 + 2e-10, 0.5 + 5e-10, 0.75])
    assert quantile_reach(Dips(1.0, 1.0), u) == pytest.approx(5e-10 + 0.25)
    assert quantile_reach(Pareto(1.0, 1.0), u) == 0.0


@pytest.mark.parametrize("law", SUPPORT_FAMILIES, ids=repr)
def test_inverse_transform_respects_the_support_minimum(law):
    u = np.concatenate(([0.0, _BELOW_ONE, 1e-300, 5e-324],
                        np.random.default_rng(11).random(2000)))
    lo, hi = law.support()
    vals = law.ppf_from_uniform(u.copy())
    assert np.all(vals >= lo), vals.min()
    assert np.all(vals <= hi)


class TestPathwiseOrderings:
    def test_runmax_dominates_sum_and_max_dominated_by_sum(self):
        # on shared draws: max of prefix sums >= final sum, and for
        # nonnegative terms the largest term <= the sum
        d = Pareto(1.2, 1.0)
        m = DependentModel(FGM.bivariate(1.0), (d, d))
        xs = [5.0, 20.0, 80.0]
        sums, _ = mc.estimate_tail(m, "SumN", xs, 100_000, seed=27)
        runs, _ = mc.estimate_tail(m, "RunMaxN", xs, 100_000, seed=27)
        maxs, _ = mc.estimate_tail(m, "MaxN", xs, 100_000, seed=27)
        for s, r, x in zip(sums, runs, maxs):
            assert r >= s >= x

    def test_geometric_unit_probability_collapses_quantities(self):
        # p=1 forces tau == 1, where sum, max and running max all equal X1
        d = Pareto(1.5, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Geometric1(1.0))
        xs = [2.0, 8.0]
        got = {q: mc.estimate_tail(m, q, xs, 60_000, seed=4)[0].tolist()
               for q in ("SumTau", "MaxTau", "RunMaxTau")}
        assert got["SumTau"] == got["MaxTau"] == got["RunMaxTau"]


class TestStoppedEdgeCases:
    def test_tau_zero_gives_empty_statistics(self):
        d = Pareto(1.0, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Poisson(0.0))
        for q in ("SumTau", "MaxTau", "RunMaxTau"):
            hits, _ = mc.estimate_tail(m, q, [0.5], 10_000, seed=2)
            assert hits[0] == 0, q

    def test_zeta_cap_is_reported(self, monkeypatch):
        d = Pareto(0.8, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Zeta(1.5))
        monkeypatch.setattr(mc, "TAU_CAP", 1 << 12)
        _, notes = mc.estimate_tail(m, "MaxTau", [50.0], 20_000, seed=17)
        assert notes and "capped" in notes[0]

    def test_zeta_maxtau_dominates_single_tail(self, monkeypatch):
        # tau >= 1 always, so the stopped max is stochastically above one draw
        d = Pareto(0.8, 1.0)
        m = DependentModel(Independence(2), (d, d), tau=Zeta(1.5))
        x = 50.0
        monkeypatch.setattr(mc, "TAU_CAP", 1 << 12)
        hits, _ = mc.estimate_tail(m, "MaxTau", [x], 20_000, seed=23)
        assert hits[0] / 20_000 > float(d.tail(x))

    def test_poisson_sumtau_wald_mean(self):
        # E S_tau = E tau * E X for independent stopping: check via moderate x
        d = Exponential(1.0)
        m = DependentModel(Independence(2), (d, d), tau=Poisson(2.0))
        # P(S_tau > 0) = P(tau >= 1) = 1 - e^-2 with positive summands
        hits, _ = mc.estimate_tail(m, "SumTau", [1e-12], 100_000, seed=29)
        (p_hat,), (stderr,) = rates(hits, 100_000)
        true = 1.0 - np.exp(-2.0)
        assert abs(p_hat - true) <= 4.0 * max(stderr, 1e-9)


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

    def test_samples_above_the_cap(self):
        # 2^36 replicates run 2^22 blocks; one more is refused before any
        # array is sized
        m = indep_pair(Pareto(1.0, 1.0))
        assert MAX_SAMPLES == 1 << 36
        for samples in (10 ** 23, MAX_SAMPLES + 1):
            with pytest.raises(InvalidInput, match="2\\^36"):
                mc.estimate_tail(m, "SumN", [1.0], samples, seed=1)

    def test_block_index_outside_64_bits(self):
        for index in (-1, 1 << 64, 10 ** 23):
            with pytest.raises(InvalidInput, match="block index"):
                mc.block_stream(0, index)
        mc.block_stream(0, (1 << 64) - 1)

    def test_poisson_mean_beyond_the_sampler(self):
        # numpy's Poisson sampler stops near 9.2e18
        assert Poisson(1e18).sample(mc.block_stream(0, 0), 2).min() > 0
        for lam in (1e23, math.inf, math.nan, -1.0):
            with pytest.raises(InvalidInput, match="lam"):
                Poisson(lam)

    def test_bad_seed(self):
        m = indep_pair(Pareto(1.0, 1.0))
        with pytest.raises(InvalidInput):
            mc.estimate_tail(m, "SumN", [1.0], 100, seed=-1)
        with pytest.raises(InvalidInput):
            mc.estimate_tail(m, "SumN", [1.0], 100, seed=1.5)


class TestTailEstimate:
    def test_ci_clipped(self):
        lo, hi = ex.wald_interval(0.999, 0.01)
        assert 0.0 <= lo <= hi == 1.0

    def test_stderr_formula(self):
        # the engine counts hits; the grader forms p_hat and its stderr
        m = indep_pair(Exponential(1.0))
        (hits,), _ = mc.estimate_tail(m, "SumN", [3.0], 40_000, seed=6)
        (e,) = ex.run_experiment(m, "SumN", ex.Denominator("n_tail", n=2),
                                 x_grid=[3.0], samples=40_000,
                                 seed=6).points
        assert e.numerator == hits / 40_000
        assert e.stderr == pytest.approx(
            np.sqrt(e.numerator * (1 - e.numerator) / 40_000), rel=1e-12, abs=0)

    def test_shifted_negative_mean_runmax(self):
        # net-claim style marginals with mean -1: running max still finite
        # and the tail estimate is a probability
        z = ShiftedBy(Pareto(2.0, 1.0), -3.0)
        m = DependentModel(Independence(2), (z, z), tau=Poisson(2.0))
        (hits,), _ = mc.estimate_tail(m, "RunMaxTau", [5.0], 50_000, seed=41)
        p_hat = hits / 50_000
        assert 0.0 <= p_hat <= 1.0
        assert p_hat < 0.2  # deep in the tail of a mean-negative walk
