"""Acceptance gate: one test per advertised guarantee, numbered 1 to 11.

Every test prints a single checklist line with the measured quantity next
to the bound it had to meet; the project pytest config replays those lines
after the run (-rP), so a verbose run ends with the numbered checklist.
Heavy Monte Carlo runs are cached at module level and shared between
criteria. The whole file is meant to stay under a few minutes on a laptop
with eight workers.
"""

import json
import time
from functools import lru_cache

import numpy as np
import pytest

from heavytails import cli
from heavytails import convolution as conv
from heavytails import diagnostics as diag
from heavytails import experiments as ex
from heavytails import montecarlo as mc
from heavytails.copulas import Comonotone, DependentModel, Independence
from heavytails.counting import Zeta
from heavytails.distributions import (Exponential, GeometricAtomMixture,
                                      Pareto, Weibull, quantile_grid)
from heavytails.risk import RISK_PRESETS, DiscreteRiskModel, run_preset

WORKERS = 8


def rates(hits, samples):
    """p_hat = hits / samples and its binomial stderr, as the grader forms
    them from the engine's counts."""
    p_hat = hits / samples
    return p_hat, np.sqrt(p_hat * (1.0 - p_hat) / samples)


def checkline(num, ok, detail):
    mark = "PASS" if ok else "FAIL"
    print(f"criterion {num:>2}: {mark} - {detail}")
    assert ok, f"criterion {num}: {detail}"


@lru_cache(maxsize=None)
def heavy_suite(theorem_id, samples):
    start = time.perf_counter()
    curves = run_preset(theorem_id, samples=samples, seed=0,
                        workers=WORKERS)
    elapsed = time.perf_counter() - start
    return {c.experiment_id: c for c in curves}, elapsed


def test_criterion_01_comonotone_pair_doubles_the_tail_exponent():
    worst_ulp = 0.0
    for alpha in (0.5, 1.0, 2.0):
        model = DependentModel(
            Comonotone(2), (Pareto(alpha, 1.0), Pareto(alpha, 1.0)))
        target = 2.0 ** alpha

        # exact identity on a dyadic grid: the pair sum is twice one
        # coordinate, so the ratio to a single tail is a pure power
        dyadic = 4.0 ** np.arange(1, 11)
        curve = ex.run_experiment(
            model, "SumN", ex.Denominator("n_tail", n=1), x_grid=dyadic,
            numerator="exact", predicted=target, tolerance=1e-9,
            experiment_id=f"pair-{alpha}")
        assert curve.verdict == "consistent"
        assert curve.samples == 0 and all(
            p.stderr == 0.0 for p in curve.points)
        exact = all(r == target for r in curve.ratios)
        assert exact, f"alpha={alpha}: dyadic grid not bit-exact"

        # off the dyadic grid the power-law evaluation rounds, one ulp
        dense = np.geomspace(2.0, 1.0e6, 101)
        dcurve = ex.run_experiment(
            model, "SumN", ex.Denominator("n_tail", n=1), x_grid=dense,
            numerator="exact", predicted=target, tolerance=1e-9,
            experiment_id=f"pair-dense-{alpha}")
        rel = np.max(np.abs(np.asarray(dcurve.ratios) / target - 1.0))
        worst_ulp = max(worst_ulp, rel)
        assert rel <= 5e-16

        # sampled estimates agree at three grid points
        xs_mc = np.array([4.0, 8.0, 16.0])
        hits, _ = mc.estimate_tail(model, "SumN", xs_mc, 1_000_000,
                                   seed=int(10 * alpha), workers=WORKERS)
        for x, p_hat, stderr in zip(xs_mc, *rates(hits, 1_000_000)):
            tail = model.marginals[0].tail(x)
            assert abs(p_hat / tail - target) <= 4.0 * stderr / tail

    checkline(1, True,
              f"ratio equals 2^alpha bitwise on the dyadic grid for alpha "
              f"in (0.5, 1, 2); dense grid within {worst_ulp:.2e}; sampled "
              f"ratio within 4 stderr at 3 points each")


def test_criterion_02_atom_mixture_breaks_the_factor_two_limit():
    d = GeometricAtomMixture()
    xs = conv.tail_jumps(d, 1.0, 2047.0)
    lower, upper = conv.nfold_tail_bracket(d, 2, xs)
    np.testing.assert_array_equal(lower, upper)
    ratios = lower / d.tail(xs)
    final_min = float(np.minimum.accumulate(ratios)[-1])
    i = int(np.argmin(ratios))

    # frozen before the main build by the exact lattice oracle
    assert final_min == 1.25
    assert float(ratios[i]) == 1.25 and float(xs[i]) == 2.5
    margin = 2.0 - final_min
    assert margin == 0.75 > 0.0

    # the same law fails the translation-invariance ratio at its atoms
    for n in range(0, 9):
        t_n = 2.0 ** (n + 1) - 1.0
        assert d.tail(t_n) / d.tail(t_n - 1.0) == 0.5

    checkline(2, True,
              "twofold ratio running min 1.25 at x=2.5 on [1, 2047], "
              "margin 0.75 below 2; atom ratios exactly 1/2")


def test_criterion_03_pairwise_max_ratio_closed_form():
    curves, _ = heavy_suite("T3.3", None)
    curve = curves["T3.3"]
    assert curve.samples == 0    # closed-form path, no sampling

    f = Pareto(1.5, 1.0)
    xs = np.asarray(curve.grid)
    u = 1.0 - np.array([f.tail(x) for x in xs])
    expected = (1.0 + u) / 2.0 - u * u * (1.0 - u) / 2.0
    np.testing.assert_allclose(curve.ratios, expected, rtol=1e-10)

    end_dev = abs(curve.ratios[-1] - 1.0)
    assert end_dev <= 6e-4

    dev = np.abs(np.asarray(curve.ratios) - 1.0)
    last_decade = xs >= xs[-1] / 10.0
    assert np.all(np.diff(dev[last_decade]) <= 0.0)

    checkline(3, True,
              f"max ratio matches (1+u)/2 - u^2(1-u)/2 to 1e-10; "
              f"|ratio-1| = {end_dev:.2e} <= 6e-4 at the grid end; "
              f"approach monotone over the last decade")


def test_criterion_04_dependent_sum_tail_is_twice_one_tail():
    curves, elapsed = heavy_suite("C3.1", 10_000_000)
    curve = curves["C3.1:SumN"]

    x_end = curve.grid[-1]
    assert x_end == pytest.approx(Pareto(0.8, 1.0).quantile(1.0 - 1e-4),
                                  rel=1e-12)
    bare = 2.0 * curve.ratios[-1]    # denominator is 2 F-bar
    assert 1.85 <= bare <= 2.15
    assert curve.verdict == "consistent"
    assert elapsed <= 120.0

    checkline(4, True,
              f"P(S_2 > x)/tail = {bare:.4f} in [1.85, 2.15] at "
              f"x = q(1-1e-4), 1e7 samples in {elapsed:.1f}s (limit 120s)")


def test_criterion_05_geometric_stopping_gives_mean_count_factor():
    curves, _ = heavy_suite("T4.1", 10_000_000)
    curve = curves["T4.1"]
    end = curve.ratios[-1]
    assert abs(end - 1.0) <= 0.15
    assert curve.verdict == "consistent"
    checkline(5, True,
              f"stopped-sum ratio to (mean count) x tail = {end:.4f}, "
              f"within 15% at the grid end, 1e7 samples")


def test_criterion_06_infinite_mean_count_makes_the_ratio_diverge():
    curves, _ = heavy_suite("T4.2", None)
    curve = curves["T4.2:MaxTau"]
    end = curve.ratios[-1]
    assert end > 10.0
    assert curve.verdict == "consistent"
    assert curve.predicted_limit == np.inf

    n_stop, partial = ex.divergence_certificate(Zeta(1.5), 10.0)
    assert n_stop == 190    # frozen by the exact partial-sum oracle
    assert 10.0 < partial < 10.1

    checkline(6, True,
              f"stopped-max ratio {end:.1f} > 10 at the grid end; exact "
              f"partial sum of n P(tau=n) reaches {partial:.4f} at n=190")


def test_criterion_07_negative_drift_running_max():
    curves, _ = heavy_suite("T4.4i", 10_000_000)
    curve = curves["T4.4i:RunMaxTau"]
    end = curve.ratios[-1]
    assert abs(end - 1.0) <= 0.20
    assert curve.verdict == "consistent"

    # the wide band is deliberate and documented on the preset itself
    preset = ex.PRESETS["T4.4i"]
    assert preset.tolerance == max(p.tolerance for p in ex.PRESETS.values())
    assert "widest tolerance" in preset.description

    checkline(7, True,
              f"running-max ratio {end:.4f} within the documented 20% band "
              f"at the grid end, 1e7 samples")


def test_criterion_08_two_period_ruin_matches_discounted_tails():
    preset = RISK_PRESETS["C5.1"]
    [curve] = preset.run(samples=10_000_000, seed=0, workers=WORKERS)
    assert curve.grid[-1] == pytest.approx(1000.0, rel=1e-12)

    p_end = curve.points[-1]
    expected_denom = 1.0 / (1.05 * 1000.0) + 1.0 / (1.05 ** 2 * 1000.0)
    assert p_end.denominator == pytest.approx(expected_denom, rel=1e-12)
    end = p_end.ratio
    assert abs(end - 1.0) <= 0.15
    assert curve.verdict == "consistent"

    # with no interest the ruin event is the plain running-max exceedance,
    # and the estimates agree bit for bit on a shared seed
    claims = preset.model
    flat = DiscreteRiskModel(claims, rate=0.0)
    xs = np.geomspace(10.0, 1000.0, 6)
    [a] = flat.preset(x_grid=xs).run(samples=1_000_000, seed=42,
                                     workers=WORKERS)
    b, _ = mc.estimate_tail(claims, "RunMaxN", xs, 1_000_000, seed=42,
                            workers=WORKERS)
    assert [p.numerator for p in a.points] == (b / 1_000_000).tolist()

    checkline(8, True,
              f"two-period ruin ratio {end:.4f} within 15% at x=1e3, 1e7 "
              f"samples; zero-interest run bitwise equal to the plain "
              f"running-max estimate")


def test_criterion_09_sampler_sits_inside_the_convolution_bracket():
    details = []
    for dist in (Exponential(1.0), Pareto(1.5, 1.0)):
        xs = np.geomspace(dist.quantile(0.9), dist.quantile(1.0 - 1e-3), 5)
        lower, upper = conv.nfold_tail_bracket(dist, 2, xs)
        model = DependentModel(Independence(2), (dist, dist))
        hits, _ = mc.estimate_tail(model, "SumN", xs, 1_000_000, seed=7,
                                   workers=WORKERS)
        for lo, hi, p_hat, stderr in zip(lower, upper,
                                         *rates(hits, 1_000_000)):
            slack = 4.0 * stderr
            assert lo - slack <= p_hat <= hi + slack
        details.append(type(dist).__name__)
    checkline(9, True,
              f"independent-pair sum estimates inside the numerical "
              f"bracket +/- 4 stderr at 5 points each for "
              f"{' and '.join(details)}")


def test_criterion_10_class_diagnostics_match_ground_truth():
    pareto = Pareto(1.5, 1.0)
    assert diag.long_tail(pareto).verdict == "consistent"
    assert diag.dominated(pareto).verdict == "consistent"
    assert diag.subexponential(pareto).verdict == "consistent"

    weibull = Weibull(0.5, 1.0)
    assert diag.long_tail(weibull).verdict == "consistent"
    assert diag.dominated(weibull).verdict == "inconsistent"

    exp_report = diag.subexponential(Exponential(1.0))
    assert exp_report.verdict == "inconsistent"
    x_end = exp_report.probe_grid[-1]
    stat_end = exp_report.statistics[-1]
    # the exponential twofold ratio is exactly 1+x, which runs away
    assert stat_end == pytest.approx(1.0 + x_end, rel=1e-2)

    atom_grid = np.array([2.0 ** (n + 1) - 1.5 for n in range(1, 11)])
    mix_report = diag.long_tail(GeometricAtomMixture(), grid=atom_grid)
    assert mix_report.verdict == "inconsistent"
    assert all(s == 0.5 for s in mix_report.statistics)

    checkline(10, True,
              "verdicts match ground truth: power tail L/D/S pass, "
              "stretched-exponential fails D, exponential fails S with "
              "statistic 1+x, atom mixture fails L at ratio 1/2; "
              "no sampling involved")


def test_criterion_11_worker_count_and_config_echo_reproducibility(tmp_path):
    # identical hit counts no matter how the blocks are distributed
    model = ex.PRESETS["C3.1"].model
    xs = quantile_grid(model.marginals)
    one, _ = mc.estimate_tail(model, "SumN", xs, 10_000_000, seed=0,
                              workers=1)
    eight, _ = mc.estimate_tail(model, "SumN", xs, 10_000_000, seed=0,
                                workers=8)
    assert one.tolist() == eight.tolist()

    # the config echoed into the CSV re-runs to the same bytes
    first = tmp_path / "first.csv"
    assert cli.main(["theorem", "--id", "C3.1", "--samples", "10000000",
                     "--workers", str(WORKERS), "--out", str(first)]) == 0
    header = first.read_text().splitlines()[0]
    echo = json.loads(header[len("# config="):])
    cfg = tmp_path / "echo.json"
    cfg.write_text(json.dumps(echo))
    second = tmp_path / "second.csv"
    assert cli.main(["theorem", "--config", str(cfg),
                     "--workers", str(WORKERS), "--out", str(second)]) == 0
    assert first.read_bytes() == second.read_bytes()

    checkline(11, True,
              "1e7-sample hit counts identical for workers 1 and 8; "
              "echoed config re-ran to a byte-identical CSV")
