"""Input checks across the layers: each bad argument raises its error with
its message, and the edge values next to them return what they document."""

import math

import numpy as np
import pytest

from heavytails import convolution as conv
from heavytails import diagnostics as dg
from heavytails import experiments as ex
from heavytails.copulas import (FGM, Comonotone, DependentModel,
                                Independence, fgm_admissible,
                                joint_upper_survival)
from heavytails.counting import Deterministic, Geometric1
from heavytails.distributions import DiscreteAtoms, IntegratedTail, Pareto
from heavytails.errors import AssumptionViolated, InvalidInput, ResourceLimit

UNIT = Pareto(1.0, 1.0)
UNIT_TRIPLE = DependentModel(Independence(3), (UNIT,) * 3)
ONE_ATOM = conv.LatticeMeasure(np.array([1.0]), np.array([1.0]))

BAD_INPUTS = {
    "cdf-outside-unit-cube": (
        lambda: Independence(2).cdf([0.5, 1.5]),
        InvalidInput, "copula arguments must lie in [0, 1]"),
    "cdf-wrong-width": (
        lambda: Independence(2).cdf([[0.5, 0.5, 0.5]]),
        InvalidInput, "expected points in [0,1]^2"),
    "comonotone-dim-0": (
        lambda: Comonotone(0), InvalidInput, "dim must be at least 1"),
    "fgm-non-square": (
        lambda: fgm_admissible(np.zeros((2, 3))),
        InvalidInput, "coefficient matrix must be square"),
    "fgm-nonzero-diagonal": (
        lambda: fgm_admissible(np.eye(2)),
        InvalidInput, "coefficient matrix must have zero diagonal"),
    "fgm-off-by-4e-6": (
        lambda: fgm_admissible(np.array([[0.0, 0.5], [0.500004, 0.0]])),
        InvalidInput, "coefficient matrix must be symmetric"),
    "fgm-nan-coefficient": (
        lambda: FGM.bivariate(math.nan), InvalidInput,
        "coefficients must be finite"),
    "preset-empty-grid": (
        lambda: ex.PRESETS["T3.3"].run(x_grid=[]), InvalidInput,
        "x grid must be nonempty, finite and strictly increasing"),
    "model-marginal-not-marginal": (
        lambda: DependentModel(Independence(1), ("pareto",)),
        InvalidInput, "marginals must be Marginal instances"),
    "pair-fractional-first": (
        lambda: dg.check_pair(UNIT_TRIPLE, (0.7, 2)), InvalidInput,
        "pair (0.7, 2) is not two distinct coordinates of a 3-dimensional "
        "model"),
    "pair-fractional-second": (
        lambda: dg.h1_report(UNIT_TRIPLE, (0, 2.9)), InvalidInput,
        "pair (0, 2.9) is not two distinct coordinates of a 3-dimensional "
        "model"),
    "pair-boolean": (
        lambda: dg.h2_report(UNIT_TRIPLE, (True, 2)), InvalidInput,
        "pair (True, 2) is not two distinct coordinates of a 3-dimensional "
        "model"),
    "pair-string": (
        lambda: dg.check_pair(UNIT_TRIPLE, ("0", 2)), InvalidInput,
        "pair ('0', 2) is not two distinct coordinates of a 3-dimensional "
        "model"),
    "diagnostic-decreasing-grid": (
        lambda: dg.long_tail(Pareto(1.5, 1.0), grid=[100.0, 10.0, 1.0]),
        InvalidInput,
        "x grid must be nonempty, finite and strictly increasing"),
    "diagnostic-repeated-grid": (
        lambda: dg.dominated(UNIT, grid=[2.0, 2.0, 3.0]), InvalidInput,
        "x grid must be nonempty, finite and strictly increasing"),
    "diagnostic-empty-grid": (
        lambda: dg.h1_report(UNIT_TRIPLE, grid=[]), InvalidInput,
        "x grid must be nonempty, finite and strictly increasing"),
    "diagnostic-infinite-grid": (
        lambda: dg.subexponential(UNIT, grid=[2.0, math.inf]), InvalidInput,
        "x grid must be nonempty, finite and strictly increasing"),
    "quantile-0": (
        lambda: UNIT.quantile(0.0), InvalidInput,
        "quantile requires 0 < u < 1"),
    "quantile-1": (
        lambda: UNIT.quantile(1.0), InvalidInput,
        "quantile requires 0 < u < 1"),
    "geometric1-p-0": (
        lambda: Geometric1(0), InvalidInput, "p must lie in (0, 1]"),
    "deterministic-negative": (
        lambda: Deterministic(-1), InvalidInput,
        "n must be a nonnegative integer"),
    "lattice-unequal-shapes": (
        lambda: conv.LatticeMeasure(np.array([0.0, 1.0]), np.array([1.0])),
        InvalidInput, "locs and masses must be 1-d arrays of equal length"),
    "lattice-non-finite-location": (
        lambda: conv.LatticeMeasure(np.array([0.0, math.inf]),
                                    np.array([0.5, 0.5])),
        InvalidInput,
        "locations must be finite (use inf_mass for the bucket)"),
    "nfold-atoms-0": (
        lambda: conv.nfold_atoms(ONE_ATOM, 0), InvalidInput,
        "n must be at least 1"),
    "lattice-tails-step-0": (
        lambda: conv.lattice_tails(UNIT.tail, 0.0, 1.0, 0.0),
        InvalidInput, "step must be positive"),
    "lattice-tails-above-atom-cap": (
        lambda: conv.lattice_tails(UNIT.tail, 0.0, float(conv.ATOM_CAP), 1.0),
        ResourceLimit, "grid would exceed the atom cap; increase step"),
    "discretize-bad-side": (
        lambda: conv.discretize_tail(0, 1.0, np.array([1.0, 0.5]), "middle"),
        InvalidInput, "side must be 'lower' or 'upper'"),
    "bracket-unbounded-below": (
        lambda: conv.nfold_tail_bracket_from_tail(UNIT.tail, -math.inf, 2,
                                                  [2.0]),
        InvalidInput, "support must be bounded below"),
    "sstar-zero-positive-mean": (
        lambda: dg.sstar(DiscreteAtoms(((-2.0, 0.5), (-1.0, 0.5)))),
        AssumptionViolated, "positive-part mean must be finite and positive"),
}


@pytest.mark.parametrize("call,error,message", BAD_INPUTS.values(),
                         ids=BAD_INPUTS.keys())
def test_bad_input_raises_its_error_and_message(call, error, message):
    with pytest.raises(error) as info:
        call()
    assert str(info.value) == message


def test_a_single_copula_point_gives_a_float():
    got = Independence(2).cdf([0.5, 0.25])
    assert type(got) is float and got == 0.125
    got = Comonotone(2).cdf(np.array([[0.5, 0.25], [1.0, 1.0]]))
    assert got.tolist() == [0.25, 1.0]


def test_survival_takes_any_dimension():
    # twenty coordinates, each above 2 with probability exactly 1/2
    model = DependentModel(Independence(20), (UNIT,) * 20)
    assert joint_upper_survival(model, np.full(20, 2.0)) == 2.0 ** -20
    model = DependentModel(Comonotone(20), (UNIT,) * 20)
    assert joint_upper_survival(model, np.full(20, 2.0)) == 0.5


def test_deterministic_pmf_on_both_sides_of_n():
    law = Deterministic(3)
    assert [law.pmf(k) for k in (0, 2, 3, 4, 10)] == [0.0, 0.0, 1.0, 0.0,
                                                      0.0]


def test_integrated_tail_of_infinite_second_moment_has_infinite_mean():
    # Pareto(1.5) has a finite mean, so its integrated tail exists, with
    # tail ~ x^-0.5 and so an infinite mean
    assert IntegratedTail(Pareto(1.5, 1.0)).mean() == math.inf
