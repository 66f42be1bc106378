"""Discrete-time and arrival-driven insurance ruin built on the tail engine.

Ruin by a finite horizon is a running maximum in disguise: the surplus goes
negative exactly when the discounted claim sums climb past the initial
capital, so both models here delegate to the running-max estimators and
grade the result against the matching one-big-claim denominator. Each
model states that claim once, as an experiments.Preset (its preset method):
a ruin config and the named ruin presets run through the same Preset.run as
the theorems.

The module also serves the whole preset catalog, theorem and ruin presets
alike, since it is the one module that sees both id namespaces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import experiments as ex
from .copulas import DependentModel, FGM, Independence
from .counting import Poisson
from .distributions import Marginal, Pareto, ShiftedBy, quantile_grid
from .errors import InvalidInput, ModelConfigError
from .rng import BLOCK_SIZE, block_stream, check_seed


@dataclass(frozen=True)
class DiscreteRiskModel:
    """Periodic net claims with constant interest over a fixed horizon.

    The horizon is the dimension of the claims model; claim k is discounted
    by (1+rate)^-k, and ruin by period n means the discounted claim total
    exceeded the initial surplus at some k <= n.
    """

    claims: DependentModel
    rate: float = 0.0

    def __post_init__(self):
        if self.claims.tau is not None:
            raise ModelConfigError(
                "a fixed-horizon model cannot carry a counting law")
        if not (math.isfinite(self.rate) and self.rate > -1.0):
            raise InvalidInput("rate must be a finite number above -1")
        g = 1.0 + self.rate
        try:    # the surplus path grows like g^k, the weights like g^-k
            max(g, 1.0 / g) ** self.horizon
        except OverflowError:
            raise InvalidInput(f"rate {self.rate:g} overflows (1+rate)^k over "
                               f"{self.horizon} periods") from None

    @property
    def horizon(self) -> int:
        return self.claims.dim

    def discount_weights(self) -> np.ndarray:
        g = 1.0 + self.rate
        return g ** -np.arange(1, self.horizon + 1, dtype=float)

    def preset(self, preset_id: str = "ruin", description: str = "",
               samples: int = 1_000_000, tolerance: float = 0.15,
               x_grid=None) -> ex.Preset:
        """Ruin over sum_tails at the discount weights, sum F̄_k(x(1+r)^k)."""
        claim = ex.Claim("RunMaxN", "lim", ex.Denominator("sum_tails"))
        return ex.Preset(preset_id, description, self.claims, (claim,),
                         tolerance, samples, x_grid=x_grid,
                         weights=tuple(self.discount_weights()))

    def surplus_path(self, initial_surplus: float, seed: int,
                     replicate: int = 0) -> list:
        """One simulated surplus trajectory [(k, U_k)], k = 0..horizon.

        U_k = (1+rate)^k (x - sum_{j<=k} X_j (1+rate)^-j), so the path dips
        below zero exactly when the discounted running maximum beats x.
        Replicate k is the engine's: row k % BLOCK_SIZE of block
        k // BLOCK_SIZE, drawn after advancing that block's stream past the
        rows before it.
        """
        if not (initial_surplus >= 0.0 and math.isfinite(initial_surplus)):
            raise InvalidInput("initial surplus must be finite and >= 0")
        check_seed(seed)
        if replicate < 0 or int(replicate) != replicate:
            raise InvalidInput("replicate must be a nonnegative integer")
        block, row = divmod(int(replicate), BLOCK_SIZE)
        rng = block_stream(seed, block)
        rng.bit_generator.advance(row * self.claims.copula.words_per_row)
        x_j = self.claims.sample_vector(rng, 1)[0]
        discounted = np.cumsum(x_j * self.discount_weights())
        g = 1.0 + self.rate
        path = [(0, float(initial_surplus))]
        for k in range(1, self.horizon + 1):
            path.append((k, float(g ** k * (initial_surplus
                                            - discounted[k - 1]))))
        return path


@dataclass(frozen=True)
class ArrivalRiskModel:
    """Premium-funded surplus hit by claims arriving as a Poisson count.

    Each claim costs Z minus the premium earned per arrival, (1+loading)
    times the mean claim; ruin within the horizon is the running maximum of
    those net costs over a Poisson(intensity * horizon) number of terms.
    """

    claim_size: Marginal
    loading: float
    intensity: float
    horizon: float

    _BLOCK_DIM = 2

    def __post_init__(self):
        if self.claim_size.support()[0] < 0:
            raise ModelConfigError("claim sizes must be nonnegative")
        if not math.isfinite(self.claim_size.mean()):
            raise ModelConfigError("claim sizes need a finite mean")
        if not (math.isfinite(self.loading) and self.loading > 0):
            raise InvalidInput("loading must be positive")
        if not (math.isfinite(self.intensity) and self.intensity > 0):
            raise InvalidInput("arrival intensity must be positive")
        if not (math.isfinite(self.horizon) and self.horizon >= 0):
            raise InvalidInput("horizon must be finite and >= 0")

    @property
    def expected_count(self) -> float:
        return self.intensity * self.horizon

    @property
    def premium_per_claim(self) -> float:
        return (1.0 + self.loading) * self.claim_size.mean()

    def net_claim(self) -> Marginal:
        return ShiftedBy(self.claim_size, -self.premium_per_claim)

    def dependence_model(self) -> DependentModel:
        net = self.net_claim()
        return DependentModel(Independence(self._BLOCK_DIM),
                              tuple(net for _ in range(self._BLOCK_DIM)),
                              tau=Poisson(self.expected_count))

    def preset(self, preset_id: str = "ruin-arrival", description: str = "",
               samples: int = 1_000_000, tolerance: float = 0.15,
               x_grid=None) -> ex.Preset:
        """Ruin probability over (expected claim count) x (claim-size tail).

        The denominator uses the tail of the claim size itself, not the
        premium-shifted net cost: for long-tailed claims the constant
        premium offset washes out of the tail, and the unshifted form is
        the quantity an underwriter can read off the claim severity table.
        The default grid spans the claim-size tail for the same reason.
        """
        if x_grid is None:
            x_grid = tuple(quantile_grid((self.claim_size,)))
        claim = ex.Claim("RunMaxTau", "lim", _MeanCountClaimTail(
            self.claim_size, self.expected_count))
        return ex.Preset(preset_id, description, self.dependence_model(),
                         (claim,), tolerance, samples, x_grid=x_grid)


@dataclass(frozen=True)
class _MeanCountClaimTail:
    """Denominator adapter: expected count times the claim-size tail."""

    claim_size: Marginal
    expected_count: float

    def describe(self) -> str:
        return f"mean_count_x_claim_tail(count={self.expected_count:g})"

    def values(self, model, xs, weights=None) -> np.ndarray:
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        return self.expected_count * self.claim_size.tail(xs)


RISK_PRESETS = {
    "C5.1": DiscreteRiskModel(
        DependentModel(FGM.bivariate(1.0),
                       (Pareto(1.0, 1.0), Pareto(1.0, 1.0))),
        rate=0.05).preset(
        "C5.1",
        "two-period discounted ruin with positively dependent unit-index "
        "claims: ruin over the discounted tail sum tends to one",
        samples=10_000_000, tolerance=0.15,
        x_grid=tuple(np.geomspace(10.0, 1e3, 16))),
    "C5.2": ArrivalRiskModel(Pareto(2.0, 1.0), loading=0.1, intensity=2.0,
                             horizon=1.0).preset(
        "C5.2",
        "Poisson-arrival ruin with square-tailed claims and 10% loading: "
        "ruin over (expected count) x (claim tail) tends to one",
        samples=10_000_000, tolerance=0.15,
        x_grid=tuple(np.geomspace(3.1622776601683795, 100.0, 16))),
}


def presets() -> dict:
    """Every named preset by id: the theorem presets, then the ruin ones."""
    return {**ex.PRESETS, **RISK_PRESETS}


def run_preset(preset_id: str, model: DependentModel = None,
               samples: int = None, seed: int = 0, workers: int = 1,
               x_grid=None) -> list:
    """Ratio curves of any named preset; only theorem presets take a model."""
    catalog = presets()
    if preset_id not in catalog:
        raise InvalidInput(
            f"unknown preset id {preset_id!r}; have {list(catalog)}")
    return catalog[preset_id].run(model=model, samples=samples, seed=seed,
                                  workers=workers, x_grid=x_grid)
