"""Ratio-curve experiments: tail estimates over exact asymptotic denominators.

Each experiment divides P(stat > x) by a closed-form denominator and grades
the curve against a predicted limit. Limits come in three flavors: "lim"
(the curve must settle inside a tolerance band), "liminf" (the running
minimum must come down to the band without falling through it), and
"divergence" (the curve must climb past a preset bound).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import montecarlo as mc
from .copulas import Comonotone, DependentModel, FGM, Independence
from .counting import CountingLaw, Geometric1, Poisson, Zeta
from .distributions import Pareto, ShiftedBy, quantile_grid
from .errors import AssumptionViolated, InvalidInput, ModelConfigError

SEMANTICS = ("lim", "liminf", "divergence")


@dataclass(frozen=True)
class Denominator:
    """Closed-form denominator attached to a ratio experiment."""

    kind: str
    n: int = None
    rate: float = None

    _KINDS = ("sum_tails", "n_tail", "mean_tau_tail", "discounted")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InvalidInput(f"denominator kind must be one of {self._KINDS}")
        if self.kind == "n_tail" and (self.n is None or int(self.n) != self.n
                                      or self.n < 1):
            raise InvalidInput("n_tail needs a positive integer n")
        if self.kind == "discounted" and (self.rate is None
                                          or not self.rate > -1.0):
            raise InvalidInput("discounted needs a rate above -1")

    def describe(self) -> str:
        if self.kind == "n_tail":
            return f"n_tail(n={self.n})"
        if self.kind == "discounted":
            return f"discounted(rate={self.rate:g})"
        return self.kind

    def values(self, model: DependentModel, xs) -> np.ndarray:
        """The denominator on the grid xs: the sum of the marginal tails,
        n times the first tail, the expected count times the first tail, or
        the sum of the tails at inflated thresholds x(1+rate)^k, k >= 1."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        first = model.marginals[0]
        if self.kind == "sum_tails":
            return sum(m.tail(xs) for m in model.marginals)
        if self.kind == "n_tail":
            return float(self.n) * first.tail(xs)
        if self.kind == "mean_tau_tail":
            if model.tau is None:
                raise ModelConfigError(
                    "mean_tau_tail denominator needs a counting law")
            et = model.tau.mean()
            if not math.isfinite(et):
                raise AssumptionViolated(
                    "the counting law has infinite mean: ratios against its "
                    "expected count diverge, use a divergence-mode experiment "
                    "against the bare tail instead")
            return et * first.tail(xs)
        g = 1.0 + self.rate
        return sum(m.tail(xs * g ** (k + 1))
                   for k, m in enumerate(model.marginals))


@dataclass(frozen=True)
class RatioPoint:
    x: float
    numerator: float
    stderr: float
    denominator: float
    ratio: float
    ci_low: float
    ci_high: float
    running_min: float


@dataclass(frozen=True)
class RatioCurve:
    experiment_id: str
    quantity: str
    denominator: str
    points: tuple
    predicted_limit: float
    semantics: str
    tolerance: float
    verdict: str
    samples: int
    seed: int
    notes: tuple = ()

    @property
    def running_min(self) -> float:
        return self.points[-1].running_min

    @property
    def ratios(self) -> np.ndarray:
        return np.array([p.ratio for p in self.points])

    @property
    def grid(self) -> np.ndarray:
        return np.array([p.x for p in self.points])


def _closed_form(model: DependentModel, quantity: mc.Quantity,
                 weights=None):
    """The tail xs -> P(stat > x) that copula algebra gives, else None: for
    an unweighted fixed-length max of up to three coordinates and for a
    comonotone sum of identical marginals."""
    if weights is not None or quantity.stopped:
        return None
    if quantity.kind == "max" and model.dim <= 3:
        def tail(xs):
            u = np.column_stack([1.0 - m.tail(xs) for m in model.marginals])
            return np.clip(1.0 - model.copula.cdf(u), 0.0, 1.0)
        return tail
    if (quantity.kind == "sum" and isinstance(model.copula, Comonotone)
            and model.identical_marginals()):
        return lambda xs: model.marginals[0].tail(xs / model.dim)
    return None


def check_run_options(numerator: str, tolerance: float,
                      model: DependentModel = None, claims=(),
                      weights=None) -> list:
    """Reject a numerator mode or tolerance that no experiment can use, and
    claims that cannot run on model: a denominator the model lacks the parts
    for, an exact numerator without a closed form, or simulated claims that
    break the engine's pass rule (mc.check_pass). Returns, per claim,
    whether the numerator mode leaves it to simulation."""
    if numerator not in ("auto", "mc", "exact"):
        raise InvalidInput("numerator must be auto, mc, or exact")
    if not (tolerance > 0.0):
        raise InvalidInput("tolerance must be positive")
    simulated = []
    for claim in claims:
        # an empty grid runs the denominator's model checks, nothing more
        claim.denominator.values(model, ())
        quantity = mc.parse_quantity(claim.quantity)
        closed = _closed_form(model, quantity, weights) is not None
        if numerator == "exact" and not closed:
            raise InvalidInput(
                f"no closed form for {quantity.token} on this model")
        simulated.append(numerator == "mc" or not closed)
    if any(simulated):
        mc.check_pass(model, [c.quantity for c, sim in zip(claims, simulated)
                              if sim], weights)
    return simulated


def _verdict_lim(ratios, ci_lo, ci_hi, predicted, tol, rel_err_end):
    notes = []
    if not math.isfinite(rel_err_end):
        notes.append("no tail hits at the grid end; "
                     "increase samples or shorten the grid")
        return "inconclusive", tuple(notes)
    if rel_err_end > 0.25:
        factor = (rel_err_end / 0.25) ** 2
        notes.append(
            f"grid-end stderr is {rel_err_end:.0%} of the estimate; "
            f"roughly {factor:.0f}x more samples would pin the verdict")
        return "inconclusive", tuple(notes)
    band_lo, band_hi = predicted * (1.0 - tol), predicted * (1.0 + tol)
    k = max(2, len(ratios) // 4)
    intersects = (ci_hi[-k:] >= band_lo) & (ci_lo[-k:] <= band_hi)
    if intersects.all():
        return "consistent", tuple(notes)
    if not intersects.any():
        return "inconsistent", tuple(notes)
    return "inconclusive", tuple(notes)


def _verdict_liminf(ratios, stderrs_rel, predicted, tol):
    band_lo, band_hi = predicted * (1.0 - tol), predicted * (1.0 + tol)
    run = np.minimum.accumulate(ratios)
    i_min = int(np.argmin(ratios))
    noise_min = mc.Z95 * stderrs_rel[i_min] * max(ratios[i_min], 0.0)
    if run[-1] + noise_min < band_lo:
        return "inconsistent"
    witness = ratios - mc.Z95 * stderrs_rel * np.abs(ratios)
    if run[-1] >= band_lo - noise_min and np.any(witness <= band_hi):
        return "consistent"
    return "inconclusive"


def _verdict_divergence(ratios, ci_lo, ci_hi, bound):
    if ci_lo[-1] > bound:
        return "consistent"
    if ci_hi[-1] < bound:
        return "inconsistent"
    return "inconclusive"


def _grade(claim, experiment_id: str, xs, den, num, se, used_samples: int,
           notes: list, tolerance: float, divergence_bound: float,
           seed: int) -> RatioCurve:
    """Ratio curve of one claim's numerator over its denominator, graded."""
    predicted, semantics = claim.predicted, claim.semantics
    ratios = num / den
    lo, hi = mc.wald_interval(num, se)
    ci_lo, ci_hi = lo / den, hi / den
    run = np.minimum.accumulate(ratios)
    rel = np.where(num > 0, se / np.maximum(num, 1e-300), np.inf)

    if semantics == "lim":
        verdict, vnotes = _verdict_lim(ratios, ci_lo, ci_hi, predicted,
                                       tolerance, float(rel[-1]))
        notes.extend(vnotes)
    elif semantics == "liminf":
        verdict = _verdict_liminf(ratios, rel, predicted, tolerance)
    else:
        verdict = _verdict_divergence(ratios, ci_lo, ci_hi, divergence_bound)
        predicted = math.inf

    points = tuple(
        RatioPoint(float(x), float(n_), float(s), float(d), float(r_),
                   float(lo), float(hi), float(rm))
        for x, n_, s, d, r_, lo, hi, rm
        in zip(xs, num, se, den, ratios, ci_lo, ci_hi, run))
    return RatioCurve(experiment_id, mc.parse_quantity(claim.quantity).token,
                      claim.denominator.describe(), points, float(predicted),
                      semantics, float(tolerance), verdict, used_samples,
                      int(seed), tuple(notes))


def run_experiment(model: DependentModel, quantity, denominator: Denominator,
                   x_grid=None, samples: int = 1_000_000, seed: int = 0,
                   workers: int = 1, *, predicted: float = 1.0,
                   semantics: str = "lim", tolerance: float = 0.05,
                   experiment_id: str = "custom", numerator: str = "auto",
                   weights=None, divergence_bound: float = 10.0) -> RatioCurve:
    """Assemble one ratio curve and grade it: the run of a one-claim Preset.

    numerator: "auto" uses closed-form copula algebra when the quantity
    admits it (unweighted max of up to three coordinates; comonotone
    identical sums) and Monte Carlo otherwise; "mc" forces simulation;
    "exact" demands the closed form and raises if there is none.
    """
    claim = Claim(mc.parse_quantity(quantity).token, semantics, denominator,
                  predicted)
    preset = Preset(experiment_id, "", lambda: model, (claim,), tolerance,
                    samples, x_grid=x_grid, weights=weights,
                    numerator=numerator, divergence_bound=divergence_bound)
    return preset.run(seed=seed, workers=workers)[0]


def divergence_certificate(tau: CountingLaw, bound: float,
                           n_max: int = 10 ** 7) -> tuple:
    """Smallest N with Σ_{n<=N} n P(τ=n) > bound, plus the exact partial sum.

    The partial sum lower-bounds E τ, so exceeding the bound certifies that
    ratios normalized by a bare tail must eventually climb past it.
    """
    if not bound > 0:
        raise InvalidInput("bound must be positive")
    total = 0.0
    n = 0
    step = 1024
    while n < n_max:
        ks = np.arange(n + 1, min(n + step, n_max) + 1, dtype=np.int64)
        contrib = np.array([k * tau.pmf(int(k)) for k in ks])
        cum = total + np.cumsum(contrib)
        over = np.nonzero(cum > bound)[0]
        if len(over):
            i = int(over[0])
            return int(ks[i]), float(cum[i])
        total = float(cum[-1])
        n = int(ks[-1])
    raise AssumptionViolated(
        f"partial sums reach only {total:.6g} by N={n_max}; "
        f"cannot certify divergence past {bound}")


@dataclass(frozen=True)
class Claim:
    quantity: str
    semantics: str
    denominator: Denominator
    predicted: float = 1.0

    def __post_init__(self):
        if self.semantics not in SEMANTICS:
            raise InvalidInput(f"semantics must be one of {SEMANTICS}")


@dataclass(frozen=True)
class Preset:
    """A named set of claims on one model: the unit every ratio curve runs
    as, from a theorem preset to a one-off experiment."""

    preset_id: str
    description: str
    build: object              # () -> DependentModel
    claims: tuple
    tolerance: float
    samples: int
    hypotheses: object = None  # (model) -> tuple of hypothesis issues
    grid_hi_u: float = 1.0 - 1e-4
    x_grid: tuple = None       # fixed grid, used as given when set
    weights: tuple = None      # per-coordinate weights of the fixed-length sums
    numerator: str = "auto"    # "auto", "mc" or "exact"; see run_experiment
    divergence_bound: float = 10.0

    def hypothesis_issues(self, model) -> tuple:
        if self.hypotheses is None:
            return ()
        return tuple(self.hypotheses(model))

    def check_custom_model(self) -> None:
        """Reject a custom model: without hypotheses there is nothing to
        check it against."""
        if self.hypotheses is None:
            raise InvalidInput(
                f"preset {self.preset_id} does not take a custom model; "
                f"use the ruin command with a config")

    def check(self, model: DependentModel, x_grid=None) -> tuple:
        """Reject options, claims and grids that cannot run on model, as the
        run does, so a config can be checked without running it.

        The grid is x_grid, else the preset's own, else the quantile grid
        of the marginals. Returns, per claim, whether it is simulated, then
        the grid and, per claim, the denominators on it.
        """
        simulated = check_run_options(self.numerator, self.tolerance, model,
                                      self.claims, self.weights)
        if x_grid is None:
            x_grid = (self.x_grid if self.x_grid is not None else
                      quantile_grid(model.marginals, hi_u=self.grid_hi_u))
        xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
        if np.any(~np.isfinite(xs)) or np.any(np.diff(xs) <= 0):
            raise InvalidInput("x grid must be finite and strictly increasing")
        dens = [c.denominator.values(model, xs) for c in self.claims]
        if any(np.any(den <= 0) for den in dens):
            raise InvalidInput("denominator vanishes on the grid")
        return simulated, xs, dens

    def run(self, model: DependentModel = None, samples: int = None,
            seed: int = 0, workers: int = 1, x_grid=None) -> list:
        """All ratio curves of this preset (or of a custom model on it).

        The numerators without a closed form share one simulation pass.
        """
        custom = model is not None
        if custom:
            self.check_custom_model()
        else:
            model = self.build()
        samples = self.samples if samples is None else int(samples)
        issues = self.hypothesis_issues(model)
        if issues and not custom:
            raise ModelConfigError(
                f"preset {self.preset_id} violates its own hypotheses: "
                f"{issues}")
        simulated, xs, dens = self.check(model, x_grid)

        quantities = [mc.parse_quantity(c.quantity) for c in self.claims]
        rows = iter(mc.estimate_tails(
            model, [q for q, sim in zip(quantities, simulated) if sim], xs,
            samples, seed, workers=workers, weights=self.weights)
            if any(simulated) else ())
        many = len(self.claims) > 1
        curves = []
        for claim, quantity, sim, den in zip(self.claims, quantities,
                                             simulated, dens):
            notes = (["hypotheses unverified: " + "; ".join(issues)]
                     if issues else [])
            if sim:
                ests = next(rows)
                num = np.array([e.p_hat for e in ests])
                se = np.array([e.stderr for e in ests])
                used_samples = samples
                notes.extend(ests[0].notes)
            else:
                num, se, used_samples = (
                    _closed_form(model, quantity, self.weights)(xs),
                    np.zeros(len(xs)), 0)
                notes.append(
                    "numerator computed exactly, stderr identically zero")
            curves.append(_grade(
                claim, f"{self.preset_id}:{claim.quantity}" if many
                else self.preset_id, xs, den, num, se, used_samples, notes,
                self.tolerance, self.divergence_bound, seed))
        return curves


def _check_fgm_long(model):
    issues = []
    if not isinstance(model.copula, (FGM, Independence)):
        issues.append("copula is not of the bounded-density family")
    for m in model.marginals:
        if "L" not in m.tags:
            issues.append(f"{type(m).__name__} is not declared long-tailed")
    return issues


def _check_dominated(model):
    issues = list(_check_fgm_long(model))
    for m in model.marginals:
        if "D" not in m.tags:
            issues.append(
                f"{type(m).__name__} is not declared dominatedly varying")
        if m.support()[0] < 0:
            issues.append(f"{type(m).__name__} is not nonnegative")
    return issues


def _check_stopped_light(model):
    issues = []
    if model.tau is None:
        issues.append("no counting law")
    elif not math.isfinite(model.tau.mean()):
        issues.append("counting law must have a finite mean here")
    if not model.identical_marginals():
        issues.append("marginals must be identical")
    return issues


def _check_t44i(model):
    issues = list(_check_stopped_light(model))
    m = model.marginals[0]
    if m.mean() >= 0:
        issues.append("summand mean must be negative")
    if not isinstance(model.copula, Independence):
        issues.append("uniform density bound over all lengths needs "
                      "independent blocks")
    return issues


def _check_t44ii(model):
    issues = []
    if model.tau is None:
        issues.append("no counting law")
    if not model.identical_marginals():
        issues.append("marginals must be identical")
    m = model.marginals[0]
    if math.isfinite(m.mean()) and m.mean() < 0:
        issues.append("this variant assumes a nonnegative summand mean")
    if not isinstance(model.copula, Independence):
        issues.append("uniform density bound over all lengths needs "
                      "independent blocks")
    return issues


def _check_t42(model):
    issues = []
    if model.tau is None:
        issues.append("no counting law")
    elif math.isfinite(model.tau.mean()):
        issues.append("divergence needs an infinite-mean counting law")
    if not model.identical_marginals():
        issues.append("marginals must be identical")
    return issues


_SUM_TAILS = Denominator("sum_tails")
_MEAN_TAU = Denominator("mean_tau_tail")
_BARE_TAIL = Denominator("n_tail", n=1)


PRESETS = {
    "T3.1": Preset(
        "T3.1",
        "trivariate positive-dependence sum and running max against the sum "
        "of three power tails",
        lambda: DependentModel(
            FGM(3, (0.5, 0.5, 0.5)),
            (Pareto(0.8, 1.0), Pareto(0.8, 1.5), Pareto(0.8, 2.0))),
        (Claim("SumN", "lim", _SUM_TAILS), Claim("RunMaxN", "lim",
                                                 _SUM_TAILS)),
        tolerance=0.10, samples=2_000_000, hypotheses=_check_fgm_long),
    "T3.2": Preset(
        "T3.2",
        "bivariate dependent sum with mixed power indices: the running "
        "minimum of the ratio settles at one",
        lambda: DependentModel(FGM.bivariate(1.0),
                               (Pareto(0.8, 1.0), Pareto(1.2, 1.0))),
        (Claim("SumN", "liminf", _SUM_TAILS), Claim("RunMaxN", "liminf",
                                                    _SUM_TAILS)),
        tolerance=0.10, samples=1_000_000, hypotheses=_check_dominated),
    "T3.3": Preset(
        "T3.3",
        "bivariate dependent maximum, exact copula algebra: ratio to the "
        "tail sum tends to one",
        lambda: DependentModel(FGM.bivariate(1.0),
                               (Pareto(1.5, 1.0), Pareto(1.5, 1.0))),
        (Claim("MaxN", "lim", _SUM_TAILS),),
        tolerance=0.05, samples=1_000_000, hypotheses=_check_fgm_long),
    "C3.1": Preset(
        "C3.1",
        "identical heavy marginals under positive dependence: sum and "
        "running max both look like n copies of one tail",
        lambda: DependentModel(FGM.bivariate(1.0),
                               (Pareto(0.8, 1.0), Pareto(0.8, 1.0))),
        (Claim("SumN", "lim", Denominator("n_tail", n=2)),
         Claim("RunMaxN", "lim", Denominator("n_tail", n=2))),
        tolerance=0.075, samples=10_000_000, hypotheses=_check_fgm_long),
    "T4.1": Preset(
        "T4.1",
        "geometrically stopped sum of independent blocks: ratio to "
        "(expected count) x (one tail) tends to one",
        lambda: DependentModel(Independence(2),
                               (Pareto(0.8, 1.0), Pareto(0.8, 1.0)),
                               tau=Geometric1(0.5)),
        (Claim("SumTau", "lim", _MEAN_TAU),),
        tolerance=0.15, samples=10_000_000, hypotheses=_check_stopped_light),
    "T4.2": Preset(
        "T4.2",
        "infinite-mean stopping: ratios to the bare tail climb past any "
        "bound (certified by an exact partial sum)",
        lambda: DependentModel(Independence(2),
                               (Pareto(1.0, 1.0), Pareto(1.0, 1.0)),
                               tau=Zeta(1.5)),
        (Claim("MaxTau", "divergence", _BARE_TAIL),
         Claim("SumTau", "divergence", _BARE_TAIL)),
        tolerance=0.15, samples=200_000, hypotheses=_check_t42),
    "T4.3": Preset(
        "T4.3",
        "randomly stopped maximum with a finite-mean count: ratio to "
        "(expected count) x (one tail) tends to one",
        lambda: DependentModel(FGM.bivariate(1.0),
                               (Pareto(1.5, 1.0), Pareto(1.5, 1.0)),
                               tau=Poisson(2.0)),
        (Claim("MaxTau", "lim", _MEAN_TAU),),
        tolerance=0.10, samples=1_000_000, hypotheses=_check_stopped_light),
    "T4.4i": Preset(
        "T4.4i",
        "negative-drift random walk stopped at an independent count: the "
        "running maximum's tail looks like (expected count) x (one tail); "
        "exceedances against the drift are rare events, so this preset "
        "carries the suite's widest tolerance",
        lambda: DependentModel(
            Independence(2),
            (ShiftedBy(Pareto(2.0, 1.0), -3.0),
             ShiftedBy(Pareto(2.0, 1.0), -3.0)),
            tau=Poisson(2.0)),
        (Claim("RunMaxTau", "lim", _MEAN_TAU),
         Claim("SumTau", "lim", _MEAN_TAU)),
        tolerance=0.20, samples=10_000_000, hypotheses=_check_t44i),
    "T4.4ii": Preset(
        "T4.4ii",
        "nonnegative-mean summands with a light-tailed count: same "
        "(expected count) x (one tail) asymptotics",
        lambda: DependentModel(Independence(2),
                               (Pareto(2.0, 1.0), Pareto(2.0, 1.0)),
                               tau=Poisson(2.0)),
        (Claim("RunMaxTau", "lim", _MEAN_TAU),
         Claim("SumTau", "lim", _MEAN_TAU)),
        tolerance=0.15, samples=4_000_000, hypotheses=_check_t44ii,
        grid_hi_u=1.0 - 1e-5),
}

