"""Ratio-curve experiments: tail estimates over exact asymptotic denominators.

Each experiment divides P(stat > x) by a closed-form denominator and grades
the curve against a predicted limit. Limits come in three flavors: "lim"
(the curve must settle inside a tolerance band), "liminf" (the running
minimum must come down to the band without falling through it), and
"divergence" (the curve must climb past a preset bound). Every verdict
reads only the ratio and the interval the CSV prints, and a curve with no
tail hits at its grid end reads inconclusive.

A preset carries its built model and parsed claims. Preset.check rejects
a custom model that breaks what the run enforces, such as a stopped
quantity without a counting law. A theorem preset also names the
advisory hypotheses it assumes from one table, HYPOTHESES, which writes
each issue once; Preset.check turns a custom model's issues, and an
infinite-mean count under any semantics but divergence, into notes that
the run records on its curves and the CLI's validate prints.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from . import montecarlo as mc
from .copulas import Comonotone, DependentModel, FGM, Independence
from .counting import CountingLaw, Geometric1, Poisson, Zeta
from .distributions import (TAG_DOMINATED, TAG_LONG, Pareto, ShiftedBy,
                            quantile_grid)
from .errors import AssumptionViolated, InvalidInput, ModelConfigError

SEMANTICS = ("lim", "liminf", "divergence")
Z95 = 1.96             # two-sided 95% standard normal quantile


def wald_interval(p_hat, stderr) -> tuple:
    """The 95% Wald interval p_hat -/+ Z95 stderr clipped to [0, 1],
    elementwise."""
    return (np.maximum(p_hat - Z95 * stderr, 0.0),
            np.minimum(p_hat + Z95 * stderr, 1.0))


@dataclass(frozen=True)
class Denominator:
    """Closed-form denominator attached to a ratio experiment."""

    kind: str
    n: int = None

    _KINDS = ("sum_tails", "n_tail", "mean_tau_tail")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise InvalidInput(f"denominator kind must be one of {self._KINDS}")
        if self.kind == "n_tail":
            n = self.n
            if (isinstance(n, bool) or not isinstance(n, numbers.Real)
                    or not 1 <= n < math.inf or int(n) != n):
                raise InvalidInput("n_tail needs a positive integer n")
            object.__setattr__(self, "n", int(n))

    def describe(self) -> str:
        if self.kind == "n_tail":
            return f"n_tail(n={self.n})"
        return self.kind

    def values(self, model: DependentModel, xs, weights=None) -> np.ndarray:
        """The denominator on the grid xs: the sum of the marginal tails,
        n times the first tail, or the expected count times the first tail.

        With weights w, the sum of the marginal tails is that of the
        weighted terms w_i X_i with w_i > 0, the sum of the tails at x / w_i;
        it needs a positive weight. Discount weights (1+r)^-k make it the
        discounted tail sum of discrete-time ruin."""
        xs = np.atleast_1d(np.asarray(xs, dtype=float))
        first = model.marginals[0]
        if self.kind == "sum_tails":
            # x / 1.0 == x: unweighted tails keep their bits
            weights = (1.0,) * model.dim if weights is None else weights
            if not any(w > 0 for w in weights):
                raise InvalidInput(
                    "a weighted sum_tails denominator needs a positive weight")
            return sum(m.tail(xs / w)
                       for m, w in zip(model.marginals, weights) if w > 0)
        if self.kind == "n_tail":
            return float(self.n) * first.tail(xs)
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
    def equivalent(self):
        """For a lim claim, whether every graded point's 95% interval lies
        inside the band predicted * (1 -/+ tolerance), the two one-sided
        tests; None for other semantics. The verdict asks only that each
        interval meet the band."""
        if self.semantics != "lim":
            return None
        lo = self.predicted_limit * (1.0 - self.tolerance)
        hi = self.predicted_limit * (1.0 + self.tolerance)
        return all(lo <= p.ci_low and p.ci_high <= hi
                   for p in self.points[-_graded(len(self.points)):])

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


def _graded(points: int) -> int:
    """How many points at the grid end a lim claim is graded on."""
    return max(2, points // 4)


def _verdict(semantics, ratios, ci_lo, ci_hi, predicted, tol, bound):
    """The verdict from the ratio and its 95% interval alone: inconsistent
    if the claim's refuting test holds, else consistent if its confirming
    test holds. lim: no graded interval meets the band, or every one does.
    liminf: the interval at the curve's minimum lies below the band, or
    some interval reaches the band's top. divergence: the grid-end interval
    lies below the bound, or above it."""
    if semantics == "divergence":
        refuted, confirmed = ci_hi[-1] < bound, ci_lo[-1] > bound
    else:
        band_lo, band_hi = predicted * (1.0 - tol), predicted * (1.0 + tol)
        if semantics == "lim":
            k = _graded(len(ci_lo))
            meets = (ci_hi[-k:] >= band_lo) & (ci_lo[-k:] <= band_hi)
            refuted, confirmed = not meets.any(), meets.all()
        else:
            refuted = ci_hi[int(np.argmin(ratios))] < band_lo
            confirmed = np.any(ci_lo <= band_hi)
    if refuted:
        return "inconsistent"
    return "consistent" if confirmed else "inconclusive"


def _grade(claim, experiment_id: str, xs, den, num, se, used_samples: int,
           notes: list, tolerance: float, divergence_bound: float,
           seed: int) -> RatioCurve:
    """Ratio curve of one claim's numerator over its denominator, graded."""
    predicted, semantics = claim.predicted, claim.semantics
    ratios = num / den
    lo, hi = wald_interval(num, se)
    ci_lo, ci_hi = lo / den, hi / den
    run = np.minimum.accumulate(ratios)

    if num[-1] == 0:
        # numerators fall with x, so no point past the grid end has hits
        verdict = "inconclusive"
        notes.append("no tail hits at the grid end; "
                     "increase samples or shorten the grid")
    elif semantics == "lim" and se[-1] / num[-1] > 0.25:
        rel_end = float(se[-1] / num[-1])
        verdict = "inconclusive"
        notes.append(f"grid-end stderr is {rel_end:.0%} of the estimate; "
                     f"roughly {(rel_end / 0.25) ** 2:.0f}x more samples "
                     f"would pin the verdict")
    else:
        verdict = _verdict(semantics, ratios, ci_lo, ci_hi, predicted,
                           tolerance, divergence_bound)
    if semantics == "divergence":
        predicted = math.inf

    points = tuple(
        RatioPoint(float(x), float(n_), float(s), float(d), float(r_),
                   float(lo), float(hi), float(rm))
        for x, n_, s, d, r_, lo, hi, rm
        in zip(xs, num, se, den, ratios, ci_lo, ci_hi, run))
    return RatioCurve(experiment_id, claim.quantity.token,
                      claim.denominator.describe(), points, float(predicted),
                      semantics, float(tolerance), verdict, used_samples,
                      int(seed), tuple(notes))


def experiment(model: DependentModel, quantity, denominator: Denominator,
               x_grid=None, samples: int = 1_000_000, *,
               predicted: float = 1.0, semantics: str = "lim",
               tolerance: float = 0.05, experiment_id: str = "custom",
               numerator: str = "auto", weights=None,
               divergence_bound: float = 10.0) -> Preset:
    """The one-claim Preset of a ratio curve of quantity on model.

    numerator: "auto" uses closed-form copula algebra when the quantity
    admits it (unweighted max of up to three coordinates; comonotone
    identical sums) and Monte Carlo otherwise; "mc" forces simulation;
    "exact" demands the closed form and raises if there is none.
    """
    claim = Claim(quantity, semantics, denominator, predicted)
    return Preset(experiment_id, "", model, (claim,), tolerance, samples,
                  x_grid=x_grid, weights=weights, numerator=numerator,
                  divergence_bound=divergence_bound)


def run_experiment(model: DependentModel, quantity, denominator: Denominator,
                   x_grid=None, samples: int = 1_000_000, seed: int = 0,
                   workers: int = 1, **options) -> RatioCurve:
    """Assemble one ratio curve and grade it: the run of the Preset that
    experiment builds from the same arguments and keyword options."""
    return experiment(model, quantity, denominator, x_grid, samples,
                      **options).run(seed=seed, workers=workers)[0]


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
    quantity: mc.Quantity      # given as one or by its token, e.g. "SumTau"
    semantics: str
    denominator: Denominator
    predicted: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "quantity", mc.parse_quantity(self.quantity))
        if self.semantics not in SEMANTICS:
            raise InvalidInput(f"semantics must be one of {SEMANTICS}")


@dataclass(frozen=True)
class Preset:
    """A named set of claims on one model: the unit every ratio curve runs
    as, from a theorem preset to a one-off experiment."""

    preset_id: str
    description: str
    model: DependentModel      # what a run uses unless given its own
    claims: tuple
    tolerance: float
    samples: int
    hypotheses: tuple = None   # names in HYPOTHESES; None takes no custom model
    grid_hi_u: float = 1.0 - 1e-4
    x_grid: tuple = None       # fixed grid, used as given when set
    weights: tuple = None      # per-coordinate weights of the fixed-length sums
    numerator: str = "auto"    # "auto", "mc" or "exact"; see experiment
    divergence_bound: float = 10.0

    def __post_init__(self):
        if self.numerator not in ("auto", "mc", "exact"):
            raise InvalidInput("numerator must be auto, mc, or exact")
        if not (self.tolerance > 0.0):
            raise InvalidInput("tolerance must be positive")

    def check_custom_model(self) -> None:
        """Reject a custom model: without hypotheses there is nothing to
        check it against."""
        if self.hypotheses is None:
            raise InvalidInput(
                f"preset {self.preset_id} does not take a custom model; "
                f"use the ruin command with a config")

    def check(self, model: DependentModel, x_grid=None) -> tuple:
        """What a run on model does, rejecting what it cannot run, so a
        config can be checked without running it.

        The grid is x_grid, else the preset's own, else the quantile grid
        of the marginals; it must be nonempty, finite and increasing. A
        claim fails if its denominator lacks parts of the model or vanishes
        on the grid, if an exact numerator has no closed form, or if it is
        simulated against the engine's pass rule (mc.check_pass).

        Returns the grid and, per claim, (exact, denominator, notes): the
        closed-form tail xs -> P(stat > x), None when the run simulates
        the claim; the denominator on the grid; the advisories its curve
        records.
        """
        if x_grid is None:
            x_grid = (self.x_grid if self.x_grid is not None else
                      quantile_grid(model.marginals, hi_u=self.grid_hi_u))
        xs = np.atleast_1d(np.asarray(x_grid, dtype=float))
        if not xs.size or np.any(~np.isfinite(xs)) or np.any(np.diff(xs) <= 0):
            raise InvalidInput(
                "x grid must be nonempty, finite and strictly increasing")
        issues = [issue for name in self.hypotheses or ()
                  for issue in HYPOTHESES[name](model)]
        advice = (("hypotheses unverified: " + "; ".join(issues),)
                  if issues else ())
        infinite = (model.tau is not None
                    and not math.isfinite(model.tau.mean()))
        checked, simulated = [], []
        for claim in self.claims:
            den = claim.denominator.values(model, xs, self.weights)
            if np.any(den <= 0):
                raise InvalidInput("denominator vanishes on the grid")
            exact = (None if self.numerator == "mc"
                     else _closed_form(model, claim.quantity, self.weights))
            if self.numerator == "exact" and exact is None:
                raise InvalidInput(
                    f"no closed form for {claim.quantity.token} on this model")
            notes = advice
            if infinite and claim.semantics != "divergence":
                notes += (f"the counting law has infinite mean but the "
                          f"experiment uses '{claim.semantics}' semantics; "
                          f"ratios against any finite denominator diverge, "
                          f"switch to divergence semantics",)
            if exact is None:
                simulated.append(claim.quantity)
            checked.append((exact, den, notes))
        if simulated:
            mc.check_pass(model, simulated, self.weights)
        return xs, checked

    def run(self, model: DependentModel = None, samples: int = None,
            seed: int = 0, workers: int = 1, x_grid=None) -> list:
        """All ratio curves of this preset (or of a custom model on it).

        The numerators without a closed form share one simulation pass.
        """
        if model is not None:
            self.check_custom_model()
        else:
            model = self.model
        samples = self.samples if samples is None else int(samples)
        xs, checked = self.check(model, x_grid)

        simulated = [claim.quantity for claim, (exact, _, _)
                     in zip(self.claims, checked) if exact is None]
        hits, run_notes = (mc.estimate_tails(
            model, simulated, xs, samples, seed, workers=workers,
            weights=self.weights) if simulated else ((), ()))
        rows = iter(hits)
        many = len(self.claims) > 1
        curves = []
        for claim, (exact, den, notes) in zip(self.claims, checked):
            notes = list(notes)
            if exact is None:
                num = next(rows) / samples
                se = np.sqrt(num * (1.0 - num) / samples)
                used_samples = samples
                notes.extend(run_notes)
            else:
                num, se, used_samples = exact(xs), np.zeros(len(xs)), 0
                notes.append(
                    "numerator computed exactly, stderr identically zero")
            curves.append(_grade(
                claim, f"{self.preset_id}:{claim.quantity.token}" if many
                else self.preset_id, xs, den, num, se, used_samples, notes,
                self.tolerance, self.divergence_bound, seed))
        return curves


def _whole(issue: str, holds):
    """A hypothesis on the whole model: issue unless holds(model)."""
    return lambda model: () if holds(model) else (issue,)


def _each(issue: str, holds):
    """A hypothesis on each marginal: issue, after the marginal's family
    name, for every marginal d without holds(d)."""
    return lambda model: tuple(f"{type(d).__name__} {issue}"
                               for d in model.marginals if not holds(d))


# each maps a model m to the issues it breaks; a count's mean is judged
# only when there is a count
HYPOTHESES = {
    "bounded_density": _whole(
        "copula is not of the bounded-density family",
        lambda m: isinstance(m.copula, (FGM, Independence))),
    "long_tailed": _each("is not declared long-tailed",
                         lambda d: TAG_LONG in d.tags),
    "dominated": _each("is not declared dominatedly varying",
                       lambda d: TAG_DOMINATED in d.tags),
    "nonnegative": _each("is not nonnegative", lambda d: d.support()[0] >= 0),
    "infinite_mean_count": _whole(
        "divergence needs an infinite-mean counting law",
        lambda m: m.tau is None or not math.isfinite(m.tau.mean())),
    "negative_drift": _whole("summand mean must be negative",
                             lambda m: m.marginals[0].mean() < 0),
    "nonnegative_drift": _whole(
        "this variant assumes a nonnegative summand mean",
        lambda m: not m.marginals[0].mean() < 0),
    "independent_blocks": _whole(
        "uniform density bound over all lengths needs independent blocks",
        lambda m: isinstance(m.copula, Independence)),
}

_FGM_LONG = ("bounded_density", "long_tailed")


_SUM_TAILS = Denominator("sum_tails")
_MEAN_TAU = Denominator("mean_tau_tail")
_BARE_TAIL = Denominator("n_tail", n=1)


PRESETS = {
    "T3.1": Preset(
        "T3.1",
        "trivariate positive-dependence sum and running max against the sum "
        "of three power tails",
        DependentModel(
            FGM(3, (0.5, 0.5, 0.5)),
            (Pareto(0.8, 1.0), Pareto(0.8, 1.5), Pareto(0.8, 2.0))),
        (Claim("SumN", "lim", _SUM_TAILS), Claim("RunMaxN", "lim",
                                                 _SUM_TAILS)),
        tolerance=0.10, samples=2_000_000, hypotheses=_FGM_LONG),
    "T3.2": Preset(
        "T3.2",
        "bivariate dependent sum with mixed power indices: the running "
        "minimum of the ratio settles at one",
        DependentModel(FGM.bivariate(1.0),
                       (Pareto(0.8, 1.0), Pareto(1.2, 1.0))),
        (Claim("SumN", "liminf", _SUM_TAILS), Claim("RunMaxN", "liminf",
                                                    _SUM_TAILS)),
        tolerance=0.10, samples=1_000_000,
        hypotheses=_FGM_LONG + ("dominated", "nonnegative")),
    "T3.3": Preset(
        "T3.3",
        "bivariate dependent maximum, exact copula algebra: ratio to the "
        "tail sum tends to one",
        DependentModel(FGM.bivariate(1.0),
                       (Pareto(1.5, 1.0), Pareto(1.5, 1.0))),
        (Claim("MaxN", "lim", _SUM_TAILS),),
        tolerance=0.05, samples=1_000_000, hypotheses=_FGM_LONG),
    "C3.1": Preset(
        "C3.1",
        "identical heavy marginals under positive dependence: sum and "
        "running max both look like n copies of one tail",
        DependentModel(FGM.bivariate(1.0),
                       (Pareto(0.8, 1.0), Pareto(0.8, 1.0))),
        (Claim("SumN", "lim", Denominator("n_tail", n=2)),
         Claim("RunMaxN", "lim", Denominator("n_tail", n=2))),
        tolerance=0.075, samples=10_000_000, hypotheses=_FGM_LONG),
    "T4.1": Preset(
        "T4.1",
        "geometrically stopped sum of independent blocks: ratio to "
        "(expected count) x (one tail) tends to one",
        DependentModel(Independence(2),
                       (Pareto(0.8, 1.0), Pareto(0.8, 1.0)),
                       tau=Geometric1(0.5)),
        (Claim("SumTau", "lim", _MEAN_TAU),),
        tolerance=0.15, samples=10_000_000, hypotheses=()),
    "T4.2": Preset(
        "T4.2",
        "infinite-mean stopping: ratios to the bare tail climb past any "
        "bound (certified by an exact partial sum)",
        DependentModel(Independence(2),
                       (Pareto(1.0, 1.0), Pareto(1.0, 1.0)),
                       tau=Zeta(1.5)),
        (Claim("MaxTau", "divergence", _BARE_TAIL),
         Claim("SumTau", "divergence", _BARE_TAIL)),
        tolerance=0.15, samples=200_000, hypotheses=("infinite_mean_count",)),
    "T4.3": Preset(
        "T4.3",
        "randomly stopped maximum with a finite-mean count: ratio to "
        "(expected count) x (one tail) tends to one",
        DependentModel(FGM.bivariate(1.0),
                       (Pareto(1.5, 1.0), Pareto(1.5, 1.0)),
                       tau=Poisson(2.0)),
        (Claim("MaxTau", "lim", _MEAN_TAU),),
        tolerance=0.10, samples=1_000_000, hypotheses=()),
    "T4.4i": Preset(
        "T4.4i",
        "negative-drift random walk stopped at an independent count: the "
        "running maximum's tail looks like (expected count) x (one tail); "
        "exceedances against the drift are rare events, so this preset "
        "carries the suite's widest tolerance",
        DependentModel(
            Independence(2),
            (ShiftedBy(Pareto(2.0, 1.0), -3.0),
             ShiftedBy(Pareto(2.0, 1.0), -3.0)),
            tau=Poisson(2.0)),
        (Claim("RunMaxTau", "lim", _MEAN_TAU),
         Claim("SumTau", "lim", _MEAN_TAU)),
        tolerance=0.20, samples=10_000_000,
        hypotheses=("negative_drift", "independent_blocks")),
    "T4.4ii": Preset(
        "T4.4ii",
        "nonnegative-mean summands with a light-tailed count: same "
        "(expected count) x (one tail) asymptotics",
        DependentModel(Independence(2),
                       (Pareto(2.0, 1.0), Pareto(2.0, 1.0)),
                       tau=Poisson(2.0)),
        (Claim("RunMaxTau", "lim", _MEAN_TAU),
         Claim("SumTau", "lim", _MEAN_TAU)),
        tolerance=0.15, samples=4_000_000,
        hypotheses=("nonnegative_drift", "independent_blocks"),
        grid_hi_u=1.0 - 1e-5),
}
