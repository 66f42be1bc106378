"""Command line front end.

Commands build models from YAML or JSON configs (or small inline tokens),
run the matching library operation, and write CSV or structured records.
Every run echoes its resolved config into the output header so the exact
run can be reproduced later, and exit codes are scriptable: 0 for
consistent or complete, 2 when any verdict came back inconsistent, 64 for
usage and schema problems, 1 for unexpected failures.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import sys
from dataclasses import asdict
from functools import cache, partial
from typing import NamedTuple

import numpy as np

from . import convolution as conv
from . import diagnostics as diag
from . import experiments as ex
from . import montecarlo as mc
from . import risk as risk_mod
from .copulas import Comonotone, DependentModel, FGM, Independence
from .counting import Deterministic, Geometric1, Poisson, Zeta
from .distributions import (DiscreteAtoms, Exponential, GeometricAtomMixture,
                            IntegratedTail, Lognormal, Pareto, ShiftedBy,
                            Weibull)
from .errors import ConfigError, HeavyTailsError, InvalidInput, WorkerCrashed
from .rng import check_samples, check_seed

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_INCONSISTENT = 2
EXIT_USAGE = 64

CSV_COLUMNS = ("experiment_id", "x", "numerator", "stderr", "denominator",
               "ratio", "ci_low", "ci_high", "running_min")


# ----------------------------------------------------------------- config --

def _expect_mapping(cfg, context: str) -> dict:
    if not isinstance(cfg, dict):
        raise ConfigError(f"{context}: expected a mapping, got "
                          f"{type(cfg).__name__}")
    return dict(cfg)


def _take(cfg, context: str, required=(), optional=None) -> dict:
    """Pop declared fields; anything left over is a schema error."""
    cfg = _expect_mapping(cfg, context)
    out = {}
    for key in required:
        if key not in cfg:
            raise ConfigError(f"{context}: missing field {key!r}")
        out[key] = cfg.pop(key)
    for key, default in (optional or {}).items():
        out[key] = cfg.pop(key, default)
    if cfg:
        raise ConfigError(f"{context}: unknown fields {sorted(cfg)}")
    return out


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read config {path!r}: {err}")
    try:
        data = json.loads(text)
    except ValueError:
        import yaml     # only a config that is not JSON needs the parser
        try:
            data = yaml.safe_load(text)
        except yaml.YAMLError as err:
            raise ConfigError(f"config {path!r} is neither JSON nor YAML: "
                              f"{err}")
    return _expect_mapping(data, f"config {path!r}")


def canonical_json(cfg: dict) -> str:
    return json.dumps(cfg, sort_keys=True, separators=(",", ":"))


@contextlib.contextmanager
def _config_errors(context: str, *also):
    """Re-raise library errors, and errors of the given types, as a
    ConfigError naming context; schema errors and worker crashes pass
    through unchanged."""
    try:
        yield
    except (ConfigError, WorkerCrashed):
        raise
    except (HeavyTailsError,) + also as err:
        raise ConfigError(f"{context}: {err}")


# what a value of the wrong type or form raises when it is converted
_BAD_VALUE = (TypeError, ValueError, OverflowError)


def _convert(kind, value, field: str):
    """kind(value) for one config value; a bad value is a ConfigError
    naming its field."""
    with _config_errors(field, *_BAD_VALUE):
        return kind(value)


def _integer(value, field: str) -> int:
    """int(value) for one config value; a boolean, or a number with a
    fractional part, is a ConfigError naming its field."""
    n = _convert(int, value, field)
    if isinstance(value, bool) or (isinstance(value, float) and value != n):
        raise ConfigError(f"{field}: expected an integer, got {value!r}")
    return n


# ----------------------------------------------------------------- builders --

# family -> (constructor, fields in constructor order, defaults)
_MARGINALS = {
    "pareto": (Pareto, ("alpha", "scale"), {"scale": 1.0}),
    "weibull": (Weibull, ("shape", "scale"), {"scale": 1.0}),
    "lognormal": (Lognormal, ("mu", "sigma"), {"mu": 0.0, "sigma": 1.0}),
    "exponential": (Exponential, ("rate",), {"rate": 1.0}),
    "example11": (GeometricAtomMixture, ("q",), {"q": 0.5}),
    "atoms": (DiscreteAtoms, ("atoms",), {}),
    "shifted": (ShiftedBy, ("base", "offset"), {}),
    "integrated_tail": (IntegratedTail, ("base",), {}),
}
_COPULAS = {
    "fgm": (FGM, ("dim", "coeffs"), {"dim": 2}),
    "independence": (Independence, ("dim",), {"dim": 2}),
    "comonotone": (Comonotone, ("dim",), {"dim": 2}),
}
_COUNTING = {
    "poisson": (Poisson, ("mean",), {}),
    "geometric1": (Geometric1, ("p",), {}),
    "zeta": (Zeta, ("s",), {}),
    "deterministic": (Deterministic, ("n",), {}),
}


def _field(key: str, value, context: str):
    """Convert one family field; plain numeric fields are floats."""
    if key == "base":
        return build_marginal(value, context + ".base")
    with _config_errors(f"{context}.{key}", *_BAD_VALUE):
        if key == "atoms":
            return tuple((float(loc), float(mass)) for loc, mass in value)
        if key == "coeffs":
            return tuple(float(a) for a in ([value] if isinstance(
                value, (int, float)) else value))
        if key in ("dim", "n"):
            return _integer(value, f"{context}.{key}")
        return float(value)


def _build_family(table: dict, cfg, context: str):
    cfg = _expect_mapping(cfg, context)
    family = cfg.get("family")
    if not (isinstance(family, str) and family in table):
        raise ConfigError(f"{context}: unknown family {family!r}")
    ctor, fields, defaults = table[family]
    with _config_errors(context, *_BAD_VALUE):
        f = _take(cfg, context, ("family",) + tuple(
            k for k in fields if k not in defaults), defaults)
        return ctor(*(_field(k, f[k], context) for k in fields))


def build_marginal(cfg, context="marginal"):
    if not isinstance(_expect_mapping(cfg, context).get("family"), str):
        raise ConfigError(f"{context}: needs a string 'family' field")
    return _build_family(_MARGINALS, cfg, context)


def build_model(cfg, context="model"):
    f = _take(cfg, context, ("copula", "marginals"), {"tau": None})
    copula = _build_family(_COPULAS, f["copula"], context + ".copula")
    if not isinstance(f["marginals"], (list, tuple)) or not f["marginals"]:
        raise ConfigError(f"{context}.marginals: expected a nonempty list")
    marginals = tuple(build_marginal(m, f"{context}.marginals[{i}]")
                      for i, m in enumerate(f["marginals"]))
    tau = None if f["tau"] is None else _build_family(
        _COUNTING, f["tau"], context + ".tau")
    with _config_errors(context, *_BAD_VALUE):
        return DependentModel(copula, marginals, tau=tau)


def build_denominator(cfg, context="denominator"):
    f = _take(cfg, context, ("kind",), {"n": None})
    n = None if f["n"] is None else _integer(f["n"], context + ".n")
    with _config_errors(context, *_BAD_VALUE):
        return ex.Denominator(str(f["kind"]), n=n)


# the most points a lo/hi grid spans; the presets use at most 101
MAX_GRID_POINTS = 10_000


def build_grid(cfg, context="grid", points_context=None):
    """None passes through (caller default); mapping or list build arrays.
    Errors name context, and its points field points_context (by default
    context.points)."""
    if cfg is None:
        return None
    if isinstance(cfg, dict):
        points_context = points_context or context + ".points"
        f = _take(cfg, context, ("lo", "hi"), {"points": 24})
        with _config_errors(context, *_BAD_VALUE):
            lo, hi = float(f["lo"]), float(f["hi"])
        n = _integer(f["points"], points_context)
        if n > MAX_GRID_POINTS:
            raise ConfigError(f"{points_context}: at most {MAX_GRID_POINTS}, "
                              f"got {n}")
        if not (0 < lo < hi < math.inf) or n < 1:
            raise ConfigError(f"{context}: need 0 < lo < hi < inf and "
                              f"points >= 1")
        return np.geomspace(lo, hi, n)
    if isinstance(cfg, (list, tuple)):
        with _config_errors(context, *_BAD_VALUE):
            xs = np.asarray([float(v) for v in cfg])
        if (len(xs) == 0 or np.any(np.diff(xs) <= 0)
                or not np.all(np.isfinite(xs))):
            raise ConfigError(f"{context}: explicit grid must be finite, "
                              f"strictly increasing and nonempty")
        return xs
    raise ConfigError(f"{context}: expected a mapping with lo/hi or a list")


# the families a short token spells: every field a plain number
_TOKEN_FAMILIES = tuple(family for family, (_, fields, _) in _MARGINALS.items()
                        if not {"atoms", "base"} & set(fields))


def parse_dist_token(token: str) -> dict:
    """Turn 'pareto(1.5,1)' or 'example11' into a marginal config mapping
    of the fields the token spells, in constructor order."""
    token = token.strip()
    if "(" in token:
        family, rest = token.split("(", 1)
        if not rest.endswith(")"):
            raise ConfigError(f"distribution token {token!r}: missing ')'")
        with _config_errors(f"distribution token {token!r}", *_BAD_VALUE):
            args = [float(v) for v in rest[:-1].split(",") if v.strip()]
    else:
        family, args = token, []
    family = family.strip().lower()
    if family not in _TOKEN_FAMILIES:
        raise ConfigError(f"unknown distribution token {family!r}; have "
                          f"{sorted(_TOKEN_FAMILIES)}")
    _, names, defaults = _MARGINALS[family]
    required = [k for k in names if k not in defaults]
    if not len(required) <= len(args) <= len(names):
        raise ConfigError(f"{family} takes {len(required)}..{len(names)} "
                          f"arguments, got {len(args)}")
    return {"family": family, **dict(zip(names, args))}


_MODEL_TOKENS = {
    f"{family}-pareto": {
        "copula": {"family": family, "dim": 2, **extra},
        "marginals": [{"family": "pareto", "alpha": 1.0, "scale": 1.0}] * 2}
    for family, extra in (("comonotone", {}), ("independence", {}),
                          ("fgm", {"coeffs": [1.0]}))}


# ----------------------------------------------------------------- output --

def _fmt(value) -> str:
    return repr(float(value))


def _curve_record(curve) -> dict:
    limit = curve.predicted_limit
    return {**asdict(curve), "running_min": curve.running_min,
            "predicted_limit": limit if math.isfinite(limit) else str(limit)}


def _report_rows(reports) -> list:
    rows = []
    for name, rep in reports:
        if isinstance(rep, str):    # check could not run; rep is the reason
            rows.append({"check": name, "verdict": "unavailable",
                         "end_statistic": math.nan, "target": None,
                         "tolerance": math.nan, "running_min": None,
                         "notes": [rep]})
            continue
        target = rep.target_value
        rows.append({
            "check": name, "verdict": rep.verdict,
            "end_statistic": (float(rep.statistics[-1])
                              if len(rep.statistics) else math.nan),
            "target": None if target is None else float(target),
            "tolerance": rep.tolerance, "running_min": rep.running_min,
            "notes": []})
    return rows


def _emit(text: str, out: str):
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as err:
            raise ConfigError(f"cannot write output {out!r}: {err}")
    else:
        sys.stdout.write(text)


def _write_table(args, config: dict, columns, rows, results=None):
    """CSV rows under the echoed config, or a records document.

    CSV cells that are not strings print as repr floats. The records
    results default to one mapping of columns to cells per row.
    """
    if args.format == "records":
        if results is None:
            results = [dict(zip(columns, row)) for row in rows]
        text = json.dumps({"config": config, "results": results}, indent=2,
                          sort_keys=True) + "\n"
    else:
        lines = [f"# config={canonical_json(config)}", ",".join(columns)]
        lines += [",".join(c if isinstance(c, str) else _fmt(c) for c in row)
                  for row in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)


def _status(args, statuses) -> int:
    """Print (line, verdict) pairs after an --out run; 2 if any failed."""
    if args.out:
        for line, _ in statuses:
            print(line)
    if any(verdict == "inconsistent" for _, verdict in statuses):
        return EXIT_INCONSISTENT
    return EXIT_OK


def _write_curves(args, config: dict, curves) -> int:
    rows = [(c.experiment_id, p.x, p.numerator, p.stderr, p.denominator,
             p.ratio, p.ci_low, p.ci_high, p.running_min)
            for c in curves for p in c.points]
    _write_table(args, config, CSV_COLUMNS, rows,
                 [_curve_record(c) for c in curves]
                 if args.format == "records" else None)
    return _status(args, [(f"{c.experiment_id}: {c.verdict} "
                           f"(running min {c.running_min:.6g})", c.verdict)
                          for c in curves])


def _write_reports(args, config: dict, reports) -> int:
    results = _report_rows(reports)
    rows = [(r["check"], r["verdict"], r["end_statistic"],
             "" if r["target"] is None else r["target"], r["tolerance"])
            for r in results]
    _write_table(args, config, ("check", "verdict", "end_statistic",
                                "target", "tolerance"), rows, results)
    return _status(args, [(f"{r['check']}: {r['verdict']}", r["verdict"])
                          for r in results])


def _write_convolve(args, config: dict, rows) -> int:
    _write_table(args, config, ("x", "lower", "upper", "single_tail",
                                "ratio_low", "ratio_high", "running_min"),
                 rows)
    return _status(args, [(f"convolve: {len(rows)} points, "
                           f"running min {rows[-1][-1]:.6g}", None)])


# ----------------------------------------------------------------- schemas --

# config kind -> (required fields, optional fields with their defaults)
_SCHEMAS = {
    "ratio-curve": (("model", "quantity", "denominator"),
                    {"grid": None, "samples": None, "seed": None,
                     "predicted": 1.0, "semantics": "lim", "tolerance": 0.05,
                     "experiment_id": "custom", "numerator": "auto",
                     "divergence_bound": 10.0, "weights": None}),
    "theorem": ((), {"theorem_id": None, "model": None, "samples": None,
                     "seed": None, "grid": None}),
    "ruin": (("preset",), {"samples": None, "seed": None}),
    "discrete": (("risk", "claims"),
                 {"rate": 0.0, "grid": None, "samples": None, "seed": None,
                  "tolerance": 0.15}),
    "arrival": (("risk", "claim_size", "loading", "intensity", "horizon"),
                {"grid": None, "samples": None, "seed": None,
                 "tolerance": 0.15}),
    "diagnose-class": (("dist",), {"checks": None, "grid": None}),
    "diagnose-dependence": (("model",), {"checks": None, "pair": (0, 1)}),
    "convolve": (("dist",), {"nfold": 2, "points": "auto"}),
    # on top of a discrete risk config
    "surplus-path": ((), {"surplus": None, "replicate": 0}),
}


class _Parsed(NamedTuple):
    """A config checked and built: its echo, its work, its writer and its
    advisories."""

    echo: dict
    run: object                 # (workers) -> what the command writes
    write: object               # (args, echo, result) -> exit code
    warnings: object = tuple    # () -> the advisories, for validate


def _fields(raw, kind: str) -> dict:
    return _take(raw, f"{kind} config", *_SCHEMAS[kind])


# the parsed arguments that steer a run; every other dest is a config field
_RUN_ONLY = ("command", "fn", "config", "out", "format", "workers", "variant")


def _overlay(args) -> dict:
    """The --config mapping (or {}) with every given flag laid over the
    field its dest names; a grid string is parsed and checked here, its
    errors naming the flag."""
    cfg = load_config(args.config) if args.config else {}
    for field, value in vars(args).items():
        if value is None or field in _RUN_ONLY:
            continue
        if field in ("grid", "points"):
            flag = "--" + field
            value = _parse_grid_flag(value, flag)
            build_grid(value, flag, flag)   # its value errors name the flag
        cfg[field] = value
    return cfg


def _resolve(config: dict, key: str, default):
    """The config's samples or seed, else default, checked against the
    range the engine accepts."""
    value = config.get(key)
    if value is None:
        return default
    check = check_seed if key == "seed" else check_samples
    try:
        return check(_integer(value, key))
    except InvalidInput as err:
        raise ConfigError(str(err)) from None


def _parse_ratio_curve(raw) -> _Parsed:
    f = _fields(raw, "ratio-curve")
    model = build_model(f["model"])
    denominator = build_denominator(f["denominator"])
    grid = build_grid(f["grid"])
    with _config_errors("weights", *_BAD_VALUE):
        weights = (None if f["weights"] is None
                   else tuple(float(w) for w in f["weights"]))
    # these config fields are the experiment options of the same name
    options = {key: _convert(float, f[key], key)
               for key in ("predicted", "tolerance", "divergence_bound")}
    options.update((key, str(f[key]))
                   for key in ("semantics", "experiment_id", "numerator"))
    with _config_errors("ratio-curve"):
        preset = ex.experiment(model, str(f["quantity"]), denominator, grid,
                               weights=weights, **options)
    return _curve_plan(f, preset, "ratio-curve")


def _curve_plan(f: dict, preset, context: str = None, model=None,
                x_grid=None) -> _Parsed:
    """Run a preset's curves at the config's seed and samples on the model
    and grid given; the run checks them first (Preset.check), and the
    advisories are that check's notes. Library errors of the check and of
    the run name context if one is given."""
    seed = _resolve(f, "seed", 0)
    samples = _resolve(f, "samples", preset.samples)
    errors = ((lambda: _config_errors(context)) if context
              else contextlib.nullcontext)

    def run(workers):
        with errors():
            return preset.run(model=model, samples=samples, seed=seed,
                              workers=workers, x_grid=x_grid)

    def warnings():
        with errors():
            _, checked = preset.check(
                preset.model if model is None else model, x_grid)
        return tuple(dict.fromkeys(n for _, _, notes in checked
                                   for n in notes))

    return _Parsed({**f, "seed": seed, "samples": samples}, run,
                   _write_curves, warnings)


def _parse_theorem(raw) -> _Parsed:
    f = _fields(raw, "theorem")
    if not f["theorem_id"]:
        raise ConfigError("theorem needs --id or a theorem_id config field")
    return _preset_plan(f, "theorem_id", risk_mod.presets(), "theorem id")


def _preset_plan(f: dict, key: str, registry: dict, noun: str) -> _Parsed:
    """Run one named preset, for a theorem or a ruin preset config."""
    grid = build_grid(f.get("grid"))
    pid = f[key]
    if not isinstance(pid, str) or pid not in registry:
        raise ConfigError(f"unknown {noun} {pid!r}; have {list(registry)}")
    preset, model = registry[pid], None
    if f.get("model") is not None:
        preset.check_custom_model()
        model = build_model(f["model"])
    return _curve_plan(f, preset, model=model, x_grid=grid)


# check -> diagnostics function, for diagnose-class and diagnose-dependence
_CLASS_CHECKS = {"L": diag.long_tail, "D": diag.dominated,
                 "S": diag.subexponential, "Sstar": diag.sstar,
                 "SstarStrong": diag.strong_subexponential}
_DEPENDENCE_CHECKS = {"H1": diag.h1_report, "H2": diag.h2_report}


def _checks(value, allowed, everything: str, kind: str, have: str) -> list:
    checks = list(allowed) if value in (None, everything) else (
        value.split(",") if isinstance(value, str)
        else _convert(list, value, "checks"))
    for c in checks:
        if c not in allowed:
            raise ConfigError(f"unknown {kind} check {c!r}; have {have}")
    return checks


def _report_plan(echo: dict, report) -> _Parsed:
    """Report each of the echo's checks, or why it cannot run."""
    def report_or_reason(check):
        try:
            return report(check)
        except HeavyTailsError as err:
            return str(err)
        except ArithmeticError as err:
            return f"{type(err).__name__}: {err}"
    return _Parsed(echo, lambda workers: [
        (c, report_or_reason(c)) for c in echo["checks"]], _write_reports)


def _dist_config(dist):
    return parse_dist_token(dist) if isinstance(dist, str) else dist


def _parse_grid_flag(text: str, name: str):
    """The grid that the string of flag or field name spells."""
    text = text.strip()
    if text == "auto":
        return None
    parts = text.split(":")
    if ":" in text and len(parts) != 3:
        raise ConfigError(f"{name} takes lo:hi:n or x1,x2,...")
    with _config_errors(name, *_BAD_VALUE):
        if ":" in text:
            return {"lo": float(parts[0]), "hi": float(parts[1]),
                    "points": int(parts[2])}
        return [float(v) for v in text.split(",") if v.strip()]


def _parse_class(raw) -> _Parsed:
    f = _fields(raw, "diagnose-class")
    dist_cfg = _dist_config(f["dist"])
    checks = _checks(f["checks"], tuple(_CLASS_CHECKS), "all", "class",
                     f"{tuple(_CLASS_CHECKS)} or 'all'")
    dist = build_marginal(dist_cfg, "dist")
    grid = build_grid(f["grid"])
    return _report_plan({"dist": dist_cfg, "checks": checks, "grid": f["grid"]},
                        lambda c: _CLASS_CHECKS[c](dist, grid=grid))


def _parse_dependence(raw) -> _Parsed:
    f = _fields(raw, "diagnose-dependence")
    model_cfg = f["model"]
    if isinstance(model_cfg, str):
        if model_cfg not in _MODEL_TOKENS:
            raise ConfigError(f"unknown model token {model_cfg!r}; have "
                              f"{sorted(_MODEL_TOKENS)}")
        model_cfg = dict(_MODEL_TOKENS[model_cfg])
    with _config_errors("pair", *_BAD_VALUE):
        i, j = (_integer(v, "pair") for v in f["pair"])
    pair = (i, j)
    checks = _checks(f["checks"], tuple(_DEPENDENCE_CHECKS), "both",
                     "dependence", "H1, H2, or both")
    model = build_model(model_cfg)
    diag.check_pair(model, pair)
    return _report_plan(
        {"model": model_cfg, "checks": checks, "pair": list(pair)},
        lambda c: _DEPENDENCE_CHECKS[c](model, pair=pair))


def _convolve_auto_points(dist):
    rep = dist.truncated_atoms(float("inf"))
    with np.errstate(over="ignore"):
        hi = float(dist.quantile(1.0 - 1e-3))
    if not math.isfinite(hi):
        raise InvalidInput("the default grid's top quantile overflows")
    if rep is not None:
        locs = np.asarray(rep[0], dtype=float)
        pos = locs[locs > 0]
        if not len(pos):
            raise InvalidInput("auto points need a positive atom")
        lo = float(2 * pos[0])
        return {"lo": min(lo, hi / 4) if hi > 0 else lo, "hi": max(hi, 4 * lo)}
    lo = max(float(dist.quantile(0.9)), 1e-9)
    return {"lo": lo, "hi": max(hi, lo * 4), "points": 16}


def _parse_convolve(raw) -> _Parsed:
    f = _fields(raw, "convolve")
    dist_cfg = _dist_config(f["dist"])
    nfold = _integer(f["nfold"], "nfold")
    if not 2 <= nfold <= mc.TAU_CAP:
        raise ConfigError(f"nfold must be in [2, 2^20], got {nfold}")
    dist = build_marginal(dist_cfg, "dist")
    points = f["points"]
    if isinstance(points, str):
        points = _parse_grid_flag(points, "points")
    points = "auto" if points is None else points
    probes = _convolve_auto_points(dist) if points == "auto" else points
    grid = build_grid(probes, "points")
    return _Parsed({"dist": dist_cfg, "nfold": nfold, "points": points},
                   lambda workers: _convolve_rows(dist, nfold, probes, grid),
                   _write_convolve)


def _convolve_rows(dist, nfold: int, probes, grid) -> list:
    """(x, lower, upper, single tail, ratio bounds, running min) rows.

    An atomic two-fold probes a lo/hi span at every jump of both tails.
    """
    with _config_errors("convolve"):
        if (nfold == 2 and isinstance(probes, dict)
                and dist.truncated_atoms(float("inf")) is not None):
            grid = conv.tail_jumps(dist, float(probes["lo"]),
                                   float(probes["hi"]))
        lower, upper = conv.nfold_tail_bracket(dist, nfold, grid)
        tails = dist.tail(grid)
        if np.any(tails <= 0):
            raise InvalidInput("single tail vanishes on the grid; "
                               "shorten it")
        r_lo, r_hi, mid = conv.ratio_bracket(lower, upper, tails)
        rows = zip(grid, lower, upper, tails, r_lo, r_hi,
                   np.minimum.accumulate(mid))
        return [tuple(map(float, row)) for row in rows]


def _build_risk(raw: dict, context: str, extra=None):
    """The risk model a config names and its fields, with the optional
    fields of extra (name -> default) taken too."""
    kind = raw.get("risk")
    if kind not in ("discrete", "arrival"):
        raise ConfigError(f"{context}: 'risk' must be 'discrete' or "
                          f"'arrival'")
    required, optional = _SCHEMAS[kind]
    f = _take(raw, context, required, {**optional, **(extra or {})})
    if kind == "discrete":
        claims = build_model(f["claims"], context + ".claims")
        rate = _convert(float, f["rate"], "rate")
        with _config_errors(context, *_BAD_VALUE):
            return risk_mod.DiscreteRiskModel(claims, rate=rate), f
    claim = build_marginal(f["claim_size"], context + ".claim_size")
    loading, intensity, horizon = (_convert(float, f[key], key) for key
                                   in ("loading", "intensity", "horizon"))
    with _config_errors(context, *_BAD_VALUE):
        return risk_mod.ArrivalRiskModel(claim, loading=loading,
                                         intensity=intensity,
                                         horizon=horizon), f


def _parse_ruin(raw) -> _Parsed:
    if "preset" in raw:
        return _preset_plan(_fields(raw, "ruin"), "preset",
                            risk_mod.RISK_PRESETS, "ruin preset")
    model, f = _build_risk(raw, "ruin config")
    grid = build_grid(f["grid"])
    tolerance = _convert(float, f["tolerance"], "tolerance")
    with _config_errors("ruin"):
        preset = model.preset(tolerance=tolerance, x_grid=grid)
    return _curve_plan(f, preset, "ruin")


def _parse_surplus_path(raw) -> _Parsed:
    model, f = _build_risk(raw, "surplus-path config",
                           _SCHEMAS["surplus-path"][1])
    if not isinstance(model, risk_mod.DiscreteRiskModel):
        raise ConfigError("surplus-path only applies to the discrete model")
    if f["surplus"] is None:
        raise ConfigError("surplus-path needs --surplus or a surplus field")
    surplus = _convert(float, f["surplus"], "surplus")
    replicate = _integer(f["replicate"], "replicate")
    seed = _resolve(f, "seed", 0)
    echo = {k: v for k, v in f.items()
            if k not in ("samples", "grid", "tolerance")}
    echo.update({"seed": seed, "surplus": surplus, "replicate": replicate})

    def run(workers):
        with _config_errors("surplus-path"):
            return model.surplus_path(surplus, seed=seed,
                                      replicate=replicate)
    return _Parsed(echo, run, _write_surplus_path)


def _write_surplus_path(args, config: dict, path) -> int:
    _write_table(args, config, ("period", "surplus"),
                 [(str(k), u) for k, u in path],
                 [{"period": k, "surplus": u} for k, u in path])
    ruined = min(u for _, u in path) < 0
    return _status(args, [(f"surplus-path: "
                           f"{'ruined' if ruined else 'survived'}", None)])


def _validate_warnings(raw: dict) -> tuple:
    """Parse a config as the command its keys point to; its advisories."""
    if "theorem_id" in raw:
        parse = _parse_theorem
    elif "surplus" in raw:
        parse = _parse_surplus_path
    elif "risk" in raw or "preset" in raw:
        parse = _parse_ruin
    elif "model" in raw:
        parse = _parse_ratio_curve if "quantity" in raw else _parse_dependence
    elif "dist" in raw:
        parse = (_parse_convolve if "nfold" in raw or "points" in raw
                 else _parse_class)
    else:
        raise ConfigError("cannot tell what this config drives: expected "
                          "theorem_id, surplus, risk/preset, model+quantity, "
                          "model, or dist")
    return parse(raw).warnings()


# ----------------------------------------------------------------- commands --

def cmd_run(parse, args) -> int:
    """Parse the command's config and flags as one mapping with parse, run
    it, and write what it returns."""
    cfg = _overlay(args)
    if not cfg:
        raise ConfigError(f"{args.command} needs --config or the flags "
                          f"that name its fields; see --help")
    parsed = parse(cfg)
    return parsed.write(args, parsed.echo,
                        parsed.run(getattr(args, "workers", 1)))


def cmd_list_presets(args) -> int:
    rows = [(pid, p.description) for pid, p in risk_mod.presets().items()]
    if args.format == "records":
        text = json.dumps({"presets": [{"id": i, "description": d}
                                       for i, d in rows]},
                          indent=2, sort_keys=True) + "\n"
    else:
        lines = ["preset_id,description"]
        lines += [f"{i},\"{d}\"" for i, d in rows]
        text = "\n".join(lines) + "\n"
    _emit(text, args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    warnings = _validate_warnings(load_config(args.config))
    for w in warnings:
        print(f"warning: {w}")
    print(f"{args.config}: ok" + (f" ({len(warnings)} warning"
                                  f"{'s' if len(warnings) != 1 else ''})"
                                  if warnings else ""))
    return EXIT_OK


# ----------------------------------------------------------------- parser --

class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def _variant(name: str) -> str:
    if name != "default":
        raise argparse.ArgumentTypeError(
            f"unknown preset variant {name!r}; only 'default' exists")
    return name


# flags as (option, argparse keywords); a flag's dest is the config field
# it overrides, or one of _RUN_ONLY
_CONFIG, _REQUIRED_CONFIG = ("--config", {}), ("--config", {"required": True})
_OUTPUT = (("--out", {"help": "write the table here instead of stdout"}),
           ("--format", {"choices": ("csv", "records"), "default": "csv"}))
_SEED = ("--seed", {"type": int,
                    "help": "overrides the config seed (default 0)"})
# a Monte Carlo command's output and sampling flags
_SAMPLED = _OUTPUT + (_SEED, ("--samples", {"type": int}),
                      ("--workers", {"type": int, "default": 1}))


# command -> (help, what main calls with the parsed arguments, flags in
# --help order)
_COMMANDS = {
    "ratio-curve": ("run one configured ratio experiment",
                    partial(cmd_run, _parse_ratio_curve),
                    (_REQUIRED_CONFIG,) + _SAMPLED),
    "theorem": ("run a named preset experiment",
                partial(cmd_run, _parse_theorem), (
        ("--id", {"dest": "theorem_id", "metavar": "ID",
                  "help": "preset id, e.g. T4.1 or C5.2"}),
        ("--preset", {"dest": "variant", "type": _variant,
                      "help": "preset variant (only 'default')"}),
        ("--config",
         {"help": "optional config with theorem_id/model overrides"}),
    ) + _SAMPLED),
    "diagnose-class": ("closed-form heavy-tail class checks",
                       partial(cmd_run, _parse_class), (
        ("--dist", {"help": "e.g. pareto(1.5,1) or example11"}), _CONFIG,
        ("--check", {"dest": "checks", "metavar": "CHECK", "help":
                     "comma list from L,D,S,Sstar,SstarStrong or 'all'"}),
        ("--grid", {"help": "lo:hi:n, x1,x2,..., or auto"}),
    ) + _OUTPUT),
    "diagnose-dependence": ("tail-dependence hypothesis checks",
                            partial(cmd_run, _parse_dependence), (
        ("--model", {"help": "token: " + ", ".join(sorted(_MODEL_TOKENS))}),
        _CONFIG, ("--check", {"dest": "checks", "metavar": "CHECK",
                              "help": "H1, H2, or both"}),
    ) + _OUTPUT),
    "convolve": ("n-fold tail against the single tail",
                 partial(cmd_run, _parse_convolve), (
        ("--dist", {"help": "e.g. example11 or pareto(1,1)"}), _CONFIG,
        ("--nfold", {"type": int, "help": "default 2"}),
        ("--points", {"help": "auto (default), lo:hi:n, or x1,x2,..."}),
    ) + _OUTPUT),
    "ruin": ("finite-horizon ruin ratio curve", partial(cmd_run, _parse_ruin),
             (("--preset", {"help": "C5.1 or C5.2"}), _CONFIG) + _SAMPLED),
    "surplus-path": ("one simulated surplus trajectory",
                     partial(cmd_run, _parse_surplus_path), (
        _REQUIRED_CONFIG, ("--surplus", {"type": float}),
        ("--replicate", {"type": int, "help": "default 0"}),
    ) + _OUTPUT + (_SEED,)),
    "list-presets": ("catalog of named presets", cmd_list_presets, _OUTPUT),
    "validate": ("schema and hypothesis checks for a config", cmd_validate,
                 (_REQUIRED_CONFIG,)),
}


@cache
def build_parser() -> argparse.ArgumentParser:
    """The one parser of this process, built on first use and shared, so
    no caller may change it; parse_args fills a fresh namespace on every
    call, so no value carries over from one main call to the next."""
    parser = _Parser(
        prog="heavytails",
        description="Tail ratio experiments for dependent heavy-tailed "
                    "sums, maxima, and ruin probabilities.",
        epilog="exit status: 0 unless a verdict is inconsistent (2); "
               "64 on usage or config errors, 1 on unexpected failure. "
               "Inconclusive verdicts exit 0; read them from the output. "
               "A flag overrides the config field it names.")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (text, fn, flags) in _COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        for option, keywords in flags:
            sub.add_argument(option, **keywords)
        sub.set_defaults(fn=fn)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except ConfigError as err:
        print(f"usage error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as err:       # --help
        return 0 if err.code in (0, None) else EXIT_USAGE
    try:
        return args.fn(args)
    except WorkerCrashed as err:
        print(f"error: {err}", file=sys.stderr)
        return EXIT_ERROR
    except HeavyTailsError as err:      # ConfigError included
        print(f"error: {err}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as err:        # noqa: BLE001 - last-resort boundary
        print(f"internal error: {type(err).__name__}: {err}",
              file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
