"""Workload definitions and the checks on each CLI output.

A unit is the work timed as one sample. For the three Monte Carlo workloads
it is one CLI invocation of a preset at a reduced budget; for the oracle
workload it is one sweep of eight CLI invocations. Each unit takes its own
seed, drawn from the run seed, and hands it to the CLI as --seed.
"""

from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass, field

CURVE_HEADER = ("experiment_id,x,numerator,stderr,denominator,ratio,ci_low,"
                "ci_high,running_min")
REPORT_HEADER = "check,verdict,end_statistic,target,tolerance"
CONVOLVE_HEADER = "x,lower,upper,single_tail,ratio_low,ratio_high,running_min"
REPORT_VERDICTS = ("consistent", "inconsistent", "inconclusive",
                   "unavailable")
CONFIG_PREFIX = "# config="
CONFIRM_FACTOR = 4               # samples of a confirmation over the unit's
CONFIRM_SEED_OFFSET = 1 << 32    # unit seeds are 32-bit; this one is fresh


@dataclass
class Outcome:
    """What the checks read from the outputs of one unit."""

    ops: int = 0             # operations: invocations, or one per check row
    failed_ops: int = 0      # operations that errored or came back unavailable
    errors: int = 0          # invocations that exited with an error code
    rows: int = 0            # output rows: grid points or check rows
    problems: list = field(default_factory=list)
    # experiment id -> (numerator, stderr) at the grid end
    grid_end: dict = field(default_factory=dict)
    # invocations whose verdict came back inconsistent, still to confirm
    inconsistent: list = field(default_factory=list)


def _config(lines, argv, outcome):
    if not lines or not lines[0].startswith(CONFIG_PREFIX):
        outcome.problems.append(f"{' '.join(argv)}: no config echo line")
        return None
    return json.loads(lines[0][len(CONFIG_PREFIX):])


def _floats(fields, argv, outcome):
    try:
        values = [float(v) for v in fields]
    except ValueError:
        outcome.problems.append(f"{' '.join(argv)}: unparsable row {fields}")
        return None
    if not all(math.isfinite(v) for v in values):
        outcome.problems.append(f"{' '.join(argv)}: non-finite row {fields}")
        return None
    return values


@dataclass(frozen=True)
class MonteCarlo:
    """One preset through the CLI at a fixed reduced budget."""

    name: str
    command: tuple
    samples: int
    workers: int
    why: str

    monte_carlo = True

    def argv(self, seed, workers=None, samples=None):
        return [*self.command,
                "--samples", str(self.samples if samples is None else samples),
                "--workers", str(self.workers if workers is None else workers),
                "--seed", str(seed)]

    def unit(self, unit_seed, workers=None):
        return [self.argv(unit_seed, workers)]

    def warmup(self, seed):
        return [self.argv(seed, workers=1, samples=256)]

    def confirmation(self, argv):
        """The invocation on a fresh seed at CONFIRM_FACTOR times the samples.

        The grader's confidence intervals are per grid point, so a chance
        excursion of the hit counts reads inconsistent now and then at a
        reduced budget. A biased sampler is still inconsistent on a fresh
        seed with more samples; a chance excursion is not.
        """
        seed = int(argv[argv.index("--seed") + 1])
        samples = int(argv[argv.index("--samples") + 1])
        workers = int(argv[argv.index("--workers") + 1])
        return self.argv(seed + CONFIRM_SEED_OFFSET, workers,
                         samples * CONFIRM_FACTOR)

    def check(self, argv, rc, text, outcome):
        """No error, a well-formed ratio curve; inconsistent ones noted."""
        where = " ".join(argv)
        outcome.ops += 1
        if rc == 2:
            outcome.inconsistent.append(argv)
        elif rc != 0:
            outcome.failed_ops += 1
            outcome.errors += 1
            outcome.problems.append(f"{where}: exit {rc}")
            return
        lines = text.splitlines()
        echo = _config(lines, argv, outcome)
        if echo is None:
            return
        want_seed = int(argv[argv.index("--seed") + 1])
        want_samples = int(argv[argv.index("--samples") + 1])
        if echo.get("seed") != want_seed or echo.get("samples") != want_samples:
            outcome.problems.append(f"{where}: config echo {echo} does not "
                                    f"carry the requested seed and samples")
        if len(lines) < 3 or lines[1] != CURVE_HEADER:
            outcome.problems.append(f"{where}: missing curve header or rows")
            return
        last_x = {}
        for line in lines[2:]:
            fields = line.split(",")
            values = _floats(fields[1:], argv, outcome)
            if values is None or len(values) != 8:
                continue
            x, num, se, den, ratio, lo, hi, _ = values
            eid = fields[0]
            ok = (0.0 <= num <= 1.0 and se >= 0.0 and den > 0.0
                  and 0.0 <= lo <= hi and x > last_x.get(eid, -math.inf)
                  and math.isclose(ratio, num / den, rel_tol=1e-9))
            if not ok:
                outcome.problems.append(f"{where}: implausible row {line}")
            last_x[eid] = x
            outcome.rows += 1
            outcome.grid_end[eid] = (num, se)


@dataclass(frozen=True)
class OracleSweep:
    """Closed-form diagnostics and convolution brackets through the CLI."""

    name: str
    invocations: tuple
    why: str

    monte_carlo = False
    workers = 1

    def unit(self, unit_seed, workers=None):
        # the seed only shuffles the order; the inputs themselves are fixed
        order = list(self.invocations)
        random.Random(unit_seed).shuffle(order)
        return [list(a) for a in order]

    def warmup(self, seed):
        return [["convolve", "--dist", "example11", "--nfold", "2"]]

    def check(self, argv, rc, text, outcome):
        """Reports carry known verdicts; brackets keep lower <= upper."""
        where = " ".join(argv)
        lines = text.splitlines()
        convolve = argv[0] == "convolve"
        if rc not in ((0,) if convolve else (0, 2)) or _config(
                lines, argv, outcome) is None:
            outcome.ops += 1
            outcome.failed_ops += 1
            outcome.errors += 1
            outcome.problems.append(f"{where}: exit {rc}")
            return
        header = CONVOLVE_HEADER if convolve else REPORT_HEADER
        if len(lines) < 3 or lines[1] != header:
            outcome.problems.append(f"{where}: missing header or rows")
            return
        outcome.ops += 1 if convolve else 0
        for line in lines[2:]:
            fields = line.split(",")
            outcome.rows += 1
            if not convolve:
                outcome.ops += 1
                if fields[1] not in REPORT_VERDICTS:
                    outcome.problems.append(f"{where}: bad verdict {line}")
                outcome.failed_ops += fields[1] == "unavailable"
                continue
            values = _floats(fields, argv, outcome)
            if values is None:
                continue
            _, lo, hi, tail, r_lo, r_hi, _ = values
            if not (0.0 <= lo <= hi <= 1.0 and 0.0 < tail and r_lo <= r_hi):
                outcome.problems.append(f"{where}: bracket out of order "
                                        f"{line}")


WORKLOADS = {w.name: w for w in (
    MonteCarlo(
        "fgm-shared-draws", ("theorem", "--id", "C3.1"), 262_144, 2,
        "C3.1 at workers 2: FGM rejection sampling dominates, two claims "
        "redraw the same copula rows, no counting law"),
    MonteCarlo(
        "zeta-long-stopped", ("theorem", "--id", "T4.2"), 32_768, 2,
        "T4.2 at workers 2: Zeta-stopped sequences up to 2^20 terms load "
        "ragged reduction, long copula draws and memory; no FGM"),
    MonteCarlo(
        "poisson-ruin", ("ruin", "--preset", "C5.2"), 262_144, 1,
        "C5.2 at workers 1: short Poisson sequences, one claim, no pool, "
        "no FGM or Zeta: the single-process baseline"),
    OracleSweep(
        "oracles",
        (("diagnose-class", "--dist", "pareto(1.5,1)", "--check", "all"),
         ("diagnose-class", "--dist", "example11", "--check", "all"),
         ("diagnose-class", "--dist", "weibull(0.5,1)", "--check", "all"),
         ("diagnose-class", "--dist", "lognormal(0,1)", "--check", "all"),
         ("convolve", "--dist", "example11", "--nfold", "2"),
         ("convolve", "--dist", "pareto(1,1)", "--nfold", "2"),
         ("convolve", "--dist", "pareto(1,1)", "--nfold", "4"),
         ("diagnose-dependence", "--model", "fgm-pareto", "--check",
          "both")),
        "class diagnostics and convolution brackets with no Monte Carlo; "
        "engine changes must not move it"),
)}
