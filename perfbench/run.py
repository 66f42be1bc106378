#!/usr/bin/env python3
"""heavytails benchmark: time to a 10% tail estimate, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fgm-shared-draws --seed 1 \\
        --seconds 20 --trace 0

It imports the package from ./src and drives the CLI in process through
heavytails.cli.main, one closed-loop unit after another, until --seconds
have passed. Every unit gets its own seed drawn from --seed, passed to the
CLI as --seed. The outputs are checked, metrics are printed one per line
with their units, and the last line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of the workload as configured.
--trace 1 runs the same units at workers=1, alternating untraced and traced
units on the same seed, and reports per-layer self times and counters, the
tracing overhead, block micro-probes and the pool start-up probe. Spans go
to .perfbench/ at the end of the run.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import math
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
import workloads
from tracer import LAYERS, Tracer

PACKAGE = "heavytails"
SETUP_REPEATS = 5
TARGET_REL = 0.10       # relative standard error of the verdict target
SPAN_DIR = ".perfbench"


def run_cli(cli, argv, tracer=None):
    """One in-process CLI invocation; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        if tracer is None:
            rc = cli.main(argv)
        else:
            rc = tracer.call("cli", "main", cli.main, argv)
    return rc, out.getvalue(), err.getvalue()


def cpu_seconds():
    """User plus system seconds of this process and its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


def peak_rss_mb():
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024.0      # ru_maxrss is in KiB on Linux


def setup(workload, seed):
    """Import the package and run the workload's warm-up invocation."""
    t0 = time.perf_counter()
    cli = importlib.import_module(f"{PACKAGE}.cli")
    for argv in workload.warmup(seed):
        rc, _, _ = run_cli(cli, argv)
        if rc not in (0, 2):
            raise RuntimeError(f"warm-up {' '.join(argv)} exited {rc}")
    return cli, time.perf_counter() - t0


def median_setup_s(workload, seed):
    """Median set-up time over fresh interpreters, run one after another."""
    times = []
    for i in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, __file__, "--setup-probe",
             "--workload", workload.name, "--seed", str(seed + i)],
            capture_output=True, text=True, timeout=120, check=True)
        times.append(json.loads(proc.stdout.splitlines()[-1])["setup_s"])
    return statistics.median(times)


class Units:
    """Runs units in a closed loop and checks every output."""

    def __init__(self, cli, workload, seed):
        self.cli = cli
        self.workload = workload
        self.seeds = random.Random(seed)
        self.outcome = workloads.Outcome()
        self.count = 0
        self.invocations = 0
        self.first_text = {}
        self.first_unit = None   # (unit seed, texts) of the first unit
        self.refs = []           # host reference times, seconds
        self.last_ref = None
        self.ends = {}           # experiment id -> [sum se^2, sum p, units]
        self.inconsistent = []   # invocations with an inconsistent verdict

    def next_seed(self):
        return self.seeds.getrandbits(32)

    def run(self, unit_seed, workers, tracer=None, reference=None):
        """Run one unit; returns (wall, scaled wall, scaled cpu) seconds.

        Given a host reference, the reference kernel is also timed between
        invocations, and each invocation's wall and cpu seconds are scaled
        by REFERENCE_S over the mean of the two reference times around it.
        Without one the scaled sums are zero.
        """
        argvs = self.workload.unit(unit_seed, workers)
        results = []
        wall = scaled_wall = scaled_cpu = 0.0
        if reference is not None and self.last_ref is None:
            self.last_ref = reference()
        for argv in argvs:
            c0 = cpu_seconds()
            t0 = time.perf_counter()
            results.append(run_cli(self.cli, argv, tracer))
            dt = time.perf_counter() - t0
            dc = cpu_seconds() - c0
            wall += dt
            if reference is not None:
                ref = reference()
                scale = probes.REFERENCE_S / (0.5 * (self.last_ref + ref))
                scaled_wall += dt * scale
                scaled_cpu += dc * scale
                self.refs.append(ref)
                self.last_ref = ref
        self.count += 1
        texts = [text for _, text, _ in results]
        self.last_texts = texts
        if self.first_unit is None:
            self.first_unit = (unit_seed, texts)
        unit = workloads.Outcome()
        for argv, (rc, text, err) in zip(argvs, results):
            self.invocations += 1
            self.workload.check(argv, rc, text, unit)
            if rc not in (0, 2):
                unit.problems.append(f"{' '.join(argv)}: {err.strip()}")
            if not self.workload.monte_carlo and self.first_text.setdefault(
                    tuple(argv), text) != text:
                unit.problems.append(f"{' '.join(argv)}: output differs "
                                     f"between repeats")
        for eid, (p, se) in unit.grid_end.items():
            acc = self.ends.setdefault(eid, [0.0, 0.0, 0])
            acc[0] += se * se
            acc[1] += p
            acc[2] += 1
        o = self.outcome
        o.ops += unit.ops
        o.failed_ops += unit.failed_ops
        o.errors += unit.errors
        o.rows += unit.rows
        o.problems.extend(unit.problems)
        self.inconsistent.extend(unit.inconsistent)
        return wall, scaled_wall, scaled_cpu

    def confirm_inconsistent(self):
        """Rerun each inconsistent invocation on a fresh seed, more samples.

        The run fails if a rerun is inconsistent too, or does not exit 0;
        the first such rerun settles it. Reruns are untimed and untraced.
        """
        for argv in self.inconsistent:
            again = self.workload.confirmation(argv)
            rc, _, err = run_cli(self.cli, again)
            if rc != 0:
                self.outcome.problems.append(
                    f"{' '.join(argv)}: inconsistent verdict, and the "
                    f"confirmation {' '.join(again)} exited {rc}"
                    + (" (inconsistent again)" if rc == 2
                       else f": {err.strip()}"))
                return

    def inconsistent_note(self):
        if not self.workload.monte_carlo:
            return "no Monte Carlo verdicts to confirm"
        return (f"inconsistent verdicts {len(self.inconsistent)}, each rerun "
                f"on a fresh seed at {workloads.CONFIRM_FACTOR}x the samples"
                + "".join(f"; {' '.join(a)}" for a in self.inconsistent[:5]))

    def rerun_first(self, workers):
        """Run the first unit again at another worker count: same bytes."""
        unit_seed, texts = self.first_unit
        again = [run_cli(self.cli, argv)[1]
                 for argv in self.workload.unit(unit_seed, workers)]
        if again != texts:
            self.outcome.problems.append(
                f"unit seed {unit_seed}: output differs between a repeat at "
                f"workers {workers} and the first run")

    def worst_rel2(self):
        """Largest grid-end (stderr / p_hat)^2 over the curves of a unit.

        Both moments are pooled over all units of the run, so one unit's
        expected relative error is estimated from many units' draws.
        """
        worst = 0.0
        for se2, p, n in self.ends.values():
            worst = max(worst, (se2 / n) / (p / n) ** 2 if p > 0 else math.inf)
        return worst


def end_to_end(cli, workload, seed, seconds):
    units = Units(cli, workload, seed)
    walls, cpus, raw = [], [], []
    reference = probes.HostReference()
    deadline = time.perf_counter() + seconds
    while not walls or time.perf_counter() < deadline:
        wall, scaled_wall, scaled_cpu = units.run(
            units.next_seed(), workload.workers, reference=reference)
        walls.append(scaled_wall)
        cpus.append(scaled_cpu)
        raw.append(wall)
    wall_s = statistics.median(walls)
    peak_mb = peak_rss_mb()      # before any untimed confirmation reruns
    if workload.monte_carlo:
        units.confirm_inconsistent()
        units.rerun_first(1 if workload.workers > 1 else 2)
        rel2 = units.worst_rel2()
        if not math.isfinite(rel2):
            units.outcome.problems.append("no grid-end hits in any unit")
            rel2 = 0.0
        t_rel10 = wall_s * rel2 / TARGET_REL ** 2
    else:
        # exact and bracketed answers carry no sampling error: a verdict
        # takes one whole unit
        t_rel10 = wall_s
    # oracles have no replicates: count output rows, checks and grid points
    reps = (workload.samples if workload.monte_carlo
            else units.outcome.rows / units.count)
    metrics = {
        "wall_s": (wall_s, "s"),
        "cpu_s": (statistics.median(cpus), "s"),
        "reps_per_s": (reps / wall_s, "1/s"),
        "t_rel10_s": (t_rel10, "s"),
        "peak_rss_mb": (peak_mb, "MB"),
    }
    q1, q2, q3 = statistics.quantiles(raw, n=4) if len(raw) > 1 else raw * 3
    notes = [f"unit wall s as measured: min {min(raw):.5f} q1 {q1:.5f} "
             f"median {q2:.5f} q3 {q3:.5f} max {max(raw):.5f}",
             f"host reference median {statistics.median(units.refs):.5f} s "
             f"against {probes.REFERENCE_S} s nominal",
             f"units {units.count} ({units.invocations} CLI invocations), "
             f"failed or unavailable operations {units.outcome.failed_ops} "
             f"of {units.outcome.ops}",
             units.inconsistent_note()]
    return metrics, units, notes


def per_layer(cli, ht, workload, seed, seconds):
    tracer = Tracer(getattr(ht.montecarlo, "TAU_CAP", 1 << 20))
    units = Units(cli, workload, seed)
    plain, traced = [], []
    first = None     # counters of the first traced unit, exact for a seed
    deadline = time.perf_counter() + seconds
    while not traced or time.perf_counter() < deadline:
        unit_seed = units.next_seed()
        outputs = []
        # pairs on one seed, in alternating order, so drift cancels
        for with_trace in ((False, True) if len(traced) % 2 == 0
                           else (True, False)):
            if not with_trace:
                plain.append(units.run(unit_seed, 1)[0])
            else:
                tracer.install(PACKAGE)
                tracer.begin_unit(len(traced))
                try:
                    traced.append(units.run(unit_seed, 1, tracer)[0])
                finally:
                    tracer.uninstall()
                if first is None:
                    first = tracer.snapshot()
                    first_bytes = sum(len(t.encode())
                                      for t in units.last_texts)
            outputs.append(units.last_texts)
        if outputs[0] != outputs[1]:
            units.outcome.problems.append(
                f"unit seed {unit_seed}: tracing changed the output")
    if workload.monte_carlo:
        units.confirm_inconsistent()
        units.rerun_first(2)
    Path(SPAN_DIR).mkdir(exist_ok=True)
    tracer.write_spans(Path(SPAN_DIR) / f"{workload.name}-seed{seed}.jsonl")

    n = len(traced)
    c, span_calls, outer_calls, failed = first

    def ratio(a, b):
        return a / b if b else 0.0

    m = {f"{layer}.self_s": (tracer.self_ns[layer] / 1e9 / n, "s")
         for layer in LAYERS}
    m.update({
        "copulas.words_per_row": (ratio(c["copulas.words"],
                                        c["copulas.rows"]), "words"),
        "copulas.accept_ratio": (ratio(c["copulas.words_needed"],
                                       c["copulas.words"]), "ratio"),
        "copulas.rows_per_rep": (ratio(c["copulas.rows"],
                                       c["copulas.rows_first_pass"]), "ratio"),
        "montecarlo.calls": (span_calls["montecarlo.estimate_tail"],
                             "count"),
        "montecarlo.coords_used_share": (ratio(
            c["montecarlo.coords_used_fixed"] + c["counting.len_sum"],
            c["copulas.coords"]), "ratio"),
        "montecarlo.pool_start_s": (probes.pool_start_s(ht, seed), "s"),
        "counting.draws": (c["counting.draws"], "count"),
        "counting.mean_len": (ratio(c["counting.len_sum"],
                                    c["counting.draws"]), "terms"),
        "counting.capped_share": (ratio(c["counting.capped"],
                                        c["counting.draws"]), "ratio"),
        "distributions.values": (c["distributions.values"], "count"),
        "rng.streams": (c["rng.streams"], "count"),
        "experiments.denominator_s": (sum(
            v for k, v in tracer.span_ns.items()
            if k.endswith(".values") and k.split(".")[0] in ("experiments",
                                                             "risk")
        ) / 1e9 / n, "s"),
        "cli.out_bytes": (first_bytes, "bytes"),
        "convolution.calls": (outer_calls["convolution"], "count"),
        "diagnostics.calls": (outer_calls["diagnostics"], "count"),
        "diagnostics.failed": (failed["diagnostics"], "count"),
        "failed_op_share": (ratio(units.outcome.failed_ops,
                                  units.outcome.ops), "ratio"),
    })
    for name, value in probes.block_probes(ht, seed).items():
        m[name] = (value, "ms")
    unit_s = statistics.fmean(traced)
    overhead = statistics.median(t - p for t, p in zip(traced, plain))
    self_sum = sum(tracer.self_ns.values()) / 1e9 / n
    spans = len(tracer.spans) / n
    m.update({
        "trace.unit_s": (unit_s, "s"),
        "trace.overhead_s": (overhead, "s"),
        "trace.spans": (spans, "count"),
        "trace.span_cost_s": (spans * tracer.span_cost_ns() / 1e9, "s"),
        "trace.self_sum_s": (self_sum, "s"),
    })
    failures = tracer.failure_counts()
    notes = [f"traced units {n} and untraced units {len(plain)}, both at "
             f"workers 1, on the same seeds",
             units.inconsistent_note(),
             f"traced unit minus self-time sum {unit_s - self_sum:.6f} s; "
             f"tracing overhead {overhead:.6f} s measured, "
             f"{m['trace.span_cost_s'][0]:.6f} s from the span count",
             "failures per unit: " + (", ".join(
                 f"{layer}.{name} {err} x{k / n:g}"
                 for (layer, name, err), k in sorted(failures.items()))
                 or "none")]
    return m, units, notes


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    src = Path.cwd() / "src"
    if not (src / PACKAGE / "__init__.py").is_file():
        print(f"perfbench: {src / PACKAGE} not found; run from the root of "
              f"a heavytails checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = workloads.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"perfbench: unknown workload {args.workload!r}; have "
              f"{sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    if args.setup_probe:
        _, took = setup(workload, args.seed)
        reference = probes.HostReference()
        ref = statistics.median(reference() for _ in range(5))
        print(json.dumps({"setup_s": took * probes.REFERENCE_S / ref}))
        return 0

    steal0 = probes.steal_ticks()
    cli, setup_here = setup(workload, args.seed)
    ht = sys.modules[PACKAGE]
    if args.trace:
        metrics, units, notes = per_layer(cli, ht, workload, args.seed,
                                          args.seconds)
    else:
        metrics, units, notes = end_to_end(cli, workload, args.seed,
                                           args.seconds)
        metrics["setup_s"] = (median_setup_s(workload, args.seed), "s")
    problems = units.outcome.problems
    ctx = probes.context(steal0, probes.steal_ticks())

    head = " ".join(workload.unit(args.seed)[0][:3])
    print(f"perfbench workload={workload.name} seed={args.seed} "
          f"trace={args.trace} unit='{head} ...' workers={workload.workers}")
    print(f"  setup in this process {setup_here:.4f} s")
    for line in notes:
        print(f"  {line}")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"  context {json.dumps(ctx, sort_keys=True)}")
    for p in problems[:20]:
        print(f"  problem: {p}")
    print(json.dumps({
        "correct": not problems,
        "attempted": units.invocations,
        "failed": units.outcome.errors,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
