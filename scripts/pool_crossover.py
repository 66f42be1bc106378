"""Time one preset at one worker and at W forked ones, over sample counts.

For each sample count 2^lo .. 2^hi (2^16 .. 2^21 by default) this runs
`theorem --id ID --samples N` in this process at workers 1 and at
--workers W, and prints the median wall time of --reps runs of each, the
median minor page faults of a run (this process and its forked workers),
the ratio of the wall times, and the share count the engine's rule
(montecarlo._share_count) picks at that size. The W runs fork min(W,
blocks) shares whatever the rule says, so the ratio shows where a fork
starts to repay itself on this host: montecarlo._SHARE_VALUES is set from
where it crosses 1. Every workers-1 run comes before the first fork, since
a run that follows a forked one in the same process is slower (C3.1 at
2^18 samples on 2 cores: 28.6 ms interleaved with forked runs, 20.2 ms
before any): while a forked child lives, the caller's first write to each
page it held takes a fault, which the faults columns show.

    python3 scripts/pool_crossover.py --id C3.1 --workers 2
"""

import argparse
import contextlib
import io
import resource
import statistics
import sys
import time

from heavytails import cli
from heavytails import montecarlo as mc
from heavytails.risk import presets
from heavytails.rng import BLOCK_SIZE


def minor_faults() -> int:
    """Minor page faults so far of this process and its reaped children."""
    return sum(resource.getrusage(who).ru_minflt
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN))


def wall_s(preset_id, samples, seed, workers) -> tuple:
    """(seconds, minor page faults) of one in-process CLI run, its output
    discarded."""
    argv = ["theorem", "--id", preset_id, "--samples", str(samples),
            "--seed", str(seed), "--workers", str(workers)]
    with contextlib.redirect_stdout(io.StringIO()):
        faults = minor_faults()
        t0 = time.perf_counter()
        code = cli.main(argv)
        elapsed = time.perf_counter() - t0
        faults = minor_faults() - faults
    if code not in (cli.EXIT_OK, cli.EXIT_INCONSISTENT):
        raise SystemExit(f"{' '.join(argv)} exited {code}")
    return elapsed, faults


@contextlib.contextmanager
def forced_fork():
    """Every share forks: no share is too small to repay its process."""
    saved = mc._SHARE_VALUES
    mc._SHARE_VALUES = 1
    try:
        yield
    finally:
        mc._SHARE_VALUES = saved


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="median wall time at workers 1 and W per sample count")
    parser.add_argument("--id", required=True, help="a preset id")
    parser.add_argument("--workers", type=int, default=2)
    parser.add_argument("--lo", type=int, default=16,
                        help="smallest sample count, as a power of 2")
    parser.add_argument("--hi", type=int, default=21,
                        help="largest sample count, as a power of 2")
    parser.add_argument("--reps", type=int, default=7)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    catalog = presets()
    if args.id not in catalog:
        parser.error(f"unknown preset id {args.id!r}; have {list(catalog)}")
    if args.workers < 2 or args.reps < 1 or not 0 <= args.lo <= args.hi:
        parser.error("need --workers >= 2, --reps >= 1 and 0 <= lo <= hi")
    preset = catalog[args.id]
    stopped = preset.claims[0].quantity.stopped

    wall_s(args.id, 256, args.seed, 1)      # warm-up: imports and tables
    print(f"preset {args.id}, workers 1 against {args.workers} forked, "
          f"median of {args.reps}, share values {mc._SHARE_VALUES}")
    sizes = [1 << power for power in range(args.lo, args.hi + 1)]
    medians = {}
    for workers in (1, args.workers):
        with forced_fork():
            for samples in sizes:
                runs = [wall_s(args.id, samples, args.seed + rep, workers)
                        for rep in range(args.reps)]
                medians[workers, samples] = [statistics.median(col)
                                             for col in zip(*runs)]
    print("samples,blocks,rule_shares,wall_1_ms,faults_1,wall_w_ms,faults_w,"
          "ratio")
    for samples in sizes:
        blocks = -(-samples // BLOCK_SIZE)
        shares = mc._share_count(preset.model, stopped, samples,
                                 args.workers, blocks)
        one, one_faults = medians[1, samples]
        many, many_faults = medians[args.workers, samples]
        print(f"{samples},{blocks},{shares},{1e3 * one:.2f},{one_faults:g},"
              f"{1e3 * many:.2f},{many_faults:g},{many / one:.2f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
