"""Run every named preset experiment and print a verdict table.

By default each preset runs at its own sample budget, which is sized for
tight confidence bands (the heavy ones use 10^7 replicates and take a few
seconds each on eight workers). Pass --samples to override the budget
everywhere, e.g. for a quick smoke pass:

    python3 scripts/run_all_presets.py --samples 200000 --workers 4

Exit status follows the CLI convention: 0 when nothing is refuted, 2 when
any preset comes back inconsistent.
"""

import argparse
import sys
import time

from heavytails.risk import presets, run_preset


def run_one(preset_id, samples, seed, workers):
    start = time.perf_counter()
    curves = run_preset(preset_id, samples=samples, seed=seed,
                        workers=workers)
    elapsed = time.perf_counter() - start
    return curves, elapsed


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="run the whole preset catalog and summarize verdicts")
    parser.add_argument("--samples", type=int, default=None,
                        help="override every preset's sample budget")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--only", help="comma-separated preset ids")
    args = parser.parse_args(argv)

    ids = list(presets())
    if args.only:
        wanted = [t.strip() for t in args.only.split(",") if t.strip()]
        unknown = [t for t in wanted if t not in ids]
        if unknown:
            parser.error(f"unknown preset ids: {unknown}; have {ids}")
        ids = wanted

    width = max(len(c) for c in ids) + 12
    failures = 0
    for preset_id in ids:
        curves, elapsed = run_one(preset_id, args.samples, args.seed,
                                  args.workers)
        for curve in curves:
            end = curve.ratios[-1]
            print(f"{curve.experiment_id:<{width}} {curve.verdict:<13}"
                  f" end ratio {end:9.4f}   running min {curve.running_min:9.4f}"
                  f"   {elapsed:7.3f}s")
            for note in curve.notes:
                print(f"{'':<{width}}   note: {note}")
            if curve.verdict == "inconsistent":
                failures += 1

    if failures:
        print(f"\n{failures} curve(s) inconsistent")
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
