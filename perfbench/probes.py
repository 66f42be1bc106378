"""Micro-probes, the pool start-up probe, the host reference and the context.

Each block probe times one public call on one replicate block, so the
numbers line up with the per-block layer table in ROADMAP.md: copula
uniforms, Pareto inverse transform and counting-law draws.
"""

from __future__ import annotations

import os
import platform
import statistics
import time


def _median_ms(fn, make_args, reps):
    times = []
    for i in range(reps):
        args = make_args(i)
        t0 = time.perf_counter()
        fn(*args)
        times.append(time.perf_counter() - t0)
    return 1e3 * statistics.median(times)


def block_probes(ht, seed: int) -> dict:
    """Milliseconds per BLOCK_SIZE-replicate block, median over repeats."""
    rng_mod, cop, dist, cnt = ht.rng, ht.copulas, ht.distributions, ht.counting
    n = rng_mod.BLOCK_SIZE

    def stream(i):
        return rng_mod.block_stream(seed, i)

    fgm = cop.FGM.bivariate(1.0)
    ind = cop.Independence(2)
    pareto = dist.Pareto(0.8, 1.0)
    zeta = cnt.Zeta(1.5)
    poisson = cnt.Poisson(2.0)
    zeta.sample(stream(0), 16)        # fills the cached head tables
    return {
        "probe.fgm_block_ms": _median_ms(
            fgm.sample, lambda i: (stream(i), n), 15),
        "probe.independence_block_ms": _median_ms(
            ind.sample, lambda i: (stream(i), n), 31),
        "probe.pareto_ppf_block_ms": _median_ms(
            pareto.ppf_from_uniform, lambda i: (stream(i).random(n),), 31),
        "probe.zeta_block_ms": _median_ms(
            zeta.sample, lambda i: (stream(i), n), 5),
        "probe.poisson_block_ms": _median_ms(
            poisson.sample, lambda i: (stream(i), n), 15),
    }


def pool_start_s(ht, seed: int, reps: int = 5) -> float:
    """Median extra seconds a two-block estimate takes at workers 2 over 1."""
    cop, dist, mc = ht.copulas, ht.distributions, ht.montecarlo
    model = cop.DependentModel(cop.Independence(2),
                               (dist.Pareto(1.0, 1.0), dist.Pareto(1.0, 1.0)))
    samples = 2 * ht.rng.BLOCK_SIZE
    diffs = []
    for _ in range(reps):
        walls = []
        for workers in (1, 2):
            t0 = time.perf_counter()
            mc.estimate_tail(model, "SumN", [10.0, 100.0], samples, seed,
                             workers=workers)
            walls.append(time.perf_counter() - t0)
        diffs.append(walls[1] - walls[0])
    return statistics.median(diffs)


REFERENCE_S = 0.010     # nominal reference time that timings are scaled to


class HostReference:
    """A fixed mix of interpreter and numpy work, timed between units.

    Its time tracks how fast the host runs this process at the moment, so
    a unit's time over it cancels most of the slowdown that neighbours on
    a shared machine cause.
    """

    def __init__(self):
        import numpy as np
        self._data = np.random.default_rng(0).random(1 << 17)

    def __call__(self) -> float:
        import numpy as np
        t0 = time.perf_counter()
        np.sort(self._data)
        np.exp(self._data).sum()
        acc = 0
        for i in range(100_000):
            acc += i * i
        return time.perf_counter() - t0


def steal_ticks():
    """Host steal ticks summed over all CPUs, or None off Linux."""
    try:
        with open("/proc/stat", encoding="ascii") as fh:
            fields = fh.readline().split()
    except OSError:
        return None
    return int(fields[8]) if fields[0] == "cpu" and len(fields) > 8 else None


def context(steal_start, steal_end) -> dict:
    import numpy
    import scipy
    try:
        nproc = len(os.sched_getaffinity(0))
    except AttributeError:
        nproc = os.cpu_count()
    steal = None
    if steal_start is not None and steal_end is not None:
        steal = (steal_end - steal_start) / os.sysconf("SC_CLK_TCK")
    return {"nproc": nproc, "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "steal_s": steal}
