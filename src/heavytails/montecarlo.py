"""Seeded tail-probability estimation by block simulation.

Samples are processed in fixed blocks (rng.BLOCK_SIZE replicates each). Block
b draws its copula uniforms from the stream keyed (seed, b) and its counting
draws, when a stopped quantity needs them, from a separate lane keyed
(seed, _TAU_LANE + b). Per-block integer hit counts are summed at the end, so
the estimate is bitwise identical for any worker count and any block-to-worker
assignment.
"""

from __future__ import annotations

import math
import multiprocessing as mp
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass

import numpy as np

from .copulas import DependentModel
from .errors import InvalidInput, ModelConfigError, WorkerCrashed
from .rng import BLOCK_SIZE, block_stream, check_samples, check_seed

TAU_CAP = 1 << 20      # per-replicate cap on the simulated sequence length
_TAU_LANE = 1 << 49    # block-stream lane reserved for counting-law draws
# Coordinate budget per simulation slice. A slice holds at most
# max(_CHUNK_VALUES, tau_cap rounded up to dim) coordinates, since one
# replicate may exceed the budget on its own. The inverse transform
# overwrites the uniforms, so live float64 data per slice stays near one
# array of that many values; the reductions then work on the values in
# place, and a running sum, when runmax asks for one, overwrites them. At the
# defaults that is ~32 MiB.
_CHUNK_VALUES = 1 << 22

_KINDS = ("sum", "max", "runmax")
Z95 = 1.96             # two-sided 95% standard normal quantile


@dataclass(frozen=True)
class Quantity:
    """What gets thresholded per replicate.

    kind picks the reduction (terminal sum, max of the terms, or running
    maximum of the partial sums); stopped quantities take the sequence length
    from the model's counting law instead of the copula dimension.
    """

    kind: str
    stopped: bool = False

    def __post_init__(self):
        if self.kind not in _KINDS:
            raise InvalidInput(f"kind must be one of {_KINDS}, got {self.kind!r}")

    @property
    def token(self) -> str:
        stem = {"sum": "Sum", "max": "Max", "runmax": "RunMax"}[self.kind]
        return stem + ("Tau" if self.stopped else "N")


SumN = Quantity("sum", False)
MaxN = Quantity("max", False)
RunMaxN = Quantity("runmax", False)
SumTau = Quantity("sum", True)
MaxTau = Quantity("max", True)
RunMaxTau = Quantity("runmax", True)

QUANTITIES = {q.token: q for q in (SumN, MaxN, RunMaxN, SumTau, MaxTau,
                                   RunMaxTau)}


def parse_quantity(token) -> Quantity:
    if isinstance(token, Quantity):
        return token
    try:
        return QUANTITIES[str(token)]
    except KeyError:
        raise InvalidInput(
            f"unknown quantity {token!r}; expected one of {sorted(QUANTITIES)}"
        ) from None


@dataclass(frozen=True)
class TailEstimate:
    """One threshold's estimate: p_hat = hits / samples with binomial stderr."""

    x: float
    p_hat: float
    stderr: float
    hits: int
    samples: int
    seed: int
    notes: tuple = ()

    def ci(self) -> tuple:
        return tuple(map(float, wald_interval(self.p_hat, self.stderr)))


def wald_interval(p_hat, stderr) -> tuple:
    """The 95% Wald interval p_hat -/+ Z95 stderr clipped to [0, 1],
    elementwise."""
    return (np.maximum(p_hat - Z95 * stderr, 0.0),
            np.minimum(p_hat + Z95 * stderr, 1.0))


def _reduce_rows(rect: np.ndarray, kinds: tuple) -> np.ndarray:
    """Per-kind row statistics of rect, one column at a time.

    The running sum adds the columns left to right, exactly as a cumsum
    along each row would, so a Deterministic(n) stopped sum (a reshaped
    slice) and the fixed-n path agree bit for bit.
    """
    top, run, peak = (rect[:, 0].copy() for _ in range(3))
    want_run = {"sum", "runmax"} & set(kinds)
    for col in rect.T[1:]:
        if "max" in kinds:
            np.maximum(top, col, out=top)
        if want_run:
            run += col
        if "runmax" in kinds:
            np.maximum(peak, run, out=peak)
    stat = {"max": top, "sum": run, "runmax": peak}
    return np.stack([stat[k] for k in kinds])


def _chunk_stats(model: DependentModel, kinds: tuple,
                 rng: np.random.Generator, eff: np.ndarray,
                 blocks: np.ndarray) -> np.ndarray:
    """Statistics for one slice of replicates with per-replicate lengths eff.

    Lengths are served in whole copula blocks; coordinates past a replicate's
    length are generated (to keep the stream layout a function of the counting
    draws alone) but never enter its statistic: they are overwritten in place
    with -inf before the max and with 0.0 before the sums, where adding +0.0
    is exact. Each replicate's sum is reduced over its own segment; only
    runmax differences one chunk-wide running sum.
    """
    dim = model.dim
    count = len(eff)
    n_blocks = int(blocks.sum())
    out = np.empty((len(kinds), count))
    out[:] = [[-math.inf if k == "max" else 0.0] for k in kinds]
    if n_blocks == 0:
        return out
    # the inverse transform overwrites the uniforms: one array per slice
    flat = model.marginals[0].ppf_from_uniform(
        model.copula.sample(rng, n_blocks).ravel())
    if eff.min() == eff.max():
        # uniform lengths: plain reshape, same arithmetic order as the
        # fixed-length path, so a deterministic counting law reduces to it
        # bit for bit
        return _reduce_rows(flat.reshape(count, -1)[:, : int(eff[0])], kinds)
    sizes = dim * blocks
    ends = np.cumsum(sizes)
    stops = ends - sizes + eff          # one past each replicate's last term
    pos = stops[:, None] + np.arange(dim)
    pad = pos[pos < ends[:, None]]
    nonempty = eff > 0
    first = (ends - sizes)[nonempty]
    if "max" in kinds:
        flat[pad] = -math.inf
        out[kinds.index("max"), nonempty] = np.maximum.reduceat(flat, first)
    if {"sum", "runmax"} & set(kinds):
        flat[pad] = 0.0
    if "sum" in kinds:
        out[kinds.index("sum"), nonempty] = np.add.reduceat(flat, first)
    if "runmax" in kinds:
        cs = np.cumsum(flat, out=flat)
        base = np.where(first > 0, cs[np.maximum(first - 1, 0)], 0.0)
        out[kinds.index("runmax"), nonempty] = (
            np.maximum.reduceat(cs, first) - base)
    return out


def _stats_stopped(model: DependentModel, kinds: tuple,
                   rng: np.random.Generator, tau_rng: np.random.Generator,
                   count: int, cap: int) -> tuple:
    dim = model.dim
    taus = np.asarray(model.tau.sample(tau_rng, count), dtype=np.int64)
    if np.any(taus < 0):
        raise ModelConfigError("counting law produced a negative length")
    eff = np.minimum(taus, cap)
    capped = int(np.count_nonzero(taus > cap))
    blocks = (eff + dim - 1) // dim
    stats = np.empty((len(kinds), count))
    cum = np.cumsum(blocks * dim)
    i = 0
    while i < count:
        prev = int(cum[i - 1]) if i else 0
        j = int(np.searchsorted(cum, prev + _CHUNK_VALUES, side="right"))
        j = max(j, i + 1)
        stats[:, i:j] = _chunk_stats(model, kinds, rng, eff[i:j], blocks[i:j])
        i = j
    return stats, capped


def _simulate_block(model, kinds, stopped, weights, xs, seed, block_index,
                    count, cap):
    rng = block_stream(seed, block_index)
    if stopped:
        tau_rng = block_stream(seed, _TAU_LANE + block_index)
        stats, capped = _stats_stopped(model, kinds, rng, tau_rng, count,
                                       cap)
    else:
        vals = model.sample_vector(rng, count)
        if weights is not None:
            vals = vals * weights
        stats, capped = _reduce_rows(vals, kinds), 0
    hits = np.array([[int(np.count_nonzero(s > x)) for x in xs]
                     for s in stats], dtype=np.int64)
    return hits, capped


def _run_blocks(payload):
    (model, kinds, stopped, weights, xs, seed, indices, counts, cap) = payload
    hits = np.zeros((len(kinds), len(xs)), dtype=np.int64)
    capped = 0
    for b, c in zip(indices, counts):
        h, k = _simulate_block(model, kinds, stopped, weights, xs, seed, b, c,
                               cap)
        hits += h
        capped += k
    return hits, capped


def _block_span(indices) -> str:
    """'blocks 1-7 step 2' for an arithmetic run of block indices."""
    first, last = int(indices[0]), int(indices[-1])
    if first == last:
        return f"block {first}"
    step = int(indices[1] - indices[0])
    return f"blocks {first}-{last}" + (f" step {step}" if step > 1 else "")


def _pool_results(payloads, n_blocks: int) -> list:
    """_run_blocks on each payload in its own forked process, in payload
    order. A process that dies breaks the pool, and the pool does not say
    which one died; WorkerCrashed names the blocks of every payload left
    without a result, the dead worker's among them."""
    with ProcessPoolExecutor(max_workers=len(payloads),
                             mp_context=mp.get_context("fork")) as pool:
        futures = [pool.submit(_run_blocks, p) for p in payloads]
    lost = [_block_span(p[6]) for p, f in zip(payloads, futures)
            if isinstance(f.exception(), BrokenProcessPool)]
    if lost:
        raise WorkerCrashed(
            f"a worker process died; {' and '.join(lost)} of {n_blocks} "
            f"(seed {payloads[0][5]}) returned no result")
    return [f.result() for f in futures]


def check_pass(model: DependentModel, quantities, weights=None) -> tuple:
    """The engine's rule for quantities sharing one simulation pass on model.

    They must be all stopped or all fixed-length. Stopped ones need a
    counting law and identical marginals, and take no weights; weights give
    one finite value per coordinate. Returns the parsed quantities and the
    weights as an array (or None).
    """
    quantities = [parse_quantity(q) for q in quantities]
    if not quantities:
        raise InvalidInput("need at least one quantity")
    stopped = quantities[0].stopped
    if any(q.stopped != stopped for q in quantities):
        raise InvalidInput("quantities sharing a pass must be all stopped or "
                           "all fixed-length")
    if stopped:
        if model.tau is None:
            raise ModelConfigError(
                "stopped quantities need a counting law on the model")
        if not model.identical_marginals():
            raise ModelConfigError(
                "stopped quantities need identical marginals: the sequence "
                "extends past the copula dimension with fresh blocks")
        if weights is not None:
            raise InvalidInput("weights apply to fixed-length quantities only")
    if weights is not None:
        weights = np.asarray(weights, dtype=float)
        if weights.shape != (model.dim,) or not np.all(np.isfinite(weights)):
            raise InvalidInput(
                f"weights must be {model.dim} finite values, one per coordinate")
    return quantities, weights


def estimate_tails(model: DependentModel, quantities, xs, samples: int,
                   seed: int, workers: int = 1, weights=None,
                   tau_cap: int = TAU_CAP) -> list:
    """Estimate P(stat > x) for several quantities from one shared pass.

    The quantities must pass check_pass. Each block is drawn once, so the
    rows (one list of TailEstimate per quantity) equal separate
    estimate_tail calls bit for bit. They depend only on (model, quantities,
    weights, xs, samples, seed), never on the worker count.
    """
    quantities, weights = check_pass(model, quantities, weights)
    stopped = quantities[0].stopped
    seed = check_seed(seed)
    xs = np.atleast_1d(np.asarray(xs, dtype=float))
    if xs.size == 0 or not np.all(np.isfinite(xs)):
        raise InvalidInput("xs must be a nonempty array of finite thresholds")
    samples = check_samples(samples)
    if not isinstance(workers, (int, np.integer)) or workers < 1:
        raise InvalidInput("workers must be a positive integer")
    if stopped and (not isinstance(tau_cap, (int, np.integer)) or tau_cap < 1):
        raise InvalidInput("tau_cap must be a positive integer")

    kinds = tuple(dict.fromkeys(q.kind for q in quantities))
    n_blocks = (samples + BLOCK_SIZE - 1) // BLOCK_SIZE
    counts = np.full(n_blocks, BLOCK_SIZE, dtype=np.int64)
    counts[-1] = samples - BLOCK_SIZE * (n_blocks - 1)
    indices = np.arange(n_blocks)
    n_payloads = min(int(workers), n_blocks)
    payloads = [
        (model, kinds, stopped, weights, xs, seed, indices[w::n_payloads],
         counts[w::n_payloads], int(tau_cap))
        for w in range(n_payloads)
    ]

    # one payload runs in process; more share a pool, one process each
    hits, capped = np.zeros((len(kinds), len(xs)), dtype=np.int64), 0
    for h, k in (_pool_results(payloads, n_blocks) if n_payloads > 1
                 else map(_run_blocks, payloads)):
        hits += h
        capped += k

    notes = ()
    if capped:
        notes = (f"sequence length capped at {int(tau_cap)} in {capped} "
                 f"of {samples} replicates",)
    p = hits / samples
    se = np.sqrt(p * (1.0 - p) / samples)
    return [[TailEstimate(float(x), float(p[k, i]), float(se[k, i]),
                          int(hits[k, i]), samples, seed, notes)
             for i, x in enumerate(xs)]
            for k in (kinds.index(q.kind) for q in quantities)]


def estimate_tail(model: DependentModel, quantity, xs, samples: int,
                  seed: int, workers: int = 1, weights=None,
                  tau_cap: int = TAU_CAP) -> list:
    """Estimate P(stat > x) for every x in xs from `samples` replicates.

    Returns one TailEstimate per threshold: the one-quantity case of
    estimate_tails.
    """
    return estimate_tails(model, (quantity,), xs, samples, seed, workers,
                          weights, tau_cap)[0]
