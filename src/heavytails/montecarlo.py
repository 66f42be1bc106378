"""Seeded tail-probability estimation by block simulation.

Samples are processed in fixed blocks (rng.BLOCK_SIZE replicates each). Block
b draws its copula uniforms from the stream keyed (seed, b) and its counting
draws, when a stopped quantity needs them, from a separate lane keyed
(seed, _TAU_LANE + b). Per-block integer hit counts are summed at the end, so
the estimate is bitwise identical for any worker count and any block-to-worker
assignment.

A long stopped replicate whose hits the grid end already decides is settled
rather than drawn in full (_settle): its sum, when a bound from the support
tops the grid end, is that bound, and its max is drawn in pieces only until
a value tops the grid end. The block's stream then seeks past the words the
replicate would have drawn, so every later replicate sees the same draws and
every hit count is the one the full draw gives; only the settled
statistics themselves are bounds instead of values.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import _FGM_BATCH, DependentModel
from .errors import InvalidInput, ModelConfigError, WorkerCrashed
from .rng import (BLOCK_SIZE, block_stream, check_samples, check_seed,
                  stream_position, stream_seek)

TAU_CAP = 1 << 20      # per-replicate cap on the simulated sequence length
_TAU_LANE = 1 << 49    # block-stream lane reserved for counting-law draws
# Coordinate budget per simulation slice. A slice holds at most
# max(_CHUNK_VALUES, tau_cap rounded up to dim) coordinates, since one
# replicate may exceed the budget on its own, so at the defaults the bound is
# one capped replicate whatever the budget. The budget sets the size of the
# arrays a long block keeps allocating, and the allocator keeps a larger
# heap after serving larger arrays; the calling process, which runs a share
# of the blocks itself (_pool_results), keeps that heap from one estimate to
# the next (zeta-long-stopped peak_rss_mb, BENCH_22.json). The inverse
# transform overwrites the uniforms, so live float64 data per slice stays
# near one array of its values; the reductions then read the values in
# place, and runmax adds only arrays of one value per replicate
# (_running_max). At the defaults the bound is ~8 MiB (one T4.2 block with
# nothing settled measures 9.6 MiB on max and sum, 8.8 MiB on runmax). An FGM
# copula adds the temporaries of its inversion, which runs over
# copulas._FGM_BATCH rows at a time: about 5 MiB (a bivariate FGM block
# measures 13.8 MiB). Every statistic is reduced over each replicate's own
# segment, so the budget moves no bit.
_CHUNK_VALUES = 1 << 16
# Settling (_settle). A replicate is settled only from this many padded
# values up: below it a replicate costs little inside its slice, while in a
# T4.2 block the ~100 replicates this long hold 94 % of the values.
_SETTLE_MIN = 1 << 14
# A settling max is drawn in pieces of _PIECE_FIRST rows, doubling up to
# _PIECE_MAX. The first piece is small because a heavy tail usually tops the
# grid end within a few thousand values; the last size is one FGM inversion
# batch, so a piece holds at most 2^16 rows and a replicate takes at most 4
# doubling pieces, then pieces of 2^16 rows.
_PIECE_FIRST = 1 << 12
_PIECE_MAX = _FGM_BATCH
# A sum of n <= _SUM_TERMS nonnegative float64 terms, in any order, rounds
# to at least (1 - n 2^-53) times the exact sum, so a bound that tops the
# grid end by the relative margin _SUM_MARGIN (2^-30 > 2^21 * 2^-53, plus
# the rounding of the bound itself) decides the hit whatever the draws.
_SUM_TERMS = 1 << 21
_SUM_MARGIN = 2.0 ** -30

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


def wald_interval(p_hat, stderr) -> tuple:
    """The 95% Wald interval p_hat -/+ Z95 stderr clipped to [0, 1],
    elementwise."""
    return (np.maximum(p_hat - Z95 * stderr, 0.0),
            np.minimum(p_hat + Z95 * stderr, 1.0))


def _reduce_rows(rect: np.ndarray, kinds: tuple) -> np.ndarray:
    """Per-kind statistics of each row of a fixed-length block, walked one
    column at a time, so each row adds its terms left to right."""
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


def _running_max(flat: np.ndarray, starts: np.ndarray, eff: np.ndarray,
                 out: np.ndarray) -> None:
    """Write np.cumsum(seg).max() of each nonempty segment seg =
    flat[s : s + e] into out, bit for bit, leaving out as it is for an
    empty one; the longest few segments are overwritten.

    Replicates are sorted longest first, by numpy's radix sort when the
    lengths fit 16 bits. The first `split` of them are reduced one at a
    time by a cumsum over their own segment; the rest are walked one column
    at a time, column j adding term j to the running sums of the replicates
    longer than j, which are a prefix of the sorted rest. Either way each
    segment is added left to right, as np.cumsum adds it. `split` minimises
    the Python steps: one per replicate alone plus one per column of the
    longest walked one, at most twice the replicates in all.
    """
    # longest first: ascending top - eff in the narrowest unsigned type
    top = int(eff.max())
    key = eff.astype(np.min_scalar_type(top))
    order = np.argsort(np.subtract(top, key, out=key), kind="stable")
    lens = eff[order]
    nonempty = int(np.count_nonzero(lens))
    # steps[i]: i replicates alone, then lens[i] columns (0 past the last)
    alone = min(nonempty, top)
    steps, head = np.arange(alone + 1), lens[: alone + 1]
    steps[: len(head)] += head
    split = int(np.argmin(steps))
    segs = [flat[a:a + e] for a, e in zip(starts[order[:split]].tolist(),
                                          lens[:split].tolist())]
    out[order[:split]] = [np.cumsum(seg, out=seg).max() for seg in segs]
    if split == nonempty:
        return
    rest = lens[split:nonempty]
    pos = starts[order[split:nonempty]]
    run = flat[pos]
    peak = run.copy()
    # how many of rest are longer than j, for j = 1 .. rest[0] - 1
    longer = len(rest) - np.searchsorted(
        rest[::-1], np.arange(1, int(rest[0])), side="right")
    for k in longer.tolist():
        pos[:k] += 1
        part = run[:k]
        part += flat[pos[:k]]
        np.maximum(peak[:k], part, out=peak[:k])
    out[order[split:nonempty]] = peak


def _chunk_stats(model: DependentModel, kinds: tuple,
                 rng: np.random.Generator, eff: np.ndarray,
                 sizes: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Statistics for one slice of replicates: replicate i has eff[i]
    terms in sizes[i] padded values (whole copula rows) from offset
    starts[i] of the slice's values.

    Coordinates past a replicate's length are generated (to keep the stream
    layout a function of the counting draws alone) but never enter its
    statistic. Sum and max are reduced over each replicate's own segment by
    reduceat, with those pad coordinates overwritten in place by 0.0
    (adding +0.0 is exact) or -inf; runmax reads only a replicate's own
    terms (_running_max). So no statistic depends on which other replicates
    share the slice or the block.
    """
    dim = model.dim
    out = np.empty((len(kinds), len(eff)))
    out[:] = [[-math.inf if k == "max" else 0.0] for k in kinds]
    rows = int(starts[-1] + sizes[-1]) // dim
    if rows == 0:
        return out
    # the inverse transform overwrites the uniforms: one array per slice
    flat = model.marginals[0].ppf_from_uniform(
        model.copula.sample(rng, rows).ravel())
    if {"max", "sum"} & set(kinds):
        nonempty = eff > 0
        first = starts[nonempty]
        # pad coordinates: offset j past a replicate's last term when it is
        # short of its rows by more than j; a replicate is short by < dim
        stops, short = starts + eff, sizes - eff
        pad = np.concatenate([stops[short > j] + j for j in range(dim - 1)]
                             or [stops[:0]])
        if "max" in kinds:
            flat[pad] = -math.inf
            out[kinds.index("max"), nonempty] = np.maximum.reduceat(flat,
                                                                    first)
        if "sum" in kinds:
            flat[pad] = 0.0
            out[kinds.index("sum"), nonempty] = np.add.reduceat(flat, first)
    if "runmax" in kinds:
        _running_max(flat, starts, eff, out[kinds.index("runmax")])
    return out


def _settles(model: DependentModel, kinds: tuple, eff: np.ndarray,
             sizes: np.ndarray, x_top: float) -> np.ndarray:
    """Which replicates _settle takes: those at least _SETTLE_MIN padded
    values long, on a pass of max and/or sum whose sum, if asked for, is
    decided before any draw by the support bound length * lo (lo >= 0) over
    the grid end x_top. x_top = inf settles nothing. A pass with runmax
    settles nothing: the support bound does not decide a running max of
    signed terms, whose partial sums may climb and fall back, so it needs
    every draw (on nonnegative terms it is the sum, but no preset pairs
    runmax with counts that long)."""
    if math.isinf(x_top) or not set(kinds) <= {"max", "sum"}:
        return np.zeros(len(eff), dtype=bool)
    settle = sizes >= _SETTLE_MIN
    if "sum" in kinds:
        lo = model.marginals[0].support()[0]
        settle &= ((lo >= 0.0) & (eff <= _SUM_TERMS)
                   & (eff * lo > x_top * (1 + _SUM_MARGIN)))
    return settle


def _settle(model: DependentModel, kinds: tuple, rng: np.random.Generator,
            length: int, rows: int, x_top: float) -> list:
    """Statistics of one replicate of `length` terms in `rows` copula rows
    that _settles chose, leaving rng where drawing all rows would.

    The sum is the support bound length * lo, which tops x_top. The max
    is drawn in pieces (_PIECE_FIRST rows, doubling to _PIECE_MAX) until a
    value tops x_top or the replicate ends, so it is the exact max or a
    lower bound above x_top; either way it tops every threshold exactly when
    the full max does. A NaN value stops the draw and stays the max, as in
    the slice reduction.
    """
    start = stream_position(rng)
    stat = {}
    if "sum" in kinds:
        stat["sum"] = length * model.marginals[0].support()[0]
    if "max" in kinds:
        top, done, piece = -math.inf, 0, _PIECE_FIRST
        while done < rows and top <= x_top:
            n = min(piece, rows - done)
            vals = model.marginals[0].ppf_from_uniform(
                model.copula.sample(rng, n).ravel())
            top = np.maximum(top, vals[: length - done * model.dim].max())
            done += n
            piece = min(2 * piece, _PIECE_MAX)
        stat["max"] = top
    stream_seek(rng, start + rows * model.copula.words_per_row)
    return [stat[k] for k in kinds]


def _stats_stopped(model: DependentModel, kinds: tuple,
                   rng: np.random.Generator, tau_rng: np.random.Generator,
                   count: int, cap: int, x_top: float = math.inf) -> tuple:
    """(statistics, capped) for count stopped replicates. Replicates that
    _settles picks against the grid end x_top are settled one at a time;
    the rest run in slices of about _CHUNK_VALUES values between them."""
    dim = model.dim
    taus = np.asarray(model.tau.sample(tau_rng, count), dtype=np.int64)
    if np.any(taus < 0):
        raise ModelConfigError("counting law produced a negative length")
    eff = np.minimum(taus, cap)
    capped = int(np.count_nonzero(taus > cap))
    # the block's layout: replicate i fills sizes[i] values (whole copula
    # rows) ending at cum[i]
    sizes = (eff + dim - 1) // dim * dim
    cum = np.cumsum(sizes)
    starts = cum - sizes
    stats = np.empty((len(kinds), count))
    # the settled replicates' indices, then count as a sentinel
    marks = np.append(np.flatnonzero(
        _settles(model, kinds, eff, sizes, x_top)), count)
    i = 0
    while i < count:
        nxt = int(marks[np.searchsorted(marks, i)])
        if nxt == i:
            stats[:, i] = _settle(model, kinds, rng, int(eff[i]),
                                  int(sizes[i]) // dim, x_top)
            i += 1
            continue
        prev = int(starts[i])
        j = int(np.searchsorted(cum, prev + _CHUNK_VALUES, side="right"))
        j = min(max(j, i + 1), nxt)
        # offsets into the slice's values: a view when it starts the block
        part = starts[i:j] - prev if prev else starts[i:j]
        stats[:, i:j] = _chunk_stats(model, kinds, rng, eff[i:j],
                                     sizes[i:j], part)
        i = j
    return stats, capped


def _count_hits(stats: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """hits[k, i] = #{s in stats[k] : s > xs[i]}, from one sort per row.

    Only the values above the lowest threshold can be hits, so only they are
    sorted (6 % of a C5.2 block, 21 % of C3.1's, about 45 % of T4.2's);
    NaN fails that comparison and is never a hit. searchsorted on the right
    counts the sorted values at or below each threshold, ties and infinities
    included, so the counts equal the comparisons for any non-NaN xs in any
    order.
    """
    lo = xs.min()
    hits = []
    for row in stats:
        tail = np.sort(np.compress(row > lo, row))
        hits.append(len(tail) - np.searchsorted(tail, xs, side="right"))
    return np.array(hits, dtype=np.int64)


def _simulate_block(model, kinds, stopped, weights, xs, seed, block_index,
                    count, cap):
    rng = block_stream(seed, block_index)
    if stopped:
        tau_rng = block_stream(seed, _TAU_LANE + block_index)
        stats, capped = _stats_stopped(model, kinds, rng, tau_rng, count,
                                       cap, float(xs.max()))
    else:
        vals = model.sample_vector(rng, count)
        if weights is not None:
            vals = vals * weights
        stats, capped = _reduce_rows(vals, kinds), 0
    return _count_hits(stats, xs), capped


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


def _worker(payload, conn) -> None:
    """Send _run_blocks(payload), or the exception it raised, to conn."""
    try:
        reply = _run_blocks(payload)
    except Exception as err:
        reply = err
    conn.send(reply)


def _pool_results(payloads, n_blocks: int) -> list:
    """_run_blocks on each payload, in payload order: the first in this
    process, each other in its own forked process, started before the first
    runs. One payload forks nothing. A forked payload whose process sends
    nothing or exits non-zero is lost, and WorkerCrashed names the blocks of
    each lost payload, ahead of any exception. Otherwise an exception raised
    on a payload is raised here, the first in payload order. An exception
    that is not an Exception (KeyboardInterrupt, SystemExit) on the first
    payload propagates at once, and every forked process is killed."""
    if len(payloads) > 1:
        import multiprocessing as mp
        ctx = mp.get_context("fork")
    jobs, replies = [], []
    try:
        for p in payloads[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(p, send), daemon=True)
            proc.start()
            # with no write end left here, a dead worker's pipe reads EOF,
            # and the workers forked later do not inherit one either
            send.close()
            jobs.append((proc, recv))
        try:
            replies.append(_run_blocks(payloads[0]))
        except Exception as err:
            replies.append(err)
        for proc, recv in jobs:
            try:
                reply = recv.recv()
            except EOFError:
                reply = None
            proc.join()
            replies.append(reply if proc.exitcode == 0 else None)
    finally:
        for proc, recv in jobs:
            recv.close()
            if proc.is_alive():
                proc.kill()
                proc.join()
    lost = [_block_span(p[6]) for p, r in zip(payloads, replies) if r is None]
    if lost:
        raise WorkerCrashed(
            f"a worker process died; {' and '.join(lost)} of {n_blocks} "
            f"(seed {payloads[0][5]}) returned no result")
    for reply in replies:
        if isinstance(reply, Exception):
            raise reply
    return replies


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

    The blocks are dealt round-robin to min(workers, blocks) shares. This
    process runs the first share and forks one process for each other
    (_pool_results), so workers=1 forks nothing. A hard crash in the first
    share (a signal, os._exit) ends this process, as at workers=1; one in
    a forked share raises WorkerCrashed.
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

    hits, capped = np.zeros((len(kinds), len(xs)), dtype=np.int64), 0
    for h, k in _pool_results(payloads, n_blocks):
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
