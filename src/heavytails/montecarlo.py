"""Seeded tail-probability estimation by block simulation.

Samples are processed in fixed blocks (rng.BLOCK_SIZE replicates each). Block
b draws its copula uniforms from the stream keyed (seed, b) and its counting
draws, when a stopped quantity needs them, from a separate lane keyed
(seed, _TAU_LANE + b). Per-block integer hit counts are summed at the end, so
the estimate is bitwise identical for any worker count and any block-to-worker
assignment. The worker count is a ceiling: a pass forks a process for a
share only when each share would draw at least _SHARE_VALUES values
(_share_count), so a small pass runs in the caller alone.

A running max of nonnegative terms is their sum up to the sign of a zero,
so estimate_tails reads it from the sum's hits on both paths.

A long stopped replicate whose hits the grid end already decides is settled
rather than drawn in full (_settle): its sum, when a bound from the support
tops the grid end, is that bound, and its max is drawn in pieces only until
a value tops the grid end. A piece's max is read in uniform space: the
quantile function is nondecreasing, so max F^-1(u_i) = F^-1(max u_i), and
only the uniforms next to the largest are transformed (_MAX_WINDOW). The
block's stream then advances past the words the replicate's undrawn rows
would have taken, so every later replicate sees the same draws and every
hit count is the one the full draw gives; only the settled statistics
themselves are bounds instead of values. A settled replicate holds no
values of its slice, so a slice of about _CHUNK_VALUES values fills across
settled replicates and is reduced once (_stats_stopped).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .copulas import _FGM_BATCH, DependentModel
from .errors import InvalidInput, ModelConfigError, WorkerCrashed
from .rng import BLOCK_SIZE, block_stream, check_samples, check_seed

TAU_CAP = 1 << 20      # per-replicate cap on the simulated sequence length
_TAU_LANE = 1 << 49    # block-stream lane reserved for counting-law draws
# Coordinate budget per simulation slice. A slice holds at most
# max(_CHUNK_VALUES, TAU_CAP rounded up to dim) coordinates, since one
# replicate may exceed the budget on its own, so at the defaults the bound is
# one capped replicate whatever the budget. A block draws every slice into
# one buffer of at most that many values and at most its own unsettled
# values, so a light block's buffer is its values. The budget sets the size
# of that buffer in a long block, and the allocator keeps a larger heap
# after serving larger arrays; the calling process, which runs a share of
# the blocks itself (_pool_results), keeps that heap from one estimate to
# the next (zeta-long-stopped peak_rss_mb, BENCH_22.json). Page faults are
# part of a block's time. While a forked child lives, the caller's first
# write to each page it held takes a fault: T4.2 block 0, run again in a
# process that holds a heap, takes 0 minor faults alone and about 830 with
# an idle forked child alive (352-384 and about 1,030 when each slice and
# piece was a fresh array). And each per-replicate array of a block,
# 2^14 * 8 B = 128 KiB, is exactly glibc's default mmap threshold, so the
# allocation pattern decides whether a block's arrays come from fresh
# pages. The inverse transform overwrites the uniforms, so live float64
# data per slice stays near one array of its values; the reductions then
# read the values in place, and runmax adds only arrays of one value per
# replicate (_running_max). At the defaults the bound is ~8 MiB (one T4.2
# block with nothing settled measures 8.7 MiB on max and sum and on
# runmax). An FGM copula adds the temporaries of its inversion, which runs
# over copulas._FGM_BATCH rows at a time: about 3 MiB (a bivariate FGM
# block measures 11.2 MiB). Every statistic is reduced over each
# replicate's own segment, so the budget moves no bit.
_CHUNK_VALUES = 1 << 16
# Settling (_settle). A replicate is settled only from this many padded
# values up: below it a replicate costs little inside its slice, while in a
# T4.2 block the ~100 replicates this long hold 94 % of the values.
_SETTLE_MIN = 1 << 14
# A settling max is drawn in pieces of _PIECE_FIRST rows, doubling up to
# _PIECE_MAX. The first piece is small because a heavy tail usually tops the
# grid end within a few thousand values; the last size is one FGM inversion
# batch, so a piece holds at most 2^16 rows and a replicate takes at most 5
# doubling pieces, then pieces of 2^16 rows. On 2 cores a piece of n
# bivariate rows costs about 9 us + 5.6 ns n, and over T4.2 blocks that
# total is least for a first piece of 2^11 to 3 * 2^10 rows (2^12 draws 13 %
# more rows in 24 % fewer pieces, 2 % more time; BENCH_27.json).
_PIECE_FIRST = 1 << 11
_PIECE_MAX = _FGM_BATCH
# A settling piece transforms only its uniforms within _MAX_WINDOW of its
# largest. A float quantile may step down where the exact one rises (ndtri
# makes Lognormal's do so on runs of adjacent floats), but no step spans
# 2.8e-16 in u, and test_quantile_reach_is_far_inside_the_max_window holds
# every family below _MAX_WINDOW / 1024. So no uniform below the window
# maps above the largest one's value: the candidates' max is the piece's.
_MAX_WINDOW = 2.0 ** -40
# A sum of n <= _SUM_TERMS nonnegative float64 terms, in any order, rounds
# to at least (1 - n 2^-53) times the exact sum, so a bound that tops the
# grid end by the relative margin _SUM_MARGIN (2^-30 > 2^21 * 2^-53, plus
# the rounding of the bound itself) decides the hit whatever the draws.
_SUM_TERMS = 1 << 21
_SUM_MARGIN = 2.0 ** -30
# Values each share must draw to repay forking a process for it
# (_share_count). A forked child shares the caller's pages copy-on-write, so
# while one is alive every page either process writes is copied, and a
# small pass runs slower forked. On 2 cores (scripts/pool_crossover.py, with
# and without perfbench's host reference between runs) two forked workers
# took 1.2-2.4 times one worker's wall time on a C3.1 pass of 2^17 samples
# (2^18 values), 0.8-1.8 times at 2^18 and 0.7-0.9 times at 2^19, where
# this floor first forks it; C5.2 and T4.4i, 3 values a replicate, took
# 0.6-0.9 times at 2^19.
_SHARE_VALUES = 1 << 19

_KINDS = ("sum", "max", "runmax")


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


def _reduce_rows(rect: np.ndarray, kinds: tuple) -> np.ndarray:
    """Per-kind statistics of each row of a fixed-length block, walked one
    column at a time, so each row adds its terms left to right. Each
    statistic is written in its own row of the result; runmax without sum
    keeps its running sum in one more array."""
    out = np.empty((len(kinds), len(rect)))
    out[:] = rect[:, 0]
    stat = dict(zip(kinds, out))
    top, peak = stat.get("max"), stat.get("runmax")
    run = stat.get("sum", None if peak is None else rect[:, 0].copy())
    for col in rect.T[1:]:
        if top is not None:
            np.maximum(top, col, out=top)
        if run is not None:
            run += col
        if peak is not None:
            np.maximum(peak, run, out=peak)
    return out


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


def _reduce_slice(model: DependentModel, kinds: tuple, flat: np.ndarray,
                  eff: np.ndarray, sizes: np.ndarray, starts: np.ndarray,
                  out: np.ndarray) -> None:
    """Write into out, one row per kind, the statistics of one slice of
    replicates: replicate i has eff[i] terms in sizes[i] padded values
    (whole copula rows) from offset starts[i] of flat, which holds the
    slice's copula uniforms and is overwritten with their values.

    Coordinates past a replicate's length are generated (to keep the stream
    layout a function of the counting draws alone) but never enter its
    statistic. Sum and max are reduced over each replicate's own segment by
    reduceat, with those pad coordinates overwritten in place by 0.0
    (adding +0.0 is exact) or -inf; runmax reads only a replicate's own
    terms (_running_max). So no statistic depends on which other replicates
    share the slice or the block.
    """
    dim = model.dim
    out[:] = [[-math.inf if k == "max" else 0.0] for k in kinds]
    if len(flat) == 0:
        return
    flat = model.marginals[0].ppf_from_uniform(flat)
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


def _settles(model: DependentModel, kinds: tuple, eff: np.ndarray,
             sizes: np.ndarray, x_top: float) -> np.ndarray:
    """Which replicates _settle takes: those at least _SETTLE_MIN padded
    values long, on a pass of max and/or sum whose sum, if asked for, is
    decided before any draw by the support bound length * lo (lo >= 0) over
    the grid end x_top. x_top = inf settles nothing. A pass with runmax
    settles nothing: it holds runmax only on signed terms (estimate_tails),
    whose partial sums may climb and fall back, so the support bound does
    not decide it and it needs every draw."""
    if math.isinf(x_top) or not set(kinds) <= {"max", "sum"}:
        return np.zeros(len(eff), dtype=bool)
    settle = sizes >= _SETTLE_MIN
    if "sum" in kinds:
        lo = model.marginals[0].support()[0]
        settle &= ((lo >= 0.0) & (eff <= _SUM_TERMS)
                   & (eff * lo > x_top * (1 + _SUM_MARGIN)))
    return settle


def _settle(model: DependentModel, kinds: tuple, rng: np.random.Generator,
            length: int, rows: int, x_top: float,
            piece_buf: np.ndarray) -> list:
    """Statistics of one replicate of `length` terms in `rows` copula rows
    that _settles chose, leaving rng where drawing all rows would. A max
    draws its pieces into piece_buf, which holds min(rows, _PIECE_MAX) rows.

    The sum is the support bound length * lo, which tops x_top. The max
    is drawn in pieces (_PIECE_FIRST rows, doubling to _PIECE_MAX) until a
    value tops x_top or the replicate ends, so it is the exact max or a
    lower bound above x_top; either way it tops every threshold exactly when
    the full max does. A piece is drawn as uniforms, and only those within
    _MAX_WINDOW of its largest go through the inverse transform: their
    largest value is the piece's max, the same float the transform of every
    uniform gives. A NaN among them stops the draw and stays the max, as in
    the slice reduction. The rows the pieces left undrawn are skipped by
    advancing rng copula.words_per_row words per row.
    """
    stat, done = {}, 0
    if "sum" in kinds:
        stat["sum"] = length * model.marginals[0].support()[0]
    if "max" in kinds:
        top, piece = -math.inf, _PIECE_FIRST
        while done < rows and top <= x_top:
            n = min(piece, rows - done)
            u = model.copula.sample(
                rng, n, out=piece_buf[: n * model.dim].reshape(n, -1)
            ).ravel()[: length - done * model.dim]
            cand = u[u >= u.max() - _MAX_WINDOW]
            top = model.marginals[0].ppf_from_uniform(cand).max(initial=top)
            done += n
            piece = min(2 * piece, _PIECE_MAX)
        stat["max"] = top
    rng.bit_generator.advance((rows - done) * model.copula.words_per_row)
    return [stat[k] for k in kinds]


def _stats_stopped(model: DependentModel, kinds: tuple,
                   rng: np.random.Generator, tau_rng: np.random.Generator,
                   count: int, cap: int, x_top: float = math.inf) -> tuple:
    """(statistics, capped) for count stopped replicates.

    Replicates that _settles picks against the grid end x_top are settled
    (_settle) and hold no values; the rest fill slices of about
    _CHUNK_VALUES values in block order, across the settled ones. Each run
    of unsettled replicates is drawn into the slice's buffer in stream
    order, the settled replicate that ends the run is drawn next, and the
    slice is reduced once when the next replicate does not fit or the block
    ends (_reduce_slice). A replicate above the budget is a slice alone."""
    dim = model.dim
    taus = np.asarray(model.tau.sample(tau_rng, count), dtype=np.int64)
    if np.any(taus < 0):
        raise ModelConfigError("counting law produced a negative length")
    capped = int(np.count_nonzero(taus > cap))
    eff = np.minimum(taus, cap, out=taus)
    # replicate i fills sizes[i] values (whole copula rows)
    sizes = (eff + dim - 1) // dim * dim
    settle = _settles(model, kinds, eff, sizes, x_top)
    marks = np.flatnonzero(settle).tolist()
    lengths, rows, pieces = [], [], 0
    if marks:
        lengths, rows = eff[settle].tolist(), (sizes[settle] // dim).tolist()
        # a settled replicate holds no values of its slice
        eff[settle] = sizes[settle] = 0
        if "max" in kinds:
            pieces = min(_PIECE_MAX, max(rows)) * dim
    # the slices' layout: replicate i holds edges[i] : edges[i + 1]
    edges = np.zeros(count + 1, dtype=np.int64)
    np.cumsum(sizes, out=edges[1:])
    # one allocation holds the slice buffer, then the piece buffer
    room = min(int(edges[-1]), max(_CHUNK_VALUES, int(sizes.max())))
    buf = np.empty(room + pieces)
    piece_buf = buf[room:]
    stats = np.empty((len(kinds), count))
    marks.append(count)     # a sentinel past the last replicate
    i = k = 0
    while i < count:
        prev = int(edges[i])
        j = max(int(np.searchsorted(edges, prev + _CHUNK_VALUES,
                                    side="right")) - 1, i + 1)
        flat = buf[: int(edges[j]) - prev]
        settled, a = [], i
        while a < j:
            s = min(marks[k], j)
            lo, hi = int(edges[a]) - prev, int(edges[s]) - prev
            if hi > lo:
                model.copula.sample(rng, (hi - lo) // dim,
                                    out=flat[lo:hi].reshape(-1, dim))
            if s < j:
                settled.append((s, _settle(model, kinds, rng, lengths[k],
                                           rows[k], x_top, piece_buf)))
                k += 1
            a = s + 1
        # offsets into the slice's values: a view when it starts the block
        part = edges[i:j] - prev if prev else edges[i:j]
        _reduce_slice(model, kinds, flat, eff[i:j], sizes[i:j], part,
                      stats[:, i:j])
        for s, stat in settled:
            stats[:, s] = stat
        i = j
    return stats, capped


def _count_hits(stats: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """hits[k, i] = #{s in stats[k] : s > xs[i]}, from one sort per row.

    Only the values above the lowest threshold can be hits, so only they are
    sorted (6.1 % of a C5.2 block, 22 % of C3.1's, 43 % of T4.2's);
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


def _simulate_block(model, kinds, stopped, weights, xs, seed, samples,
                    block_index):
    """(hits, capped) of block block_index of the `samples` replicates:
    BLOCK_SIZE replicates, fewer in the last block."""
    count = min(BLOCK_SIZE, samples - BLOCK_SIZE * block_index)
    rng = block_stream(seed, block_index)
    if stopped:
        tau_rng = block_stream(seed, _TAU_LANE + block_index)
        stats, capped = _stats_stopped(model, kinds, rng, tau_rng, count,
                                       TAU_CAP, float(xs.max()))
        return _count_hits(stats, xs), capped
    vals = model.sample_vector(rng, count)
    if weights is not None:
        vals = vals * weights
    return _count_hits(_reduce_rows(vals, kinds), xs), 0


def _block_span(share: range) -> str:
    """'blocks 1-7 step 2' for a range of block indices."""
    if len(share) == 1:
        return f"block {share[0]}"
    step = f" step {share.step}" if share.step > 1 else ""
    return f"blocks {share[0]}-{share[-1]}{step}"


def _reply(run, share):
    """run(share), or the Exception it raised."""
    try:
        return run(share)
    except Exception as err:
        return err


def _worker(run, share, conn) -> None:
    conn.send(_reply(run, share))


def _pool_results(run, shares, what: str) -> list:
    """run(share) for each share, in share order: the first in this
    process, each other in its own forked process, started before the first
    runs. One share forks nothing. A forked share whose process sends
    nothing or exits non-zero is lost, and WorkerCrashed names the blocks of
    each lost share (_block_span) of `what`, ahead of any exception.
    Otherwise an Exception raised on a share is raised here, the first in
    share order. An exception that is not an Exception (KeyboardInterrupt,
    SystemExit) on the first share propagates at once, and every forked
    process is killed."""
    if len(shares) > 1:
        import multiprocessing as mp
        ctx = mp.get_context("fork")
    jobs, replies = [], []
    try:
        for share in shares[1:]:
            recv, send = ctx.Pipe(duplex=False)
            proc = ctx.Process(target=_worker, args=(run, share, send),
                               daemon=True)
            proc.start()
            # with no write end left here, a dead worker's pipe reads EOF,
            # and the workers forked later do not inherit one either
            send.close()
            jobs.append((proc, recv))
        replies.append(_reply(run, shares[0]))
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
    lost = [_block_span(s) for s, r in zip(shares, replies) if r is None]
    if lost:
        raise WorkerCrashed(f"a worker process died; {' and '.join(lost)} "
                            f"of {what} returned no result")
    for reply in replies:
        if isinstance(reply, Exception):
            raise reply
    return replies


def _share_count(model: DependentModel, stopped: bool, samples: int,
                 workers: int, n_blocks: int) -> int:
    """W = min(workers, blocks, max(1, floor(samples * v / _SHARE_VALUES))),
    v the values a replicate draws: model.dim on a fixed-length pass, and
    min(E[tau] + dim - 1, TAU_CAP) on a stopped one, so an infinite-mean
    count always forks."""
    per = (min(model.tau.mean() + model.dim - 1, TAU_CAP) if stopped
           else model.dim)
    return min(int(workers), n_blocks, max(1, int(samples * per
                                                  // _SHARE_VALUES)))


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
                   seed: int, workers: int = 1, weights=None) -> tuple:
    """Count, for several quantities from one shared pass, the replicates
    whose statistic exceeds each threshold.

    Returns (hits, notes): hits[k, i] is the int64 number of the `samples`
    replicates whose quantity k tops xs[i], one row per quantity in request
    order, and notes is a tuple of the run's remarks (sequence lengths
    capped at TAU_CAP). The caller forms rates and intervals from them.

    The quantities must pass check_pass. Each block is drawn once, so every
    row equals a separate estimate_tail call bit for bit. The counts depend
    only on (model, quantities, weights, xs, samples, seed), never on the
    worker count. A runmax of nonnegative terms (every marginal's support
    minimum at least 0, no weight negative) reads the sum's hits,
    fixed-length or stopped: the running sum never falls, so the running
    max is the sum up to the sign of a zero, and it settles as the sum does
    (_settles).

    The blocks are dealt round-robin to W shares: share w is
    range(w, blocks, W). W is min(workers, blocks, max(1,
    floor(samples * v / _SHARE_VALUES))), v the values one replicate
    draws (_share_count), so workers is a ceiling and a pass too small to
    repay a fork runs in this process alone. Each share runs
    _simulate_block once per block, and every block's (hits, capped) is
    summed here. This process runs the first share and forks one process
    for each other (_pool_results), so W = 1 forks nothing. A hard crash
    in the first share (a signal, os._exit) ends this process, as at
    workers=1; one in a forked share raises WorkerCrashed.
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

    nonnegative = (all(m.support()[0] >= 0 for m in model.marginals)
                   and (weights is None or bool(np.all(weights >= 0))))
    read = [("sum" if q.kind == "runmax" and nonnegative else q.kind)
            for q in quantities]
    kinds = tuple(dict.fromkeys(read))
    n_blocks = (samples + BLOCK_SIZE - 1) // BLOCK_SIZE
    n_shares = _share_count(model, stopped, samples, workers, n_blocks)
    args = (model, kinds, stopped, weights, xs, seed, samples)

    def run(share):
        return [_simulate_block(*args, b) for b in share]

    shares = [range(w, n_blocks, n_shares) for w in range(n_shares)]
    replies = _pool_results(run, shares, f"{n_blocks} (seed {seed})")
    blocks = [block for reply in replies for block in reply]
    hits = np.sum([h for h, _ in blocks], axis=0)
    capped = sum(k for _, k in blocks)

    notes = ()
    if capped:
        notes = (f"sequence length capped at {TAU_CAP} in {capped} "
                 f"of {samples} replicates",)
    return hits[[kinds.index(r) for r in read]], notes


def estimate_tail(model: DependentModel, quantity, xs, samples: int,
                  seed: int, workers: int = 1, weights=None) -> tuple:
    """(hits, notes) of one quantity: hits[i] counts the replicates whose
    statistic tops xs[i]; the one-quantity case of estimate_tails."""
    hits, notes = estimate_tails(model, (quantity,), xs, samples, seed,
                                 workers, weights)
    return hits[0], notes
