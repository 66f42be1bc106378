"""Spans and counters recorded around the package's public calls.

While installed, the tracer replaces the public functions of each heavytails
module, and the engine-facing methods of its classes (Copula.sample,
CountingLaw.sample, Marginal.ppf_from_uniform, denominator values, ruin
curves), with thin wrappers; uninstall restores the originals. Nothing under
src/ knows about it. Each wrapped call opens a span (layer, name, start, end,
parent span). A layer's self time is the time of its spans minus the time
their child spans cover. Some wrappers also count work where it happens:
copula rows and the Philox words they consume, counting-law draws, values
pushed through an inverse transform, streams opened.

The tracer assumes one thread in one process, so the benchmark runs traced
units at workers=1.
"""

from __future__ import annotations

import functools
import importlib
import importlib.util
import inspect
import json
import time
from collections import Counter

LAYERS = ("rng", "copulas", "distributions", "counting", "montecarlo",
          "experiments", "risk", "convolution", "diagnostics", "cli")

_MASK64 = (1 << 64) - 1


def philox_words(rng):
    """64-bit words a Philox generator has handed out so far, or None."""
    try:
        st = rng.bit_generator.state
        counter = st["state"]["counter"]
        pos = int(st["buffer_pos"])
    except (AttributeError, KeyError, TypeError):
        return None
    value = 0
    for i, word in enumerate(counter):
        value |= (int(word) & _MASK64) << (64 * i)
    # each counter step yields four words; buffer_pos of them are used
    return 4 * value + pos


def _is_a(cls, base_name):
    return any(b.__name__ == base_name for b in cls.__mro__)


class Tracer:
    """Call stack, spans, self times and counters for one process."""

    def __init__(self, tau_cap: int):
        self.tau_cap = int(tau_cap)
        self.spans = []          # (unit, id, parent id, layer, name, t0, t1)
        self.failures = []       # (unit, layer, name, error class)
        self.self_ns = Counter()     # per layer
        self.span_ns = Counter()     # per "layer.name", whole spans
        self.span_calls = Counter()  # per "layer.name"
        self.outer_calls = Counter()  # per layer, outermost call of the layer
        self.counts = Counter()
        self.unit = -1
        self._stack = []         # frames [span id, layer, child ns]
        self._next_id = 0
        self._patches = []
        self._in_stopped = False
        self._stream_opens = Counter()
        self._first_open = {}    # id(generator) -> first open of its key
        self._alive = []         # keeps ids in _first_open unambiguous

    def begin_unit(self, index: int):
        self.unit = index
        self._stream_opens.clear()
        self._first_open.clear()
        self._alive.clear()

    # ---------------------------------------------------------------- spans --
    def call(self, layer, name, fn, *args, **kwargs):
        """Run fn inside a span of the given layer."""
        outer = not self._stack or self._stack[-1][1] != layer
        if outer:
            self.outer_calls[layer] += 1
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, layer, 0]
        self._stack.append(frame)
        t0 = time.perf_counter_ns()
        try:
            return fn(*args, **kwargs)
        except Exception as err:
            if outer:
                self.failures.append((self.unit, layer, name,
                                      type(err).__name__))
            raise
        finally:
            t1 = time.perf_counter_ns()
            self._stack.pop()
            dur = t1 - t0
            self.self_ns[layer] += dur - frame[2]
            key = f"{layer}.{name}"
            self.span_ns[key] += dur
            self.span_calls[key] += 1
            if self._stack:
                self._stack[-1][2] += dur
            self.spans.append((self.unit, sid, parent, layer, name, t0, t1))

    def write_spans(self, path):
        """Write every span as one JSON object per line."""
        keys = ("unit", "id", "parent", "layer", "name", "start_ns", "end_ns")
        with open(path, "w", encoding="utf-8") as fh:
            for row in self.spans:
                fh.write(json.dumps(dict(zip(keys, row))) + "\n")

    # ---------------------------------------------------------------- hooks --
    def _block_stream(self, fn, *args, **kwargs):
        gen = fn(*args, **kwargs)
        key = tuple(int(a) for a in args)
        self._stream_opens[key] += 1
        self._first_open[id(gen)] = self._stream_opens[key] == 1
        self._alive.append(gen)
        self.counts["rng.streams"] += 1
        return gen

    def _estimate_tail(self, fn, *args, **kwargs):
        quantity = args[1] if len(args) > 1 else kwargs.get("quantity")
        outer = self._in_stopped
        self._in_stopped = str(getattr(quantity, "token",
                                       quantity)).endswith("Tau")
        try:
            return fn(*args, **kwargs)
        finally:
            self._in_stopped = outer

    def _copula_sample(self, fn, this, rng, *args, **kwargs):
        before = philox_words(rng)
        out = fn(this, rng, *args, **kwargs)
        after = philox_words(rng)
        rows, dim = out.shape
        c = self.counts
        c["copulas.rows"] += rows
        c["copulas.coords"] += rows * dim
        if self._first_open.get(id(rng), True):
            c["copulas.rows_first_pass"] += rows
        if not self._in_stopped:
            c["montecarlo.coords_used_fixed"] += rows * dim
        if before is not None and after is not None:
            c["copulas.words"] += after - before
            c["copulas.words_needed"] += rows * dim
        return out

    def _counting_sample(self, fn, this, rng, *args, **kwargs):
        out = fn(this, rng, *args, **kwargs)
        c = self.counts
        c["counting.draws"] += len(out)
        c["counting.capped"] += int((out > self.tau_cap).sum())
        c["counting.len_sum"] += int(out.clip(0, self.tau_cap).sum())
        return out

    def _ppf(self, fn, this, *args, **kwargs):
        out = fn(this, *args, **kwargs)
        self.counts["distributions.values"] += int(getattr(out, "size", 1))
        return out

    # ------------------------------------------------------------- patching --
    def _wrapper(self, layer, name, fn, hook=None):
        tracer = self
        target = fn if hook is None else functools.partial(hook, fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return tracer.call(layer, name, target, *args, **kwargs)
        return wrapper

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self, package: str):
        """Wrap the public entry points of every layer module of package."""
        layers = [(layer, importlib.import_module(f"{package}.{layer}"))
                  for layer in LAYERS
                  if importlib.util.find_spec(f"{package}.{layer}")]
        modules = [mod for _, mod in layers]
        fn_hooks = {("rng", "block_stream"): self._block_stream,
                    ("montecarlo", "estimate_tail"): self._estimate_tail}
        for layer, mod in layers:
            if layer == "cli":
                continue        # the benchmark opens the cli span itself
            for name, obj in list(vars(mod).items()):
                if (name.startswith("_") or not inspect.isfunction(obj)
                        or obj.__module__ != mod.__name__):
                    continue
                wrapper = self._wrapper(layer, name, obj,
                                        fn_hooks.get((layer, name)))
                # rebind from-imports too: montecarlo and risk import
                # block_stream by name
                for other in modules:
                    for attr, value in list(vars(other).items()):
                        if value is obj:
                            self._set(other, attr, wrapper)
            for cls in list(vars(mod).values()):
                if inspect.isclass(cls) and cls.__module__ == mod.__name__:
                    for meth, hook in self._method_hooks(layer, cls):
                        if inspect.isfunction(vars(cls).get(meth)):
                            self._set(cls, meth, self._wrapper(
                                layer, f"{cls.__name__}.{meth}",
                                vars(cls)[meth], hook))

    def _method_hooks(self, layer, cls):
        if layer == "copulas" and _is_a(cls, "Copula"):
            return [("sample", self._copula_sample)]
        if layer == "counting" and _is_a(cls, "CountingLaw"):
            return [("sample", self._counting_sample)]
        if layer == "distributions" and _is_a(cls, "Marginal"):
            return [("ppf_from_uniform", self._ppf)]
        if layer in ("experiments", "risk"):
            return [(m, None) for m in ("values", "ruin_curve", "ruin_prob",
                                        "run")]
        return []

    def snapshot(self):
        """Copies of the counters: (counts, span calls, outermost calls per
        layer, failures per layer)."""
        return (Counter(self.counts), Counter(self.span_calls),
                Counter(self.outer_calls),
                Counter(layer for _, layer, _, _ in self.failures))

    def span_cost_ns(self, reps: int = 20_000) -> float:
        """Median extra nanoseconds a traced call costs over a plain one."""
        def noop():
            return None
        wrapped = Tracer(self.tau_cap)._wrapper("calibration", "noop", noop)
        costs = []
        for _ in range(5):
            t0 = time.perf_counter_ns()
            for _ in range(reps):
                noop()
            t1 = time.perf_counter_ns()
            for _ in range(reps):
                wrapped()
            t2 = time.perf_counter_ns()
            costs.append(((t2 - t1) - (t1 - t0)) / reps)
        return sorted(costs)[2]

    def failure_counts(self):
        """Counter of (layer, name, error class) over recorded failures."""
        return Counter(f[1:] for f in self.failures)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()
