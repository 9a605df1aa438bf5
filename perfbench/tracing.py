"""Per-layer split of a sampling run, applied from outside the package.

Nothing under src/ is edited. A Tracer wraps every call that crosses a layer
boundary: it hands the eval suites a ModelProxy in place of the model, wraps a
few methods on the world instance, and swaps the functions that
maskcompose.evalharness, maskcompose.sampler and maskcompose.compose look up
through their module globals at call time. The wrappers count calls, key the
model calls and check the evaluation-count law per grid. They take no times.

Times come from sampling the stack. A SIGPROF timer interrupts the process
every SAMPLE_INTERVAL_S of CPU time, and the handler walks the interrupted
stack. The innermost frame that runs a wrapped function's code gets the sample
as self time. Every wrapped function on the stack gets it as total time. A
sample taken in the tracer's own code goes to a trace.* bucket instead, and to
no span's self or total time: trace.spans for the wrappers, trace.keys for
keying model calls, trace.checks for the law and support checks. So what the
tracer costs is never charged to the layer that called it. A second per
sample is the CPU time of the sampled stretch over its number of samples.

Renaming one of the wrapped functions in the package makes its span read zero;
it never changes what the untraced run measures.
"""

from __future__ import annotations

import importlib
import math
import signal
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

from maskcompose.errors import AllMassZero

# The package re-exports a function named `compose`, which hides the module of
# that name as a package attribute, so the modules are looked up by full name.
compose, evalharness, sampler = (
    importlib.import_module(f"maskcompose.{m}") for m in ("compose", "evalharness", "sampler")
)

# (module, global name, span name). Spans sharing a name add up.
MODULE_SPANS = (
    (evalharness, "joint_tv", "evalharness.score"),
    (evalharness, "tv_to_marginals", "evalharness.score"),
    (sampler, "composed_step", "sampler.step"),
    (sampler, "_select_positions", "sampler.select"),
    (sampler, "sample_token", "sampler.draw"),
    (sampler, "compose_logits", "compose.compose"),
    (sampler, "normalize_logits", "compose.normalize"),
    (compose, "normalize_logits", "compose.normalize"),
)
WORLD_SPANS = (
    ("support", "worlds.support"),
    ("enumerate_posterior", "worlds.posterior"),
    ("check_conditions", "worlds.check"),
)
ENTRY_PREFIX = "evalharness."
# At 250 Hz, the usual kernel tick, this is the finest interval SIGPROF keeps.
SAMPLE_INTERVAL_S = 0.004
# Bucket of a sample taken in the tracer's own code, by function name.
TRACER_BUCKETS = {"keyed": "trace.keys", "arg_key": "trace.keys", "run": "trace.checks"}


def arg_key(x):
    """Hashable identity of a call argument: arrays and grids by content."""
    if isinstance(x, np.ndarray):
        return (x.dtype.str, x.shape, x.tobytes())
    tokens = getattr(x, "tokens", None)
    if isinstance(tokens, np.ndarray):
        return arg_key(tokens)
    if isinstance(x, (list, tuple)):
        return tuple(arg_key(v) for v in x)
    try:
        hash(x)
    except TypeError:
        return repr(x)
    return x


class NoTrace:
    """The untraced run: every hook hands back what it was given."""

    def model(self, model):
        return model

    def world(self, world):
        return world

    def entry(self, fn, name=None):
        return fn


class ModelProxy:
    """Stands in for a model: forwards every attribute by name and counts every
    callable one as a span named after the model's module, e.g. worlds.predict.
    """

    def __init__(self, model, tracer: "Tracer"):
        self._model = model
        self._tracer = tracer
        self._layer = type(model).__module__.rpartition(".")[2]

    def __getattr__(self, name):
        attr = getattr(self._model, name)
        if callable(attr):
            attr = self._tracer.span(f"{self._layer}.{name}", attr, model_call=True)
            # Later lookups find the wrapped method in the instance dict and
            # do not come back here.
            self.__dict__[name] = attr
        return attr


class Tracer:
    """Call counts and stack samples per span name, kept for one traced pass.

    Every sampler run gets a grid id; the run span checks the evaluation-count
    law steps * (n + 1) against the model calls made inside it and, when a
    support is given, that the finished grid lies in it. Samples whose stack
    runs one of the `skip` code objects are dropped from every share, but
    their CPU time still counts towards the seconds per sample.
    """

    def __init__(self, support: set[bytes] | None = None, skip=frozenset()):
        self.calls = defaultdict(int)
        self.distinct = defaultdict(set)
        self.self_samples = defaultdict(int)
        self.total_samples = defaultdict(int)
        self.samples = self.skipped = 0
        self.cpu_s = 0.0
        self.model_calls = 0
        self.grid = -1
        self.aborts = 0
        self.law_evaluations = 0
        self.law_violations: list[int] = []
        self.off_support: list[int] = []
        self._support = support
        self._skip = frozenset(skip)
        self._codes = {}  # code object of a wrapped function -> span name

    # hooks -----------------------------------------------------------------
    def model(self, model):
        return ModelProxy(model, self)

    def world(self, world):
        for attr, name in WORLD_SPANS:
            setattr(world, attr, self.span(name, getattr(world, attr)))
        return world

    def entry(self, fn, name=None):
        return self.span(name or ENTRY_PREFIX + fn.__name__, fn)

    @contextmanager
    def patched(self):
        """Swap the package's module-level functions for counted ones."""
        saved = []
        swaps = [(m, attr, self.span(name, getattr(m, attr)))
                 for m, attr, name in MODULE_SPANS if hasattr(m, attr)]
        if hasattr(evalharness, "run_to_completion"):
            swaps.append((evalharness, "run_to_completion",
                          self._run_span(evalharness.run_to_completion)))
        try:
            for module, attr, fn in swaps:
                saved.append((module, attr, getattr(module, attr)))
                setattr(module, attr, fn)
            yield self
        finally:
            for module, attr, fn in reversed(saved):
                setattr(module, attr, fn)

    @contextmanager
    def sampling(self):
        """Sample the stack every SAMPLE_INTERVAL_S of this process's CPU time."""
        previous = signal.signal(signal.SIGPROF, self._sample)
        cpu0 = time.process_time()
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_INTERVAL_S, SAMPLE_INTERVAL_S)
        try:
            yield self
        finally:
            signal.setitimer(signal.ITIMER_PROF, 0)
            self.cpu_s += time.process_time() - cpu0
            signal.signal(signal.SIGPROF, previous)

    # spans -----------------------------------------------------------------
    def span(self, name, fn, model_call=False):
        code = getattr(getattr(fn, "__func__", fn), "__code__", None)
        if code is not None:
            self._codes.setdefault(code, name)
        calls = self.calls
        if not model_call:
            def counted(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)

            return counted
        distinct = self.distinct[name]

        def keyed(*args, **kwargs):
            calls[name] += 1
            self.model_calls += 1
            distinct.add(arg_key(args) + arg_key(tuple(sorted(kwargs.items()))))
            return fn(*args, **kwargs)

        return keyed

    def _run_span(self, fn):
        counted = self.span("sampler.run", fn)

        def run(initial, model, conds, weights, sched, *args, **kwargs):
            self.grid += 1
            calls0, steps0 = self.model_calls, self.calls["sampler.step"]
            try:
                tokens, stats = counted(initial, model, conds, weights, sched, *args, **kwargs)
            except AllMassZero:
                self.aborts += 1
                raise
            length = len(initial.tokens)
            if sched.mode == sampler.MODE_AUTOREGRESSIVE:
                law_steps = length
            else:
                law_steps = math.ceil(length / sched.tokens_per_step)
            self.law_evaluations += law_steps * (len(conds) + 1)
            steps = self.calls["sampler.step"] - steps0
            evaluations = self.model_calls - calls0
            if steps != law_steps or evaluations != law_steps * (len(conds) + 1):
                self.law_violations.append(self.grid)
            if self._support is not None and tokens.tobytes() not in self._support:
                self.off_support.append(self.grid)
            return tokens, stats

        return run

    def _sample(self, signum, frame):
        self.samples += 1
        own, names = None, set()
        while frame is not None:
            code = frame.f_code
            if code in self._skip:
                self.skipped += 1
                return
            name = self._codes.get(code)
            if name is not None:
                names.add(name)
            if own is None:
                if name is not None:
                    own = name
                elif code.co_filename == __file__:
                    own = TRACER_BUCKETS.get(code.co_name, "trace.spans")
            frame = frame.f_back
        own = own or "untraced"
        self.self_samples[own] += 1
        if not own.startswith("trace."):
            for name in names:
                self.total_samples[name] += 1

    # results ---------------------------------------------------------------
    def mark(self) -> tuple[dict[str, int], int]:
        return dict(self.self_samples), self.samples - self.skipped

    def metrics(self, overhead_ratio: float, n_buckets: int) -> dict[str, tuple[float, str]]:
        """The per-layer metrics as (value, unit).

        A *_s metric is the total time of its spans, children included, so
        compose.s contains the normalize calls that compose_logits makes;
        only *.self_s leave out the time of child spans. No time includes the
        tracer's own. Model metrics follow the method the samplers call,
        `predict`; worlds.memo_hit_ratio is the share of exact-model calls
        that repeat an earlier (state, condition).
        """
        c = self.calls
        per_sample = self.cpu_s / self.samples if self.samples else 0.0
        s = defaultdict(float, {k: n * per_sample for k, n in self.total_samples.items()})
        self_s = defaultdict(float, {k: n * per_sample for k, n in self.self_samples.items()})

        def model_metrics(layer):
            calls = c[f"{layer}.predict"]
            distinct = len(self.distinct[f"{layer}.predict"])
            return {
                f"{layer}.predict_calls": (calls, "count"),
                f"{layer}.predict_s": (s[f"{layer}.predict"], "s"),
                f"{layer}.predict_distinct": (distinct, "count"),
            }, (1.0 - distinct / calls if calls else 0.0)

        worlds, memo_hit_ratio = model_metrics("worlds")
        countmodel, _ = model_metrics("countmodel")
        entries = [n for n in self_s if n.startswith(ENTRY_PREFIX) and n != "evalharness.score"]
        return {
            **worlds,
            "worlds.memo_hit_ratio": (memo_hit_ratio, "ratio"),
            "worlds.support_s": (s["worlds.support"], "s"),
            "worlds.posterior_s": (s["worlds.posterior"], "s"),
            "worlds.check_calls": (c["worlds.check"], "count"),
            "worlds.check_s": (s["worlds.check"], "s"),
            "countmodel.fit_s": (s["countmodel.fit"], "s"),
            "countmodel.n_buckets": (n_buckets, "count"),
            **countmodel,
            "compose.calls": (c["compose.compose"], "count"),
            "compose.s": (s["compose.compose"], "s"),
            "compose.normalize_calls": (c["compose.normalize"], "count"),
            "compose.normalize_s": (s["compose.normalize"], "s"),
            "sampler.runs": (c["sampler.run"], "count"),
            "sampler.steps": (c["sampler.step"], "count"),
            "sampler.evaluations": (self.model_calls, "count"),
            "sampler.aborts": (self.aborts, "count"),
            "sampler.select_calls": (c["sampler.select"], "count"),
            "sampler.select_s": (s["sampler.select"], "s"),
            "sampler.draw_calls": (c["sampler.draw"], "count"),
            "sampler.draw_s": (s["sampler.draw"], "s"),
            "sampler.self_s": (self_s["sampler.run"] + self_s["sampler.step"], "s"),
            "evalharness.score_s": (s["evalharness.score"], "s"),
            "evalharness.self_s": (sum(self_s[n] for n in entries), "s"),
            "trace.overhead_ratio": (overhead_ratio, "ratio"),
        }

    def shares(self, since: tuple[dict[str, int], int]) -> tuple[dict[str, float], int]:
        """Self samples per span name since `since` (a mark), as a share of
        the samples kept; 'untraced' is the share outside every span and the
        tracer. Returns the shares and the number of samples they rest on."""
        before, kept_before = since
        kept = self.samples - self.skipped - kept_before
        out = {
            name: (n - before.get(name, 0)) / kept
            for name, n in sorted(self.self_samples.items())
            if kept and n > before.get(name, 0)
        }
        return out, kept
