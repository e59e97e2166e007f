"""Outside-in layer spans for the traced benchmark run.

The package is not instrumented.  Instead, for the traced run only,
:class:`Tracer` rebinds the public functions listed in ``SPANS`` to timing
wrappers in every module that reaches them through a module-level name:
the modules that import them from a sibling, and the home module itself
when it calls its own functions (``fairness.dodds`` calling ``dopp``,
``mmd.gamma_biased`` calling ``mmd2_biased``).  The benchmark opens the
``cli.<command>`` span itself around each ``fairmmd.cli.main`` call.
:meth:`Tracer.uninstall` puts every original back.

Each span records its call count and self time (its duration minus the
part covered by its child spans).  Spans in ``PEAK_SPANS`` also record the
tracemalloc peak reached inside the span above the memory traced at entry.
tracemalloc slows allocation-heavy Python code about twofold (fourfold on
the certify loop when it traced the whole pass), so it runs only while a
tracked call is open: the first 8 calls of each such span and every 64th
after them, plus every call nested in a tracked call.  ``peak_mb`` is the
largest peak over the tracked calls.  Each tracked span resets the peak
counter on entry after handing the peak so far to its enclosing tracked
span.
"""

import importlib
import time
import tracemalloc
from collections import Counter

SPANS = {
    "synth": ("read_csv", "sample_population"),
    "mmd": ("mmd2_unbiased", "mmd2_biased", "gamma_biased"),
    "eok": ("eok_hat_plugin", "eok_gradient_plugin", "eok_hat_bootstrap", "reweight_sample"),
    "fairness": ("evaluate_batch", "sup_dp", "witness_classifier", "random_ball_classifier",
                 "dp", "dopp", "dr", "dodds", "dpc", "dnc", "dc", "balanced_accuracy"),
    "bounds": ("check_biased_lower_bound", "check_ba_bounds", "check_calibration_chain"),
    "complexity": ("concentration_check", "gaussian_complexity_images", "suggest_radius"),
    "frl": ("train", "objective_gradient", "lambda_sweep"),
}
SAMPLE_FIRST, SAMPLE_EVERY = 8, 64
PEAK_SPANS = frozenset({
    "mmd.mmd2_unbiased", "mmd.mmd2_biased", "mmd.gamma_biased",
    "eok.eok_hat_plugin", "eok.eok_gradient_plugin",
    "fairness.evaluate_batch", "frl.objective_gradient",
})
CLI_SPANS = tuple(f"cli.{c}" for c in
                  ("generate", "eok", "metrics", "bounds", "train", "sweep", "concentration"))
REBOUND_IN = ("cli", "bounds", "fairness", "frl", "eok", "complexity", "mmd")
# Calls of these spans are also counted per enclosing cli span: they are the
# classifier score passes that a score-once metrics path would remove.
PER_COMMAND = (("cli.metrics", "fairness.evaluate_batch"),
               ("cli.bounds", "fairness.evaluate_batch"))
_PER_COMMAND_SPANS = frozenset(name for _, name in PER_COMMAND)


class _Frame:
    __slots__ = ("name", "start", "child", "base", "peak")

    def __init__(self, name, start):
        self.name = name
        self.start = start
        self.child = 0.0
        self.base = None


class Tracer:
    """Span recorder plus the rebinding that feeds it; one per traced pass."""

    def __init__(self):
        self.calls = Counter()
        self.self_s = Counter()
        self.total_s = Counter()
        self.peak_bytes = Counter()
        self.per_command = Counter()
        self._stack = []
        self._peak_stack = []
        self._saved = []

    # -- spans -------------------------------------------------------------

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, time.perf_counter())
        if name in PEAK_SPANS and (self._peak_stack or self._sampled(name)):
            if not self._peak_stack:
                tracemalloc.start()
            current, peak = tracemalloc.get_traced_memory()
            if self._peak_stack:
                outer = self._peak_stack[-1]
                outer.peak = max(outer.peak, peak)
            tracemalloc.reset_peak()
            frame.base = frame.peak = current
            self._peak_stack.append(frame)
        if name in _PER_COMMAND_SPANS and self._stack:
            self.per_command[(self._stack[0].name, name)] += 1
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        duration = time.perf_counter() - frame.start
        self._stack.pop()
        name = frame.name
        self.calls[name] += 1
        self.total_s[name] += duration
        self.self_s[name] += duration - frame.child
        if self._stack:
            self._stack[-1].child += duration
        if frame.base is not None:
            self._peak_stack.pop()
            top = max(frame.peak, tracemalloc.get_traced_memory()[1])
            self.peak_bytes[name] = max(self.peak_bytes[name], top - frame.base)
            if self._peak_stack:
                outer = self._peak_stack[-1]
                outer.peak = max(outer.peak, top)
            else:
                tracemalloc.stop()

    def _sampled(self, name: str) -> bool:
        n = self.calls[name]
        return n < SAMPLE_FIRST or n % SAMPLE_EVERY == 0

    def _wrap(self, name: str, fn):
        tracer = self

        def span(*args, **kwargs):
            frame = tracer.enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.exit(frame)

        span.__wrapped__ = fn
        span.__name__ = fn.__name__
        return span

    # -- rebinding ---------------------------------------------------------

    def install(self) -> None:
        """Rebind every traced function."""
        if self._saved:
            raise RuntimeError("tracer is already installed")
        wrappers = {}
        for home, names in SPANS.items():
            mod = importlib.import_module(f"fairmmd.{home}")
            for attr in names:
                fn = getattr(mod, attr)
                wrappers[id(fn)] = (attr, fn, self._wrap(f"{home}.{attr}", fn))
        for modname in REBOUND_IN:
            mod = importlib.import_module(f"fairmmd.{modname}")
            for attr, fn, wrapper in wrappers.values():
                if getattr(mod, attr, None) is fn:
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        """Put every original function back."""
        while self._saved:
            mod, attr, fn = self._saved.pop()
            setattr(mod, attr, fn)

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict:
        """Per-span calls, self seconds and peak MB, zero for unused spans."""
        out = {}
        names = list(CLI_SPANS) + [f"{h}.{a}" for h, attrs in SPANS.items() for a in attrs]
        for name in names:
            out[f"{name}.calls"] = self.calls[name]
            out[f"{name}.self_s"] = self.self_s[name]
            if name in PEAK_SPANS:
                out[f"{name}.peak_mb"] = self.peak_bytes[name] / 1e6
        for root, name in PER_COMMAND:
            out[f"{root}.{name}.calls"] = self.per_command[(root, name)]
        return out
