"""Span tracing at the package's layer boundaries, from outside the package.

``Tracer.install`` replaces the names one layer imports from another
(``sumdim.cli.count_trace``, ``sumdim.analysis.sum_prefix_counts``, ...)
with timing wrappers, so the spans nest the way the calls do.  Spans stay
in memory; the worker writes them out with its result.  Times come from
the tracer's clock: the worker passes one that leaves out the pacer's
interrupts.
"""

from __future__ import annotations

import importlib
import inspect
import math
import time

# (module, attribute, span name).  A span's layer is the part of its name
# before the first dot.  Names missing from the package are skipped, so a
# later refactor that removes one only loses that span.
WRAPPED = (
    ("sumdim", "build_canonical", "constructions.build_canonical"),
    ("sumdim", "build_example", "constructions.build_example"),
    ("sumdim", "make_scale_sequence", "constructions.make_scale_sequence"),
    ("sumdim", "interleave", "constructions.interleave"),
    ("sumdim.cli", "build_canonical", "constructions.build_canonical"),
    ("sumdim.cli", "build_example", "constructions.build_example"),
    ("sumdim.cli", "make_scale_sequence", "constructions.make_scale_sequence"),
    ("sumdim.cli", "validate_targets", "constructions.validate_targets"),
    ("sumdim.cli", "to_json_dict", "patterns.to_json_dict"),
    ("sumdim.cli", "from_json_dict", "patterns.from_json_dict"),
    ("sumdim.cli", "count_trace", "analysis.count_trace"),
    ("sumdim.cli", "off_trace", "analysis.off_trace"),
    ("sumdim.cli", "render_count_trace_csv", "analysis.render_count_trace_csv"),
    ("sumdim.cli", "render_off_trace_csv", "analysis.render_off_trace_csv"),
    ("sumdim.cli", "sum_prefix_counts", "engine.sum_prefix_counts"),
    ("sumdim.cli", "brute_force_oracle", "engine.brute_force_oracle"),
    ("sumdim.cli", "ruzsa_suite", "plunnecke.ruzsa_suite"),
    ("sumdim.cli", "cover_suite", "plunnecke.cover_suite"),
    ("sumdim.cli", "prop31_suite", "plunnecke.prop31_suite"),
    ("sumdim.analysis", "sum_prefix_counts", "engine.sum_prefix_counts"),
    ("sumdim.analysis", "branching_min_average", "engine.branching_min_average"),
    ("sumdim.analysis", "predicted_exponent", "analysis.predicted_exponent"),
    # module-global lookup: engine's own callers go through this binding too
    ("sumdim.engine", "free_position_sets", "engine.free_position_sets"),
)

SPC = "engine.sum_prefix_counts"

# per-layer metric -> span names whose self time it sums
SELF_TIME_METRICS = {
    "constructions.build_s": (
        "constructions.build_canonical",
        "constructions.build_example",
        "constructions.make_scale_sequence",
        "constructions.interleave",
        "constructions.validate_targets",
    ),
    "patterns.json_s": ("patterns.to_json_dict", "patterns.from_json_dict"),
    "engine.free_tables_s": ("engine.free_position_sets",),
    "engine.branching_s": ("engine.branching_min_average",),
    "engine.oracle_s": ("engine.brute_force_oracle",),
    "analysis.count_trace_self_s": ("analysis.count_trace",),
    "analysis.predict_s": ("analysis.predicted_exponent",),
    "analysis.off_self_s": ("analysis.off_trace",),
    "analysis.render_s": (
        "analysis.render_count_trace_csv",
        "analysis.render_off_trace_csv",
    ),
    "plunnecke.ruzsa_s": ("plunnecke.ruzsa_suite",),
    "plunnecke.cover_s": ("plunnecke.cover_suite",),
    "plunnecke.prop31_s": ("plunnecke.prop31_suite",),
    "cli.self_s": ("cli.main",),
}


class Span:
    __slots__ = ("id", "parent", "name", "phase", "start", "end", "call", "result")

    def __init__(self, sid, parent, name, phase, start):
        self.id = sid
        self.parent = parent
        self.name = name
        self.phase = phase
        self.start = start
        self.end = None
        self.call = None  # bound arguments, kept for sum_prefix_counts only
        self.result = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    """In-memory span recorder; one per traced worker process."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans = []
        self.phase = "setup"
        self._stack = []
        self._saved = []
        self._spc_signature = None

    def open(self, name):
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), parent, name, self.phase, self.clock())
        self.spans.append(span)
        self._stack.append(span)
        return span

    def close(self, span):
        span.end = self.clock()
        self._stack.pop()

    def call(self, name, fn, *args, **kwargs):
        span = self.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.close(span)
        if name == SPC:
            span.call = self._spc_signature.bind(*args, **kwargs)
            span.call.apply_defaults()
            span.result = result
        return result

    def _wrapper(self, name, fn):
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        traced.__wrapped__ = fn
        return traced

    def install(self):
        engine = importlib.import_module("sumdim.engine")
        self._spc_signature = inspect.signature(engine.sum_prefix_counts)
        for module_name, attr, name in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            self._saved.append((module, attr, fn))
            setattr(module, attr, self._wrapper(name, fn))

    def uninstall(self):
        for module, attr, fn in reversed(self._saved):
            setattr(module, attr, fn)
        self._saved.clear()

    # -- analysis -----------------------------------------------------------

    def self_times(self):
        """Span id -> duration minus the time its children cover.

        The process is single-threaded, so sibling spans never overlap and
        the children's cover is the sum of their durations.
        """
        own = {s.id: s.duration for s in self.spans}
        for s in self.spans:
            if s.parent is not None:
                own[s.parent] -= s.duration
        return own

    def probe(self, fn, *args, **kwargs):
        """Run ``fn`` as a ``sum_prefix_counts`` root span and return the span."""
        before = len(self.spans)
        self.call(SPC, fn, *args, **kwargs)
        return self.spans[before]

    def engine_calls(self):
        """The pass's ``sum_prefix_counts`` spans, top-level or nested."""
        return [s for s in self.spans if s.name == SPC and s.phase == "pass"]


def layer_metrics(tracer, low_probe, waste_s):
    """Per-layer metrics of one traced pass (set-up spans included).

    ``low_probe`` maps the id of each pass ``sum_prefix_counts`` span to
    the self time of its scale-0 probe: the full-depth low phase.
    """
    own = tracer.self_times()
    counted = [s for s in tracer.spans if s.phase in ("setup", "pass")]
    out = {}
    for metric, names in SELF_TIME_METRICS.items():
        out[metric] = sum(own[s.id] for s in counted if s.name in names)
    calls = tracer.engine_calls()
    low = sum(low_probe[s.id] for s in calls)
    out["engine.low_phase_s"] = low
    out["engine.high_phase_s"] = sum(own[s.id] for s in calls) - low
    out["engine.fallback_waste_s"] = waste_s
    results = [r for s in calls for r in s.result.values()]
    out["engine.combinations"] = sum(
        math.comb(len(s.call.arguments["spec"].components) + s.call.arguments["fold"] - 1,
                  s.call.arguments["fold"])
        for s in calls
    )
    out["engine.peak_states"] = max((r.peak_states for r in results), default=0)
    out["engine.fallbacks"] = sum(1 for r in results if r.fell_back)
    out["engine.count_bits"] = max((r.bracket.lower.bit_length() for r in results), default=0)
    return out


def wrapper_cost(clock=time.perf_counter, calls=20000, repeats=5):
    """Seconds one span wrapper adds to a call: the least of ``repeats`` timings.

    Times a wrapped no-op against the bare no-op.  ``sum_prefix_counts``
    spans also bind their arguments, which this leaves out; a pass makes
    at most a few dozen of those.
    """
    def noop():
        return None

    best = math.inf
    for _ in range(repeats):
        traced = Tracer()._wrapper("calibration", noop)
        t0 = clock()
        for _ in range(calls):
            noop()
        t1 = clock()
        for _ in range(calls):
            traced()
        t2 = clock()
        best = min(best, ((t2 - t1) - (t1 - t0)) / calls)
    return best


def run_probes(tracer, engine):
    """Low-phase and fallback-waste probes for the pass's engine calls.

    The low phase has no entry point of its own: ``sum_prefix_counts`` at
    scale 0 absorbs every digit, so its self time is the full-depth low
    phase plus O(combinations) work.  One probe per (spec, fold).  An
    exact call that fell back is re-run in bracket mode; the difference is
    the time the failed subset construction cost.
    """
    tracer.phase = "probe"
    probe_of = {}
    low_probe = {}
    waste = 0.0
    for s in tracer.engine_calls():
        args = s.call.arguments
        key = (args["spec"], args["fold"])
        if key not in probe_of:
            probe_of[key] = tracer.probe(engine.sum_prefix_counts, args["spec"], args["fold"],
                                         [0], mode="bracket")
        low_probe[s.id] = probe_of[key]
        if args["mode"] == "exact" and any(r.fell_back for r in s.result.values()):
            rerun = tracer.probe(engine.sum_prefix_counts, args["spec"], args["fold"],
                                 args["scales"], mode="bracket")
            waste += s.duration - rerun.duration
    own = tracer.self_times()
    return {sid: own[span.id] for sid, span in low_probe.items()}, waste
