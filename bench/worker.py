"""One workload pass in a fresh interpreter; prints one JSON line.

    python3 bench/worker.py WORKLOAD SEED WORKDIR [--setup-only] [--trace]

``run.py`` starts one of these per pass, one at a time, so the package's
``lru_cache``s and ``ru_maxrss`` belong to a single pass.  Set-up (import
of ``sumdim`` plus building or writing the inputs) is timed apart from
the pass.  Both run under a ``pace.Pacer``, which gives their times at a
fixed host speed.  With ``--trace`` the layer boundaries are wrapped in
spans (``spans.py``); after the pass come the low-phase and fallback
probes and a timing of the wrapper's own cost per span.  A traced
process is paced as a whole, and its per-layer times are paced too.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import sys
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import pace  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def run_pass(calls, tracer, clock):
    """Run the calls in order, closed loop; returns (s, latencies, outcomes).

    Times come from ``clock``, a pacer's, so they leave out its interrupts.
    Each outcome is (result, None), or (None, traceback text) if the call
    raised.
    """
    latencies = []
    outcomes = []
    with contextlib.redirect_stdout(io.StringIO()):
        start = clock()
        for call in calls:
            t = clock()
            try:
                fn = call.function()
                if tracer:
                    result = tracer.call(call.span, fn, *call.args, **call.kwargs)
                else:
                    result = fn(*call.args, **call.kwargs)
                outcome = (result, None)
            except (Exception, SystemExit):  # a failed operation; the pass goes on
                outcome = (None, traceback.format_exc(limit=3))
            latencies.append(clock() - t)
            outcomes.append(outcome)
        wall = clock() - start
    return wall, latencies, outcomes


def check_pass(calls, outcomes, pins):
    """Observations of every call and the failures among them."""
    observations = []
    failures = []
    for call, (result, error) in zip(calls, outcomes):
        if error is not None:
            failures.append((call.id, "raised: " + error.strip().splitlines()[-1]))
            continue
        try:
            obs = workloads.observe(call, result)
        except (OSError, ValueError, KeyError, IndexError) as exc:
            failures.append((call.id, f"unreadable output: {exc!r}"))
            continue
        observations.append((call.id, obs))
        msgs = check.check_call(call.id, obs, pins)
        if msgs:
            failures.append((call.id, "; ".join(msgs[:3])))
    return observations, failures


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=workloads.NAMES)
    parser.add_argument("seed", type=int)
    parser.add_argument("workdir")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    # A traced process is paced as a whole, so that the spans leave out every
    # interrupt, and its times are scaled by the samples taken during the
    # pass, as an untraced pass's are; an untraced process paces its set-up
    # and its pass apart.
    whole = pace.Pacer(pace.PASS_PERIOD_S if args.trace else None)
    tracer = spans.Tracer(whole.clock) if args.trace else None
    with whole:
        setup_pacer = pace.Pacer(None if tracer else pace.SETUP_PERIOD_S)
        clock = (whole if tracer else setup_pacer).clock
        with setup_pacer:
            t0 = clock()
            if tracer:
                tracer.install()
            calls = workloads.SETUP[args.workload](args.seed, args.workdir)
            setup_wall_s = clock() - t0
        out = {"setup_s": setup_wall_s * (whole if tracer else setup_pacer).factor(),
               "setup_wall_s": setup_wall_s}
        if args.setup_only:
            print(json.dumps(out))
            return 0

        if tracer:
            tracer.phase = "pass"
        pass_pacer = pace.Pacer(None if tracer else pace.PASS_PERIOD_S)
        first = len(whole.samples)
        with pass_pacer:
            run_s, latencies, outcomes = run_pass(
                calls, tracer, (whole if tracer else pass_pacer).clock)
        last = len(whole.samples)
        out["rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if tracer:
            low_probe, waste = spans.run_probes(tracer, sys.modules["sumdim.engine"])
            tracer.uninstall()
            one_wrapper_s = spans.wrapper_cost(whole.clock)

    factor = whole.factor(first, last) if tracer else pass_pacer.factor()
    out["run_s"] = run_s * factor
    out["run_wall_s"] = run_s
    out["host_speed"] = factor
    out["pace_samples"] = (last - first) if tracer else len(pass_pacer.samples)
    out["calls"] = [[c.id, s * factor] for c, s in zip(calls, latencies)]
    if tracer:
        layers = spans.layer_metrics(tracer, low_probe, waste)
        out["layers"] = {k: v * factor if k.endswith("_s") else v for k, v in layers.items()}
        out["pass_spans"] = sum(1 for s in tracer.spans if s.phase == "pass")
        out["wrapper_cost_s"] = out["pass_spans"] * one_wrapper_s * factor
        out["spans"] = [[s.id, s.parent, s.name, s.phase, s.start - t0, s.end - t0]
                        for s in tracer.spans]

    observations, failures = check_pass(calls, outcomes, check.load_pins())
    out["attempted"] = len(calls)
    out["failures"] = failures
    out["stats"] = check.pass_stats(observations)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
