"""Benchmark entry point.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs passes of one workload, each in a fresh interpreter (``worker.py``),
one at a time, while another pass still fits in S seconds, and checks every
pass's outputs against ``pins.json``.  Times are paced: measured at a
fixed host speed (``pace.py``).  Prints a summary with every metric,
its unit and sample count, then, as the last line, one JSON object with
the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones; with ``--trace 1``
they are the per-layer ones of traced passes, each paired with an
untraced pass; the pairs measure the tracing overhead.  Every sample, and
the spans of traced passes, go to ``bench/results/``.  Needs the package
source in ``src/`` next to ``bench/``; without it the run fails before
measuring anything.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
RESULTS = os.path.join(HERE, "results")

import workloads  # noqa: E402  (this directory is on sys.path: it holds the script)

FINAL_SETUP_PROBES = 4  # so setup_s is a median of several even when few passes fit
STOP_AFTER_S = 140  # no new pass starts after this, so a run ends well inside 180 s

END_TO_END = {
    "run_s": "s",  # paced
    "setup_s": "s",  # paced
    "peak_rss_mb": "MB",
}
# Printed, not in the result line.  The wall times, before pacing, spread
# by 10-30% from run to run on a shared host.  host_speed is the pacer's
# factor: nominal over measured kernel time.  With three calls a pass on
# the engine workloads, the call percentiles pick out one short call;
# they are meaningful on cli-sweep.
PRINTED_TIMES = {
    "run_wall_s": "s",
    "setup_wall_s": "s",
    "host_speed": "1",
    "call_p50_ms": "ms",
    "call_p90_ms": "ms",
}
PER_LAYER = {
    "constructions.build_s": "s",
    "patterns.json_s": "s",
    "engine.free_tables_s": "s",
    "engine.low_phase_s": "s",
    "engine.high_phase_s": "s",
    "engine.branching_s": "s",
    "engine.oracle_s": "s",
    "engine.fallback_waste_s": "s",
    "engine.combinations": "count",
    "engine.peak_states": "count",
    "engine.fallbacks": "count",
    "engine.count_bits": "bits",
    "analysis.count_trace_self_s": "s",
    "analysis.predict_s": "s",
    "analysis.off_self_s": "s",
    "analysis.render_s": "s",
    "plunnecke.ruzsa_s": "s",
    "plunnecke.cover_s": "s",
    "plunnecke.prop31_s": "s",
    "plunnecke.cases": "count",
    "plunnecke.failures": "count",
    "cli.self_s": "s",
    "cli.out_bytes": "bytes",
    "cli.nonzero_exits": "count",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
    "trace.wrapper_cost_s": "s",
}


class WorkerError(RuntimeError):
    pass


def spawn(args, workdir, *flags, deadline):
    """Run one worker to completion and return its JSON result."""
    env = dict(os.environ, PYTHONHASHSEED="0")
    cmd = [sys.executable, WORKER, args.workload, str(args.seed), workdir, *flags]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, env=env,
                              timeout=max(deadline - time.monotonic(), 1))
    except subprocess.TimeoutExpired as exc:
        raise WorkerError(f"worker timed out after {exc.timeout:.0f} s") from exc
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        tail = (proc.stderr.strip().splitlines() or ["no output"])[-1]
        raise WorkerError(f"worker exited {proc.returncode}: {tail}")
    return json.loads(lines[-1])


def percentile(values, p):
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(p / 100 * len(ordered)), 1) - 1]


def middle(values):
    """Median; the lower middle value for counts, so a count stays whole."""
    if all(isinstance(v, int) for v in values):
        return statistics.median_low(values)
    return statistics.median(values)


def tail(values):
    """(p, value) of the highest percentile with at least ten samples above it."""
    n = len(values)
    if n < 11:
        return None
    rank = n - 10
    return 100 * rank // n, sorted(values)[rank - 1]


def overhead_resolution(diffs):
    """Whether paired differences resolve the tracing overhead, as a note."""
    if len(diffs) < 3:
        return f"unresolved: {len(diffs)} pair(s) give no spread"
    spread = max(diffs) - min(diffs)
    if spread > abs(statistics.median(diffs)):
        return f"unresolved: the pairs range over {spread:.3g} s"
    return f"pairs range over {spread:.3g} s"


def measure(args, workdir):
    """Passes while the next one fits in ``args.seconds``, with set-up probes between.

    The set-up probes are spread over the run, before each pass and after
    the last, so that setup_s samples the same stretch of time as run_s.
    """
    started = time.monotonic()
    deadline = started + 175
    setups = []

    def setup_probe():
        setups.append(spawn(args, workdir, "--setup-only", deadline=deadline))

    # warm-up: compiles bytecode and fills the file cache; not counted
    spawn(args, workdir, "--setup-only", deadline=deadline)
    reference = []
    passes = []
    crashes = []
    t0 = time.monotonic()
    while True:
        setup_probe()
        before = time.monotonic()
        try:
            if args.trace:  # a pair: a traced and an untraced pass, each first in turn
                if len(passes) % 2:
                    traced = spawn(args, workdir, "--trace", deadline=deadline)
                    untraced = spawn(args, workdir, deadline=deadline)
                else:
                    untraced = spawn(args, workdir, deadline=deadline)
                    traced = spawn(args, workdir, "--trace", deadline=deadline)
                reference.append(untraced)
                passes.append(traced)
            else:
                passes.append(spawn(args, workdir, deadline=deadline))
        except WorkerError as exc:
            crashes.append(str(exc))
            if not passes:
                break
        now = time.monotonic()
        # at least one pass; then another only if one more like the last still fits
        if now - t0 + (now - before) > args.seconds or now - started > STOP_AFTER_S:
            break
    for _ in range(FINAL_SETUP_PROBES):
        if time.monotonic() - started > STOP_AFTER_S:
            break
        setup_probe()
    return setups, reference, passes, crashes


def summarize(args, setups, reference, passes, crashes):
    """Result-line metrics, printed-only figures, summary lines, result-line counts."""
    checked = passes + reference  # in a traced run the untraced passes are checked too
    attempted = sum(p["attempted"] for p in checked) + len(crashes)
    failures = [f for p in checked for f in p["failures"]] + [("pass", c) for c in crashes]
    failed = len(failures)  # failed operations; a crashed pass counts as one
    if len({p["stats"]["count_digest"] for p in checked}) > 1:
        failures.append(("run", "counts differ between passes of one run"))
    stats = passes[0]["stats"]
    run_s = [p["run_s"] for p in passes]
    calls_ms = [s * 1000 for p in passes for _, s in p["calls"]]
    lines = [
        f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace} "
        f"python={platform.python_version()} nproc={len(os.sched_getaffinity(0))}",
    ]

    def show(name, value, unit, note=""):
        shown = "n/a" if value is None else f"{value:.6g}"
        lines.append(f"  {name:<28} {shown:>12} {unit:<6} {note}")

    run_tail = tail(run_s)
    call_tail = tail(calls_ms)
    metrics = {}
    if args.trace:
        layers = {name: middle([p["layers"][name] for p in passes])
                  for name in passes[0]["layers"]}
        layers["cli.out_bytes"] = stats["out_bytes"]
        layers["cli.nonzero_exits"] = stats["nonzero_exits"]
        layers["plunnecke.cases"] = stats["suite_cases"]
        layers["plunnecke.failures"] = stats["suite_failures"]
        layers["trace.run_s"] = statistics.median(run_s)
        diffs = [t["run_s"] - u["run_s"] for u, t in zip(reference, passes)]
        layers["trace.overhead_s"] = statistics.median(diffs)
        layers["trace.wrapper_cost_s"] = statistics.median(p["wrapper_cost_s"] for p in passes)
        untraced = statistics.median(p["run_s"] for p in reference)
        notes = {
            "trace.run_s": f"paced, median of {len(passes)} traced passes; the untraced "
                           f"passes paired with them: median {untraced:.6g} s",
            "trace.overhead_s": f"median of {len(diffs)} paired differences, traced minus "
                                "untraced; " + overhead_resolution(diffs),
            "trace.wrapper_cost_s": f"{middle([p['pass_spans'] for p in passes])} pass spans "
                                    "times the timed cost of one wrapper",
        }
        for name, unit in PER_LAYER.items():
            metrics[name] = {"value": layers[name], "unit": unit}
            show(name, layers[name], unit, notes.get(name, ""))
        lines.append(f"  per-layer values: median over {len(passes)} traced passes")
    else:
        set_ups = setups + passes  # every pass's interpreter set up too
        values = {
            "run_s": statistics.median(run_s),
            "run_wall_s": statistics.median(p["run_wall_s"] for p in passes),
            "setup_s": statistics.median(p["setup_s"] for p in set_ups),
            "setup_wall_s": statistics.median(p["setup_wall_s"] for p in set_ups),
            "host_speed": statistics.median(p["host_speed"] for p in passes),
            "call_p50_ms": percentile(calls_ms, 50),
            "call_p90_ms": percentile(calls_ms, 90),
            "peak_rss_mb": statistics.median(p["rss_mb"] for p in passes),
        }
        notes = {
            "run_s": f"paced, median of {len(run_s)} passes; "
                     + (f"p{run_tail[0]} {run_tail[1]:.6g} s" if run_tail
                        else "no tail percentile (< 11 passes)"),
            "setup_s": f"paced, median of {len(set_ups)} set-ups",
            "peak_rss_mb": f"median of {len(passes)} passes",
            "run_wall_s": f"median of {len(passes)} passes, less the pacer's interrupts",
            "setup_wall_s": f"median of {len(set_ups)} set-ups, less the pacer's interrupts",
            "host_speed": f"median of {len(passes)} passes; "
                          f"{middle([p['pace_samples'] for p in passes])} kernel samples a pass",
            "call_p50_ms": f"paced, {len(calls_ms)} calls; "
                           + (f"p{call_tail[0]} {call_tail[1]:.6g} ms" if call_tail
                              else "no tail percentile (< 11 calls)"),
            "call_p90_ms": f"{len(calls_ms)} calls",
        }
        for name, unit in {**END_TO_END, **PRINTED_TIMES}.items():
            if name in END_TO_END:
                metrics[name] = {"value": values[name], "unit": unit}
            show(name, values[name], unit, notes[name])
    printed = {name: values[name] for name in PRINTED_TIMES} if not args.trace else {}
    printed["exact_share"] = (stats["exact_results"] / stats["results"]
                              if stats["results"] else None)
    printed["bracket_exp_width"] = stats["bracket_exp_width"]
    printed["fail_share"] = failed / attempted
    show("exact_share", printed["exact_share"], "1",
         f"{stats['exact_results']} of {stats['results']} results per pass")
    show("bracket_exp_width", printed["bracket_exp_width"], "1", "mean over results")
    show("fail_share", printed["fail_share"], "1", f"{failed} of {attempted} operations")
    for call_id, msg in failures[:10]:
        lines.append(f"  FAILED {call_id}: {msg}")
    result = {"correct": not failures, "attempted": attempted, "failed": failed}
    return metrics, printed, lines, result


def main(argv=None):
    parser = argparse.ArgumentParser(description="sumdim benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "sumdim", "__init__.py")):
        print(f"error: no package source at {os.path.join(ROOT, 'src', 'sumdim')}",
              file=sys.stderr)
        return 2
    os.makedirs(RESULTS, exist_ok=True)
    try:
        with tempfile.TemporaryDirectory(prefix=".work-", dir=HERE) as workdir:
            setups, reference, passes, crashes = measure(args, workdir)
    except WorkerError as exc:
        print(f"error: set-up failed: {exc}", file=sys.stderr)
        return 3
    if not passes:
        print(f"error: no pass completed: {crashes[-1]}", file=sys.stderr)
        return 3
    metrics, printed, lines, result = summarize(args, setups, reference, passes, crashes)
    record = {
        "args": vars(args),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "metrics": metrics,
        "printed": printed,
        "setups": setups,
        "reference": reference,
        "passes": passes,
        "crashes": crashes,
    }
    path = os.path.join(RESULTS, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)
    print("\n".join(lines))
    print(json.dumps({**result, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
