"""Tests of the benchmark harness itself: python3 -m pytest bench/test_harness.py

The seed-independence test runs the two engine workloads twice each
(about 40 s); the rest take well under a second.
"""

import contextlib
import io
import json
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import check  # noqa: E402
import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

PINS = check.load_pins()


def test_checker_rejects_an_off_by_one_exact_count():
    key = "exact:2:102"
    lo, up = PINS["counts"][key]
    assert lo == up
    assert check.check_count(key, lo, up, "exact", PINS) == []
    assert check.check_count(key, lo + 1, up + 1, "exact", PINS)
    assert check.check_count(key, lo - 1, up - 1, "exact", PINS)


def test_checker_rejects_a_bracket_that_misses_the_pinned_value():
    key = "exact:3:102"  # pinned bracket is the budget fallback; the exact count is pinned apart
    exact = PINS["exact"][key]
    fallback = "bracket-fallback"
    assert check.check_count(key, exact + 1, exact + 1000, fallback, PINS)
    assert check.check_count(key, exact - 1000, exact - 1, fallback, PINS)
    deep = "deep:3:7271"  # no exact value: the bracket must overlap the pinned one
    lo, up = PINS["counts"][deep]
    assert check.check_count(deep, up + 1, up + 2, "bracket", PINS)
    assert check.check_count(deep, lo - 2, lo - 1, "bracket", PINS)


def test_checker_accepts_a_tighter_bracket_that_still_contains_the_pinned_value():
    key = "exact:3:102"
    lo, up = PINS["counts"][key]
    exact = PINS["exact"][key]
    assert lo < exact < up
    assert check.check_count(key, lo + 1, up - 1, "bracket-fallback", PINS) == []
    assert check.check_count(key, exact, exact, "exact", PINS) == []  # pruning may make it exact
    deep = "deep:3:7271"
    lo, up = PINS["counts"][deep]
    assert check.check_count(deep, lo + 1, up - 1, "bracket", PINS) == []


def test_checker_rejects_an_exact_result_that_falls_back():
    key = "exact:2:56"
    count, _ = PINS["counts"][key]
    assert PINS["modes"][key] == "exact"
    # a bracket that contains the pinned count is still a regression here
    for mode in ("bracket", "bracket-fallback"):
        assert check.check_count(key, count - 1, count + 1, mode, PINS)
        assert check.check_count(key, count, count, mode, PINS)
    # an "exact" result must be a single value
    assert check.check_count(key, count - 1, count + 1, "exact", PINS)
    obs = {"counts": {k: (*PINS["counts"][k], "exact")
                      for k in PINS["calls"]["exact:fold2"]["counts"]}}
    assert check.check_call("exact:fold2", obs, PINS) == []
    obs["counts"][key] = (count - 1, count + 1, "bracket-fallback")
    assert check.check_call("exact:fold2", obs, PINS)


def test_checker_fails_cli_calls_on_exit_code_and_oracle_verdict():
    assert check.check_call("cli:small:oracle:1", {"rc": 5}, PINS)
    want = PINS["calls"]["cli:small:oracle:1"]["oracle"]
    bad = dict(want, verdict="verdict: MISMATCH")
    assert check.check_call("cli:small:oracle:1", {"rc": 0, "oracle": bad}, PINS)
    assert check.check_call("cli:small:oracle:1", {"rc": 0, "oracle": want}, PINS) == []


def _observe_pass(name, seed, workdir):
    calls = workloads.SETUP[name](seed, workdir)
    observations = []
    with contextlib.redirect_stdout(io.StringIO()):
        for call in calls:
            obs = workloads.observe(call, call.function()(*call.args, **call.kwargs))
            assert check.check_call(call.id, obs, PINS) == [], call.id
            observations.append((call.id, obs))
    return calls[0].args[0], check.pass_stats(observations)


def test_two_seeds_give_identical_count_checks(tmp_path):
    for name in ("deep-bracket", "exact-subset"):
        spec_a, stats_a = _observe_pass(name, 1, str(tmp_path))
        spec_b, stats_b = _observe_pass(name, 2, str(tmp_path))
        assert spec_a.components != spec_b.components  # the seed did reorder them
        assert sorted(c.free_mask for c in spec_a.components) == sorted(
            c.free_mask for c in spec_b.components)
        assert stats_a == stats_b


def test_self_time_subtracts_children():
    tracer = spans.Tracer()

    def leaf():
        time.sleep(0.01)

    def parent():
        tracer.call("engine.free_position_sets", leaf)
        time.sleep(0.01)

    tracer.call("cli.main", parent)
    own = tracer.self_times()
    root, child = tracer.spans
    assert child.parent == root.id
    assert abs(own[root.id] + own[child.id] - root.duration) < 1e-9
    assert own[root.id] < root.duration


def test_pacer_leaves_its_kernel_out_of_the_clock():
    with pace.Pacer(None) as idle:
        pass
    assert idle.samples == [] and idle.factor() == 1.0 and idle.stolen == 0.0
    with pace.Pacer(0.002) as pacer:
        wall, clock = time.perf_counter(), pacer.clock()
        while time.perf_counter() - wall < 0.05:
            pass
        wall, clock, stolen = time.perf_counter() - wall, pacer.clock() - clock, pacer.stolen
    ticks = pacer.samples[1:-1]  # the first and last are taken on entry and exit
    assert len(ticks) >= 5
    assert stolen > sum(ticks)  # each interrupt runs the kernel twice, times once
    assert abs(wall - clock - stolen) < 1e-4  # the two clocks are read one after the other
    mean = sum(pacer.samples) / len(pacer.samples)
    assert abs(pacer.factor() * mean - pace.NOMINAL_S) < 1e-12
    # a signal that arrives during a tick does not sample inside that tick
    pacer._ticking = True
    pacer._tick(None, None)
    assert len(pacer.samples) == len(ticks) + 2 and pacer.stolen == stolen


def test_printed_metrics_match_benchmark_json():
    with open(os.path.join(os.path.dirname(HERE), "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
    assert [w["name"] for w in bench["workloads"]] == list(workloads.NAMES)
