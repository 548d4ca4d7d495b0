"""Command-line interface: exit codes, output formats, determinism."""

import dataclasses
import json
import os
import random
import re
import stat
import time

import pytest

from sumdim import cli
from sumdim.cli import RunConfig, main, write_text_atomic
from sumdim.constructions import CANONICAL_EXAMPLES, SCALE_POLICIES
from sumdim.engine import MAX_FOLD, MODES, CellCountBracket, sum_prefix_counts
from sumdim.errors import ConfigError
from sumdim.patterns import DigitPattern, SetSpec

SMALL = {
    "construction": "haus-lowbox",
    "alpha": ["1/4", "1/2"],
    "beta": ["1/2", "1"],
    "scale_policy": "scaled",
    "scale_base": 4,
    "horizon": 3,
}


@pytest.fixture
def cfg(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(SMALL))
    return str(path)


def run(argv):
    return main(argv)


def test_run_config_round_trip_and_digest():
    c = RunConfig.from_dict(SMALL)
    assert c.digest() == RunConfig.from_dict(c.canonical_dict()).digest()
    assert c.digest() != RunConfig.from_dict({**SMALL, "horizon": 4}).digest()
    assert len(c.digest()) == 12


def test_unknown_config_key_is_exit_2(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SMALL, "horizont": 3}))
    assert run(["construct", "--config", str(path)]) == 2
    assert "unknown config keys" in capsys.readouterr().err


@pytest.mark.parametrize(
    "bad", [{"alpha": 0.5}, {"horizon": "x"}, {"scales": ["a"]}, {"folds": [1.5]}]
)
def test_mistyped_config_value_is_exit_2(tmp_path, capsys, bad):
    with pytest.raises(ConfigError):
        RunConfig.from_dict({**SMALL, **bad})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SMALL, **bad}))
    assert run(["count", "--config", str(path)]) == 2
    assert "configuration error" in capsys.readouterr().err


# depth is neither a config key nor a flag any more: the scale sequence alone sets it
SKELETON_ERRORS = {
    "scale_policy, horizon": "fixes its own scale_policy, horizon;",
    "scale_base, depth": "unknown config keys: depth",
    "depth": "unrecognized arguments: --depth 5",
}


@pytest.mark.parametrize(
    "config, flags, named",
    [
        ({"horizon": 3, "scale_policy": "tower"}, [], "scale_policy, horizon"),
        ({"scale_base": 8, "depth": 40}, [], "scale_base, depth"),
        ({}, ["--depth", "5"], "depth"),
    ],
)
def test_canonical_config_rejects_skeleton_keys(tmp_path, capsys, config, flags, named):
    # a canonical build fixes its own scale sequence and depth
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"construction": "haus-lowbox", **config}))
    try:
        code = run(["construct", "--config", str(path), *flags])
    except SystemExit as exc:  # argparse exits on an unknown flag
        code = exc.code
    assert code == 2
    assert SKELETON_ERRORS[named] in capsys.readouterr().err


@pytest.mark.parametrize(
    "skeleton",
    [{"horizon": 100000}, {"horizon": 10**9}, {"scale_policy": "tower", "horizon": 4}],
)
def test_too_deep_skeleton_is_exit_2_at_once(tmp_path, capsys, skeleton):
    path = tmp_path / "deep.json"
    path.write_text(json.dumps({**SMALL, **skeleton}))
    start = time.perf_counter()
    assert run(["construct", "--config", str(path)]) == 2
    assert time.perf_counter() - start < 1
    assert "skeleton passes 1048576 positions" in capsys.readouterr().err


def test_construct_writes_spec_json(cfg, tmp_path, capsys):
    out = tmp_path / "spec.json"
    assert run(["construct", "--config", cfg, "--out", str(out)]) == 0
    assert capsys.readouterr().out.strip().endswith("components=6 depth=17")
    doc = json.loads(out.read_text())
    assert doc["tool"]["name"] == "sumdim"
    assert len(doc["tool"]["config_digest"]) == 12
    assert doc["spec"]["depth"] == 17
    assert len(doc["spec"]["components"]) == 6


def test_construct_is_byte_deterministic(cfg, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["construct", "--config", cfg, "--out", str(a)]) == 0
    assert run(["construct", "--config", cfg, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_count_csv_header_and_determinism(cfg, tmp_path):
    spec = tmp_path / "spec.json"
    run(["construct", "--config", cfg, "--out", str(spec)])
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["count", "--config", cfg, "--set", str(spec), "--fold", "2", "--out"]
    assert run(argv + [str(a)]) == 0
    assert run(argv + [str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0].startswith("# sumdim ")
    assert "config=" in lines[0]
    assert lines[1] == "j,fold,lower,upper,exp_lower,exp_upper,predicted,mode"
    assert all(line.split(",")[1] == "2" for line in lines[2:])


def test_count_builds_spec_from_config_when_no_set(cfg, tmp_path):
    out = tmp_path / "c.csv"
    assert run(["count", "--config", cfg, "--out", str(out)]) == 0
    assert out.read_text().count("\n") >= 3


def test_dims_reports_each_fold(cfg, tmp_path):
    out = tmp_path / "dims.json"
    assert run(["dims", "--config", cfg, "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert doc["set"] == "haus-lowbox"
    assert [row["fold"] for row in doc["folds"]] == [1, 2]
    for row in doc["folds"]:
        assert row["exp_lower_min"] <= row["exp_upper_max"]
        assert row["deepest_scale"] == 17


def test_off_csv(cfg, tmp_path):
    out = tmp_path / "off.csv"
    assert run(["off", "--config", cfg, "--scales", "8,17", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[1] == "n,off,off_num,off_den"
    assert lines[2].startswith("8,")
    assert lines[3].startswith("17,")


def test_oracle_matches_engine(cfg, tmp_path, capsys):
    assert run(["oracle", "--config", cfg, "--fold", "2", "--scales", "5,11,17"]) == 0
    out = capsys.readouterr().out
    assert out.count("MATCH") == 4  # three scales plus the verdict line
    assert "MISMATCH" not in out
    assert out.strip().endswith("verdict: MATCH")


def test_oracle_budget_exhaustion_is_exit_4(tmp_path, capsys):
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({**SMALL, "budget_enum": 10}))
    assert run(["oracle", "--config", str(path), "--fold", "2"]) == 4
    assert "budget exceeded" in capsys.readouterr().err


def test_oracle_state_budget_fallback_is_exit_4(tmp_path, capsys):
    # brackets that contain the oracle count are fallbacks, not mismatches
    path = tmp_path / "tight.json"
    path.write_text(json.dumps({**SMALL, "budget_states": 2}))
    assert run(["oracle", "--config", str(path), "--fold", "2", "--scales", "all"]) == 4
    captured = capsys.readouterr()
    assert "MISMATCH" not in captured.out
    assert " FALLBACK\n" in captured.out and "verdict: FALLBACK" in captured.out
    assert "budget exceeded" in captured.err


@pytest.mark.parametrize(
    "bad, argv",
    [
        ({"budget_states": 0}, ["count", "--mode", "exact", "--fold", "2", "--scales", "5"]),
        ({"budget_states": -1}, ["oracle", "--fold", "2", "--scales", "5"]),
        ({"budget_enum": 0}, ["oracle", "--fold", "2", "--scales", "5"]),
        ({"budget_enum": -1}, ["oracle", "--fold", "2", "--scales", "5"]),
    ],
)
def test_nonpositive_budget_is_exit_2(tmp_path, capsys, bad, argv):
    # a budget below one state or one digit string leaves nothing to count
    with pytest.raises(ConfigError):
        RunConfig.from_dict({**SMALL, **bad})
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SMALL, **bad}))
    assert run(argv + ["--config", str(path)]) == 2
    assert "must be at least 1" in capsys.readouterr().err


def test_oracle_mismatch_is_exit_5(cfg, monkeypatch, capsys):
    real = cli.sum_prefix_counts

    def off_by_one(*args, **kwargs):
        out = real(*args, **kwargs)
        return {j: dataclasses.replace(r, bracket=CellCountBracket(
            r.bracket.lower + 1, r.bracket.upper + 1)) for j, r in out.items()}

    monkeypatch.setattr(cli, "sum_prefix_counts", off_by_one)
    assert run(["oracle", "--config", cfg, "--fold", "2", "--scales", "5,11"]) == 5
    assert "verdict: MISMATCH" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv, folds",
    [
        (["count", "--fold", "0"], None),
        (["dims", "--fold", "-1"], None),
        (["oracle", "--fold", str(MAX_FOLD + 1)], None),
        (["count"], [MAX_FOLD + 1]),
        (["dims"], [2, MAX_FOLD + 1]),
    ],
)
def test_fold_outside_its_range_is_exit_2(tmp_path, monkeypatch, capsys, argv, folds):
    def no_count(*args, **kwargs):
        raise AssertionError("a count started")

    for name in ("count_trace", "sum_prefix_counts", "build_from_config"):
        monkeypatch.setattr(cli, name, no_count)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, **({"folds": folds} if folds else {})}))
    assert run(argv + ["--config", str(path)]) == 2
    assert f"1..{MAX_FOLD}" in capsys.readouterr().err


MISSING = object()  # a path that names no file


def set_with(**fields):
    """A set file that is valid but for the given fields."""
    doc = {"components": ["a0a0", "0aaa"], "depth": 4, "boundaries": [1, 4]}
    return json.dumps({**doc, "schedule": [["x", "y"], ["y", "x"]], **fields})


NOTABLE_X = set_with(params={"notable_scales": "x"})


@pytest.mark.parametrize(
    "config, command, set_file",
    [
        pytest.param(MISSING, "construct", None, id="unreadable-config"),
        pytest.param("{", "construct", None, id="invalid-json-config"),
        pytest.param("[]", "construct", None, id="array-config"),
        pytest.param({**SMALL, "construction": 5}, "construct", None, id="construction-5"),
        pytest.param({**SMALL, "mode": "fast"}, "count", None, id="mode-fast"),
        pytest.param({**SMALL, "alpha": ["x"]}, "construct", None, id="alpha-x"),
        pytest.param({**SMALL, "folds": "x"}, "dims", None, id="folds-x"),
        pytest.param(SMALL, "off", MISSING, id="unreadable-set"),
        pytest.param(SMALL, "off", "{", id="invalid-json-set"),
        pytest.param(SMALL, "off", '{"spec": {"depth": 3}}', id="malformed-set"),
        pytest.param(SMALL, "count", set_with(params=[]), id="params-array"),
        pytest.param(SMALL, "off", set_with(params="x"), id="params-string"),
        pytest.param(SMALL, "count", NOTABLE_X, id="notable-scales-x-count"),
        pytest.param(SMALL, "off", NOTABLE_X, id="notable-scales-x-off"),
        pytest.param(SMALL, "dims", NOTABLE_X, id="notable-scales-x-dims"),
        # each of these used to load, misread, with exit 0
        pytest.param(SMALL, "count", set_with(depth=4.5), id="depth-float"),
        pytest.param(SMALL, "count", set_with(components=["a"], depth=True), id="depth-bool"),
        pytest.param(SMALL, "count", set_with(components="a0", depth=1), id="components-string"),
        pytest.param(SMALL, "count", set_with(boundaries=[1.7, 3.2]), id="boundaries-floats"),
        pytest.param(SMALL, "off", set_with(schedule=["xy", ["y", "x"]]), id="schedule-string-row"),
        pytest.param(SMALL, "dims", set_with(name=None), id="name-null"),
        pytest.param(SMALL, "dims", set_with(name=5), id="name-5"),
        pytest.param(SMALL, "off", set_with(schedule=[[1, 2], ["y", "x"]]), id="schedule-int-entries"),
        pytest.param(SMALL, "count", set_with(params={"notable_scales": [3]}), id="param-list"),
        pytest.param(SMALL, "oracle", NOTABLE_X, id="notable-scales-x-oracle"),
        pytest.param({}, "construct", None, id="no-construction"),
        pytest.param({"construction": "custom"}, "validate", None, id="validate-no-alpha"),
    ],
)
def test_bad_input_is_a_configuration_error(tmp_path, capsys, config, command, set_file):
    argv = [command, "--config", str(tmp_path / "run.json")]
    if config is not MISSING:
        text = config if isinstance(config, str) else json.dumps(config)
        (tmp_path / "run.json").write_text(text)
    if set_file is not None:
        argv += ["--set", str(tmp_path / "set.json")]
        if set_file is not MISSING:
            (tmp_path / "set.json").write_text(set_file)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("configuration error: ")
    assert "Traceback" not in err


def test_canonical_config_builds_its_registry_entry(tmp_path, capsys):
    # the bare name is its entry: same digest, same spec bytes, and validate
    # checks the entry's targets
    bare = {"construction": "haus-lowbox"}
    explicit = {**bare, **CANONICAL_EXAMPLES["haus-lowbox"]}
    assert RunConfig.from_dict(bare) == RunConfig.from_dict(explicit)
    outs = []
    for name, config in (("bare", bare), ("explicit", explicit)):
        path, out = tmp_path / f"{name}.json", tmp_path / f"{name}.spec.json"
        path.write_text(json.dumps(config))
        assert run(["construct", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().out.strip().endswith("components=6 depth=126")
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert json.loads(outs[0])["tool"]["config_digest"] == RunConfig.from_dict(bare).digest()
    assert run(["validate", "--config", str(tmp_path / "bare.json")]) == 0
    assert "targets admissible" in capsys.readouterr().out


@pytest.mark.parametrize(
    "config, code, message",
    [
        # the construction reads beta_2, and used to read it before counting targets
        ({"alpha": ["1/4"], "beta": ["1/2"]}, 3, "admissibility error: at least 2 targets"),
        # a canonical entry fixes its targets as it fixes its skeleton
        ({"beta": ["1/3", "2/3"]}, 2, "fixes its own beta;"),
        ({"gamma": ["1/2", "1"], "horizon": 3}, 2, "fixes its own gamma, horizon;"),
        # a misspelt name is unknown, not a construction that lacks targets
        ({"construction": "hausdorff-pair"}, 2, "unknown construction 'hausdorff-pair'"),
    ],
)
def test_construct_refuses_targets_it_would_not_use(tmp_path, capsys, config, code, message):
    path = tmp_path / "run.json"
    path.write_text(json.dumps({"construction": "haus-lowbox", **config}))
    assert run(["construct", "--config", str(path)]) == code
    assert message in capsys.readouterr().err


def test_validate_reports_violations_with_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SMALL, "beta": ["1/5", "1/2"]}))
    assert run(["validate", "--config", str(path)]) == 3
    assert "violated: beta_2 <= 2*beta_1" in capsys.readouterr().out


def test_validate_accepts_good_targets(cfg, capsys):
    assert run(["validate", "--config", cfg]) == 0
    assert "targets admissible" in capsys.readouterr().out


def test_inadmissible_construction_is_exit_3(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({**SMALL, "beta": ["1/5", "1/2"]}))
    assert run(["construct", "--config", str(path)]) == 3
    assert "admissibility error" in capsys.readouterr().err


def test_bad_scales_value_is_exit_2(cfg, capsys):
    # an empty list must not fall back to the config's scales
    for scales in ("1,x", ",", ""):
        assert run(["count", "--config", cfg, "--scales", scales]) == 2, scales
        assert "configuration error" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command", [["count", "--fold", "2"], ["dims"], ["off"], ["oracle", "--fold", "2"]]
)
@pytest.mark.parametrize("scales", ["0", "5,0", "100000"])
def test_scale_outside_the_depth_is_exit_2(cfg, capsys, command, scales):
    # an exponent log2(count) / j needs j >= 1, and no scale lies below the depth
    assert run(command + ["--config", cfg, "--scales", scales]) == 2
    assert "configuration error: scale" in capsys.readouterr().err


def test_internal_errors_are_exit_5(cfg, monkeypatch, capsys):
    def broken(*args, **kwargs):
        raise ValueError("engine fault")

    monkeypatch.setattr(cli, "count_trace", broken)
    assert run(["count", "--config", cfg, "--fold", "2"]) == 5
    assert "internal error: engine fault" in capsys.readouterr().err


def test_plunnecke_suites_pass(capsys):
    # without --out the JSON report goes to stdout, ahead of the verdicts
    assert run(["plunnecke", "--seed", "5"]) == 0
    text = capsys.readouterr().out
    assert text.count("-> PASS") == 3
    doc, _ = json.JSONDecoder().raw_decode(text)
    assert [r["suite"] for r in doc["reports"]] == ["ruzsa", "sumset-cover", "prop31"]
    assert all(r["seed"] == 5 for r in doc["reports"])


@pytest.mark.parametrize(
    "doc, argv", [({}, ["--seed", "-1"]), ({"seed": -1}, [])], ids=["flag", "config"]
)
def test_negative_seed_is_exit_2(tmp_path, monkeypatch, capsys, doc, argv):
    # Random(-1) draws as Random(1) does, so a negative seed would write seed
    # 1's cases under another seed and digest; no suite may start
    assert random.Random(-1).random() == random.Random(1).random()
    with pytest.raises(ConfigError):
        RunConfig.from_dict({**SMALL, "seed": -1})
    for name in ("ruzsa_suite", "cover_suite", "prop31_suite"):
        monkeypatch.setattr(cli, name, None)
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**SMALL, **doc}))
    assert run(["plunnecke", "--config", str(path), *argv]) == 2
    assert "seed must be at least 0, got -1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "command, flag, key, values",
    [
        pytest.param("plunnecke", "--seed", "seed", (5, 6), id="seed"),
        pytest.param("count", "--fold", "folds", ([1], [2]), id="fold"),
        pytest.param("count", "--scales", "scales", ("boundaries", "all"), id="scales"),
        pytest.param("count", "--mode", "mode", ("bracket", "exact"), id="mode"),
    ],
)
def test_flag_enters_the_config_digest(tmp_path, monkeypatch, command, flag, key, values):
    # a flag sets its config key, so two values give two digests;
    # the suites are stubbed: only the seed they receive matters here
    seen = []

    def stub(suite):
        def run_suite(seed):
            seen.append((suite, seed))
            return {"suite": suite, "seed": seed, "cases": 0, "failures": [], "ok": True}

        return run_suite

    suites = ("ruzsa_suite", "cover_suite", "prop31_suite")
    for name in suites:
        monkeypatch.setattr(cli, name, stub(name))
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps(SMALL))
    digests = []
    for value in values:
        text = value[0] if isinstance(value, list) else value
        out = tmp_path / f"out-{text}"
        assert run([command, "--config", str(cfg), flag, str(text), "--out", str(out)]) == 0
        digest = re.search(r'config(?:=|_digest": ")([0-9a-f]{12})', out.read_text())[1]
        assert digest == RunConfig.from_dict({**SMALL, key: value}).digest()
        digests.append(digest)
    assert digests[0] != digests[1]
    if key == "seed":
        assert seen == [(name, seed) for seed in values for name in suites]


@pytest.mark.parametrize("target", ["missing-dir", "a-directory"])
def test_unwritable_out_is_exit_2(cfg, tmp_path, capsys, target):
    # mkstemp fails in a missing directory, os.replace onto a directory
    out = tmp_path / "missing" / "x.csv" if target == "missing-dir" else tmp_path / "adir"
    if target == "a-directory":
        out.mkdir()
    assert run(["count", "--config", cfg, "--scales", "5", "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"configuration error: cannot write {out}: ")
    assert "Traceback" not in err
    assert not list(tmp_path.rglob(".sumdim-*"))


def test_atomic_write_leaves_no_temp_files(tmp_path):
    target = tmp_path / "x.txt"
    write_text_atomic(str(target), "payload\n")
    assert target.read_text() == "payload\n"
    assert [p.name for p in tmp_path.iterdir()] == ["x.txt"]


def test_atomic_write_gives_the_file_the_umask_mode(tmp_path):
    # the temp file starts 0600, so the rename alone would keep it private
    target = tmp_path / "x.txt"
    saved = os.umask(0o022)
    try:
        write_text_atomic(str(target), "payload\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o644
        os.umask(0o077)
        write_text_atomic(str(target), "payload\n")
        assert stat.S_IMODE(target.stat().st_mode) == 0o600
    finally:
        os.umask(saved)


def test_version_flag(capsys):
    for _ in range(2):  # the parser is reused
        with pytest.raises(SystemExit) as exc:
            main(["--version"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("sumdim ")


def test_the_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("command", ["count", "off"])
def test_flags_do_not_reach_the_next_call(cfg, tmp_path, command):
    # a flagless command after a flagged count, on the same parser, writes
    # what it writes on a parser of its own; off has no --fold or --mode
    alone, after = tmp_path / "alone", tmp_path / "after"
    cli.build_parser.cache_clear()
    assert run([command, "--config", cfg, "--out", str(alone)]) == 0
    flags = ["--fold", "2", "--mode", "exact", "--scales", "4"]
    assert run(["count", "--config", cfg, *flags, "--out", str(tmp_path / "flagged")]) == 0
    assert run([command, "--config", cfg, "--out", str(after)]) == 0
    assert after.read_bytes() == alone.read_bytes()


# the flags each command takes; every other flag is an argparse error
FLAG_MATRIX = {
    "construct": ["--set"],
    "count": ["--set", "--fold", "--scales", "--mode"],
    "dims": ["--set", "--fold", "--scales", "--mode"],
    "oracle": ["--set", "--fold", "--scales"],
    "off": ["--set", "--scales"],
    "plunnecke": ["--seed"],
    "validate": [],
}
# each flag's argument, and the value argparse makes of it
FLAG_VALUES = {
    "--set": ("s.json", "s.json"),
    "--fold": ("2", 2),
    "--scales": ("all", "all"),
    "--mode": ("exact", "exact"),
    "--seed": ("3", 3),
}


def test_commands_are_listed_in_help_order():
    assert list(cli.COMMANDS) == list(FLAG_MATRIX)


@pytest.mark.parametrize(
    "command, flag", [(c, f) for c, flags in FLAG_MATRIX.items() for f in flags]
)
def test_command_accepts_its_flag(command, flag):
    text, value = FLAG_VALUES[flag]
    args = cli.build_parser().parse_args([command, flag, text, "--out", "o"])
    assert (args.command, getattr(args, flag[2:]), args.out) == (command, value, "o")


@pytest.mark.parametrize(
    "command, flag",
    [(c, f) for c, flags in FLAG_MATRIX.items() for f in FLAG_VALUES if f not in flags],
)
def test_command_refuses_a_flag_it_lacks(capsys, command, flag):
    with pytest.raises(SystemExit) as exc:
        cli.build_parser().parse_args([command, flag, FLAG_VALUES[flag][0]])
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


NAME_CANDIDATES = ("exact", "bracket", "tower", "scaled", "geometric", "fast", "Exact", "")


def test_mode_and_scale_policy_names_are_the_declared_ones():
    # each name list has one home: the --mode parser choices, RunConfig's mode
    # check and sum_prefix_counts accept exactly engine.MODES, and RunConfig's
    # scale-policy check exactly constructions.SCALE_POLICIES
    def accepts(call, errors):
        try:
            call()
        except errors:
            return False
        return True

    spec = SetSpec((DigitPattern.from_symbols("a0"),), 2)
    for name in NAME_CANDIDATES:
        modes = (
            accepts(lambda: cli.build_parser().parse_args(["count", "--mode", name]), SystemExit),
            accepts(lambda: RunConfig.from_dict({"mode": name}), ConfigError),
            accepts(lambda: sum_prefix_counts(spec, 2, [1], mode=name), ValueError),
        )
        assert modes == (name in MODES,) * 3, name
        policy = accepts(lambda: RunConfig.from_dict({"scale_policy": name}), ConfigError)
        assert policy == (name in SCALE_POLICIES), name
