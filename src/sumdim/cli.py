"""Command-line front end.

``COMMANDS`` lists the subcommands, each with its handler, help and flags;
``_FLAGS`` says which config key each flag sets, so the key checks and the
config digest cover every flag.  Flags are long-form only; every output
file is written atomically (temp file + rename) and embeds the tool version
and the sha256 digest of the effective configuration; exit codes are 0
(ok), 2 (configuration, or an unreadable input or unwritable output),
3 (admissibility), 4 (budget), 5 (internal).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction

from . import __version__
from .analysis import (
    count_trace,
    off_trace,
    render_count_trace_csv,
    render_off_trace_csv,
    resolve_scales,
)
from .constructions import (
    CANONICAL_EXAMPLES,
    CANONICAL_KEYS,
    CONSTRUCTION_NAMES,
    DimensionTargets,
    build_from_keys,
    validate_targets,
)
from .engine import (
    DEFAULT_ENUM_BUDGET,
    DEFAULT_STATE_BUDGET,
    MAX_FOLD,
    brute_force_oracle,
    sum_prefix_counts,
)
from .errors import (
    AdmissibilityError,
    BudgetExceededError,
    ConfigError,
    ConstructionError,
    ScaleError,
    SumdimError,
)
from .patterns import from_json_dict, to_json_dict
from .plunnecke import cover_suite, prop31_suite, ruzsa_suite


def _integer(key, value):
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{key} must be an integer, got {value!r}")
    return value


def _positive(key, value):
    _integer(key, value)
    if value < 1:
        raise ConfigError(f"{key} must be at least 1, got {value}")
    return value


def _integers(key, value):
    if not isinstance(value, (list, tuple)) or not value:
        raise ConfigError(f"{key} must be a nonempty list of integers, got {value!r}")
    return tuple(_integer(key, v) for v in value)


def _rationals(key, value):
    if not isinstance(value, (list, tuple)):
        raise ConfigError(f"{key} must be a list of rationals, got {value!r}")
    try:
        return tuple(Fraction(str(v)) for v in value)
    except (ValueError, ZeroDivisionError) as exc:
        raise ConfigError(f"bad rational in {key}: {exc}") from exc


def _name(key, value):
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _folds(key, value):
    folds = _integers(key, [value] if isinstance(value, int) else value)
    for fold in folds:
        if not 1 <= fold <= MAX_FOLD:
            raise ConfigError(f"{key} must lie in 1..{MAX_FOLD}, got {fold}")
    return folds


def _scales(key, value):
    return value if value in ("boundaries", "all") else _integers(key, value)


def _choice(*allowed):
    def check(key, value):
        if value not in allowed:
            raise ConfigError(f"unknown {key.replace('_', ' ')} {value!r}")
        return value

    return check


def _optional(check):
    return lambda key, value: None if value is None else check(key, value)


def _key(default, check):
    """A config key: its default and the check that types a given value."""
    return field(default=default, metadata={"check": check})


@dataclass(frozen=True)
class RunConfig:
    """Validated run parameters; unknown keys are rejected, never ignored."""

    construction: str | None = _key(None, _optional(_name))
    alpha: tuple | None = _key(None, _optional(_rationals))
    beta: tuple | None = _key(None, _optional(_rationals))
    gamma: tuple | None = _key(None, _optional(_rationals))
    scale_policy: str = _key("scaled", _choice("tower", "scaled", "geometric"))
    scale_base: int = _key(4, _integer)
    horizon: int = _key(6, _integer)
    folds: tuple = _key((1, 2), _folds)
    scales: object = _key("boundaries", _scales)
    mode: str = _key("bracket", _choice("exact", "bracket"))
    seed: int = _key(0, _integer)
    budget_enum: int = _key(DEFAULT_ENUM_BUDGET, _positive)
    budget_states: int = _key(DEFAULT_STATE_BUDGET, _positive)

    @classmethod
    def from_dict(cls, raw):
        checks = {f.name: f.metadata["check"] for f in fields(cls)}
        unknown = sorted(set(raw) - set(checks))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
        config = cls(**{key: checks[key](key, value) for key, value in raw.items()})
        if config.alpha is None and config.construction in CANONICAL_EXAMPLES:
            fixed = [k for k in CANONICAL_KEYS if k != "alpha" and k in raw]
            if fixed:
                raise ConfigError(
                    f"canonical construction {config.construction!r} fixes its own "
                    f"{', '.join(fixed)}; give alpha targets to set them"
                )
            entry = CANONICAL_EXAMPLES[config.construction]
            config = replace(config, **{k: checks[k](k, v) for k, v in entry.items()})
        return config

    def canonical_dict(self):
        out = {}
        for f in fields(self):
            v = getattr(self, f.name)
            if isinstance(v, tuple) and v and isinstance(v[0], Fraction):
                v = [str(x) for x in v]
            elif isinstance(v, tuple):
                v = list(v)
            out[f.name] = v
        return out

    def digest(self):
        blob = json.dumps(self.canonical_dict(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:12]


def _read_json(what, path):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def _tool_line(config):
    return f"sumdim {__version__} config={config.digest()}"


def write_text_atomic(path, text):
    """Write via a sibling temp file and rename, so readers never see halves."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".sumdim-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise
    return path


def _emit(text, out):
    if out:
        try:
            write_text_atomic(out, text)
        except OSError as exc:  # its message would name the temp file, not out
            raise ConfigError(f"cannot write {out}: {exc.strerror or exc}") from exc
        print(f"wrote {out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def _emit_json(config, out, **fields):
    tool = {"name": "sumdim", "version": __version__, "config_digest": config.digest()}
    _emit(json.dumps({"tool": tool, **fields}, indent=2, sort_keys=True) + "\n", out)


def build_from_config(config):
    """Construct the SetSpec a config describes (a canonical one arrives resolved)."""
    if config.construction is None:
        raise ConfigError("config does not name a construction")
    if config.construction not in CONSTRUCTION_NAMES:
        raise ConfigError(f"unknown construction {config.construction!r}")
    if config.alpha is None:
        raise ConfigError(
            f"construction {config.construction!r} needs explicit targets"
        )
    return build_from_keys(config.construction, {k: getattr(config, k) for k in CANONICAL_KEYS})


def load_spec(path):
    raw = _read_json("set file", path)
    if isinstance(raw, dict) and "spec" in raw:
        raw = raw["spec"]
    try:
        return from_json_dict(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"set file {path} is malformed: {exc}") from exc


def _resolve_spec(args, config):
    if args.set:
        return load_spec(args.set)
    return build_from_config(config)


def _trace(spec, config, fold):
    return count_trace(
        spec, fold, scales=config.scales, mode=config.mode, state_budget=config.budget_states
    )


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args, config):
    spec = _resolve_spec(args, config)
    _emit_json(config, args.out, spec=to_json_dict(spec))
    print(f"components={len(spec.components)} depth={spec.depth}")
    return 0


def cmd_count(args, config):
    spec = _resolve_spec(args, config)
    trace = _trace(spec, config, config.folds[0])
    _emit(render_count_trace_csv(trace, header=_tool_line(config)), args.out)
    return 0


def cmd_dims(args, config):
    spec = _resolve_spec(args, config)
    rows = []
    for fold in config.folds:
        entries = _trace(spec, config, fold).entries
        rows.append(
            {
                "fold": fold,
                "scales": len(entries),
                "deepest_scale": max(e.scale for e in entries),
                "exp_lower_min": min(e.exp_lower for e in entries),
                "exp_lower_max": max(e.exp_lower for e in entries),
                "exp_upper_min": min(e.exp_upper for e in entries),
                "exp_upper_max": max(e.exp_upper for e in entries),
                "predicted_max": max(float(e.predicted) for e in entries),
                "predicted_at_deepest": float(entries[-1].predicted),
            }
        )
    _emit_json(config, args.out, set=spec.name, depth=spec.depth, mode=config.mode, folds=rows)
    return 0


def cmd_off(args, config):
    spec = _resolve_spec(args, config)
    entries = off_trace(spec, scales=config.scales)
    _emit(render_off_trace_csv(entries, header=_tool_line(config)), args.out)
    return 0


def cmd_plunnecke(args, config):
    reports = [
        ruzsa_suite(config.seed),
        cover_suite(config.seed),
        prop31_suite(config.seed),
    ]
    _emit_json(config, args.out, reports=reports)
    ok = True
    for rep in reports:
        verdict = "PASS" if rep["ok"] else "FAIL"
        ok = ok and rep["ok"]
        print(
            f"{rep['suite']}: {rep['cases']} cases, "
            f"{len(rep['failures'])} failures -> {verdict}"
        )
    return 0 if ok else 5


def cmd_validate(args, config):
    if config.alpha is None:
        raise ConfigError("validate needs alpha targets in the config")
    targets = DimensionTargets(config.alpha, config.beta, config.gamma)
    report = validate_targets(targets)
    _emit_json(config, args.out, ok=report.ok, violations=list(report.violations))
    if report.ok:
        print("targets admissible")
        return 0
    for v in report.violations:
        print(f"violated: {v}")
    return 3


def cmd_oracle(args, config):
    fold = config.folds[0]
    spec = _resolve_spec(args, config)
    chosen = resolve_scales(spec, config.scales)
    results = sum_prefix_counts(
        spec, fold, chosen, mode="exact", state_budget=config.budget_states
    )
    lines = [_tool_line(config)]
    verdicts = set()
    for j in chosen:
        want = brute_force_oracle(spec, fold, j, config.budget_enum).lower
        got = results[j].bracket
        if results[j].fell_back and got.lower <= want <= got.upper:
            verdict = "FALLBACK"  # over the state budget, bracketed correctly
        elif got.lower == got.upper == want and not results[j].fell_back:
            verdict = "MATCH"
        else:
            verdict = "MISMATCH"
        verdicts.add(verdict)
        lines.append(
            f"j={j} fold={fold} engine=[{got.lower},{got.upper}] "
            f"oracle={want} {verdict}"
        )
    overall = next((v for v in ("MISMATCH", "FALLBACK") if v in verdicts), "MATCH")
    lines.append("verdict: " + overall)
    _emit("\n".join(lines) + "\n", args.out)
    if overall == "FALLBACK":
        print(
            f"budget exceeded: {config.budget_states} automaton states; "
            "fell back to brackets that contain the oracle count",
            file=sys.stderr,
        )
    return {"MATCH": 0, "FALLBACK": 4, "MISMATCH": 5}[overall]


# ---------------------------------------------------------------------------
# argument parsing and dispatch


def _parse_scales(text):
    """The ``scales`` key value a --scales flag spells; the key's check does the rest."""
    if text in ("boundaries", "all"):
        return text
    try:
        return [int(t) for t in text.split(",") if t]
    except ValueError as exc:
        raise ConfigError(f"bad --scales value {text!r}") from exc


# flag -> (argparse options, the config key it sets, its value -> the key's value)
_FLAGS = {
    "fold": ({"type": int, "help": "number of set addends"}, "folds", lambda fold: [fold]),
    "scales": (
        {"help": "boundaries | all | comma-separated prefix lengths"},
        "scales",
        _parse_scales,
    ),
    "mode": ({"choices": ("exact", "bracket")}, "mode", str),
    "seed": ({"type": int, "help": "suite seed (recorded in the report)"}, "seed", int),
}

# command -> (handler, help, takes --set, flags), in the order help lists them
COMMANDS = {
    "construct": (cmd_construct, "build a pattern spec and write its JSON", True, ()),
    "count": (cmd_count, "distinct-sum-prefix counts as CSV", True, ("fold", "scales", "mode")),
    "dims": (
        cmd_dims, "per-fold exponent bracket summary as JSON", True, ("fold", "scales", "mode")
    ),
    "oracle": (
        cmd_oracle, "engine vs brute-force enumeration, side by side", True, ("fold", "scales")
    ),
    "off": (cmd_off, "minimal average branching trace as CSV", True, ("scales",)),
    "plunnecke": (cmd_plunnecke, "seeded sumset-inequality suites", False, ("seed",)),
    "validate": (cmd_validate, "admissibility report for configured targets", False, ()),
}


@functools.cache
def build_parser():
    """The one argument parser, built on the first call and reused after it.

    ``parse_args`` returns a fresh namespace on every call, so one call's
    flags never reach the next.
    """
    parser = argparse.ArgumentParser(
        prog="sumdim",
        description="exact dyadic dimension laboratory for digit-pattern sets",
    )
    parser.add_argument("--version", action="version", version=f"sumdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, helptext, with_set, flags) in COMMANDS.items():
        p = sub.add_parser(name, help=helptext)
        p.add_argument("--config", help="JSON run configuration")
        if with_set:
            p.add_argument("--set", help="pattern-spec JSON produced by construct")
        p.add_argument("--out", help="output path (atomic write); default stdout")
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag][0])
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    handler, _, _, flags = COMMANDS[args.command]
    try:
        overrides = {}
        for flag in flags:
            _, key, to_value = _FLAGS[flag]
            value = getattr(args, flag)
            if value is not None:
                overrides[key] = to_value(value)
        raw = _read_json("config", args.config) if args.config else {}
        if not isinstance(raw, dict):
            raise ConfigError("config root must be a JSON object")
        return handler(args, RunConfig.from_dict({**raw, **overrides}))
    except (ConfigError, ScaleError) as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except (AdmissibilityError, ConstructionError) as exc:
        print(f"admissibility error: {exc}", file=sys.stderr)
        return 3
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 4
    except (SumdimError, ValueError) as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 5


if __name__ == "__main__":
    sys.exit(main())
