"""Command-line front end.

Subcommands
-----------
construct   build a pattern spec from a config and write its JSON
count       distinct-sum-prefix counts as CSV (one row per scale)
dims        per-fold exponent bracket summary as JSON
off         minimal average branching trace as CSV
plunnecke   seeded sumset-inequality suites, JSON report
validate    admissibility report for the configured targets
oracle      counting engine vs brute-force enumeration, side by side

Conventions: flags are long-form only; every output file is written
atomically (temp file + rename) and embeds the tool version and the
sha256 digest of the effective configuration; exit codes are 0 (ok),
2 (configuration), 3 (admissibility), 4 (budget), 5 (internal).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import tempfile
from dataclasses import dataclass, field, fields
from fractions import Fraction

from . import __version__
from .analysis import (
    _resolve_scales,
    count_trace,
    off_trace,
    render_count_trace_csv,
    render_off_trace_csv,
)
from .constructions import (
    CANONICAL_EXAMPLES,
    CANONICAL_KEYS,
    CONSTRUCTION_NAMES,
    DimensionTargets,
    build_canonical,
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


def _fold(key, value):
    _integer(key, value)
    if not 1 <= value <= MAX_FOLD:
        raise ConfigError(f"{key} must lie in 1..{MAX_FOLD}, got {value}")
    return value


def _folds(key, value):
    folds = _integers(key, [value] if isinstance(value, int) else value)
    return tuple(_fold(key, f) for f in folds)


def _chosen_folds(args, config):
    """The --fold flag as a one-fold tuple, else the config's folds."""
    return config.folds if args.fold is None else (_fold("--fold", args.fold),)


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
        fixed = [k for k in CANONICAL_KEYS if k != "alpha" and k in raw]
        if fixed and config.alpha is None and config.construction in CANONICAL_EXAMPLES:
            raise ConfigError(
                f"canonical construction {config.construction!r} fixes its own "
                f"{', '.join(fixed)}; give alpha targets to set them"
            )
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


def load_config(path, overrides=None):
    """The RunConfig of a JSON config file, with ``overrides`` given as keys."""
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    if not isinstance(raw, dict):
        raise ConfigError("config root must be a JSON object")
    return RunConfig.from_dict({**raw, **(overrides or {})})


def _tool_line(config):
    return f"sumdim {__version__} config={config.digest()}"


def _tool_dict(config):
    return {
        "name": "sumdim",
        "version": __version__,
        "config_digest": config.digest(),
    }


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
        write_text_atomic(out, text)
        print(f"wrote {out}")
    else:
        print(text, end="" if text.endswith("\n") else "\n")


def build_from_config(config):
    """Construct the SetSpec a config describes (canonical or explicit)."""
    if config.construction is None:
        raise ConfigError("config does not name a construction")
    if config.alpha is None:
        if config.construction in CANONICAL_EXAMPLES:
            return build_canonical(config.construction)
        raise ConfigError(
            f"construction {config.construction!r} needs explicit targets"
        )
    if config.construction not in CONSTRUCTION_NAMES:
        raise ConfigError(f"unknown construction {config.construction!r}")
    return build_from_keys(config.construction, {k: getattr(config, k) for k in CANONICAL_KEYS})


def load_spec(path):
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read set {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"set file {path} is not valid JSON: {exc}") from exc
    if isinstance(raw, dict) and "spec" in raw:
        raw = raw["spec"]
    try:
        return from_json_dict(raw)
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"set file {path} is malformed: {exc}") from exc


def _resolve_spec(args, config):
    if getattr(args, "set", None):
        return load_spec(args.set)
    return build_from_config(config)


def _parse_scales(text):
    if text in (None, "boundaries", "all"):
        return text
    try:
        scales = tuple(int(t) for t in text.split(",") if t)
    except ValueError as exc:
        raise ConfigError(f"bad --scales value {text!r}") from exc
    if not scales:
        raise ConfigError(f"--scales value {text!r} names no scale")
    return scales


# ---------------------------------------------------------------------------
# subcommands


def cmd_construct(args, config):
    spec = _resolve_spec(args, config)
    doc = {"tool": _tool_dict(config), "spec": to_json_dict(spec)}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    print(f"components={len(spec.components)} depth={spec.depth}")
    return 0


def cmd_count(args, config):
    fold = _chosen_folds(args, config)[0]
    spec = _resolve_spec(args, config)
    scales = _parse_scales(args.scales) or config.scales
    mode = args.mode or config.mode
    trace = count_trace(
        spec, fold, scales=scales, mode=mode, state_budget=config.budget_states
    )
    _emit(render_count_trace_csv(trace, header=_tool_line(config)), args.out)
    return 0


def cmd_dims(args, config):
    folds = _chosen_folds(args, config)
    spec = _resolve_spec(args, config)
    scales = _parse_scales(args.scales) or config.scales
    mode = args.mode or config.mode
    rows = []
    for fold in folds:
        trace = count_trace(
            spec, fold, scales=scales, mode=mode, state_budget=config.budget_states
        )
        entries = trace.entries
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
    doc = {
        "tool": _tool_dict(config),
        "set": spec.name,
        "depth": spec.depth,
        "mode": mode,
        "folds": rows,
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    return 0


def cmd_off(args, config):
    spec = _resolve_spec(args, config)
    scales = _parse_scales(args.scales) or config.scales
    entries = off_trace(spec, scales=scales)
    _emit(render_off_trace_csv(entries, header=_tool_line(config)), args.out)
    return 0


def cmd_plunnecke(args, config):
    reports = [
        ruzsa_suite(config.seed),
        cover_suite(config.seed),
        prop31_suite(config.seed),
    ]
    doc = {"tool": _tool_dict(config), "reports": reports}
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
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
    doc = {
        "tool": _tool_dict(config),
        "ok": report.ok,
        "violations": list(report.violations),
    }
    _emit(json.dumps(doc, indent=2, sort_keys=True) + "\n", args.out)
    if report.ok:
        print("targets admissible")
        return 0
    for v in report.violations:
        print(f"violated: {v}")
    return 3


def cmd_oracle(args, config):
    fold = _chosen_folds(args, config)[0]
    spec = _resolve_spec(args, config)
    chosen = _resolve_scales(spec, _parse_scales(args.scales) or config.scales)
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


def build_parser():
    parser = argparse.ArgumentParser(
        prog="sumdim",
        description="exact dyadic dimension laboratory for digit-pattern sets",
    )
    parser.add_argument("--version", action="version", version=f"sumdim {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_set=True):
        p.add_argument("--config", help="JSON run configuration")
        if with_set:
            p.add_argument("--set", help="pattern-spec JSON produced by construct")
        p.add_argument("--out", help="output path (atomic write); default stdout")

    p = sub.add_parser("construct", help="build a pattern spec and write its JSON")
    common(p)

    for name, helptext in (
        ("count", "distinct-sum-prefix counts as CSV"),
        ("dims", "per-fold exponent bracket summary as JSON"),
        ("oracle", "engine vs brute-force enumeration, side by side"),
    ):
        p = sub.add_parser(name, help=helptext)
        common(p)
        p.add_argument("--fold", type=int, help="number of set addends")
        p.add_argument(
            "--scales", help="boundaries | all | comma-separated prefix lengths"
        )
        if name != "oracle":
            p.add_argument("--mode", choices=("exact", "bracket"))

    p = sub.add_parser("off", help="minimal average branching trace as CSV")
    common(p)
    p.add_argument("--scales", help="boundaries | all | comma-separated prefix lengths")

    p = sub.add_parser("plunnecke", help="seeded sumset-inequality suites")
    common(p, with_set=False)
    p.add_argument("--seed", type=int, help="suite seed (recorded in the report)")

    p = sub.add_parser("validate", help="admissibility report for configured targets")
    common(p, with_set=False)

    return parser


_DISPATCH = {
    "construct": cmd_construct,
    "count": cmd_count,
    "dims": cmd_dims,
    "off": cmd_off,
    "plunnecke": cmd_plunnecke,
    "validate": cmd_validate,
    "oracle": cmd_oracle,
}


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        overrides = {}
        if getattr(args, "seed", None) is not None:
            overrides["seed"] = args.seed
        if args.config:
            config = load_config(args.config, overrides)
        else:
            config = RunConfig.from_dict(overrides)
        return _DISPATCH[args.command](args, config)
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
