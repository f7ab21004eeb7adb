"""Command-line harness: parameter sweeps, engine-vs-closed-form comparison,
and Monte Carlo runs.

Subcommands
-----------
sweep    Evaluate one experiment of `compare.EXPERIMENTS` along a swept
         parameter and emit CSV; the engine and the closed form each run
         once on the whole sweep.
compare  Run the full agreement grid between the operator engine and the
         closed forms; nonzero exit if any point deviates beyond tolerance,
         and each failing family names its worst point.
mc       Sample a detection run and report counts and corrected estimates;
         with --out, also a Pearson chi-square of the run.

Configuration is a JSON object with a `schema_version` field; every value
can be overridden on the command line with repeated `--set key=value`
(dotted paths reach into `sweep`).  Angles cross this boundary in degrees
and are converted to radians internally; `LIBRARY_NAMES` maps each config
key to the library parameter it sets.  The sweepable parameters, accepted
inputs and domain (50:50 splitter; cos(phi) = cos(psi) at every swept
point) of each experiment come from its table entry.  CSV output uses a
comma delimiter, `.` decimal separator, and 15 significant digits, and is
byte-stable for a fixed configuration and seed.

Exit codes: 0 success, 1 invalid configuration, 2 comparison failure,
3 file I/O failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Any, Sequence

import numpy as np

from . import compare as comparemod
from .elements import BeamSplitterSpec
from .engine import Arm, all_outcomes
from .montecarlo import CountTable, RunConfig, consistency_z, estimate, pearson_chi2, sample_run

SCHEMA_VERSION = 1

_SQRT_HALF = 1.0 / math.sqrt(2.0)

DEFAULTS: dict[str, Any] = {
    "schema_version": SCHEMA_VERSION,
    "experiment": "coincidence",
    "input": "polarized",
    "theta1p_deg": 0.0,
    "theta2p_deg": 0.0,
    "theta1_deg": 0.0,
    "theta2_deg": 0.0,
    "tx": _SQRT_HALF,
    "ty": _SQRT_HALF,
    "phi_deg": 0.0,
    "psi_deg": 0.0,
    "arm": "side2",
    "n_pairs": 100000,
    "efficiency": 1.0,
    "seed": 0,
    "sweep": {
        "param": "phi_deg",
        "start": 0.0,
        "stop": 360.0,
        "steps": 73,
    },
}

# Config key of each angle (degrees) -> the library parameter (radians).
LIBRARY_NAMES = {
    "theta1p_deg": "pol1",
    "theta2p_deg": "pol2",
    "theta1_deg": "ana1",
    "theta2_deg": "ana2",
    "phi_deg": "phi",
    "psi_deg": "psi",
}


class ConfigError(Exception):
    """Invalid configuration; `problems` is a list of (field path, message)."""

    def __init__(self, problems: list[tuple[str, str]]):
        self.problems = problems
        super().__init__("; ".join(f"{p}: {m}" for p, m in problems))


def _merge(base: dict[str, Any], override: dict[str, Any], path: str, problems: list) -> dict:
    out = dict(base)
    for key, value in override.items():
        here = f"{path}.{key}" if path else key
        if key not in base:
            problems.append((here, "unknown key"))
            continue
        if isinstance(base[key], dict):
            if not isinstance(value, dict):
                problems.append((here, "expected an object"))
                continue
            out[key] = _merge(base[key], value, here, problems)
        else:
            out[key] = value
    return out


def _coerce_set_value(raw: str, template: Any) -> Any:
    if isinstance(template, int):
        try:
            return int(raw)
        except ValueError:
            value = float(raw)  # integral float text such as 1e6
        if not value.is_integer():  # also false for inf and nan
            raise ValueError(raw)
        return int(value)
    if isinstance(template, float):
        return float(raw)
    return raw


def apply_set_overrides(cfg: dict[str, Any], pairs: Sequence[str]) -> dict[str, Any]:
    """Apply repeated --set key=value overrides (dotted paths allowed)."""
    problems: list[tuple[str, str]] = []
    out = json.loads(json.dumps(cfg))  # deep copy of plain data
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        *parents, leaf = key.split(".")
        node, template = out, DEFAULTS
        for part in parents:
            if not isinstance(template.get(part), dict):
                template = {}  # no such object, so no such leaf
                break
            node, template = node.setdefault(part, {}), template[part]
        if not sep:
            problems.append((pair, "expected key=value"))
        elif leaf not in template:
            problems.append((key, "unknown key"))
        elif isinstance(template[leaf], dict):
            example = ", ".join(f"{key}.{sub}=..." for sub in template[leaf])
            problems.append((key, f"is an object; set its keys with dotted paths ({example})"))
        else:
            try:
                node[leaf] = _coerce_set_value(raw, template[leaf])
            except ValueError:
                problems.append((key, f"cannot parse {raw!r} as {type(template[leaf]).__name__}"))
    if problems:
        raise ConfigError(problems)
    return out


def parse_config(data: dict[str, Any]) -> dict[str, Any]:
    """Merge user data over defaults and validate every field."""
    problems: list[tuple[str, str]] = []
    if not isinstance(data, dict):
        raise ConfigError([("config", "top level must be a JSON object")])
    cfg = _merge(DEFAULTS, data, "", problems)
    if cfg["schema_version"] != SCHEMA_VERSION:
        problems.append(("schema_version", f"expected {SCHEMA_VERSION}, got {cfg['schema_version']!r}"))
    if cfg["experiment"] not in comparemod.EXPERIMENTS:
        problems.append(("experiment", f"unknown experiment {cfg['experiment']!r}"))
    if cfg["input"] not in ("polarized", "unpolarized"):
        problems.append(("input", f"must be 'polarized' or 'unpolarized', got {cfg['input']!r}"))
    if cfg["arm"] not in ("side1", "side2"):
        problems.append(("arm", f"must be 'side1' or 'side2', got {cfg['arm']!r}"))
    for key in LIBRARY_NAMES:
        v = cfg[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append((key, f"must be a finite number, got {v!r}"))
    for key in ("tx", "ty"):
        v = cfg[key]
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not 0.0 <= v <= 1.0:
            problems.append((key, f"must lie in [0, 1], got {v!r}"))
    if not isinstance(cfg["n_pairs"], int) or isinstance(cfg["n_pairs"], bool) or cfg["n_pairs"] < 1:
        problems.append(("n_pairs", f"must be a positive integer, got {cfg['n_pairs']!r}"))
    v = cfg["efficiency"]
    # the estimates divide by efficiency**2
    if not isinstance(v, (int, float)) or isinstance(v, bool) or not (0.0 < v <= 1.0 and v**2 > 0.0):
        problems.append(("efficiency", f"must lie in (0, 1] with efficiency**2 > 0, got {v!r}"))
    if not isinstance(cfg["seed"], int) or isinstance(cfg["seed"], bool) or cfg["seed"] < 0:
        problems.append(("seed", f"must be a nonnegative integer, got {cfg['seed']!r}"))
    sweep = cfg["sweep"]
    if not isinstance(sweep.get("steps"), int) or isinstance(sweep.get("steps"), bool) or sweep["steps"] < 1:
        problems.append(("sweep.steps", f"must be an integer >= 1, got {sweep.get('steps')!r}"))
    for key in ("start", "stop"):
        v = sweep.get(key)
        if not isinstance(v, (int, float)) or isinstance(v, bool) or not math.isfinite(v):
            problems.append((f"sweep.{key}", f"must be a finite number, got {v!r}"))
    entry = comparemod.EXPERIMENTS.get(cfg["experiment"])
    if entry is not None:
        sweepable = sorted(key for key, name in LIBRARY_NAMES.items() if name in entry.params)
        if sweep.get("param") not in sweepable:
            problems.append(
                (
                    "sweep.param",
                    f"{sweep.get('param')!r} is not sweepable for experiment "
                    f"{cfg['experiment']!r} (allowed: {sweepable})",
                )
            )
        if cfg["input"] not in entry.inputs:
            problems.append(
                ("input", f"experiment {cfg['experiment']!r} requires input in {sorted(entry.inputs)}")
            )
        if entry.only_5050 and not (
            abs(cfg["tx"] - _SQRT_HALF) <= 1e-12 and abs(cfg["ty"] - _SQRT_HALF) <= 1e-12
        ):
            problems.append(
                ("tx", f"experiment {cfg['experiment']!r} has a closed form only for the 50:50 splitter")
            )
    if problems:
        raise ConfigError(problems)
    return cfg


def config_to_json(cfg: dict[str, Any]) -> str:
    """Serialize a configuration; parse_config(json.loads(...)) round-trips."""
    return json.dumps(cfg, indent=2) + "\n"


def _fmt(x: float) -> str:
    return f"{x:.15g}"


def _csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else _fmt(v) if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def _sweep_values(sweep: dict[str, Any]) -> list[float]:
    steps = sweep["steps"]
    if steps == 1:
        return [float(sweep["start"])]
    start, stop = float(sweep["start"]), float(sweep["stop"])
    return [start + (stop - start) * i / (steps - 1) for i in range(steps)]


def _library_args(cfg: dict[str, Any]) -> dict[str, Any]:
    """Every library parameter of the experiments, from a validated config."""
    args: dict[str, Any] = {name: math.radians(cfg[key]) for key, name in LIBRARY_NAMES.items()}
    args.update(
        bs=BeamSplitterSpec.from_transmission(cfg["tx"], cfg["ty"]),
        arm=Arm[cfg["arm"].upper()],
        input_kind=cfg["input"],
        run=RunConfig(cfg["n_pairs"], cfg["efficiency"], cfg["seed"]),
    )
    return args


def _check_phases(phi_deg: float, psi_deg: float) -> None:
    """The twelve outcomes are one experiment's event space (their
    probabilities sum to one) only where cos(phi) = cos(psi)."""
    if abs(math.cos(math.radians(phi_deg)) - math.cos(math.radians(psi_deg))) > comparemod.DEFAULT_TOL:
        got = f"phi_deg={phi_deg:.15g}, psi_deg={psi_deg:.15g}"
        message = f"the outcome distribution needs cos(phi) = cos(psi), got {got}"
        raise ConfigError([("phi_deg/psi_deg", message)])


def run_sweep(cfg: dict[str, Any]) -> str:
    """Evaluate the configured sweep and return its CSV text."""
    entry = comparemod.EXPERIMENTS[cfg["experiment"]]
    param = cfg["sweep"]["param"]
    values = _sweep_values(cfg["sweep"])
    if entry.matched_phases:
        for value in values:
            point = {**cfg, param: value}
            _check_phases(point["phi_deg"], point["psi_deg"])
    swept = LIBRARY_NAMES[param]
    args = _library_args(cfg)
    fixed = {name: args[name] for name in entry.params if name != swept}
    radians = np.array([math.radians(v) for v in values])
    ana, eng = comparemod.evaluate(entry, entry.formula, fixed, {swept: radians})
    if eng is None:
        rows = [(v, a, None, None) for v, a in zip(values, ana.tolist())]
    else:
        rows = [(v, a, e, abs(a - e)) for v, a, e in zip(values, ana.tolist(), eng.tolist())]
    return _csv([param, *entry.columns, "abs_deviation"], rows)


def _load_config(args: argparse.Namespace) -> dict[str, Any]:
    data: dict[str, Any] = {}
    if args.config is not None:
        with open(args.config, "r", encoding="utf-8") as fh:
            data = json.load(fh)
    cfg = parse_config(data)
    if args.set:
        cfg = parse_config(apply_set_overrides(cfg, args.set))
    if getattr(args, "seed", None) is not None:
        cfg = parse_config({**cfg, "seed": args.seed})
    return cfg


def _write_out(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_sweep(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    _write_out(run_sweep(cfg), args.out)
    return 0


def _point_text(point: dict[str, float | str]) -> str:
    """A compare worst point as CLI text: angles in degrees, splitter
    amplitudes and the arm as they are."""
    parts = []
    for name, value in point.items():
        if isinstance(value, str) or name in ("tx", "ty"):
            parts.append(f"{name}={value}")
        else:
            parts.append(f"{name}_deg={math.degrees(value):.15g}")
    return " ".join(parts)


def cmd_compare(args: argparse.Namespace) -> int:
    perturbations: dict[str, float] = {}
    for pair in args.perturb or []:
        if "=" not in pair:
            raise ConfigError([(pair, "expected name=value")])
        name, raw = pair.split("=", 1)
        try:
            perturbations[name] = float(raw)
        except ValueError:
            raise ConfigError([(name, f"cannot parse {raw!r} as float")]) from None
    try:
        results = comparemod.run_comparison(perturbations, step=args.step)
    except ValueError as exc:  # a step below 1 or an unknown perturbation
        raise ConfigError([("step" if args.step < 1 else "perturb", str(exc))]) from None
    tol = comparemod.DEFAULT_TOL
    header = ["check", "n_points", "max_abs_deviation", "mean_abs_deviation", "status"]
    rows = []
    all_ok = True
    for r in results:
        ok = r.passed(tol)
        all_ok &= ok
        rows.append((r.name, r.n_points, r.max_dev, r.mean_dev, "pass" if ok else "FAIL"))
        print(
            f"{r.name:24s} n={r.n_points:6d}  max|dev|={r.max_dev:.3e}  "
            f"mean|dev|={r.mean_dev:.3e}  {'pass' if ok else 'FAIL'}"
        )
        if not ok:
            print(f"    worst point: {_point_text(r.worst_point)}")
    print(f"tolerance {tol:g}: {'all checks passed' if all_ok else 'DISAGREEMENT FOUND'}")
    if args.out is not None:
        _write_out(_csv(header, rows), args.out)
    return 0 if all_ok else 2


def _mc_report(table: CountTable, probs: np.ndarray) -> str:
    ests = estimate(table)
    header = ["outcome", "count", "estimate", "stderr", "exact", "z"]
    rows = []
    for outcome, exact in zip(all_outcomes(), probs.tolist()):
        est = ests[outcome]
        z = consistency_z(est, exact, table.n_emitted, table.efficiency)
        rows.append((outcome.label(), table.counts[outcome], est.probability, est.stderr, exact, z))
    return _csv(header, rows)


def cmd_mc(args: argparse.Namespace) -> int:
    cfg = _load_config(args)
    _check_phases(cfg["phi_deg"], cfg["psi_deg"])
    point = _library_args(cfg)
    probs = comparemod.outcome_distribution(**{name: point[name] for name in comparemod.DISTRIBUTION_PARAMS})
    table = sample_run(probs, point["run"])
    text = _mc_report(table, probs)
    _write_out(text, args.out)
    if args.out is not None:
        stat, dof = pearson_chi2(table, probs)
        print(
            f"recorded {sum(table.counts.values())} of {table.n_emitted} pairs -> {args.out}"
            f" chi2={stat:.2f} dof={dof}"
        )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="twophoton",
        description="Two-photon splitter interference: sweeps, cross-checks, Monte Carlo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser) -> None:
        p.add_argument("--config", help="JSON configuration file")
        p.add_argument("--out", help="output file path (default: stdout)")
        p.add_argument("--seed", type=int, help="override the configured seed")
        p.add_argument(
            "--set",
            action="append",
            metavar="KEY=VALUE",
            help="override a configuration value (repeatable; dotted paths, e.g. sweep.steps=5)",
        )

    p_sweep = sub.add_parser("sweep", help="evaluate an experiment along a swept parameter")
    common(p_sweep)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_cmp = sub.add_parser("compare", help="cross-check the engine against the closed forms")
    p_cmp.add_argument("--out", help="write the report as CSV to this path")
    p_cmp.add_argument(
        "--step", type=int, default=1, help="thin the four-angle grids by this stride (default 1)"
    )
    p_cmp.add_argument(
        "--perturb",
        action="append",
        metavar="NAME=VALUE",
        help="override a named analytic constant (negative-control self-test)",
    )
    p_cmp.set_defaults(fn=cmd_compare)

    p_mc = sub.add_parser("mc", help="sample a detection run and report estimates")
    common(p_mc)
    p_mc.set_defaults(fn=cmd_mc)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        for path, message in exc.problems:
            print(f"config error at {path}: {message}", file=sys.stderr)
        return 1
    except json.JSONDecodeError as exc:
        print(f"config error: invalid JSON ({exc})", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"config error: not UTF-8 text ({exc})", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
