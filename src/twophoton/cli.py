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
(dotted paths reach into `sweep`).  `KEYS` declares each key once: its
default, its rule and, for an angle, the library parameter it sets.  Angles
cross this boundary in degrees and are converted to radians internally.
`parse_config` checks each key against its own rule only.  The sweepable
parameters, accepted inputs and domain (the 50:50 splitter or psi = 0 where
the closed form holds them fixed; cos(phi) = cos(psi) at every swept point)
of each experiment come from its table entry, and `run_sweep` checks them,
as only a sweep evaluates the experiment.  CSV output uses a comma
delimiter, `.` decimal separator, and 15 significant digits, and is
byte-stable for a fixed configuration and seed; `_csv` writes every CSV,
one format string per row.

`_COMMANDS` declares each subcommand's flags once, as `KEYS` declares the
config keys.  `_read_pairs` reads the argv every caller writes in one pass:
a subcommand, then exact `--flag value` pairs, no value starting with `-`.
Any other argv (`--flag=value`, a prefix of a long flag, a negative value,
`-h`) goes to the parser `_argparser` builds from `_COMMANDS`; only then is
argparse imported, and it reports every usage error.  Both readers keep a
flag's last value, append `--set` and `--perturb` in order and read
integral float text for an int flag (`--seed 1e3` is 1000).  Each `main`
call reads its arguments afresh, so no `--set` list or seed carries over.

Exit codes: 0 success, 1 invalid configuration or command line, 2
comparison failure, 3 file I/O failure.
"""

from __future__ import annotations

import functools
import json
import math
import sys
from types import SimpleNamespace
from typing import TYPE_CHECKING, Any, Callable, NamedTuple, NoReturn, Sequence

import numpy as np

from . import compare as comparemod
from .elements import BeamSplitterSpec
from .engine import OUTCOMES
from .montecarlo import RunConfig, consistency_z, estimate, pearson_chi2, sample_counts

if TYPE_CHECKING:
    import argparse

SCHEMA_VERSION = 1

_SQRT_HALF = 1.0 / math.sqrt(2.0)


def _integer(v: Any) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _real(v: Any) -> bool:
    return _integer(v) or isinstance(v, float)


class Key(NamedTuple):
    """A config key: its default, the rule a valid value passes, the message
    for one that fails (`{!r}` is the value) and an angle's library parameter."""

    default: Any
    rule: Callable[[Any], bool] | None = None
    message: str = ""
    library: str | None = None


# abs(v) <= the largest float also turns away an int too large to convert
_FINITE = (lambda v: _real(v) and abs(v) <= sys.float_info.max, "must be a finite number, got {!r}")
_UNIT = (lambda v: _real(v) and 0.0 <= v <= 1.0, "must lie in [0, 1], got {!r}")

# Every config key, in config order; a dotted name is a key of the `sweep` object.
KEYS: dict[str, Key] = {
    "schema_version": Key(
        SCHEMA_VERSION,
        lambda v: _integer(v) and v == SCHEMA_VERSION,  # not true or 1.0
        f"expected {SCHEMA_VERSION}, got {{!r}}",
    ),
    "experiment": Key(
        "coincidence",
        lambda v: isinstance(v, str) and v in comparemod.EXPERIMENTS,  # a list or dict is unhashable
        "unknown experiment {!r}",
    ),
    "input": Key(
        "polarized",
        lambda v: v in ("polarized", "unpolarized"),
        "must be 'polarized' or 'unpolarized', got {!r}",
    ),
    "theta1p_deg": Key(0.0, *_FINITE, "pol1"),
    "theta2p_deg": Key(0.0, *_FINITE, "pol2"),
    "theta1_deg": Key(0.0, *_FINITE, "ana1"),
    "theta2_deg": Key(0.0, *_FINITE, "ana2"),
    "tx": Key(_SQRT_HALF, *_UNIT),
    "ty": Key(_SQRT_HALF, *_UNIT),
    "phi_deg": Key(0.0, *_FINITE, "phi"),
    "psi_deg": Key(0.0, *_FINITE, "psi"),
    "arm": Key("side2", lambda v: v in ("side1", "side2"), "must be 'side1' or 'side2', got {!r}"),
    "n_pairs": Key(100000, lambda v: _integer(v) and v >= 1, "must be a positive integer, got {!r}"),
    # the estimates divide by efficiency**2
    "efficiency": Key(
        1.0,
        lambda v: _real(v) and 0.0 < v <= 1.0 and v**2 > 0.0,
        "must lie in (0, 1] with efficiency**2 > 0, got {!r}",
    ),
    "seed": Key(0, lambda v: _integer(v) and v >= 0, "must be a nonnegative integer, got {!r}"),
    "sweep.param": Key("phi_deg"),  # checked against the experiment in run_sweep
    "sweep.start": Key(0.0, *_FINITE),
    "sweep.stop": Key(360.0, *_FINITE),
    "sweep.steps": Key(73, lambda v: _integer(v) and v >= 1, "must be an integer >= 1, got {!r}"),
}
DEFAULTS: dict[str, Any] = {key: spec.default for key, spec in KEYS.items() if "." not in key}
DEFAULTS["sweep"] = {key.partition(".")[2]: spec.default for key, spec in KEYS.items() if "." in key}
LIBRARY_NAMES = {key: spec.library for key, spec in KEYS.items() if spec.library}


class ConfigError(Exception):
    """Invalid configuration; `problems` is a list of (field path, message)."""

    def __init__(self, problems: list[tuple[str, str]]):
        self.problems = problems
        super().__init__("; ".join(f"{p}: {m}" for p, m in problems))


class InvalidJSON(Exception):
    """A config file that is UTF-8 text but not JSON the parser accepts."""


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


def _copy_config(cfg: dict[str, Any]) -> dict[str, Any]:
    """A copy of a two-level config: its `sweep` object is copied too."""
    return {key: dict(value) if isinstance(value, dict) else value for key, value in cfg.items()}


def apply_set_overrides(cfg: dict[str, Any], pairs: Sequence[str]) -> dict[str, Any]:
    """Apply repeated --set key=value overrides (dotted paths allowed) to a
    copy of the validated config `cfg`."""
    problems: list[tuple[str, str]] = []
    out = _copy_config(cfg)
    for pair in pairs:
        key, sep, raw = pair.partition("=")
        if not sep:
            problems.append((pair, "expected key=value"))
        elif isinstance(DEFAULTS.get(key), dict):
            example = ", ".join(f"{key}.{sub}=..." for sub in DEFAULTS[key])
            problems.append((key, f"is an object; set its keys with dotted paths ({example})"))
        elif key not in KEYS:
            problems.append((key, "unknown key"))
        else:
            head, _, leaf = key.rpartition(".")
            node, template = out.setdefault(head, {}) if head else out, KEYS[key].default
            try:
                node[leaf] = _coerce_set_value(raw, template)
            except ValueError:
                problems.append((key, f"cannot parse {raw!r} as {type(template).__name__}"))
    if problems:
        raise ConfigError(problems)
    return out


def parse_config(data: dict[str, Any]) -> dict[str, Any]:
    """Merge user data over defaults and check each key against its rule in
    `KEYS`."""
    problems: list[tuple[str, str]] = []
    if not isinstance(data, dict):
        raise ConfigError([("config", "top level must be a JSON object")])
    cfg = _merge(DEFAULTS, data, "", problems)
    for key, spec in KEYS.items():
        head, _, leaf = key.rpartition(".")
        value = (cfg[head] if head else cfg)[leaf]
        if spec.rule is not None and not spec.rule(value):
            problems.append((key, spec.message.format(value)))
    if problems:
        raise ConfigError(problems)
    return cfg


@functools.cache
def _row_format(types: tuple[type, ...]) -> Callable[..., str]:
    """The formatter of a CSV row whose cells have `types`: a float cell
    with 15 significant digits, a None cell as an empty field, any other
    cell as str() of it."""
    fields = (
        "" if t is type(None) else f"{{{i}:.15g}}" if issubclass(t, float) else f"{{{i}!s}}"
        for i, t in enumerate(types)
    )
    return ",".join(fields).format


def _csv(header: Sequence[str], rows: Sequence[Sequence[Any]]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(_row_format(tuple(map(type, row)))(*row))
    return "\n".join(lines) + "\n"


def _sweep_values(sweep: dict[str, Any]) -> list[float]:
    steps = sweep["steps"]
    if steps == 1:
        return [float(sweep["start"])]
    start, stop = float(sweep["start"]), float(sweep["stop"])
    values = [start + (stop - start) * i / (steps - 1) for i in range(steps)]
    if not all(map(math.isfinite, values)):  # stop - start, or a multiple of it, overflows
        raise ConfigError([("sweep", f"the values from start {start!r} to stop {stop!r} overflow a float")])
    return values


def _library_args(cfg: dict[str, Any]) -> dict[str, Any]:
    """Every library parameter of the experiments, from a validated config."""
    args: dict[str, Any] = {name: math.radians(cfg[key]) for key, name in LIBRARY_NAMES.items()}
    args.update(
        bs=BeamSplitterSpec.from_transmission(cfg["tx"], cfg["ty"]),
        arm=cfg["arm"],
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


# The config keys of each parameter a closed form may hold fixed (at their
# defaults), and where it holds it.
_HELD = {"bs": (("tx", "ty"), "for the 50:50 splitter"), "psi": (("psi_deg",), "at psi_deg = 0")}


def run_sweep(cfg: dict[str, Any]) -> str:
    """Evaluate the configured sweep and return its CSV text.  `cfg` has
    passed `parse_config`; it is first checked against its experiment's
    table entry: the swept key, the input and the parameters its closed
    form holds fixed."""
    entry = comparemod.EXPERIMENTS[cfg["experiment"]]
    param = cfg["sweep"]["param"]
    problems = []
    sweepable = sorted(key for key, lib in LIBRARY_NAMES.items() if lib in entry.params)
    if param not in sweepable:
        message = f"{param!r} is not sweepable for experiment {entry.name!r}"
        problems.append(("sweep.param", f"{message} (allowed: {sweepable})"))
    if cfg["input"] not in entry.inputs:
        problems.append(("input", f"experiment {entry.name!r} requires input in {sorted(entry.inputs)}"))
    for name in entry.held:
        keys, where = _HELD[name]
        if any(abs(cfg[key] - KEYS[key].default) > comparemod.DEFAULT_TOL for key in keys):
            problems.append((keys[0], f"experiment {entry.name!r} has a closed form only {where}"))
    if problems:
        raise ConfigError(problems)
    values = _sweep_values(cfg["sweep"])
    if entry.matched_phases:
        phi, psi = cfg["phi_deg"], cfg["psi_deg"]
        # the phases are the same at every point unless one of them is swept
        for value in values if param in ("phi_deg", "psi_deg") else values[:1]:
            _check_phases(value if param == "phi_deg" else phi, value if param == "psi_deg" else psi)
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


def _load_config(args: SimpleNamespace) -> dict[str, Any]:
    """The validated config: the `--config` file over the defaults, then
    the `--set` overrides, then `--seed`.  Each stage reports its own
    problems and stops the ones after it.  The defaults pass every rule, so
    without a file they are not checked; a file is checked whatever it
    holds, so a top level of [], 0, "" or null is still an error.  Only
    `--seed` changes at the last stage, so only its own rule is checked."""
    if args.config is None:
        cfg = _copy_config(DEFAULTS)
    else:
        with open(args.config, "r", encoding="utf-8") as fh:
            text = fh.read()
        # malformed, an int literal past the int-string digit limit, or nested past the recursion limit
        try:
            data = json.loads(text)
        except (ValueError, RecursionError) as exc:
            raise InvalidJSON(exc) from None
        cfg = parse_config(data)
    if args.set:
        cfg = parse_config(apply_set_overrides(cfg, args.set))
    if args.seed is not None:
        key = KEYS["seed"]
        if not key.rule(args.seed):
            raise ConfigError([("seed", key.message.format(args.seed))])
        cfg = {**cfg, "seed": args.seed}
    return cfg


def _write_out(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
    else:
        with open(out_path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def cmd_sweep(args: SimpleNamespace) -> int:
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


def cmd_compare(args: SimpleNamespace) -> int:
    perturbations: dict[str, float] = {}
    for pair in args.perturb:
        if "=" not in pair:
            raise ConfigError([(pair, "expected name=value")])
        name, raw = pair.split("=", 1)
        try:
            perturbations[name] = float(raw)
        except ValueError:
            raise ConfigError([(name, f"cannot parse {raw!r} as float")]) from None
        rule, message = _FINITE
        if not rule(perturbations[name]):
            raise ConfigError([(name, message.format(perturbations[name]))])
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


def _mc_report(counts: np.ndarray, probs: np.ndarray, run: RunConfig) -> str:
    probability, stderr = estimate(counts, run)
    header = ["outcome", "count", "estimate", "stderr", "exact", "z"]
    rows = [
        (label, count, p, se, exact, consistency_z(p, exact, run))
        for label, count, p, se, exact in zip(
            OUTCOMES, counts.tolist(), probability.tolist(), stderr.tolist(), probs.tolist()
        )
    ]
    return _csv(header, rows)


def cmd_mc(args: SimpleNamespace) -> int:
    cfg = _load_config(args)
    _check_phases(cfg["phi_deg"], cfg["psi_deg"])
    point = _library_args(cfg)
    probs = comparemod.outcome_distribution(**{name: point[name] for name in comparemod.DISTRIBUTION_PARAMS})
    run = point["run"]
    counts = sample_counts(probs, run)
    text = _mc_report(counts, probs, run)
    _write_out(text, args.out)
    if args.out is not None:
        stat, dof = pearson_chi2(counts, probs, run)
        print(f"recorded {counts.sum()} of {run.n_pairs} pairs -> {args.out} chi2={stat:.2f} dof={dof}")
    return 0


def _int(raw: str) -> int:
    """An int flag's value, read as an int config key's: `1e3` is 1000."""
    return _coerce_set_value(raw, 0)


_int.__name__ = "int"  # argparse names the type in "invalid int value"


class _Flag(NamedTuple):
    """A command-line flag: the attribute it sets, its value's placeholder
    in usage text, its help, the function that reads its value, whether it
    repeats (each value is appended) and its value when absent."""

    dest: str
    metavar: str
    help: str
    type: Callable[[str], Any] = str
    repeats: bool = False
    default: Any = None


class _Command(NamedTuple):
    """A subcommand: the function it runs, its one-line help and its flags."""

    run: Callable[[SimpleNamespace], int]
    help: str
    flags: dict[str, _Flag]


_CONFIG_FLAGS = {
    "--config": _Flag("config", "CONFIG", "JSON configuration file"),
    "--out": _Flag("out", "OUT", "output file path (default: stdout)"),
    "--seed": _Flag("seed", "SEED", "override the configured seed", _int),
    "--set": _Flag(
        "set",
        "KEY=VALUE",
        "override a configuration value (repeatable; dotted paths, e.g. sweep.steps=5)",
        repeats=True,
    ),
}
# Every subcommand and its flags; both readers of argv and --help come from here.
_COMMANDS = {
    "sweep": _Command(cmd_sweep, "evaluate an experiment along a swept parameter", _CONFIG_FLAGS),
    "compare": _Command(
        cmd_compare,
        "cross-check the engine against the closed forms",
        {
            "--out": _Flag("out", "OUT", "write the report as CSV to this path"),
            "--step": _Flag("step", "STEP", "thin the four-angle grids by this stride (default 1)", _int, default=1),
            "--perturb": _Flag(
                "perturb",
                "NAME=VALUE",
                "override a named analytic constant (negative-control self-test)",
                repeats=True,
            ),
        },
    ),
    "mc": _Command(cmd_mc, "sample a detection run and report estimates", _CONFIG_FLAGS),
}


def _read_pairs(argv: Sequence[str]) -> dict[str, Any] | None:
    """The parsed arguments of `argv`, `command` among them, if it is a
    subcommand followed by exact `--flag value` pairs of its flags, with no
    value that starts with "-" and each value readable; None for any other
    argv."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None or len(argv) % 2 == 0:
        return None
    values = {"command": argv[0]}
    values.update((flag.dest, [] if flag.repeats else flag.default) for flag in command.flags.values())
    for name, raw in zip(argv[1::2], argv[2::2]):
        flag = command.flags.get(name)
        if flag is None or raw[:1] == "-":
            return None
        try:
            value = flag.type(raw)
        except ValueError:
            return None
        if flag.repeats:
            values[flag.dest].append(value)
        else:
            values[flag.dest] = value
    return values


@functools.cache
def _argparser() -> argparse.ArgumentParser:
    """The argparse parser of `_COMMANDS`.  A usage error exits 1, the code
    of an invalid command line, not argparse's 2, the code of a comparison
    failure."""
    import argparse

    class Parser(argparse.ArgumentParser):
        def error(self, message: str) -> NoReturn:
            self.print_usage(sys.stderr)
            self.exit(1, f"{self.prog}: error: {message}\n")

    parser = Parser("twophoton", description="Two-photon splitter interference: sweeps, cross-checks, Monte Carlo.")
    commands = parser.add_subparsers(title="commands", dest="command", required=True)
    for name, command in _COMMANDS.items():
        sub = commands.add_parser(name, help=command.help, description=command.help)
        for option, flag in command.flags.items():
            sub.add_argument(
                option,
                dest=flag.dest,
                metavar=flag.metavar,
                help=flag.help,
                type=flag.type,
                action="append" if flag.repeats else "store",
                default=[] if flag.repeats else flag.default,
            )
    return parser


def _parse(argv: Sequence[str]) -> tuple[_Command, SimpleNamespace]:
    """The subcommand of `argv` and its arguments, each absent flag at its
    default; argparse reads only the argv that `_read_pairs` declines."""
    values = _read_pairs(argv) or vars(_argparser().parse_args(argv))
    return _COMMANDS[values.pop("command")], SimpleNamespace(**values)


def main(argv: Sequence[str] | None = None) -> int:
    command, args = _parse(sys.argv[1:] if argv is None else argv)
    try:
        return command.run(args)
    except ConfigError as exc:
        for path, message in exc.problems:
            print(f"config error at {path}: {message}", file=sys.stderr)
        return 1
    except InvalidJSON as exc:
        print(f"config error: invalid JSON ({exc})", file=sys.stderr)
        return 1
    except UnicodeDecodeError as exc:
        print(f"config error: not UTF-8 text ({exc})", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 3
    except MemoryError:
        print("config error: out of memory; the configured run is too large", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
