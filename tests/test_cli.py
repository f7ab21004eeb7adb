import hashlib
import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import twophoton
from twophoton import cli
from twophoton import compare as comparemod
from twophoton.cli import (
    DEFAULTS,
    ConfigError,
    _csv,
    apply_set_overrides,
    main,
    parse_config,
    run_sweep,
)

TOL = 1e-12


def test_defaults_are_a_valid_config():
    cfg = parse_config({})
    assert cfg == parse_config(DEFAULTS)
    assert cfg["schema_version"] == 1
    assert cfg["experiment"] == "coincidence"


def test_config_round_trips_through_json():
    cfg = parse_config({"theta2p_deg": 90.0, "phi_deg": 45.0, "sweep": {"steps": 7}})
    again = parse_config(json.loads(json.dumps(cfg, indent=2)))
    assert again == cfg


def test_unknown_keys_are_reported_with_paths():
    with pytest.raises(ConfigError) as err:
        parse_config({"theta1_dg": 3.0, "sweep": {"stepz": 4}})
    paths = [p for p, _ in err.value.problems]
    assert "theta1_dg" in paths
    assert "sweep.stepz" in paths


def test_schema_version_is_checked():
    with pytest.raises(ConfigError) as err:
        parse_config({"schema_version": 2})
    assert err.value.problems[0][0] == "schema_version"


def test_experiment_and_input_cross_validation():
    with pytest.raises(ConfigError):
        parse_config({"experiment": "nonsense"})
    # unpolarized experiment demands the matching input kind
    with pytest.raises(ConfigError) as err:
        run_sweep(parse_config({"experiment": "unpolarized", "sweep": {"param": "phi_deg"}}))
    assert any(p == "input" for p, _ in err.value.problems)
    ok = parse_config(
        {"experiment": "unpolarized", "input": "unpolarized", "sweep": {"param": "phi_deg"}}
    )
    assert run_sweep(ok).startswith("phi_deg,analytic,engine,abs_deviation\n")


def test_sweep_param_must_fit_the_experiment():
    cfg = parse_config({"experiment": "unpolarized", "input": "unpolarized", "sweep": {"param": "theta1p_deg"}})
    with pytest.raises(ConfigError) as err:
        run_sweep(cfg)
    assert any(p == "sweep.param" for p, _ in err.value.problems)


def test_5050_only_experiments_reject_other_splitters():
    with pytest.raises(ConfigError):
        run_sweep(parse_config({"experiment": "no_polarizers", "tx": 0.9, "ty": 0.6}))


def test_mc_is_not_held_to_the_rules_of_the_sweep_experiment(capsys):
    # the default experiment, coincidence, takes polarized input only and
    # has no psi, but mc runs no experiment
    argv = ["--set", "input=unpolarized", "--set", "sweep.param=psi_deg", "--set", "n_pairs=1000"]
    assert main(["mc", *argv]) == 0
    captured = capsys.readouterr()
    assert captured.err == ""
    assert captured.out.startswith("outcome,count,estimate,stderr,exact,z\n")
    assert main(["sweep", *argv]) == 1
    assert capsys.readouterr().err == (
        "config error at sweep.param: 'psi_deg' is not sweepable for experiment 'coincidence' "
        "(allowed: ['phi_deg', 'theta1_deg', 'theta1p_deg', 'theta2_deg', 'theta2p_deg'])\n"
        "config error at input: experiment 'coincidence' requires input in ['polarized']\n"
    )


def test_numeric_field_validation():
    with pytest.raises(ConfigError):
        parse_config({"tx": 1.4})
    with pytest.raises(ConfigError):
        parse_config({"n_pairs": 0})
    with pytest.raises(ConfigError):
        parse_config({"efficiency": -0.1})
    with pytest.raises(ConfigError):
        parse_config({"seed": -1})
    with pytest.raises(ConfigError):
        parse_config({"sweep": {"steps": 0}})


def test_set_overrides_coerce_by_key_type():
    cfg = parse_config({})
    out = apply_set_overrides(cfg, ["sweep.steps=5", "phi_deg=90", "input=polarized"])
    assert out["sweep"]["steps"] == 5 and isinstance(out["sweep"]["steps"], int)
    assert out["phi_deg"] == 90.0
    with pytest.raises(ConfigError):
        apply_set_overrides(cfg, ["sweep.steps=abc"])
    with pytest.raises(ConfigError):
        apply_set_overrides(cfg, ["no_such_key=1"])
    with pytest.raises(ConfigError):
        apply_set_overrides(cfg, ["missing-equals"])


def test_set_on_an_object_suggests_dotted_keys():
    with pytest.raises(ConfigError) as err:
        apply_set_overrides(parse_config({}), ["sweep=3"])
    [(path, message)] = err.value.problems
    assert path == "sweep"
    assert "is an object" in message and "sweep.steps=" in message


def test_set_integer_keys_accept_integral_float_text():
    cfg = parse_config({})
    out = apply_set_overrides(cfg, ["n_pairs=1e6", "sweep.steps=7.0"])
    assert out["n_pairs"] == 1000000 and isinstance(out["n_pairs"], int)
    assert out["sweep"]["steps"] == 7 and isinstance(out["sweep"]["steps"], int)
    for raw in ("1.5", "inf", "nan"):
        with pytest.raises(ConfigError) as err:
            apply_set_overrides(cfg, [f"n_pairs={raw}"])
        assert err.value.problems == [("n_pairs", f"cannot parse {raw!r} as int")]


def test_removed_window_ns_key_is_unknown(tmp_path, capsys):
    cfg_path = tmp_path / "old.json"
    cfg_path.write_text(json.dumps({"schema_version": 1, "window_ns": 5.0}))
    assert main(["mc", "--config", str(cfg_path), "--set", "n_pairs=10"]) == 1
    assert "config error at window_ns: unknown key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sets",
    [
        ["experiment=mc_run"],  # the default sweep moves phi away from psi = 0
        ["experiment=full_distribution", "sweep.stop=360", "sweep.steps=3"],
    ],
)
def test_sweeps_off_the_matched_phase_surface_exit_one(sets, capsys):
    assert main(["sweep", *(a for s in sets for a in ("--set", s))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error at phi_deg/psi_deg" in captured.err


def test_sweep_csv_engine_matches_analytic(tmp_path):
    out = tmp_path / "sweep.csv"
    code = main(
        [
            "sweep",
            "--out",
            str(out),
            "--set",
            "sweep.steps=9",
            "--set",
            "sweep.stop=360",
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0] == "phi_deg,analytic,engine,abs_deviation"
    assert len(lines) == 10
    for line in lines[1:]:
        value, analytic, engine, dev = (float(x) for x in line.split(","))
        assert abs(analytic - 0.5 * (1.0 - math.cos(math.radians(value)))) < TOL
        assert dev < TOL


def test_unpolarized_phase_sweep_traces_the_fringe_law(tmp_path):
    out = tmp_path / "fringe.csv"
    code = main(
        [
            "sweep",
            "--out",
            str(out),
            "--set",
            "experiment=unpolarized",
            "--set",
            "input=unpolarized",
            "--set",
            "theta2_deg=0",
            "--set",
            "sweep.param=phi_deg",
            "--set",
            "sweep.steps=73",
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert len(lines) == 74
    for line in lines[1:]:
        value, analytic, _, dev = (float(x) for x in line.split(","))
        # equal analyzer angles: (1 - cos phi)/8
        assert abs(analytic - (1.0 - math.cos(math.radians(value))) / 8.0) < TOL
        assert dev < TOL


def test_unpolarized_analyzer_sweep_traces_sine_squared(tmp_path):
    out = tmp_path / "sin2.csv"
    code = main(
        [
            "sweep",
            "--out",
            str(out),
            "--set",
            "experiment=unpolarized",
            "--set",
            "input=unpolarized",
            "--set",
            "sweep.param=theta2_deg",
            "--set",
            "sweep.start=0",
            "--set",
            "sweep.stop=180",
            "--set",
            "sweep.steps=13",
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    assert abs(rows[0][1]) < TOL  # zero at aligned analyzers
    for value, analytic, _, dev in rows:
        assert abs(analytic - math.sin(math.radians(value)) ** 2 / 8.0) < TOL
        assert dev < TOL


def test_sweep_output_is_byte_stable(tmp_path):
    args = ["sweep", "--set", "sweep.steps=11", "--set", "theta2p_deg=30"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_classical_sweep_has_empty_engine_cells(tmp_path):
    out = tmp_path / "classical.csv"
    code = main(
        [
            "sweep",
            "--out",
            str(out),
            "--set",
            "experiment=classical",
            "--set",
            "sweep.steps=3",
        ]
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    first = lines[1].split(",")
    assert first[1] == "3"  # classical floor at phi = 0
    assert first[2] == "" and first[3] == ""


def test_sweep_respects_config_file(tmp_path):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(
        json.dumps(
            {
                "experiment": "same_arm",
                "psi_deg": 0.0,
                "sweep": {"param": "psi_deg", "start": 0.0, "stop": 180.0, "steps": 3},
            }
        )
    )
    out = tmp_path / "sa.csv"
    assert main(["sweep", "--config", str(cfg_path), "--out", str(out)]) == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("psi_deg,")
    rows = [[float(x) for x in line.split(",")] for line in lines[1:]]
    # aligned photons: bunching (1 + cos psi)/4
    assert abs(rows[0][1] - 0.5) < TOL
    assert abs(rows[1][1] - 0.25) < TOL
    assert abs(rows[2][1]) < TOL


def test_mc_runs_are_seed_deterministic(tmp_path):
    args = [
        "mc",
        "--set",
        "n_pairs=20000",
        "--set",
        "theta2p_deg=90",
        "--set",
        "theta2_deg=90",
        "--seed",
        "42",
    ]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    header = a.read_text().split("\n")[0]
    assert header == "outcome,count,estimate,stderr,exact,z"


MC_BULK_SETS = [
    "experiment=mc_run",
    "input=unpolarized",
    "theta1_deg=0",
    "theta2_deg=30",
    "phi_deg=60",
    "psi_deg=60",
    "efficiency=0.9",
    "n_pairs=131072",
]
MC_BULK_COUNTS = [8242, 11646, 11579, 8411, 10050, 6606, 6703, 9941, 9965, 6675, 6585, 9842]


def test_mc_counts_are_pinned_under_block_v1(capsys):
    # Two whole blocks at the default seed 0; these counts are the run whose
    # digest the benchmark pins, so any change to the draws shows here.
    assert main(["mc", *(a for s in MC_BULK_SETS for a in ("--set", s))]) == 0
    rows = capsys.readouterr().out.strip().split("\n")[1:]
    counts = [int(row.split(",")[1]) for row in rows]
    assert counts == MC_BULK_COUNTS


def test_mc_out_reports_pearson_chi2(tmp_path, capsys):
    out = tmp_path / "run.csv"
    assert main(["mc", *(a for s in MC_BULK_SETS for a in ("--set", s)), "--out", str(out)]) == 0
    # 6.0496 over the pinned counts, by the benchmark's own chi-square
    expected = f"recorded {sum(MC_BULK_COUNTS)} of 131072 pairs -> {out} chi2=6.05 dof=12\n"
    assert capsys.readouterr().out == expected


def test_mc_rejects_unnormalizable_phases(capsys):
    code = main(["mc", "--set", "phi_deg=0", "--set", "psi_deg=180", "--set", "n_pairs=10"])
    assert code == 1
    assert "config error" in capsys.readouterr().err


def test_mc_rejects_zero_efficiency(capsys):
    assert main(["mc", "--set", "efficiency=0", "--set", "n_pairs=10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error at efficiency" in captured.err


def test_mc_rejects_an_efficiency_whose_square_underflows(capsys):
    # 1e-170 lies in (0, 1], but every estimate divides by its square, 0.0
    assert main(["mc", "--set", "efficiency=1e-170", "--set", "n_pairs=10"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error at efficiency" in captured.err


def test_mc_z_stays_finite_when_the_recorded_rate_underflows(capsys):
    # efficiency**2 = 1e-320 is subnormal: the exact rate times it rounds to 0
    assert main(["mc", "--set", "efficiency=1e-160", "--set", "n_pairs=1000"]) == 0
    rows = capsys.readouterr().out.strip().split("\n")
    assert rows[0].endswith(",z")
    z = [row.rsplit(",", 1)[1] for row in rows[1:]]
    assert len(z) == 12
    assert all(math.isfinite(float(v)) for v in z)


def test_mc_z_stays_finite_when_a_sure_outcome_rounds_past_one(capsys):
    # A perfect mirror with every polarizer and analyzer at 105 degrees: the
    # engine gives side1[par]+side2[par] = 1.0000000000000009, which is
    # normalized within TOL, so the run is sampled.
    sets = ["tx=0", "ty=0", "n_pairs=1000"]
    sets += [f"{key}=105" for key in ("theta1p_deg", "theta2p_deg", "theta1_deg", "theta2_deg")]
    assert main(["mc", *(a for s in sets for a in ("--set", s))]) == 0
    rows = [row.split(",") for row in capsys.readouterr().out.strip().split("\n")[1:]]
    assert rows[0][:2] == ["side1[par]+side2[par]", "1000"]
    z = [float(row[-1]) for row in rows]
    assert len(z) == 12 and all(math.isfinite(v) for v in z)
    assert z[0] == 0.0


def test_mc_run_sweep_rejects_zero_efficiency(capsys):
    sets = ["experiment=mc_run", "sweep.param=theta1_deg", "efficiency=0", "n_pairs=10"]
    assert main(["sweep", *(a for s in sets for a in ("--set", s))]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "config error at efficiency" in captured.err


def test_validation_failures_exit_one(capsys):
    code = main(["sweep", "--set", "experiment=bogus"])
    assert code == 1
    err = capsys.readouterr().err
    assert "config error at experiment" in err


def test_missing_config_file_exits_three(capsys):
    code = main(["sweep", "--config", "/no/such/file.json"])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


def test_unwritable_output_exits_three(tmp_path, capsys):
    code = main(["sweep", "--out", str(tmp_path / "missing_dir" / "x.csv"), "--set", "sweep.steps=1"])
    assert code == 3
    capsys.readouterr()


def test_invalid_json_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["sweep", "--config", str(bad)]) == 1
    assert "invalid JSON" in capsys.readouterr().err


def test_non_utf8_config_exits_one(tmp_path, capsys):
    bad = tmp_path / "utf16.json"
    bad.write_bytes(b"\xff\xfe{\x00}\x00")
    assert main(["sweep", "--config", str(bad)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("config error: ")


def test_compare_quick_grid_passes(capsys):
    code = main(["compare", "--step", "16"])
    out = capsys.readouterr().out
    assert code == 0
    assert "all checks passed" in out


def test_compare_detects_perturbed_constant(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    code = main(
        [
            "compare",
            "--step",
            "16",
            "--perturb",
            "unpolarized_5050_prefactor=0.13",
            "--out",
            str(out_csv),
        ]
    )
    assert code == 2
    text = capsys.readouterr().out
    assert "DISAGREEMENT" in text
    # only the failing family names its worst point, on the line after it
    lines = text.splitlines()
    worst = [i for i, line in enumerate(lines) if line.startswith("    worst point: ")]
    assert len(worst) == 1
    assert lines[worst[0] - 1].startswith("unpolarized_5050 ") and lines[worst[0] - 1].endswith("FAIL")
    assert "phi_deg=180" in lines[worst[0]]
    report = out_csv.read_text()
    assert "unpolarized_5050" in report and "FAIL" in report


def test_compare_perturbed_past_the_largest_float_fails_quietly(capsys):
    # 1e308 times a factor above one overflows the closed form to inf: the
    # family fails with an infinite deviation, and no numpy warning is raised
    argv = ["compare", "--step", "4096", "--perturb", "unpolarized_5050_prefactor=1e308"]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err == ""
    failed = [line for line in captured.out.splitlines() if line.endswith("FAIL")]
    assert len(failed) == 1
    assert failed[0].startswith("unpolarized_5050 ") and "max|dev|=inf  mean|dev|=inf" in failed[0]


def test_compare_rejects_unknown_perturbation(capsys):
    assert main(["compare", "--perturb", "bogus=1"]) == 1
    assert "unknown perturbation" in capsys.readouterr().err


@pytest.mark.parametrize("step", ["0", "-1", "-5"])
def test_compare_rejects_a_step_below_one(step, capsys):
    # checked before any family runs, so nothing is printed and no warning raised
    assert main(["compare", "--step", step]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error at step: step must be at least 1, got {step}\n"


def test_compare_step_beyond_the_grid_keeps_the_first_point(capsys):
    # a stride past every grid size keeps one point per thinned family
    assert main(["compare", "--step", str(10**20)]) == 0
    huge = capsys.readouterr().out
    assert main(["compare", "--step", "20736"]) == 0
    assert huge == capsys.readouterr().out


# `compare` output, recorded while each family still ran one engine call per
# value of its first parameter, so a change to how the grid is split into
# calls, or to the kernel's rounding, shows here.
COMPARE_SHA256 = {
    "1": "68ece9aa42bc9323775510987c3eb4ef122ae303f1f44f70d9f9bc65d6b0d248",
    "7": "30af28db9d592cc6bb8a61ee1745b4c62fbc011d45eac6c2d34d9d30cf5c2410",
    "16": "73b9dcab9eae01932744cea821fe48ec0c48c3c766c2725c56f7840ec2620439",
    "4096": "7d47afeecceb263d17f68f235187df8d08ad6f12be938197dd6a47d504701155",
}
NEGATIVE_CONTROL_SHA256 = {
    "stdout": "c6d2ba7f41295181240d4d5ed1945bcbdc2d80e04e928411cd92c2cc22d23056",
    "csv": "152803b8edc5b708317f05180e6bfc61aa7072c527d20793d703fd092438ee4e",
}


@pytest.mark.parametrize("step", COMPARE_SHA256)
def test_compare_output_is_pinned(step, capsys):
    assert main(["compare", "--step", step]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == COMPARE_SHA256[step]


# the full-grid report carries every family's deviations to 15 digits
COMPARE_CSV_SHA256 = "16e1cdf82d268b09dc5a68ea2d80c70328327023c1a8234e7eaa750f4c3d7b62"


def test_compare_full_grid_csv_is_pinned(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    assert main(["compare", "--out", str(out_csv)]) == 0
    capsys.readouterr()
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == COMPARE_CSV_SHA256


def test_compare_negative_control_output_is_pinned(tmp_path, capsys):
    out_csv = tmp_path / "report.csv"
    argv = ["compare", "--step", "4096", "--perturb", "unpolarized_5050_prefactor=0.13", "--out", str(out_csv)]
    assert main(argv) == 2
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == NEGATIVE_CONTROL_SHA256["stdout"]
    assert hashlib.sha256(out_csv.read_bytes()).hexdigest() == NEGATIVE_CONTROL_SHA256["csv"]


def _run_fresh(code):
    """Run `code` in a fresh interpreter that imports this package."""
    package_root = str(Path(twophoton.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))}
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)


def test_successive_main_calls_stay_independent(monkeypatch, capsys):
    seen = []
    load_config = cli._load_config

    def recording(args):
        seen.append(dict(vars(args)))
        return load_config(args)

    monkeypatch.setattr(cli, "_load_config", recording)
    # a sweep with several --set and a --seed, a command-line rejection, a bad config
    seeded = ["--set", "experiment=mc_run", "--set", "sweep.param=theta1_deg", "--set", "sweep.steps=3"]
    assert main(["sweep", *seeded, "--set", "n_pairs=500", "--seed", "7"]) == 0
    with pytest.raises(SystemExit) as rejected:
        main(["sweep", "--no-such-flag"])
    assert rejected.value.code == 1
    assert main(["sweep", "--set", "tx=2"]) == 1
    capsys.readouterr()
    # ... then a plain sweep gets every default and prints what it prints
    # as the first call of a process
    assert main(["sweep"]) == 0
    out = capsys.readouterr().out
    assert seen[-1] == {"config": None, "out": None, "seed": None, "set": []}
    fresh = _run_fresh("import sys; from twophoton.cli import main; sys.exit(main(['sweep']))")
    assert fresh.returncode == 0, fresh.stderr
    assert out == fresh.stdout


def test_the_cli_imports_and_runs_without_argparse():
    code = (
        "import sys\n"
        "from twophoton.cli import main\n"
        "imported = 'argparse' in sys.modules\n"
        "main(['sweep', '--set', 'sweep.steps=2'])\n"
        "sys.exit(imported or 'argparse' in sys.modules)\n"
    )
    fresh = _run_fresh(code)
    assert fresh.returncode == 0, fresh.stderr


def test_seed_flag_reads_integral_float_text_as_set_does(capsys):
    outputs = []
    for argv in (["--seed", "1e3"], ["--set", "seed=1e3"], ["--seed", "1000"]):
        assert main(["mc", "--set", "n_pairs=2000", *argv]) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] == outputs[2]


def _csv_cell_by_cell(header, rows):
    """The CSV rule `_csv` had before it formatted whole rows, kept as the reference."""
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join("" if v is None else f"{v:.15g}" if isinstance(v, float) else str(v) for v in row))
    return "\n".join(lines) + "\n"


def test_row_formatter_matches_the_cell_by_cell_rule():
    floats = [-0.0, 0.0, 1e-300, 5e-324, 1e16, 1.0 / 3.0, -2.5, math.inf, -math.inf, math.nan]
    rows = [
        floats,
        [1.0 / 7.0, 3, "pass", None],
        [-0.0, -12, "{0}", None],  # the same cell types again, and braces in a string
        [None, None],
        [],
        [7, 2**70, True, "side1[par]+side2[perp]", 1e16, None, 5e-324],
        (np.float64(0.1), np.int64(-3), np.float64(math.nan), "FAIL"),
        [4.0],
    ]
    header = ["a", "b", "c"]
    assert _csv(header, rows) == _csv_cell_by_cell(header, rows)
    assert _csv(header, []) == "a,b,c\n"
    # a header is text even where it looks like a format field
    braces = ["{0}", "{}", "x{{y}}", "{:.15g}"]
    assert _csv(braces, rows) == _csv_cell_by_cell(braces, rows)
    # a sweep-sized block of rows of one layout
    values = np.linspace(-1.0, 1.0, 73).tolist()
    for block in (
        [(v, v / 3.0, v * 1e300, abs(v - 0.5)) for v in values],
        [(v, 3.0 + v, None, None) for v in values],
    ):
        assert _csv(braces, block) == _csv_cell_by_cell(braces, block)


def test_run_sweep_single_step_uses_start_value():
    cfg = parse_config({"sweep": {"param": "phi_deg", "start": 180.0, "stop": 360.0, "steps": 1}})
    text = run_sweep(cfg)
    lines = text.strip().split("\n")
    assert len(lines) == 2
    assert lines[1].startswith("180,")


# CLI output off the pi/12 lattice, at a non-50:50 splitter and phi = psi
# != 0 (and once at phi = -psi).  The distribution digests were recorded
# while the distribution was still evaluated one point at a time, so any
# change to its rounding, or to the counts drawn from it, shows here; every
# other experiment's sweep is pinned as well.  An experiment whose closed
# form holds the splitter or psi fixed leaves them at their defaults (50:50,
# psi = 0).  (`mc` ignores the experiment; `mc_run` only makes theta1_deg
# sweepable.)
OFF_LATTICE_SETS = [
    "theta1p_deg=17.3",
    "theta2p_deg=71.9",
    "theta1_deg=23.1",
    "theta2_deg=-41.7",
    "tx=0.83",
    "ty=0.37",
    "sweep.param=theta1_deg",
    "sweep.start=-13.4",
    "sweep.stop=200.2",
    "sweep.steps=29",
    "n_pairs=20000",
    "efficiency=0.9",
    "seed=7",
]
INPUT_CASES = {
    "polarized": ["input=polarized", "phi_deg=37.7", "psi_deg=37.7"],
    "unpolarized": ["input=unpolarized", "phi_deg=37.7", "psi_deg=37.7"],
    "opposite_phases": ["input=unpolarized", "phi_deg=-151.3", "psi_deg=151.3"],
    # unpolarized light ignores the swept incident angle, yet every row is kept
    "unpolarized_ignored_angle": [
        "input=unpolarized", "phi_deg=37.7", "psi_deg=37.7", "sweep.param=theta1p_deg"
    ],
    # polarized light detected on one named side
    "side1": ["input=polarized", "phi_deg=37.7", "psi_deg=37.7", "arm=side1"],
    "side2": ["input=polarized", "phi_deg=37.7", "psi_deg=37.7", "arm=side2"],
    # polarized light swept in its incident angle, for an experiment without analyzers
    "incident_angle": ["input=polarized", "phi_deg=37.7", "psi_deg=37.7", "sweep.param=theta1p_deg"],
}
PINNED_SHA256 = {
    ("sweep", "full_distribution", "polarized"):
        "36c8368dbe72b58860f9ce68b4e4a197a3be22d329265410936739e492db7cd6",
    ("sweep", "full_distribution", "unpolarized"):
        "e4d1f20344e737275ef44d9f119914529099046d10673b228917fb59e7848804",
    ("sweep", "full_distribution", "opposite_phases"):
        "3b994ed7015cd9c426a84e8299a604f52534adff4aff8afacb6a0c2a483e2f29",
    ("sweep", "mc_run", "polarized"):
        "8d31a86b67013d4b8e25828045f11c661e0c7c68eb900c5c03dc5c50af417b47",
    ("sweep", "mc_run", "unpolarized"):
        "23286ec1941a9316af72a7b0c5ab4115ee3fefdace30bb93057b1e9a29631847",
    ("sweep", "mc_run", "opposite_phases"):
        "d5ccd5fc24ebb5a118e2f9574e806389188a7ae8fe6aa89c1f9ef238a358056c",
    ("sweep", "full_distribution", "unpolarized_ignored_angle"):
        "9c7716fc9535c277d117644e33d0d58f1dafff2b568b10aa0675bb3a55f218b4",
    ("sweep", "mc_run", "unpolarized_ignored_angle"):
        "cb373b9f07c8bd8496eabf986e8f504b2272a83763cf1c8234e777d74085e82c",
    ("mc", "mc_run", "polarized"):
        "199a84302dd5a6ff0030d8e37ad01331fb1827d15a45e0f33089b79508cd7bcf",
    ("mc", "mc_run", "unpolarized"):
        "0b88e5f7f76410a58dc386ab34eac4ccf288fe7e73f802bd109792f6cfd6cf30",
    ("mc", "mc_run", "opposite_phases"):
        "31741a6b0239770422b2bd5026037d05a3c899052547463e47cc61a980628910",
    ("sweep", "coincidence", "polarized"):
        "465a2e3efd3587fcc2d49c11cf318a95e424dc335576feee77d1cfb2cd38b41d",
    ("sweep", "unpolarized", "unpolarized"):
        "0c6363f2e51ec912ffcc55da7f59110d80eec9d2687b759b547106818bd6cf8f",
    ("sweep", "same_arm", "side1"):
        "4222dfcfed9396f2b18a032b69079c56bba72b4a48fef09ac3c7c44d94458be7",
    ("sweep", "same_arm", "side2"):
        "018f1649f49a44464dc0059762b4d552d0a204da0bddfb24bac6483ca2e8017e",
    ("sweep", "unpolarized_5050", "unpolarized"):
        "4d8295d04c1fd6126e52313dddf90d48718e6e1672413a3d5329b8ead3c7f792",
    ("sweep", "no_polarizers", "incident_angle"):
        "ce20ecf0ce5661705506f80aaebc2603f1758ef459a4d641277619c1e1a6bef7",
    ("sweep", "same_arm_no_polarizers", "incident_angle"):
        "4df180bb6953c57b918bf80f9506956fa23ba068537da1a1ff6449f21add7ece",
    ("sweep", "unpolarized_same_arm", "unpolarized"):
        "987867900e7b65cd534b982a22565cab8c1930fecb230414c4a7a549d3c4813f",
    ("sweep", "double_trigger", "side1"):
        "18c5d21778f5ddbd35b3f5f6676a8ae8aec7c7cb09cef99c11f821f5511c9e71",
    ("sweep", "double_trigger", "side2"):
        "a2ee0b9326e7999944a60a3fe9f8246865bc9fb52f9a29c90fe598ee512cb586",
    ("sweep", "classical", "polarized"):
        "7383e5f76a8d77344e82b0a316ce9ea61fa09f776e385e0311f61da8a8110a53",
}


def test_an_mc_run_sweep_builds_one_distribution(monkeypatch, capsys):
    # the exact column and the Monte Carlo estimate read one distribution,
    # and every sweep builds its own, also after a sweep of the same config
    calls, full = [], comparemod.full_outcome_distribution
    monkeypatch.setattr(comparemod, "full_outcome_distribution", lambda *args: calls.append(args) or full(*args))
    outputs = []
    for theta2 in ("-41.7", "12.9", "-41.7", "-41.7"):
        sets = [*OFF_LATTICE_SETS, *INPUT_CASES["polarized"], "experiment=mc_run", f"theta2_deg={theta2}"]
        assert main(["sweep", *(arg for pair in sets for arg in ("--set", pair))]) == 0
        outputs.append(capsys.readouterr().out)
        assert len(calls) == len(outputs)
    assert outputs[0] == outputs[2] == outputs[3] != outputs[1]
    digest = hashlib.sha256(outputs[0].encode()).hexdigest()
    assert digest == PINNED_SHA256[("sweep", "mc_run", "polarized")]


@pytest.mark.parametrize("command, experiment, case", PINNED_SHA256, ids=["-".join(key) for key in PINNED_SHA256])
def test_distribution_outputs_are_pinned(command, experiment, case, capsys):
    held = tuple(f"{key}=" for name in comparemod.EXPERIMENTS[experiment].held for key in cli._HELD[name][0])
    sets = [s for s in (*OFF_LATTICE_SETS, *INPUT_CASES[case]) if not s.startswith(held)]
    sets.append(f"experiment={experiment}")
    assert main([command, *(a for s in sets for a in ("--set", s))]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == PINNED_SHA256[command, experiment, case]
