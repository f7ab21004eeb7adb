"""The exact text and exit code of each config error the CLI reports.

Each case runs one subcommand on a bad configuration (a JSON file, `--set`
overrides, or both) and pins every line it writes to stderr.  Nothing goes
to stdout and the exit code is 1.  A command line the parser rejects
exits 1 too, so that no input error shares the comparison failure's 2.
"""

import json

import pytest

from twophoton import cli
from twophoton.cli import main


def sets(*pairs: str) -> list[str]:
    return [arg for pair in pairs for arg in ("--set", pair)]


# name -> (subcommand, config file contents or None, further argv, stderr
# lines without their "config error at " prefix)
CASES = {
    "experiment": ("sweep", None, sets("experiment=bogus"), ["experiment: unknown experiment 'bogus'"]),
    "input": (
        "sweep",
        None,
        sets("input=sideways"),
        ["input: must be 'polarized' or 'unpolarized', got 'sideways'"],
    ),
    "arm": ("sweep", None, sets("arm=side3"), ["arm: must be 'side1' or 'side2', got 'side3'"]),
    "angle_nan": ("sweep", None, sets("theta1p_deg=nan"), ["theta1p_deg: must be a finite number, got nan"]),
    "angle_inf": ("sweep", None, sets("psi_deg=-inf"), ["psi_deg: must be a finite number, got -inf"]),
    "tx": ("sweep", None, sets("tx=1.4"), ["tx: must lie in [0, 1], got 1.4"]),
    "ty": ("sweep", None, sets("ty=-0.1"), ["ty: must lie in [0, 1], got -0.1"]),
    "n_pairs": ("mc", None, sets("n_pairs=0"), ["n_pairs: must be a positive integer, got 0"]),
    "efficiency": (
        "mc",
        None,
        sets("efficiency=1.5"),
        ["efficiency: must lie in (0, 1] with efficiency**2 > 0, got 1.5"],
    ),
    "efficiency_underflow": (
        "mc",
        None,
        sets("efficiency=1e-170"),
        ["efficiency: must lie in (0, 1] with efficiency**2 > 0, got 1e-170"],
    ),
    "seed_flag": ("mc", None, ["--seed", "-1"], ["seed: must be a nonnegative integer, got -1"]),
    "seed_flag_sweep": ("sweep", None, ["--seed", "-1"], ["seed: must be a nonnegative integer, got -1"]),
    "seed_flag_equals": ("mc", None, ["--seed=-3"], ["seed: must be a nonnegative integer, got -3"]),
    "step_flag": ("compare", None, ["--step", "0"], ["step: step must be at least 1, got 0"]),
    # a file's own problem stops the run before --seed applies
    "seed_in_file_and_flag": (
        "sweep",
        {"seed": -1},
        ["--seed", "3"],
        ["seed: must be a nonnegative integer, got -1"],
    ),
    # a --set problem stops the run before --seed is checked
    "set_then_seed_flag": (
        "mc",
        None,
        [*sets("sweep.steps=abc"), "--seed", "-1"],
        ["sweep.steps: cannot parse 'abc' as int"],
    ),
    # a non-finite constant would make the negative control fail on nan or inf
    "perturb_overflow": (
        "compare",
        None,
        ["--perturb", "unpolarized_5050_prefactor=1e400"],
        ["unpolarized_5050_prefactor: must be a finite number, got inf"],
    ),
    "perturb_inf": (
        "compare",
        None,
        ["--perturb", "unpolarized_5050_prefactor=-inf"],
        ["unpolarized_5050_prefactor: must be a finite number, got -inf"],
    ),
    "perturb_nan": (
        "compare",
        None,
        ["--perturb", "unpolarized_5050_prefactor=nan"],
        ["unpolarized_5050_prefactor: must be a finite number, got nan"],
    ),
    "perturb_not_a_pair": ("compare", None, ["--perturb", "bogus"], ["bogus: expected name=value"]),
    "perturb_not_a_float": ("compare", None, ["--perturb", "x=abc"], ["x: cannot parse 'abc' as float"]),
    "sweep_steps": ("sweep", None, sets("sweep.steps=0"), ["sweep.steps: must be an integer >= 1, got 0"]),
    "sweep_stop": ("sweep", None, sets("sweep.stop=nan"), ["sweep.stop: must be a finite number, got nan"]),
    "schema_version": ("sweep", None, sets("schema_version=2"), ["schema_version: expected 1, got 2"]),
    # true == 1 and 1.0 == 1, but neither is the integer 1
    "schema_version_bool": ("sweep", {"schema_version": True}, [], ["schema_version: expected 1, got True"]),
    "schema_version_float": ("sweep", {"schema_version": 1.0}, [], ["schema_version: expected 1, got 1.0"]),
    "bool_from_json": (
        "sweep",
        {"tx": True, "theta2_deg": False},
        [],
        ["theta2_deg: must be a finite number, got False", "tx: must lie in [0, 1], got True"],
    ),
    "null_from_json": (
        "mc",
        {"phi_deg": None, "seed": None},
        [],
        ["phi_deg: must be a finite number, got None", "seed: must be a nonnegative integer, got None"],
    ),
    "string_from_json": (
        "mc",
        {"n_pairs": "10", "sweep": {"start": "0"}},
        [],
        ["n_pairs: must be a positive integer, got '10'", "sweep.start: must be a finite number, got '0'"],
    ),
    "float_for_int": (
        "sweep",
        {"seed": 1.5, "sweep": {"steps": 7.0}},
        [],
        ["seed: must be a nonnegative integer, got 1.5", "sweep.steps: must be an integer >= 1, got 7.0"],
    ),
    "unknown_keys": (
        "sweep",
        {"theta1_dg": 3.0, "sweep": {"stepz": 4}},
        [],
        ["theta1_dg: unknown key", "sweep.stepz: unknown key"],
    ),
    "not_an_object": ("sweep", {"sweep": 3}, [], ["sweep: expected an object"]),
    "top_level": ("sweep", [1], [], ["config: top level must be a JSON object"]),
    "set_object": (
        "sweep",
        None,
        sets("sweep=3"),
        [
            "sweep: is an object; set its keys with dotted paths "
            "(sweep.param=..., sweep.start=..., sweep.stop=..., sweep.steps=...)"
        ],
    ),
    "set_unparsable": (
        "sweep",
        None,
        sets("sweep.steps=abc", "n_pairs=1.5", "phi_deg=x"),
        [
            "sweep.steps: cannot parse 'abc' as int",
            "n_pairs: cannot parse '1.5' as int",
            "phi_deg: cannot parse 'x' as float",
        ],
    ),
    "set_unknown": (
        "sweep",
        None,
        sets("no_such_key=1", "missing-equals", "sweep.steps.x=1"),
        ["no_such_key: unknown key", "missing-equals: expected key=value", "sweep.steps.x: unknown key"],
    ),
    "sweep_param": (
        "sweep",
        None,
        sets("experiment=unpolarized", "input=unpolarized", "sweep.param=theta1p_deg"),
        [
            "sweep.param: 'theta1p_deg' is not sweepable for experiment 'unpolarized' "
            "(allowed: ['phi_deg', 'theta1_deg', 'theta2_deg'])"
        ],
    ),
    "input_kind": (
        "sweep",
        None,
        sets("experiment=unpolarized"),
        ["input: experiment 'unpolarized' requires input in ['unpolarized']"],
    ),
    "fifty_fifty": (
        "sweep",
        None,
        sets("experiment=no_polarizers", "tx=0.9", "ty=0.6"),
        ["tx: experiment 'no_polarizers' has a closed form only for the 50:50 splitter"],
    ),
    # a file with several problems stops before its --set overrides apply;
    # each key's own problem comes in config key order, and a key problem
    # stops the run before the sweep checks the experiment
    "several": (
        "sweep",
        {
            "experiment": "no_polarizers",
            "bogus": 1,
            "arm": "x",
            "phi_deg": None,
            "tx": 1.4,
            "sweep": {"steps": 0, "start": "a"},
        },
        sets("n_pairs=0"),
        [
            "bogus: unknown key",
            "tx: must lie in [0, 1], got 1.4",
            "phi_deg: must be a finite number, got None",
            "arm: must be 'side1' or 'side2', got 'x'",
            "sweep.start: must be a finite number, got 'a'",
            "sweep.steps: must be an integer >= 1, got 0",
        ],
    ),
    # inputs that once ended in a traceback
    "experiment_list": (
        "sweep",
        {"experiment": ["coincidence"]},
        [],
        ["experiment: unknown experiment ['coincidence']"],
    ),
    "experiment_dict": (
        "mc",
        {"experiment": {"name": "mc_run"}},
        [],
        ["experiment: unknown experiment {'name': 'mc_run'}"],
    ),
    "tx_string_at_5050": (
        "sweep",
        {"experiment": "no_polarizers", "tx": "0.7"},
        [],
        ["tx: must lie in [0, 1], got '0.7'"],
    ),
    # an int too large for a float, so it has no value in radians
    "angle_int_overflow": (
        "sweep",
        {"phi_deg": 2**1024},
        [],
        [f"phi_deg: must be a finite number, got {2**1024}"],
    ),
    "sweep_overflow": (
        "sweep",
        None,
        sets("sweep.start=-1e308", "sweep.stop=1e308", "sweep.steps=3"),
        ["sweep: the values from start -1e+308 to stop 1e+308 overflow a float"],
    ),
    # stop - start is finite, twice it is not
    "sweep_overflow_distribution": (
        "sweep",
        None,
        sets(
            "experiment=full_distribution",
            "sweep.param=theta1_deg",
            "sweep.start=-8e307",
            "sweep.stop=8e307",
        ),
        ["sweep: the values from start -8e+307 to stop 8e+307 overflow a float"],
    ),
}


@pytest.mark.parametrize("name", CASES)
def test_config_error_text_is_pinned(name, tmp_path, capsys):
    command, config, argv, lines = CASES[name]
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config))
        argv = ["--config", str(path), *argv]
    assert main([command, *argv]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "".join(f"config error at {line}\n" for line in lines)


@pytest.mark.parametrize("text", ["[]", "0", '""', "false", "null"])
def test_a_config_file_that_is_not_an_object_is_checked(text, tmp_path, capsys):
    # empty or false data is still data: the file is checked, not the defaults
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error at config: top level must be a JSON object\n"


@pytest.mark.parametrize(
    "text",
    [
        '{"phi_deg": ' + "1" * 4301 + "}",  # past the int-string conversion limit of 4300 digits
        "[" * 100_000 + "]" * 100_000,  # nested past the recursion limit
    ],
    ids=["int_past_digit_limit", "nested_past_recursion_limit"],
)
def test_json_the_parser_refuses_is_invalid_json(text, tmp_path, capsys):
    # json raises a plain ValueError or a RecursionError here, not a
    # JSONDecodeError; the reason in parentheses is the interpreter's own
    try:
        json.loads(text)
    except (ValueError, RecursionError) as exc:
        reason = str(exc)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["sweep", "--config", str(path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"config error: invalid JSON ({reason})\n"
    assert reason.startswith(("Exceeds the limit (4300", "maximum recursion depth exceeded"))


def test_a_run_too_large_for_memory_is_a_config_error(monkeypatch, capsys):
    # `sweep --set sweep.steps=60000000` under `ulimit -v 1500000` runs out
    # of memory while listing the swept values
    def exhausted(sweep):
        raise MemoryError

    monkeypatch.setattr(cli, "_sweep_values", exhausted)
    assert main(["sweep", *sets("sweep.steps=60000000")]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: out of memory; the configured run is too large\n"


# name -> (argv, the start of the last stderr line, worded as argparse words it)
USAGE_ERRORS = {
    "seed_not_an_int": (["sweep", "--seed", "abc"], "twophoton sweep: error: argument --seed: invalid int value: 'abc'"),
    "step_not_an_int": (["compare", "--step", "x"], "twophoton compare: error: argument --step: invalid int value: 'x'"),
    "unknown_flag": (["mc", "--no-such-flag"], "twophoton: error: unrecognized arguments: --no-such-flag"),
    "unknown_subcommand": (["bogus"], "twophoton: error: argument command: invalid choice: 'bogus'"),
    "no_subcommand": ([], "twophoton: error: the following arguments are required: command"),
    "set_without_value": (["sweep", "--set"], "twophoton sweep: error: argument --set: expected one argument"),
    "out_without_value": (["sweep", "--out"], "twophoton sweep: error: argument --out: expected one argument"),
    "ambiguous_prefix": (
        ["sweep", "--se", "3"],
        "twophoton sweep: error: ambiguous option: --se could match --seed, --set",
    ),
    # a value may start with "-" only if it reads as a negative number
    "dash_value": (["sweep", "--set", "-x=1"], "twophoton sweep: error: argument --set: expected one argument"),
    "seed_not_integral": (["mc", "--seed", "1.5"], "twophoton mc: error: argument --seed: invalid int value: '1.5'"),
    "help_with_value": (["sweep", "-h=x"], "twophoton sweep: error: argument -h/--help: ignored explicit argument 'x'"),
    "extra_positional": (["sweep", "extra"], "twophoton: error: unrecognized arguments: extra"),
}


@pytest.mark.parametrize("name", USAGE_ERRORS)
def test_a_command_line_argparse_rejects_exits_1(name, capsys):
    argv, error = USAGE_ERRORS[name]
    with pytest.raises(SystemExit) as rejected:
        main(argv)
    assert rejected.value.code == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("usage: twophoton")
    assert captured.err.splitlines()[-1].startswith(error)


# every subcommand and the flags its help lists
FLAGS = {
    "sweep": ["--config", "--out", "--seed", "--set"],
    "compare": ["--out", "--step", "--perturb"],
    "mc": ["--config", "--out", "--seed", "--set"],
}


@pytest.mark.parametrize("argv", [["--help"], ["-h"], *([command, "--help"] for command in FLAGS)], ids=" ".join)
def test_help_still_exits_0(argv, capsys):
    with pytest.raises(SystemExit) as shown:
        main(argv)
    assert shown.value.code == 0
    out = capsys.readouterr().out
    assert out.startswith(f"usage: twophoton {argv[0]} " if argv[0] in FLAGS else "usage: twophoton ")
    for word in FLAGS.get(argv[0], FLAGS):
        assert word in out


SMALL_MC = ["--set", "n_pairs=2000"]

# name -> (argv, an argv that must print the same, an argv that must not);
# {config} is the path of a config file that sweeps same_arm over psi in five steps
ACCEPTED_FORMS = {
    "flag_equals_value": (["mc", "--seed=7", *SMALL_MC], ["mc", "--seed", "7", *SMALL_MC], ["mc", *SMALL_MC]),
    "set_equals_pair": (["sweep", "--set=tx=0.5"], ["sweep", "--set", "tx=0.5"], ["sweep"]),
    "unique_prefix": (["sweep", "--conf", "{config}"], ["sweep", "--config", "{config}"], ["sweep"]),
    "last_seed_wins": (
        ["mc", "--seed", "1", "--seed", "2", *SMALL_MC],
        ["mc", "--seed", "2", *SMALL_MC],
        ["mc", "--seed", "1", *SMALL_MC],
    ),
}


@pytest.mark.parametrize("name", ACCEPTED_FORMS)
def test_accepted_command_line_forms(name, tmp_path, capsys):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"experiment": "same_arm", "sweep": {"param": "psi_deg", "steps": 5}}))
    outputs = []
    for argv in ACCEPTED_FORMS[name]:
        assert main([arg.format(config=path) for arg in argv]) == 0
        captured = capsys.readouterr()
        assert captured.err == ""
        outputs.append(captured.out)
    given, same, other = outputs
    assert given == same
    assert given != other


# the given form of these rows is not exact `--flag value` pairs
NOT_PAIRS = ("flag_equals_value", "set_equals_pair", "unique_prefix")
# argv of exact pairs: every other row of ACCEPTED_FORMS, and argv shaped
# as the benchmark's sweep, compare and mc ops
PAIRS = {
    **{
        f"{name}_{i}": argv
        for name, rows in ACCEPTED_FORMS.items()
        for i, argv in enumerate(rows)
        if i or name not in NOT_PAIRS
    },
    "sweep_op": [
        "sweep",
        "--seed",
        "123",
        *sets(
            "experiment=same_arm",
            "input=polarized",
            "theta1p_deg=12.25",
            "theta2p_deg=-33.5",
            "tx=0.83",
            "ty=0.37",
            "arm=side1",
            "sweep.param=psi_deg",
        ),
    ],
    "compare_op": ["compare", "--step", "1"],
    "negative_control_op": ["compare", "--step", "4096", "--perturb", "unpolarized_5050_prefactor=0.13"],
    "mc_op": ["mc", "--seed", "1e3", *sets("experiment=mc_run", "input=unpolarized", "efficiency=0.9")],
}
# argv that argparse reads: the given form of NOT_PAIRS and every usage error
DECLINED = {
    **{name: ACCEPTED_FORMS[name][0] for name in NOT_PAIRS},
    **{name: argv for name, (argv, _) in USAGE_ERRORS.items()},
}


@pytest.mark.parametrize("name", PAIRS)
def test_the_pair_reader_reads_exact_pairs_as_argparse_does(name):
    argv = PAIRS[name]
    assert cli._read_pairs(argv) == vars(cli._argparser().parse_args(argv))


@pytest.mark.parametrize("name", DECLINED)
def test_the_pair_reader_leaves_every_other_argv_to_argparse(name):
    assert cli._read_pairs(DECLINED[name]) is None
