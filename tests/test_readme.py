"""The README's key, flag and experiment tables say what the code does, its
Python examples run, and the public names they draw on all resolve."""

import json
import re
from pathlib import Path

import pytest

import twophoton
from twophoton.cli import _COMMANDS, KEYS, LIBRARY_NAMES
from twophoton.compare import BOTH_INPUTS, EXPERIMENTS, POLARIZED, UNPOLARIZED

README = Path(__file__).resolve().parent.parent / "README.md"


def table_rows(header: str) -> list[list[str]]:
    """The cells of each body row of the README table whose header row
    starts with `header`."""
    lines = README.read_text(encoding="utf-8").splitlines()
    start = next(i for i, line in enumerate(lines) if line.startswith(header))
    rows = []
    for line in lines[start + 2 :]:  # past the header and its |---| line
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def test_key_table_names_and_defaults_match_keys():
    rows = table_rows("| key | default |")
    assert [row[0].strip("`") for row in rows] == list(KEYS)
    for row in rows:
        default = KEYS[row[0].strip("`")].default
        written = json.loads(row[1].strip("`"))
        assert written == default and type(written) is type(default), row


def test_flag_table_matches_each_subcommands_flags():
    written = {
        (command.strip("`"), flag.strip("`")): (metavar.strip("`"), "repeatable" in what)
        for commands, flag, metavar, what in table_rows("| subcommands | flag |")
        for command in commands.split(", ")
    }
    declared = {
        (command, name): (flag.metavar, flag.repeats)
        for command, spec in _COMMANDS.items()
        for name, flag in spec.flags.items()
    }
    assert written == declared


EXPERIMENT_ROWS = {row[0].strip("`"): row for row in table_rows("| experiment | sweepable |")}
INPUT_WORDS = {"polarized": POLARIZED, "unpolarized": UNPOLARIZED, "either": BOTH_INPUTS}


def test_experiment_table_lists_every_entry_in_order():
    assert list(EXPERIMENT_ROWS) == list(EXPERIMENTS)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_experiment_table_row_matches_its_entry(name):
    entry = EXPERIMENTS[name]
    _, sweepable, inputs, notes = EXPERIMENT_ROWS[name]
    angles = [key for key, library in LIBRARY_NAMES.items() if library in entry.params]
    if sweepable == "all six angles":
        assert angles == list(LIBRARY_NAMES)
    else:
        assert [f"{angle}_deg" for angle in sweepable.split(", ")] == angles
    assert INPUT_WORDS[inputs] == entry.inputs
    assert ("50:50 splitter only" in notes) == ("bs" in entry.held)
    assert ("ψ = 0" in notes) == ("psi" in entry.held)
    assert ("cos φ = cos ψ" in notes) == entry.matched_phases
    assert ("engine cells empty" in notes) == (entry.engine is None)
    assert ("`arm` picks the side" in notes) == ("arm" in entry.params)


def test_readme_python_blocks_run_in_order():
    # later blocks use the names earlier ones define, as a reader runs them
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"), re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, str(README), "exec"), namespace)
    assert namespace["fringe"].shape == (73,)


def test_every_public_name_resolves_once():
    names = twophoton.__all__
    assert len(names) == len(set(names))
    namespace = {}
    exec("from twophoton import *", namespace)  # raises if a listed name does not resolve
    assert set(names) <= namespace.keys()
