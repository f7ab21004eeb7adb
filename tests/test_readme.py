"""The README's key and experiment tables say what the code does."""

import json
from pathlib import Path

import pytest

from twophoton.cli import KEYS, LIBRARY_NAMES
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
    assert ("50:50 splitter only" in notes) == entry.only_5050
    assert ("cos φ = cos ψ" in notes) == entry.matched_phases
    assert ("engine cells empty" in notes) == (entry.engine is None)
    assert ("`arm` picks the side" in notes) == ("arm" in entry.params)
