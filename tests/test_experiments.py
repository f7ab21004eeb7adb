"""Tests over the experiment table that drives `sweep` and `compare`.

Every entry with an engine and a closed form is checked at continuous
random parameters inside its domain, and every experiment's sweep is
checked against its row-by-row evaluation with scalar parameters.
"""

import dataclasses
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophoton import compare
from twophoton.cli import LIBRARY_NAMES, _csv, _library_args, _sweep_values, parse_config, run_sweep
from twophoton.compare import EXPERIMENTS
from twophoton.elements import BeamSplitterSpec
from twophoton.engine import Arm
from twophoton.montecarlo import RunConfig

TOL = 1e-12
ANGLE_PARAMS = ("pol1", "pol2", "ana1", "ana2")

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
splitters = st.builds(
    BeamSplitterSpec.from_transmission,
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


def values_at(entry, point):
    """(closed form, engine) of `entry` at one point of scalar parameters."""
    return entry.formula(**point), None if entry.engine is None else entry.engine(**point)


# the Monte Carlo entry is stochastic, so it has no exact agreement to check
CHECKED = [e for e in EXPERIMENTS.values() if e.engine is not None and "run" not in e.params]


@pytest.mark.parametrize("entry", CHECKED, ids=lambda e: e.name)
@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_engine_matches_closed_form_inside_the_domain(entry, data):
    point = {}
    for name in entry.params:
        if name in ANGLE_PARAMS:
            point[name] = data.draw(angles, label=name)
        elif name in ("phi", "psi"):
            point[name] = data.draw(phases, label=name)
        elif name == "bs":
            fixed = BeamSplitterSpec.fifty_fifty() if entry.only_5050 else None
            point[name] = fixed or data.draw(splitters, label=name)
        elif name == "arm":
            point[name] = data.draw(st.sampled_from(Arm), label=name)
        else:
            assert name == "input_kind"
            point[name] = data.draw(st.sampled_from(entry.inputs), label=name)
    if entry.matched_phases:
        point["psi"] = -point["phi"]
    ana, eng = values_at(entry, point)
    assert abs(eng - ana) <= TOL
    assert -TOL <= eng <= 1.0 + TOL
    for name in set(ANGLE_PARAMS) & set(entry.params):
        shifted = values_at(entry, {**point, name: point[name] + math.pi})
        assert abs(shifted[0] - ana) <= TOL and abs(shifted[1] - eng) <= TOL


def off_lattice_config(name: str) -> dict:
    """A sweep of `name` at seeded continuous parameters, off the pi/12 lattice."""
    rng = random.Random(26)
    entry = EXPERIMENTS[name]
    cfg = {key: rng.uniform(0.0, 180.0) for key in LIBRARY_NAMES}
    cfg.update(experiment=name, input=entry.inputs[-1], n_pairs=3000, efficiency=0.9, arm="side1")
    if not entry.only_5050:
        cfg.update(tx=rng.uniform(0.05, 0.95), ty=rng.uniform(0.05, 0.95))
    if entry.matched_phases:
        cfg["psi_deg"] = cfg["phi_deg"]
        param = "theta1_deg"
    else:
        candidates = ("phi_deg", "psi_deg", "theta1_deg", "theta1p_deg")
        param = next(key for key in candidates if LIBRARY_NAMES[key] in entry.params)
    cfg["sweep"] = {"param": param, "start": rng.uniform(-90.0, 0.0), "stop": 360.0, "steps": 73}
    return parse_config(cfg)


@pytest.mark.parametrize("name", EXPERIMENTS)
def test_sweep_csv_equals_its_scalar_rows(name):
    # one engine call on the whole sweep rounds exactly as a call per row
    cfg = off_lattice_config(name)
    entry, param = EXPERIMENTS[name], cfg["sweep"]["param"]
    rows = []
    for value in _sweep_values(cfg["sweep"]):
        args = _library_args({**cfg, param: value})
        ana, eng = values_at(entry, {k: args[k] for k in entry.params})
        rows.append((value, ana, eng, None if eng is None else abs(ana - eng)))
    assert run_sweep(cfg) == _csv([param, *entry.columns, "abs_deviation"], rows)


def test_slicing_does_not_change_a_check(monkeypatch):
    # 97 divides no family's grid, so slices straddle every grid row and
    # double_trigger's slices must also end where its arm changes
    runs = []
    for points in (97, 1728, 10**6):
        monkeypatch.setattr(compare, "SLICE_POINTS", points)
        runs.append(compare.run_comparison(step=7))
    first, *others = runs
    for other in others:
        assert [r.name for r in other] == [r.name for r in first]
        for a, b in zip(first, other):
            assert (a.n_points, a.max_dev, a.worst_point) == (b.n_points, b.max_dev, b.worst_point)
            assert a.mean_dev == pytest.approx(b.mean_dev, rel=1e-12)


def test_a_slice_holds_one_arm(monkeypatch):
    # the engine takes one arm per call, so a slice that reaches the grid row
    # where the arm changes ends there: every arm gets its own 1728 points
    entry = EXPERIMENTS["double_trigger"]
    seen = {arm: 0 for arm in Arm}

    def engine(arm, pol1, **rest):
        seen[arm] += len(pol1)
        return entry.engine(arm=arm, pol1=pol1, **rest)

    monkeypatch.setattr(compare, "SLICE_POINTS", 97)
    result = compare._check(dataclasses.replace(entry, engine=engine), entry.formula)
    assert result.passed()
    assert seen == {arm: 12**3 for arm in Arm}


def test_mc_run_needs_emitted_pairs():
    point = {"input_kind": "unpolarized", "pol1": 0.0, "pol2": 0.0, "ana1": 0.3, "ana2": 1.1, "phi": 0.2,
             "psi": 0.2, "bs": BeamSplitterSpec.fifty_fifty()}
    with pytest.raises(ValueError, match=r"^n_pairs must be >= 1, got 0$"):
        EXPERIMENTS["mc_run"].engine(run=RunConfig(0), **point)
