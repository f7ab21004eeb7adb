"""Tests over the experiment table that drives `sweep` and `compare`.

Every entry with an engine and a closed form is checked at continuous
random parameters inside its domain, and every experiment's sweep is
checked against its row-by-row evaluation with scalar parameters.
"""

import dataclasses
import functools
import itertools
import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twophoton import compare, engine
from twophoton.cli import LIBRARY_NAMES, _csv, _library_args, _sweep_values, parse_config, run_sweep
from twophoton.compare import EXPERIMENTS
from twophoton.elements import BeamSplitterSpec
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
    return compare.evaluate(entry, point, {})


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
        elif name == "bs" and "bs" in entry.held:
            point[name] = entry.held["bs"]
        elif name == "bs":
            point[name] = data.draw(splitters, label=name)
        elif name == "arm":
            point[name] = data.draw(st.sampled_from(("side1", "side2")), label=name)
        else:
            assert name == "input_kind"
            point[name] = data.draw(st.sampled_from(entry.inputs), label=name)
    if entry.matched_phases:
        point["psi"] = -point["phi"]
    ana, eng = values_at(entry, point)
    assert type(eng) is type(ana)  # both routes return one scalar type
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
    if "bs" not in entry.held:
        cfg.update(tx=rng.uniform(0.05, 0.95), ty=rng.uniform(0.05, 0.95))
    if "psi" in entry.held:
        del cfg["psi_deg"]  # left at its default, 0
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
    assert run_sweep(cfg) == _csv([param, *entry.columns, "abs_deviation"], list(zip(*rows)))


def flat_reference(entry, step=1):
    """(n_points, max_dev, mean_dev, worst_point) of `entry`, point by
    point: every `step`-th point of the product of its grid, gathered into
    flat columns, one `evaluate` call per arm, with the held parameters the
    entry takes at their held values."""
    fixed = {name: entry.held[name] for name in entry.params if name in entry.held}
    fixed.update((name, values[0]) for name, values in entry.grid if len(values) == 1)
    grid = [(name, values) for name, values in entry.grid if len(values) > 1]
    points = itertools.islice(itertools.product(*(range(len(values)) for _, values in grid)), 0, None, step)
    n_points, total, max_dev, worst = 0, 0.0, 0.0, None

    def arm_of(p):
        return [values[i] for (name, values), i in zip(grid, p) if name == "arm"]

    for _, group in itertools.groupby(points, key=arm_of):
        group = np.array(list(group))
        point, columns = dict(fixed), {}
        for (name, values), index in zip(grid, group.T):
            if name == "arm":
                point[name] = values[index[0]]
            elif isinstance(values[0], BeamSplitterSpec):
                fields = ([getattr(values[i], f) for i in index] for f in ("tx", "ty", "rx", "ry"))
                columns[name] = BeamSplitterSpec(*map(np.array, fields))
            else:
                columns[name] = np.asarray(values)[index]
        ana, eng = compare.evaluate(entry, point, columns)
        dev = np.abs(eng - ana)
        dev[np.isnan(dev)] = np.inf
        n_points += dev.size
        total += float(dev.sum())
        i = int(np.argmax(dev))
        if worst is None or dev[i] > max_dev:
            max_dev = float(dev[i])
            worst = {**point, **{name: values[k] for (name, values), k in zip(grid, group[i])}}
    return n_points, max_dev, total / n_points, compare._describe({name: worst[name] for name in entry.params})


def side2_offset(arm, **point):
    # deviates on side 2 only, so the worst point lies in the second half of
    # the arm axis; `arm` is one label or an array of them
    return EXPERIMENTS["double_trigger"].formula(arm, **point) + np.where(arm == "side2", 1e-9, 0.0)


def nan_at_one_point(ana1, ana2):
    # a point that evaluates to nan fails with an infinite deviation
    value = EXPERIMENTS["unpolarized_same_arm"].formula(ana1, ana2)
    return np.where((ana1 == compare.ANGLES[7]) & (ana2 == compare.ANGLES[0]), np.nan, value)


def with_formula(name, formula):
    return dataclasses.replace(EXPERIMENTS[name], formula=formula)


COMPARED = [(e.name, e) for e in EXPERIMENTS.values() if e.grid] + [
    ("perturbed", with_formula(
        "unpolarized_5050", functools.partial(EXPERIMENTS["unpolarized_5050"].formula, prefactor=0.13)
    )),
    ("side2_offset", with_formula("double_trigger", side2_offset)),
    ("nan_point", with_formula("unpolarized_same_arm", nan_at_one_point)),
]
REFERENCE_CASES = [
    pytest.param(entry, step, id=name if step == 1 else f"{name}-step{step}")
    for step in (1, 7, 4096)
    for name, entry in COMPARED
]


@pytest.mark.parametrize(("entry", "step"), REFERENCE_CASES)
def test_check_equals_its_point_by_point_reference(entry, step):
    result = compare._check(entry, step)
    n_points, max_dev, mean_dev, worst_point = flat_reference(entry, step)
    assert (result.n_points, result.max_dev, result.worst_point) == (n_points, max_dev, worst_point)
    assert result.mean_dev == pytest.approx(mean_dev, rel=1e-12)


@pytest.mark.parametrize("entry", [e for e in EXPERIMENTS.values() if e.grid], ids=lambda e: e.name)
def test_held_parameters_come_from_held_not_from_the_grid(entry):
    # each convention is stated once: the grid leaves a held parameter out,
    # the check hands the engine the held value of each one it takes, and
    # no closed form is handed a held parameter
    assert not {name for name, _ in entry.grid} & set(entry.held)
    calls = {"formula": [], "engine": []}

    def recorded(name, route):
        def run(**point):
            calls[name].append(point)
            return route(**point)

        return run

    swapped = dataclasses.replace(
        entry, formula=recorded("formula", entry.formula), engine=recorded("engine", entry.engine)
    )
    assert compare._check(swapped, 4096).passed()
    [formula_point], [engine_point] = calls["formula"], calls["engine"]
    assert not set(formula_point) & set(entry.held)
    taken = set(entry.held) & set(entry.params)
    assert {name: engine_point[name] for name in taken} == {name: entry.held[name] for name in taken}


@pytest.mark.parametrize("call", ["check", "evaluate"])
def test_only_the_closed_form_runs_under_the_errstate(call):
    # a closed form past the largest float is a failing point, not a
    # warning; the engine runs at the process defaults, since an errstate
    # slows its many small array operations
    entry = EXPERIMENTS["unpolarized_5050"]
    defaults, seen = np.geterr(), {}
    assert defaults["over"] != "ignore" and defaults["invalid"] != "ignore"

    def recorded(name, route):
        def run(**point):
            seen[name] = np.geterr()
            return route(**point)

        return run

    swapped = dataclasses.replace(
        entry, formula=recorded("formula", entry.formula), engine=recorded("engine", entry.engine)
    )
    if call == "check":
        assert compare._check(swapped, 4096).passed()
    else:
        values_at(swapped, {"ana1": 0.3, "ana2": 1.1, "phi": 0.2, "bs": entry.held["bs"]})
    assert seen["formula"] == {**defaults, "over": "ignore", "invalid": "ignore"}
    assert seen["engine"] == defaults


@pytest.mark.parametrize("step", [1, 7])
def test_coincidence_engine_sees_the_polarizations_as_mesh_axes(step):
    # trig, photon states and detector rows run once per distinct setting:
    # every grid parameter, pol1 and pol2 included, lies on an axis of its
    # own, at every step
    entry = EXPERIMENTS["coincidence"]
    calls = []

    def engine(pol1, pol2, ana1, ana2, phi, bs):
        calls.append([np.shape(value) for value in (phi, bs.tx, bs.ty, pol1, pol2, ana1, ana2)])
        return entry.engine(pol1, pol2, ana1, ana2, phi, bs)

    result = compare._check(dataclasses.replace(entry, engine=engine), step)
    assert result.passed()
    assert result.n_points == len(range(0, 12**4, step))
    [shapes] = calls
    # each column spans only its own axis; broadcasting supplies the axes
    # before it
    assert shapes == [
        (4, 1, 1, 1, 1, 1),
        (4, 1, 1, 1, 1),
        (4, 1, 1, 1, 1),
        (6, 1, 1, 1),
        (6, 1, 1),
        (6, 1),
        (6,),
    ]


@pytest.mark.parametrize("step", [4, 7, 16, 4096])
@pytest.mark.parametrize(("name", "phase"), [("coincidence", "phi"), ("same_arm", "psi")])
def test_a_thinned_four_angle_grid_visits_every_phase_and_splitter(name, phase, step):
    # the phase and the splitter lead the grid, so a stride walks the angles
    # within each of the 16 (phase, splitter) combinations; with the angles
    # first, step 16 would check phase 0 at 50:50 only
    entry = EXPERIMENTS[name]
    result = compare._check(entry, step)
    assert result.passed()
    assert result.n_points == len(range(0, 12**4, step))
    # the i-th checked point is the (i * step)-th point of the declared grid
    names = [n for n, _ in entry.grid]
    checked = np.unravel_index(np.arange(result.n_points) * step, [len(values) for _, values in entry.grid])
    combos = set(zip(checked[names.index(phase)].tolist(), checked[names.index("bs")].tolist()))
    assert len(combos) == (6 if step == 4096 else 16)


@pytest.mark.parametrize("step", [1, 7])
def test_each_family_is_one_engine_call(monkeypatch, step):
    # double_trigger's arm is an axis of the mesh like any other, so every
    # family, that one included, is one engine call over all its points, at
    # every step
    calls = []
    for name, entry in list(EXPERIMENTS.items()):
        if entry.grid:

            def engine(_name=name, _engine=entry.engine, **point):
                values = _engine(**point)
                calls.append((_name, np.size(values)))
                return values

            monkeypatch.setitem(EXPERIMENTS, name, dataclasses.replace(entry, engine=engine))
    results = compare.run_comparison(step=step)
    assert all(r.passed() for r in results)
    assert calls == [
        ("coincidence", 12**4),
        ("same_arm", 12**4),
        ("unpolarized", 12 * 12 * 4 * 4),
        ("unpolarized_5050", 12 * 12 * 4),
        ("no_polarizers", 12 * 12 * 4),
        ("same_arm_no_polarizers", 12 * 12),
        ("unpolarized_same_arm", 12 * 12),
        ("double_trigger", 2 * 12**3),
    ]


def test_overlaps_run_once_per_distinct_setting(monkeypatch):
    # a photon's row spans its own incident angle only, so the largest
    # overlap u.p of a family spans (detector row, photon row) pairs, never
    # the family's points; each overlap is the product of a detector row's
    # entries on one side with one photon's row
    largest = {}
    family = None
    check, amplitude = compare._check, engine.vacuum_amplitude

    def tracked_check(entry, *args):
        nonlocal family
        family = entry.name
        return check(entry, *args)

    def tracked_amplitude(u_a, u_b, state):
        overlaps = (np.broadcast(u[..., 0], p[..., 0]).size for u in (u_a, u_b) for p in state)
        largest[family] = max(largest.get(family, 0), *overlaps)
        return amplitude(u_a, u_b, state)

    monkeypatch.setattr(compare, "_check", tracked_check)
    monkeypatch.setattr(engine, "vacuum_amplitude", tracked_amplitude)
    assert all(r.passed() for r in compare.run_comparison())
    assert largest == {
        # (phase, splitter, analyzer) rows against one photon's six angles
        "coincidence": 4 * 4 * 6 * 6,
        "same_arm": 4 * 4 * 6 * 6,
        # one analyzer's rows against the four components of unpolarized light
        "unpolarized": 12 * 4 * 4 * 4,
        "unpolarized_5050": 12 * 4 * 4,
        # analyzer-free totals read the distribution, whose rows carry all
        # twelve outcomes: 4 phases x 12 outcomes, then 12 outcomes
        "no_polarizers": 12 * 4 * 12,
        "same_arm_no_polarizers": 12 * 12,
        "unpolarized_same_arm": 12 * 4,
        "double_trigger": 2 * 12 * 12,
    }


def test_mc_run_exact_column_is_the_no_polarizers_engine_at_analyzer_angle_zero():
    # both are the opposite-side total of the twelve-outcome distribution
    rng = np.random.default_rng(30)
    tx, ty = rng.uniform(0.0, 1.0, size=(2, 40))
    bs = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))
    pol1, pol2 = rng.uniform(0.0, math.pi, size=(2, 40))
    phi, psi = rng.uniform(0.0, 2.0 * math.pi, size=(2, 40))
    point = {"input_kind": "polarized", "pol1": pol1, "pol2": pol2, "ana1": 0.0, "ana2": 0.0, "phi": phi,
             "psi": psi, "bs": bs}
    mc_run = EXPERIMENTS["mc_run"]
    exact = mc_run.formula(shared=mc_run.shared(run=RunConfig(1), **point), **point)
    split = EXPERIMENTS["no_polarizers"].engine(pol1=pol1, pol2=pol2, phi=phi, bs=bs)
    assert exact.shape == split.shape == (40,)
    assert np.array_equal(exact, split)


@pytest.mark.parametrize("step", [1, 4096])
def test_a_comparison_pass_stays_within_its_memory_budget(step):
    # each family is one engine call over its whole grid with no cap on its
    # points, at every step, so the grid bounds the memory: a full pass
    # peaks near 0.98 MiB
    compare.run_comparison(step=step)
    tracemalloc.start()
    try:
        compare.run_comparison(step=step)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * 2**20


@pytest.mark.parametrize("name", ["full_distribution", "mc_run"])
def test_an_unknown_input_kind_is_rejected(name):
    # a misspelled kind must not fall back to unpolarized light
    point = {"pol1": 0.0, "pol2": 0.0, "ana1": 0.3, "ana2": 1.1, "phi": 0.2, "psi": 0.2,
             "bs": BeamSplitterSpec.fifty_fifty()}
    message = r"^input_kind must be 'polarized' or 'unpolarized', got 'polarised'$"
    with pytest.raises(ValueError, match=message):
        compare.outcome_distribution("polarised", **point)
    extra = {"run": RunConfig(100)} if name == "mc_run" else {}
    with pytest.raises(ValueError, match=message):
        values_at(EXPERIMENTS[name], {"input_kind": "polarised", **point, **extra})


@pytest.mark.parametrize("step", [1.5, 2.0, np.float64(3.0), "2", True, False])
def test_a_step_that_is_not_an_integer_is_rejected(step):
    # a float stride would end in numpy's "only int indices permitted"; True
    # once ran the full grid and False reported "at least 1"
    with pytest.raises(ValueError, match=rf"^step must be an integer, got {re.escape(repr(step))}$"):
        compare.run_comparison(step=step)


@pytest.mark.parametrize("value", ["x", "0.13", True, None, 1j, [0.13]])
def test_a_perturbation_that_is_not_a_real_number_is_rejected(monkeypatch, value):
    # "x" once ended in numpy's UFuncTypeError and True ran as a prefactor of
    # 1; the value is rejected before any family runs
    monkeypatch.setattr(compare, "_check", lambda *args: pytest.fail("a family ran"))
    message = rf"^perturbation 'unpolarized_5050_prefactor' must be a real number, got {re.escape(repr(value))}$"
    with pytest.raises(ValueError, match=message):
        compare.run_comparison({"unpolarized_5050_prefactor": value}, step=4096)


def test_a_numpy_integer_step_thins_as_its_int_does():
    def untimed(results):
        return [dataclasses.replace(r, seconds=0.0) for r in results]

    assert untimed(compare.run_comparison(step=np.int64(7))) == untimed(compare.run_comparison(step=7))
