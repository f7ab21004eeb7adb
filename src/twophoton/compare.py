"""Every experiment, declared once, and the engine-versus-closed-form check.

`EXPERIMENTS` is the one table of the package's observables (see
`Experiment`).  `twophoton sweep` evaluates one entry along one parameter,
and `run_comparison` checks every entry that has a grid; both go through
`evaluate`, which runs the closed form and the engine once each on the same
arrays.

The default grid steps every angle by pi/12 over a half turn (all
probabilities are pi-periodic in every angle), by pi/6 in the two families
that take all four angles, and crosses the fringe phases {0, pi/2, pi,
2pi/3} and four splitters (50:50, an asymmetric one, a clear window, a
perfect mirror).  A comparison fails if any |engine - closed form| exceeds
the tolerance (1e-12 unless overridden).  Both routes take a family's
whole grid as an open mesh of broadcast axes (see `_check`), in one call
each per family and at every step, so trigonometry and detector rows run
once per distinct setting, each photon's row once per incident angle and
the overlaps once per (detector row, photon row) pair; only the permanent
and the closed-form arithmetic run once per point.  A step only selects
the points that are checked.  A result names its worst point and its wall
time.
"""

from __future__ import annotations

import functools
import math
import numbers
import time
from dataclasses import dataclass, field, replace
from typing import Any, Callable, Sequence

import numpy as np

from . import formulas
from .elements import BeamSplitterSpec
from .engine import (
    OPPOSITE,
    InputSpec,
    _in_order,
    coincidence_probability,
    full_outcome_distribution,
    same_arm_probability,
)
from .fock import TOL
from .montecarlo import RunConfig, sample_counts

DEFAULT_TOL = TOL

ANGLE_STEP = math.pi / 12.0
ANGLES = tuple(k * ANGLE_STEP for k in range(12))  # [0, pi), step pi/12
PHASES = (0.0, math.pi / 2.0, math.pi, 2.0 * math.pi / 3.0)


def standard_splitters() -> tuple[BeamSplitterSpec, ...]:
    return (
        BeamSplitterSpec.fifty_fifty(),
        BeamSplitterSpec.from_transmission(0.9, 0.6),
        BeamSplitterSpec.from_transmission(1.0, 1.0),  # clear window
        BeamSplitterSpec.from_transmission(0.0, 0.0),  # perfect mirror
    )


Params = Sequence[tuple[str, Sequence]]

POLARIZED = ("polarized",)
UNPOLARIZED = ("unpolarized",)
BOTH_INPUTS = ("polarized", "unpolarized")

# the parameters of the twelve-outcome distribution
DISTRIBUTION_PARAMS = ("input_kind", "pol1", "pol2", "ana1", "ana2", "phi", "psi", "bs")


@dataclass(frozen=True)
class Experiment:
    """One observable, computed by the engine and by a closed form.

    `params` are library names: incident polarizations `pol1`, `pol2`,
    analyzer angles `ana1`, `ana2`, fringe phases `phi`, `psi` (radians;
    each engine function takes the one it reads, the distribution both),
    the splitter `bs`, the side `arm`, the input kind `input_kind`
    ("polarized" or "unpolarized") and the Monte Carlo run `run`.  Both
    callables, the closed form `formula` and the `engine`, take them as
    keywords and broadcast over numpy arrays; a perturbed or swapped route
    is a copy of the entry with that field replaced.
    `columns` names the two values in a sweep's CSV.  Domain: `held` maps
    each parameter the closed form holds fixed to its value (`bs` to the
    50:50 splitter, `psi` to 0; a sweep still runs the engine on its
    configured value), and an entry that takes both fringe phases
    (`matched_phases`) holds only where cos(phi) = cos(psi).  `grid`, which
    leaves held parameters out, is the `compare` grid (see `_check`); an
    entry without a grid is not compared.  `shared`, when set, is a step
    that both routes read: `evaluate` calls it once with the parameters and
    hands its result to both callables as the keyword `shared`.
    """

    name: str
    params: tuple[str, ...]
    inputs: tuple[str, ...]
    formula: Callable[..., Any]
    engine: Callable[..., Any] | None
    held: dict[str, Any] = field(default_factory=dict)
    columns: tuple[str, str] = ("analytic", "engine")
    grid: Params = ()
    shared: Callable[..., Any] | None = None

    @property
    def matched_phases(self) -> bool:
        """Whether the entry holds only where cos(phi) = cos(psi): exactly
        when it takes both fringe phases."""
        return "phi" in self.params and "psi" in self.params


def outcome_distribution(
    input_kind: str,
    pol1: float,
    pol2: float,
    ana1: float,
    ana2: float,
    phi: float,
    psi: float,
    bs: BeamSplitterSpec,
) -> np.ndarray:
    """The engine's twelve-outcome distribution, on a last axis.

    The other axes broadcast every parameter, including `pol1` and `pol2`,
    which unpolarized light ignores: a sweep of them still has its points.
    """
    if input_kind == "polarized":
        inp = InputSpec.polarized(pol1, pol2)
    elif input_kind == "unpolarized":
        inp = InputSpec.unpolarized()
    else:
        raise ValueError(f"input_kind must be 'polarized' or 'unpolarized', got {input_kind!r}")
    dist = full_outcome_distribution(inp, ana1, ana2, bs, phi, psi)
    shape = np.broadcast_shapes(np.shape(pol1), np.shape(pol2), dist.shape[:-1])
    return np.broadcast_to(dist, (*shape, dist.shape[-1]))


def _opposite_total(dist: np.ndarray) -> np.ndarray:
    """The opposite-side total of a distribution: its four opposite-side
    entries added in order."""
    return _in_order(dist[..., OPPOSITE])[()]


def _same_side_total(dist: np.ndarray) -> np.ndarray:
    """The same-side total of a distribution: each port pair's entries of
    the two sides (side 1's four, then side 2's, in `OUTCOMES` order) added,
    side 1 first, then the four port pairs in order."""
    return _in_order(dist[..., 4:8] + dist[..., 8:])[()]


def _unit_total(input_kind, bs, **angles) -> np.ndarray:
    """The expected total of the exclusive partition: 1 at every point."""
    return np.ones(np.broadcast(*angles.values(), bs.tx, bs.ty).shape)[()]


def _same_arm_formula(arm, pol1, pol2, ana1, ana2, bs, psi) -> float:
    if not isinstance(arm, str) or arm not in ("side1", "side2"):
        raise ValueError(f"arm must be 'side1' or 'side2', got {arm!r}")
    if arm == "side1":  # mirror image of the side-2 form
        return formulas.p_same_arm(pol2, pol1, ana2, ana1, bs, psi)
    return formulas.p_same_arm(pol1, pol2, ana1, ana2, bs, psi)


def _unpolarized_same_arm(ana1, ana2, bs) -> np.ndarray:
    """Same-side pair probability of unpolarized light, summed over both
    sides, side 1 first."""
    unpol = InputSpec.unpolarized()
    side1 = same_arm_probability(unpol, "side1", ana1, ana2, bs, 0.0)
    return side1 + same_arm_probability(unpol, "side2", ana1, ana2, bs, 0.0)


def _unpolarized_coincidence(ana1, ana2, phi, bs) -> float:
    return coincidence_probability(InputSpec.unpolarized(), ana1, ana2, bs, phi)


def _opposite_estimate(shared: np.ndarray, run: RunConfig, **_) -> np.ndarray:
    """Monte Carlo estimate of the opposite-side total, efficiency-corrected:
    one run of `run` at every point of the distribution `shared`, all
    drawing the same random numbers."""
    counts = sample_counts(shared, run)
    return (counts[..., OPPOSITE].sum(-1) / (run.n_pairs * run.efficiency**2))[()]


EXPERIMENTS: dict[str, Experiment] = {
    e.name: e
    for e in (
        Experiment(
            "coincidence",
            ("pol1", "pol2", "ana1", "ana2", "phi", "bs"),
            POLARIZED,
            formulas.p_coincidence,
            lambda pol1, pol2, ana1, ana2, phi, bs: coincidence_probability(
                InputSpec.polarized(pol1, pol2), ana1, ana2, bs, phi
            ),
            grid=[
                ("phi", PHASES),
                ("bs", standard_splitters()),
                *((n, ANGLES[::2]) for n in ("pol1", "pol2", "ana1", "ana2")),
            ],
        ),
        Experiment(
            "same_arm",
            ("arm", "pol1", "pol2", "ana1", "ana2", "psi", "bs"),
            POLARIZED,
            _same_arm_formula,
            lambda arm, pol1, pol2, ana1, ana2, psi, bs: same_arm_probability(
                InputSpec.polarized(pol1, pol2), arm, ana1, ana2, bs, psi
            ),
            grid=[
                ("arm", ("side2",)),
                ("psi", PHASES),
                ("bs", standard_splitters()),
                *((n, ANGLES[::2]) for n in ("pol1", "pol2", "ana1", "ana2")),
            ],
        ),
        Experiment(
            "unpolarized",
            ("ana1", "ana2", "phi", "bs"),
            UNPOLARIZED,
            formulas.p_unpolarized,
            _unpolarized_coincidence,
            grid=[("ana1", ANGLES), ("ana2", ANGLES), ("phi", PHASES), ("bs", standard_splitters())],
        ),
        Experiment(
            "unpolarized_5050",
            ("ana1", "ana2", "phi", "bs"),
            UNPOLARIZED,
            lambda ana1, ana2, phi, bs, **perturbed: formulas.p_unpolarized_5050(
                ana1, ana2, phi, **perturbed
            ),
            _unpolarized_coincidence,
            held={"bs": BeamSplitterSpec.fifty_fifty()},
            grid=[("ana1", ANGLES), ("ana2", ANGLES), ("phi", PHASES)],
        ),
        Experiment(
            "no_polarizers",
            ("pol1", "pol2", "phi", "bs"),
            POLARIZED,
            lambda pol1, pol2, phi, bs: formulas.p_no_polarizers(pol1, pol2, phi),
            # removing the analyzers sums their ports, at analyzer angle 0;
            # the opposite-side entries do not read psi
            lambda pol1, pol2, phi, bs: _opposite_total(
                full_outcome_distribution(InputSpec.polarized(pol1, pol2), 0.0, 0.0, bs, phi, 0.0)
            ),
            held={"bs": BeamSplitterSpec.fifty_fifty()},
            grid=[("pol1", ANGLES), ("pol2", ANGLES), ("phi", PHASES)],
        ),
        Experiment(
            "same_arm_no_polarizers",
            ("pol1", "pol2", "bs"),
            POLARIZED,
            lambda pol1, pol2, bs: formulas.p_same_arm_no_polarizers(pol1, pol2),
            # the same-side entries do not read phi
            lambda pol1, pol2, bs: _same_side_total(
                full_outcome_distribution(InputSpec.polarized(pol1, pol2), 0.0, 0.0, bs, 0.0, 0.0)
            ),
            held={"bs": BeamSplitterSpec.fifty_fifty(), "psi": 0.0},
            grid=[("pol1", ANGLES), ("pol2", ANGLES)],
        ),
        Experiment(
            "unpolarized_same_arm",
            ("ana1", "ana2", "bs"),
            UNPOLARIZED,
            lambda ana1, ana2, bs: formulas.p_unpolarized_same_arm(ana1, ana2),
            _unpolarized_same_arm,
            held={"bs": BeamSplitterSpec.fifty_fifty(), "psi": 0.0},
            grid=[("ana1", ANGLES), ("ana2", ANGLES)],
        ),
        Experiment(
            "double_trigger",
            ("arm", "pol1", "pol2", "ana1", "bs"),
            POLARIZED,
            lambda arm, pol1, pol2, ana1, bs: formulas.p_double_trigger(pol1, pol2, ana1),
            # the same-side pair with both channels at one detector (one
            # setting, one position: psi = 0), halved because its two
            # clicks are one event
            lambda arm, pol1, pol2, ana1, bs: (
                0.5 * same_arm_probability(InputSpec.polarized(pol1, pol2), arm, ana1, ana1, bs, 0.0)
            ),
            held={"bs": BeamSplitterSpec.fifty_fifty()},
            grid=[("arm", ("side1", "side2")), ("pol1", ANGLES), ("pol2", ANGLES), ("ana1", ANGLES)],
        ),
        # benchmark rate only, for the 50:50 splitter; there is no quantum-engine counterpart
        Experiment("classical", ("ana1", "ana2", "phi"), BOTH_INPUTS, formulas.p_classical, None,
                   held={"bs": BeamSplitterSpec.fifty_fifty()}),
        # the closed form is the expected total of the exclusive partition
        Experiment(
            "full_distribution",
            DISTRIBUTION_PARAMS,
            BOTH_INPUTS,
            _unit_total,
            lambda **point: _in_order(outcome_distribution(**point))[()],
        ),
        # the engine's opposite-side total against its Monte Carlo estimate
        Experiment(
            "mc_run",
            (*DISTRIBUTION_PARAMS, "run"),
            BOTH_INPUTS,
            lambda shared, **_: _opposite_total(shared),
            _opposite_estimate,
            columns=("exact", "estimate"),
            shared=lambda run, **point: outcome_distribution(**point),
        ),
    )
}


def evaluate(
    entry: Experiment, fixed: dict[str, Any], columns: dict[str, Any]
) -> tuple[np.ndarray, np.ndarray | None]:
    """Closed-form and engine values of `entry` at a batch of points.

    `fixed` holds the parameters shared by every point; `columns` maps each
    other parameter to its values, an array (or a splitter of arrays), and
    the arrays broadcast together to the points: flat columns or the axes
    of an open mesh.  The entry's `shared` step, if any, runs first; then
    its closed form and its engine each run once on the arrays.  A closed
    form past the largest float (or an inf - inf) gives an inf or nan point,
    not a warning; the engine runs outside that errstate, which slows its
    many small array operations.  The engine value is None for an entry
    without an engine.
    """
    if entry.shared is not None:
        fixed = {**fixed, "shared": entry.shared(**fixed, **columns)}
    with np.errstate(over="ignore", invalid="ignore"):
        ana = entry.formula(**fixed, **columns)
    if entry.engine is None:
        return ana, None
    return ana, entry.engine(**fixed, **columns)


@dataclass(frozen=True)
class CheckResult:
    """Summary of one engine-versus-closed-form comparison.

    `worst_point` maps each parameter of the point with the largest
    deviation to its value (angles in radians, a splitter as `tx`/`ty`, an
    arm by name); `seconds` is the family's wall time.
    """

    name: str
    n_points: int
    max_dev: float
    mean_dev: float
    worst_point: dict[str, float | str] = field(default_factory=dict)
    seconds: float = 0.0

    def passed(self, tol: float = DEFAULT_TOL) -> bool:
        return self.max_dev <= tol


def _describe(point: dict[str, object]) -> dict[str, float | str]:
    out: dict[str, float | str] = {}
    for name, value in point.items():
        if isinstance(value, BeamSplitterSpec):
            out.update(tx=value.tx, ty=value.ty)
        else:
            out[name] = value
    return out


def _check(entry: Experiment, step: int = 1) -> CheckResult:
    """Compare the engine of `entry` with its closed form over its grid.

    Each held parameter the entry takes is passed at its held value.  `grid`
    parameters are crossed in order as an open mesh, each grid parameter
    with more than one value on an axis of its own (one with one value is
    passed as it is), and the whole mesh is one `evaluate` call; an `arm`
    parameter is an axis of side labels like any other.
    Every `step`-th point of the mesh, in grid order, is checked.
    """
    t0 = time.perf_counter()
    fixed = {name: value for name, value in entry.held.items() if name in entry.params}
    fixed.update((name, values[0]) for name, values in entry.grid if len(values) == 1)
    grid = [(name, values) for name, values in entry.grid if len(values) > 1]
    shape = tuple(len(values) for _, values in grid)
    columns = {}
    for (name, values), i in zip(grid, np.indices(shape, sparse=True)):
        if isinstance(values[0], BeamSplitterSpec):
            table = np.array([[s.tx, s.ty, s.rx, s.ry] for s in values])[i]
            columns[name] = BeamSplitterSpec(*np.moveaxis(table, -1, 0))
        else:
            columns[name] = np.asarray(values)[i]
    ana, eng = evaluate(entry, fixed, columns)
    # a deviation or a sum past the largest float (or an inf - inf) is a
    # failing point, not a warning
    with np.errstate(over="ignore", invalid="ignore"):
        dev = np.abs((eng - ana).ravel()[::step])
        total = float(dev.sum())
    if math.isnan(total):
        dev[np.isnan(dev)] = np.inf  # a point that evaluates to nan fails
        total = math.inf
    i = int(np.argmax(dev))
    at = np.unravel_index(i * step, shape)  # the i-th checked point of the mesh
    point = {**fixed, **{name: values[k] for (name, values), k in zip(grid, at)}}
    worst_point = _describe({name: point[name] for name in entry.params})
    return CheckResult(
        entry.name, dev.size, float(dev[i]), total / dev.size, worst_point, time.perf_counter() - t0
    )


def run_comparison(
    perturbations: dict[str, float] | None = None, step: int = 1
) -> list[CheckResult]:
    """Check every experiment that has a grid; `perturbations` may override
    named constants with real numbers (used as a negative control), and a
    perturbed closed form replaces its entry's.  Every entry is evaluated on
    its whole grid; `step` (an integer, at least 1) checks only every
    `step`-th point of the entries that take all four angles."""
    if isinstance(step, bool) or not isinstance(step, (int, np.integer)):
        raise ValueError(f"step must be an integer, got {step!r}")
    if step < 1:
        raise ValueError(f"step must be at least 1, got {step!r}")
    perturbations = perturbations or {}
    unknown = set(perturbations) - {"unpolarized_5050_prefactor"}
    if unknown:
        raise ValueError(f"unknown perturbation(s): {sorted(unknown)}")
    for name, value in perturbations.items():
        if isinstance(value, bool) or not isinstance(value, numbers.Real):
            raise ValueError(f"perturbation {name!r} must be a real number, got {value!r}")
    results = []
    for entry in EXPERIMENTS.values():
        if not entry.grid:
            continue
        if entry.name == "unpolarized_5050" and perturbations:
            prefactor = perturbations["unpolarized_5050_prefactor"]
            entry = replace(entry, formula=functools.partial(entry.formula, prefactor=prefactor))
        results.append(_check(entry, step if {"pol1", "pol2", "ana1", "ana2"} <= set(entry.params) else 1))
    return results
