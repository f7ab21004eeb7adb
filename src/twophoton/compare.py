"""Point-by-point agreement checks between the engine and the closed forms.

The default grid steps every angle by pi/12 over a half turn (all
probabilities are pi-periodic in every angle), crosses the fringe phases
{0, pi/2, pi, 2pi/3} and four splitters (50:50, an asymmetric one, a clear
window, a perfect mirror), and interleaves the phase/splitter combinations
through the four-angle grids: the j-th point kept takes combination j % 16.
A comparison fails if any |engine - closed form| exceeds the tolerance
(1e-12 unless overridden).

Each family evaluates the engine on whole arrays, one chunk per value of its
first parameter, which bounds the memory a chunk needs; the closed form is
called at every point.  A result names its worst point and its wall time.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from dataclasses import dataclass, field
from typing import Callable, Sequence

import numpy as np

from . import formulas
from .elements import BeamSplitterSpec, PhaseGeometry
from .engine import (
    Arm,
    InputSpec,
    coincidence_no_polarizers,
    coincidence_probability,
    double_trigger_probability,
    same_arm_both_arms,
    same_arm_no_polarizers,
    same_arm_probability,
)

DEFAULT_TOL = 1e-12

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


Params = Sequence[tuple[str, Sequence]]


def _column(values: Sequence, index: np.ndarray) -> tuple[object, list]:
    """Per-point values of one parameter: an array (or a splitter of arrays)
    for the engine, and a list of the values themselves for the closed form."""
    points = [values[i] for i in index.tolist()]
    if isinstance(values[0], BeamSplitterSpec):
        fields = np.array([[s.tx, s.ty, s.rx, s.ry] for s in values])[index]
        return BeamSplitterSpec(*fields.T), points
    return np.asarray(values)[index], points


def _describe(point: dict[str, object]) -> dict[str, float | str]:
    out: dict[str, float | str] = {}
    for name, value in point.items():
        if isinstance(value, BeamSplitterSpec):
            out.update(tx=value.tx, ty=value.ty)
        elif isinstance(value, Arm):
            out[name] = value.name.lower()
        else:
            out[name] = value
    return out


def _check(
    name: str,
    grid: Params,
    engine: Callable[..., np.ndarray],
    formula: Callable[..., float],
    cycle: Params = (),
    step: int = 1,
) -> CheckResult:
    """Compare `engine` with `formula` over a parameter grid.

    `grid` parameters are crossed in order and every `step`-th point is
    kept; the j-th kept point takes the (j % n)-th of the n combinations of
    the `cycle` parameters (crossed in order).  Both callables take the
    parameters as keywords: `engine` once per value of the first grid
    parameter, with that value and arrays of the others, `formula` at
    every point.
    """
    t0 = time.perf_counter()
    first_name, first_values = grid[0]
    rest = [*grid[1:], *cycle]
    shape = tuple(len(values) for _, values in grid[1:])
    chunk = math.prod(shape)
    combos = np.array(list(itertools.product(*(range(len(values)) for _, values in cycle))), dtype=int)
    n_points, total, max_dev, worst_point = 0, 0.0, 0.0, {}
    for k, first in enumerate(first_values):
        flat = np.arange(k * chunk, (k + 1) * chunk)
        flat = flat[flat % step == 0]
        if flat.size == 0:
            continue
        combo = combos[(flat // step) % len(combos)]
        indices = [*np.unravel_index(flat - k * chunk, shape), *combo.T]
        columns = {n: _column(values, i) for (n, values), i in zip(rest, indices)}
        eng = engine(**{first_name: first}, **{n: c[0] for n, c in columns.items()})
        at_first = functools.partial(formula, **{first_name: first})
        points = zip(*(c[1] for c in columns.values()))
        ana = np.fromiter((at_first(**dict(zip(columns, p))) for p in points), float, flat.size)
        dev = np.abs(eng - ana)
        dev[np.isnan(dev)] = np.inf  # a point that evaluates to nan fails
        n_points += dev.size
        total += float(dev.sum())
        i = int(np.argmax(dev))
        if not worst_point or dev[i] > max_dev:
            max_dev = float(dev[i])
            worst_point = _describe({first_name: first, **{n: c[1][i] for n, c in columns.items()}})
    mean_dev = total / n_points if n_points else 0.0
    return CheckResult(name, n_points, max_dev, mean_dev, worst_point, time.perf_counter() - t0)


def check_coincidence(step: int = 1) -> CheckResult:
    return _check(
        "coincidence",
        [(n, ANGLES) for n in ("pol1", "pol2", "ana1", "ana2")],
        lambda pol1, pol2, ana1, ana2, phi, bs: coincidence_probability(
            InputSpec.polarized(pol1, pol2), ana1, ana2, bs, PhaseGeometry(phi=phi)
        ),
        formulas.p_coincidence,
        cycle=[("phi", PHASES), ("bs", standard_splitters())],
        step=step,
    )


def check_same_arm(step: int = 1) -> CheckResult:
    return _check(
        "same_arm",
        [(n, ANGLES) for n in ("pol1", "pol2", "ana_a", "ana_b")],
        lambda pol1, pol2, ana_a, ana_b, psi, bs: same_arm_probability(
            InputSpec.polarized(pol1, pol2), Arm.SIDE2, ana_a, ana_b, bs, PhaseGeometry(psi=psi)
        ),
        formulas.p_same_arm,
        cycle=[("psi", PHASES), ("bs", standard_splitters())],
        step=step,
    )


def check_unpolarized() -> CheckResult:
    return _check(
        "unpolarized",
        [("ana1", ANGLES), ("ana2", ANGLES), ("phi", PHASES), ("bs", standard_splitters())],
        lambda ana1, ana2, phi, bs: coincidence_probability(
            InputSpec.unpolarized(), ana1, ana2, bs, PhaseGeometry(phi=phi)
        ),
        formulas.p_unpolarized,
    )


def check_unpolarized_5050(prefactor: float = 0.125) -> CheckResult:
    return _check(
        "unpolarized_5050",
        [("ana1", ANGLES), ("ana2", ANGLES), ("phi", PHASES)],
        lambda ana1, ana2, phi: coincidence_probability(
            InputSpec.unpolarized(), ana1, ana2, BeamSplitterSpec.fifty_fifty(), PhaseGeometry(phi=phi)
        ),
        functools.partial(formulas.p_unpolarized_5050, prefactor=prefactor),
    )


def check_no_polarizers() -> CheckResult:
    return _check(
        "no_polarizers",
        [("pol1", ANGLES), ("pol2", ANGLES), ("phi", PHASES)],
        lambda pol1, pol2, phi: coincidence_no_polarizers(
            InputSpec.polarized(pol1, pol2), BeamSplitterSpec.fifty_fifty(), PhaseGeometry(phi=phi)
        ),
        formulas.p_no_polarizers,
    )


def check_same_arm_no_polarizers() -> CheckResult:
    return _check(
        "same_arm_no_polarizers",
        [("pol1", ANGLES), ("pol2", ANGLES)],
        lambda pol1, pol2: same_arm_no_polarizers(
            InputSpec.polarized(pol1, pol2), BeamSplitterSpec.fifty_fifty(), PhaseGeometry()
        ),
        formulas.p_same_arm_no_polarizers,
    )


def check_unpolarized_same_arm() -> CheckResult:
    return _check(
        "unpolarized_same_arm",
        [("ana_a", ANGLES), ("ana_b", ANGLES)],
        lambda ana_a, ana_b: same_arm_both_arms(
            InputSpec.unpolarized(), ana_a, ana_b, BeamSplitterSpec.fifty_fifty(), PhaseGeometry()
        ),
        formulas.p_unpolarized_same_arm,
    )


def check_double_trigger() -> CheckResult:
    # the arm is the first parameter, so each engine call sees one arm
    return _check(
        "double_trigger",
        [("arm", tuple(Arm)), ("pol1", ANGLES), ("pol2", ANGLES), ("theta", ANGLES)],
        lambda arm, pol1, pol2, theta: double_trigger_probability(
            InputSpec.polarized(pol1, pol2), arm, theta, BeamSplitterSpec.fifty_fifty()
        ),
        lambda arm, pol1, pol2, theta: formulas.p_double_trigger(pol1, pol2, theta),
    )


def run_comparison(
    perturbations: dict[str, float] | None = None, step: int = 1
) -> list[CheckResult]:
    """Run every check; `perturbations` may override named constants (used as
    a negative control), and `step` thins the four-angle grids."""
    perturbations = perturbations or {}
    unknown = set(perturbations) - {"unpolarized_5050_prefactor"}
    if unknown:
        raise ValueError(f"unknown perturbation(s): {sorted(unknown)}")
    prefactor = perturbations.get("unpolarized_5050_prefactor", 0.125)
    checks: list[Callable[[], CheckResult]] = [
        lambda: check_coincidence(step),
        lambda: check_same_arm(step),
        check_unpolarized,
        lambda: check_unpolarized_5050(prefactor),
        check_no_polarizers,
        check_same_arm_no_polarizers,
        check_unpolarized_same_arm,
        check_double_trigger,
    ]
    return [c() for c in checks]
