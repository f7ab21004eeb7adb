"""The engine and the closed forms agree to a few roundings of each point's scale.

`compare` passes at a flat 1e-12, and its deviations stay below 1.2e-15, so
that gate leaves more than two decades unused.  This check is tighter: at
every point, |engine - closed form| <= K u (s + 1/4), with u = 2**-53 and s
the point's scale.  The scale is the engine's probability with every factor
of the amplitude replaced by its magnitude: (|a1||b2| + |a2||b1|)^2, each
overlap summed in magnitudes, then summed over ports, sides and components
as the engine sums them.  No cancellation lowers it, so it bounds the size
of the terms whose rounding the result carries (a running error bound;
Higham, Accuracy and Stability of Numerical Algorithms, 2nd ed., 2002,
ch. 3).  The 1/4 floor covers a closed form that rounds an angle difference
before its cosine: near a zero of the cosine its error follows the angle,
not s.  The measured worst case is about 8, so K = 32 leaves a margin of
three.  The check runs on the full `compare` grid and at seeded random
points with random splitters, and three wrong constants that pass
`compare` must fail it.
"""

import dataclasses
import functools
import math

import numpy as np
import pytest

from twophoton import compare, engine, formulas
from twophoton.compare import EXPERIMENTS
from twophoton.elements import BeamSplitterSpec

K = 32
U = 2.0**-53
FAMILIES = [name for name, entry in EXPERIMENTS.items() if entry.grid]
POINTS = 4096  # random points per family
EVALUATE = compare.evaluate  # unwrapped, for the grid's wrapper to call


def magnitude_amplitude(u_a, u_b, state):
    """`fock.vacuum_amplitude` with every factor replaced by its magnitude."""
    p1, p2 = state
    c1, s1, c2, s2 = (np.abs(p[..., k]) for p in (p1, p2) for k in (0, 1))
    a, b = np.abs(u_a), np.abs(u_b)
    first = (a[..., 0] * c1 + a[..., 1] * s1) * (b[..., 2] * c2 + b[..., 3] * s2)
    return first + (a[..., 2] * c2 + a[..., 3] * s2) * (b[..., 0] * c1 + b[..., 1] * s1)


def scaled_deviation(entry, fixed, columns, monkeypatch):
    """|engine - closed form| / (u (s + 1/4)) at each point of a batch, and
    the point where it is largest."""
    ana, eng = EVALUATE(entry, fixed, columns)
    with monkeypatch.context() as m:
        m.setattr(engine, "vacuum_amplitude", magnitude_amplitude)
        scale = entry.engine(**fixed, **columns)
    ratio = np.abs(eng - ana) / (U * (scale + 0.25))
    worst = np.unravel_index(int(np.argmax(ratio)), ratio.shape)

    def at_worst(value):
        value = np.broadcast_to(value, ratio.shape)[worst]
        return str(value) if isinstance(value, str) else float(value)  # an arm is an np.str_ here

    point = {}
    for name, value in {**fixed, **columns}.items():
        if isinstance(value, BeamSplitterSpec):
            point.update(tx=at_worst(value.tx), ty=at_worst(value.ty))
        else:
            point[name] = at_worst(value)
    return ratio, point


def grid_check(entry, monkeypatch):
    """`compare`'s check of `entry` on the full grid, and the scaled
    deviation of its points with its worst point."""
    seen = []

    def scaled(entry, fixed, columns):
        seen.append(scaled_deviation(entry, fixed, columns, monkeypatch))
        return EVALUATE(entry, fixed, columns)

    with monkeypatch.context() as m:
        m.setattr(compare, "evaluate", scaled)
        result = compare._check(entry)
    [(ratio, point)] = seen
    return result, ratio, point


@pytest.mark.parametrize("name", FAMILIES)
def test_the_compare_grid_agrees_to_the_rounding_scale(name, monkeypatch):
    entry = EXPERIMENTS[name]
    result, ratio, point = grid_check(entry, monkeypatch)
    assert result.n_points == ratio.size
    assert ratio.max() <= K, f"{name}: {ratio.max():.1f} u (s + 1/4) at {point}"


@pytest.mark.parametrize("name", FAMILIES)
def test_random_points_agree_to_the_rounding_scale(name, monkeypatch):
    # angles and phases in [-2 pi, 2 pi], each point its own splitter
    # unless the family holds at 50:50 only, and each arm in turn
    entry = EXPERIMENTS[name]
    rng = np.random.default_rng(FAMILIES.index(name))
    arms = ("side1", "side2") if "arm" in entry.params else (None,)
    n = POINTS // len(arms)
    for arm in arms:
        columns = {}
        for param in entry.params:
            if param == "bs" and "bs" in entry.held:
                columns[param] = entry.held["bs"]
            elif param == "bs":
                tx, ty = rng.uniform(0.0, 1.0, size=(2, n))
                columns[param] = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))
            elif param != "arm":
                columns[param] = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=n)
        fixed = {} if arm is None else {"arm": arm}
        ratio, point = scaled_deviation(entry, fixed, columns, monkeypatch)
        assert ratio.max() <= K, f"{name}: {ratio.max():.1f} u (s + 1/4) at {point}"


# 1/sqrt(2) written to 13 digits: every amplitude is off by 4.7e-14
SHORT_HALF = 0.7071067811865
SHORT_5050 = BeamSplitterSpec(SHORT_HALF, SHORT_HALF, SHORT_HALF, SHORT_HALF)

# name -> (the family's entry, with its closed form mutated or as it is,
# and whether `formulas._FIFTY_FIFTY` is the 13-digit splitter)
UNPOLARIZED_5050 = EXPERIMENTS["unpolarized_5050"]
MUTATIONS = {
    "short_splitter_to_p_unpolarized": (
        dataclasses.replace(
            UNPOLARIZED_5050,
            formula=lambda ana1, ana2, phi, bs: formulas.p_unpolarized(ana1, ana2, SHORT_5050, phi),
        ),
        False,
    ),
    "short_fifty_fifty_constant": (EXPERIMENTS["no_polarizers"], True),
    "prefactor": (
        dataclasses.replace(
            UNPOLARIZED_5050, formula=functools.partial(UNPOLARIZED_5050.formula, prefactor=0.1250000000001)
        ),
        False,
    ),
}


@pytest.mark.parametrize("mutation", MUTATIONS)
def test_the_rounding_scale_finds_wrong_constants_that_compare_passes(mutation, monkeypatch):
    entry, short_constant = MUTATIONS[mutation]
    if short_constant:
        monkeypatch.setattr(formulas, "_FIFTY_FIFTY", SHORT_5050)
    result, ratio, _ = grid_check(entry, monkeypatch)
    assert result.passed() and result.max_dev > 1e-14
    assert ratio.max() > K
