"""Engine against closed forms at continuous random parameters.

`compare` samples every angle on the pi/12 lattice and four fixed phases and
splitters, so an error term that vanishes on that lattice (say, one
proportional to sin(12*theta)) would pass it.  These properties draw
angles, fringe phases and splitter transmissions continuously instead, and
check two symmetries of both routes: swapping the sides, and turning both
analyzers together on unpolarized light.
"""

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from twophoton import formulas
from twophoton.elements import BeamSplitterSpec, PhaseGeometry
from twophoton.engine import (
    Arm,
    InputSpec,
    coincidence_probability,
    double_trigger_probability,
    full_outcome_distribution,
    same_arm_probability,
)

TOL = 1e-12
EXAMPLES = settings(max_examples=150, deadline=None)

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
splitters = st.builds(
    BeamSplitterSpec.from_transmission,
    st.floats(min_value=0.0, max_value=1.0),
    st.floats(min_value=0.0, max_value=1.0),
)


def is_probability(p: float) -> bool:
    return -TOL <= p <= 1.0 + TOL


@EXAMPLES
@given(angles, angles, angles, angles, splitters, phases)
def test_coincidence_matches_closed_form(pol1, pol2, ana1, ana2, bs, phi):
    eng = coincidence_probability(InputSpec.polarized(pol1, pol2), ana1, ana2, bs, PhaseGeometry(phi=phi))
    assert is_probability(eng)
    assert abs(eng - formulas.p_coincidence(pol1, pol2, ana1, ana2, bs, phi)) <= TOL


@EXAMPLES
@given(angles, angles, angles, angles, splitters, phases)
def test_same_arm_matches_closed_form_on_both_sides(pol1, pol2, ana_a, ana_b, bs, psi):
    inp, geom = InputSpec.polarized(pol1, pol2), PhaseGeometry(psi=psi)
    side2 = same_arm_probability(inp, Arm.SIDE2, ana_a, ana_b, bs, geom)
    side1 = same_arm_probability(inp, Arm.SIDE1, ana_a, ana_b, bs, geom)
    assert is_probability(side2) and is_probability(side1)
    assert abs(side2 - formulas.p_same_arm(pol1, pol2, ana_a, ana_b, bs, psi)) <= TOL
    # side 1 is the mirror image: swap the input sides and the analyzer order
    assert abs(side1 - formulas.p_same_arm(pol2, pol1, ana_b, ana_a, bs, psi)) <= TOL


@EXAMPLES
@given(angles, angles, splitters, phases)
def test_unpolarized_matches_closed_form(ana1, ana2, bs, phi):
    eng = coincidence_probability(InputSpec.unpolarized(), ana1, ana2, bs, PhaseGeometry(phi=phi))
    assert is_probability(eng)
    assert abs(eng - formulas.p_unpolarized(ana1, ana2, bs, phi)) <= TOL


@EXAMPLES
@given(angles, angles, angles, st.sampled_from(Arm))
def test_double_trigger_matches_closed_form(pol1, pol2, theta, arm):
    eng = double_trigger_probability(
        InputSpec.polarized(pol1, pol2), arm, theta, BeamSplitterSpec.fifty_fifty()
    )
    assert is_probability(eng)
    assert abs(eng - formulas.p_double_trigger(pol1, pol2, theta)) <= TOL


@EXAMPLES
@given(st.booleans(), angles, angles, angles, angles, splitters, phases)
def test_outcome_partition_sums_to_one_at_matched_phases(polarized, pol1, pol2, ana1, ana2, bs, phase):
    inp = InputSpec.polarized(pol1, pol2) if polarized else InputSpec.unpolarized()
    dist = full_outcome_distribution(inp, ana1, ana2, bs, PhaseGeometry(phase, phase))
    assert dist.shape == (12,)
    assert all(is_probability(p) for p in dist)
    assert abs(dist.sum() - 1.0) <= TOL


@EXAMPLES
@given(angles, angles, angles, angles, splitters, phases)
def test_coincidence_is_unchanged_when_the_sides_swap(pol1, pol2, ana1, ana2, bs, phi):
    geom = PhaseGeometry(phi=phi)
    eng = coincidence_probability(InputSpec.polarized(pol1, pol2), ana1, ana2, bs, geom)
    swapped = coincidence_probability(InputSpec.polarized(pol2, pol1), ana2, ana1, bs, geom)
    assert abs(swapped - eng) <= TOL
    form = formulas.p_coincidence(pol1, pol2, ana1, ana2, bs, phi)
    assert abs(formulas.p_coincidence(pol2, pol1, ana2, ana1, bs, phi) - form) <= TOL


@EXAMPLES
@given(angles, angles, angles, st.floats(min_value=0.0, max_value=1.0), phases)
def test_unpolarized_coincidence_is_unchanged_under_co_rotation(ana1, ana2, turn, t, phi):
    # only a polarization-independent splitter (tx = ty) has no preferred axis
    bs, geom = BeamSplitterSpec.from_transmission(t, t), PhaseGeometry(phi=phi)
    eng = coincidence_probability(InputSpec.unpolarized(), ana1, ana2, bs, geom)
    turned = coincidence_probability(InputSpec.unpolarized(), ana1 + turn, ana2 + turn, bs, geom)
    assert abs(turned - eng) <= TOL
    form = formulas.p_unpolarized(ana1, ana2, bs, phi)
    assert abs(formulas.p_unpolarized(ana1 + turn, ana2 + turn, bs, phi) - form) <= TOL
