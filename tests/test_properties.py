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
from twophoton.elements import BeamSplitterSpec
from twophoton.engine import (
    InputSpec,
    coincidence_probability,
    full_outcome_distribution,
    same_arm_probability,
)

TOL = 1e-12
EXAMPLES = settings(max_examples=150, deadline=None)

angles = st.floats(min_value=-math.pi, max_value=math.pi, allow_nan=False)
phases = st.floats(min_value=0.0, max_value=2.0 * math.pi, allow_nan=False)
transmissions = st.floats(min_value=0.0, max_value=1.0)
splitters = st.builds(BeamSplitterSpec.from_transmission, transmissions, transmissions)


def is_probability(p: float) -> bool:
    return -TOL <= p <= 1.0 + TOL


@EXAMPLES
@given(angles, angles, angles, angles, splitters, phases)
def test_coincidence_matches_closed_form(pol1, pol2, ana1, ana2, bs, phi):
    eng = coincidence_probability(InputSpec.polarized(pol1, pol2), ana1, ana2, bs, phi)
    assert is_probability(eng)
    assert abs(eng - formulas.p_coincidence(pol1, pol2, ana1, ana2, bs, phi)) <= TOL


@EXAMPLES
@given(angles, angles, angles, angles, splitters, phases)
def test_same_arm_matches_closed_form_on_both_sides(pol1, pol2, ana_a, ana_b, bs, psi):
    inp = InputSpec.polarized(pol1, pol2)
    side2 = same_arm_probability(inp, "side2", ana_a, ana_b, bs, psi)
    side1 = same_arm_probability(inp, "side1", ana_a, ana_b, bs, psi)
    assert is_probability(side2) and is_probability(side1)
    assert abs(side2 - formulas.p_same_arm(pol1, pol2, ana_a, ana_b, bs, psi)) <= TOL
    # side 1 is the mirror image: swap the input sides and the analyzer order
    assert abs(side1 - formulas.p_same_arm(pol2, pol1, ana_b, ana_a, bs, psi)) <= TOL


@EXAMPLES
@given(angles, angles, splitters, phases)
def test_unpolarized_matches_closed_form(ana1, ana2, bs, phi):
    eng = coincidence_probability(InputSpec.unpolarized(), ana1, ana2, bs, phi)
    assert is_probability(eng)
    assert abs(eng - formulas.p_unpolarized(ana1, ana2, bs, phi)) <= TOL


# A double trigger is a same-side pair whose two channels are one detector
# (theta_a = theta_b, psi = 0), halved because its two clicks are one event.
@EXAMPLES
@given(angles, angles, angles, st.sampled_from(("side1", "side2")))
def test_double_trigger_matches_closed_form(pol1, pol2, theta, arm):
    inp, bs = InputSpec.polarized(pol1, pol2), BeamSplitterSpec.fifty_fifty()
    eng = 0.5 * same_arm_probability(inp, arm, theta, theta, bs, 0.0)
    assert is_probability(eng)
    assert abs(eng - formulas.p_double_trigger(pol1, pol2, theta)) <= TOL


@EXAMPLES
@given(angles, angles, angles, transmissions, transmissions)
def test_double_trigger_at_a_general_splitter_reads_its_own_side(pol1, pol2, theta, tx, ty):
    # both photons on one detector: on side 1 photon 1 is transmitted and
    # photon 2 reflected, on side 2 the reverse; off 50:50 the sides differ
    inp, bs = InputSpec.polarized(pol1, pol2), BeamSplitterSpec.from_transmission(tx, ty)
    rx, ry = math.sqrt(1.0 - tx * tx), math.sqrt(1.0 - ty * ty)
    c, s = math.cos(theta), math.sin(theta)
    c1, s1, c2, s2 = math.cos(pol1), math.sin(pol1), math.cos(pol2), math.sin(pol2)
    side1 = (tx * c * c1 + ty * s * s1) ** 2 * (rx * c * c2 + ry * s * s2) ** 2
    side2 = (rx * c * c1 + ry * s * s1) ** 2 * (tx * c * c2 + ty * s * s2) ** 2
    assert abs(0.5 * same_arm_probability(inp, "side1", theta, theta, bs, 0.0) - side1) <= 1e-15
    assert abs(0.5 * same_arm_probability(inp, "side2", theta, theta, bs, 0.0) - side2) <= 1e-15


@EXAMPLES
@given(st.booleans(), angles, angles, angles, angles, splitters, phases)
def test_outcome_partition_sums_to_one_at_matched_phases(polarized, pol1, pol2, ana1, ana2, bs, phase):
    inp = InputSpec.polarized(pol1, pol2) if polarized else InputSpec.unpolarized()
    dist = full_outcome_distribution(inp, ana1, ana2, bs, phase, phase)
    assert dist.shape == (12,)
    assert all(is_probability(p) for p in dist)
    assert abs(dist.sum() - 1.0) <= TOL


@EXAMPLES
@given(angles, angles, angles, angles, splitters, phases)
def test_coincidence_is_unchanged_when_the_sides_swap(pol1, pol2, ana1, ana2, bs, phi):
    eng = coincidence_probability(InputSpec.polarized(pol1, pol2), ana1, ana2, bs, phi)
    swapped = coincidence_probability(InputSpec.polarized(pol2, pol1), ana2, ana1, bs, phi)
    assert abs(swapped - eng) <= TOL
    form = formulas.p_coincidence(pol1, pol2, ana1, ana2, bs, phi)
    assert abs(formulas.p_coincidence(pol2, pol1, ana2, ana1, bs, phi) - form) <= TOL


@EXAMPLES
@given(angles, angles, angles, st.floats(min_value=0.0, max_value=1.0), phases)
def test_unpolarized_coincidence_is_unchanged_under_co_rotation(ana1, ana2, turn, t, phi):
    # only a polarization-independent splitter (tx = ty) has no preferred axis
    bs = BeamSplitterSpec.from_transmission(t, t)
    eng = coincidence_probability(InputSpec.unpolarized(), ana1, ana2, bs, phi)
    turned = coincidence_probability(InputSpec.unpolarized(), ana1 + turn, ana2 + turn, bs, phi)
    assert abs(turned - eng) <= TOL
    form = formulas.p_unpolarized(ana1, ana2, bs, phi)
    assert abs(formulas.p_unpolarized(ana1 + turn, ana2 + turn, bs, phi) - form) <= TOL
