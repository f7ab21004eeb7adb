import math

import numpy as np
import pytest

from twophoton import formulas
from twophoton.elements import BeamSplitterSpec, PhaseGeometry, Port
from twophoton.engine import (
    Arm,
    InputSpec,
    Outcome,
    OutcomeKind,
    all_outcomes,
    coincidence_no_polarizers,
    coincidence_probability,
    double_trigger_probability,
    full_outcome_distribution,
    same_arm_both_arms,
    same_arm_no_polarizers,
    same_arm_probability,
)
from twophoton.fock import TOL

BS = BeamSplitterSpec.fifty_fifty()
HALF_PI = math.pi / 2.0
RNG = np.random.default_rng(77)
OPPOSITE = np.array([o.kind is OutcomeKind.OPPOSITE for o in all_outcomes()])


def test_aligned_photons_never_coincide_at_zero_phase():
    # Destructive interference of the two coincidence paths.
    p = coincidence_probability(InputSpec.polarized(0.0, 0.0), 0.0, 0.0, BS, PhaseGeometry(phi=0.0))
    assert abs(p) < TOL


def test_aligned_photons_always_coincide_at_pi_phase():
    p = coincidence_probability(InputSpec.polarized(0.0, 0.0), 0.0, 0.0, BS, PhaseGeometry(phi=math.pi))
    assert abs(p - 1.0) < TOL


def test_aligned_photons_coincide_half_the_time_at_quarter_phase():
    p = coincidence_probability(
        InputSpec.polarized(0.0, 0.0), 0.0, 0.0, BS, PhaseGeometry(phi=HALF_PI)
    )
    assert abs(p - 0.5) < TOL


def test_crossed_photons_crossed_analyzers_give_one_quarter_at_any_phase():
    # Only one path survives, so the fringe phase drops out.
    inp = InputSpec.polarized(0.0, HALF_PI)
    for phi in (0.0, HALF_PI, math.pi, 2.0):
        p = coincidence_probability(inp, 0.0, HALF_PI, BS, PhaseGeometry(phi=phi))
        assert abs(p - 0.25) < TOL


def test_no_polarizers_crossed_photons_coincide_half_the_time():
    p = coincidence_no_polarizers(InputSpec.polarized(0.0, HALF_PI), BS, PhaseGeometry(phi=0.0))
    assert abs(p - 0.5) < TOL


def test_no_polarizers_aligned_photons_never_coincide_at_zero_phase():
    p = coincidence_no_polarizers(InputSpec.polarized(0.0, 0.0), BS, PhaseGeometry(phi=0.0))
    assert abs(p) < TOL


def test_no_polarizers_aligned_photons_always_coincide_at_pi_phase():
    # Port-summed coincidence at phi = pi saturates at one.
    p = coincidence_no_polarizers(InputSpec.polarized(0.0, 0.0), BS, PhaseGeometry(phi=math.pi))
    assert abs(p - 1.0) < TOL


def test_no_polarizers_result_ignores_dummy_analyzer_angles():
    inp = InputSpec.polarized(0.4, 1.0)
    geom = PhaseGeometry(phi=1.3)
    base = coincidence_no_polarizers(inp, BS, geom)
    # removing an analyzer sums its ports, whatever angle it was set to
    for theta1, theta2 in RNG.uniform(0.0, math.pi, size=(10, 2)):
        summed = sum(
            coincidence_probability(inp, theta1, theta2, BS, geom, (p1, p2)) for p1 in Port for p2 in Port
        )
        assert abs(summed - base) < TOL


def test_same_arm_aligned_photons_bunch_half_the_time():
    p = same_arm_probability(
        InputSpec.polarized(0.0, 0.0), Arm.SIDE2, 0.0, 0.0, BS, PhaseGeometry(psi=0.0)
    )
    assert abs(p - 0.5) < TOL


def test_same_arm_crossed_photons_never_pass_aligned_analyzers():
    # The crossed photon is blocked by whichever x analyzer it reaches.
    p = same_arm_probability(
        InputSpec.polarized(0.0, HALF_PI), Arm.SIDE2, 0.0, 0.0, BS, PhaseGeometry(psi=0.0)
    )
    assert abs(p) < TOL


def test_same_arm_no_polarizers_follows_relative_polarization_law():
    # Port-summed bunching rate is (1 + cos^2 of the relative incidence angle)/2.
    geom = PhaseGeometry()
    for pol1, pol2 in RNG.uniform(0.0, math.pi, size=(15, 2)):
        p = same_arm_no_polarizers(InputSpec.polarized(pol1, pol2), BS, geom)
        c = math.cos(pol1 - pol2)
        assert abs(p - 0.5 * (1.0 + c * c)) < TOL


def test_same_arm_no_polarizers_pinned_values():
    geom = PhaseGeometry()
    assert abs(same_arm_no_polarizers(InputSpec.polarized(0.0, 0.0), BS, geom) - 1.0) < TOL
    p = same_arm_no_polarizers(InputSpec.polarized(0.0, math.pi / 4.0), BS, geom)
    assert abs(p - 0.75) < TOL


def test_bunching_and_splitting_exhaust_all_pairs_at_zero_phase():
    # With analyzers removed the pair either splits or bunches.
    geom = PhaseGeometry()
    for pol1, pol2 in RNG.uniform(0.0, math.pi, size=(10, 2)):
        inp = InputSpec.polarized(pol1, pol2)
        split = coincidence_no_polarizers(inp, BS, geom)
        bunch = same_arm_no_polarizers(inp, BS, geom)
        assert abs(split + bunch - 1.0) < TOL


def test_no_bunching_through_clear_window_or_perfect_mirror():
    # Without one transmission and one reflection the photons cannot pair up.
    geom = PhaseGeometry()
    for bs in (BeamSplitterSpec.from_transmission(1.0, 1.0), BeamSplitterSpec.from_transmission(0.0, 0.0)):
        for pol1, pol2, ta, tb in RNG.uniform(0.0, math.pi, size=(5, 4)):
            p = same_arm_both_arms(InputSpec.polarized(pol1, pol2), ta, tb, bs, geom)
            assert abs(p) < TOL


def test_clear_window_coincidence_ignores_fringe_phase():
    # Only the transmitted path exists, so no fringe forms.
    bs = BeamSplitterSpec.from_transmission(1.0, 1.0)
    inp = InputSpec.polarized(0.3, 0.9)
    base = coincidence_probability(inp, 0.2, 1.1, bs, PhaseGeometry(phi=0.0))
    for phi in (0.5, HALF_PI, math.pi):
        assert abs(coincidence_probability(inp, 0.2, 1.1, bs, PhaseGeometry(phi=phi)) - base) < TOL


def test_double_trigger_aligned_photons_hit_one_detector_quarter_of_the_time():
    p = double_trigger_probability(InputSpec.polarized(0.0, 0.0), Arm.SIDE1, 0.0, BS)
    assert abs(p - 0.25) < TOL


def test_double_trigger_through_diagonal_analyzer():
    # Both cos^2 projections are 1/2, so the rate drops to 1/16.
    p = double_trigger_probability(InputSpec.polarized(0.0, 0.0), Arm.SIDE2, math.pi / 4.0, BS)
    assert abs(p - 0.0625) < TOL


def test_double_trigger_blocked_for_crossed_photon():
    p = double_trigger_probability(InputSpec.polarized(0.0, HALF_PI), Arm.SIDE1, HALF_PI, BS)
    assert abs(p) < TOL


def test_unpolarized_input_is_equal_mixture_of_axis_products():
    bs = BeamSplitterSpec.from_transmission(0.9, 0.6)
    for ana1, ana2, phi in RNG.uniform(0.0, math.pi, size=(8, 3)):
        geom = PhaseGeometry(phi=phi)
        mixed = coincidence_probability(InputSpec.unpolarized(), ana1, ana2, bs, geom)
        avg = 0.25 * sum(
            coincidence_probability(InputSpec.polarized(a, b), ana1, ana2, bs, geom)
            for a in (0.0, HALF_PI)
            for b in (0.0, HALF_PI)
        )
        assert abs(mixed - avg) < TOL


def test_perpendicular_port_equals_rotated_parallel_port():
    bs = BeamSplitterSpec.from_transmission(0.8, 0.7)
    for pol1, pol2, ana1, ana2 in RNG.uniform(0.0, math.pi, size=(10, 4)):
        inp = InputSpec.polarized(pol1, pol2)
        geom = PhaseGeometry(phi=0.7)
        perp = coincidence_probability(inp, ana1, ana2, bs, geom, (Port.PERPENDICULAR, Port.PARALLEL))
        rot = coincidence_probability(inp, ana1 + HALF_PI, ana2, bs, geom)
        assert abs(perp - rot) < TOL


def test_side1_bunching_mirrors_side2_closed_form():
    # Swapping input sides and analyzer order maps one arm onto the other.
    bs = BeamSplitterSpec.from_transmission(0.9, 0.6)
    for pol1, pol2, ta, tb, psi in RNG.uniform(0.0, math.pi, size=(10, 5)):
        eng = same_arm_probability(
            InputSpec.polarized(pol1, pol2), Arm.SIDE1, ta, tb, bs, PhaseGeometry(psi=psi)
        )
        ana = formulas.p_same_arm(pol2, pol1, tb, ta, bs, psi)
        assert abs(eng - ana) < TOL


def test_bunching_at_zero_psi_is_half_the_pi_phase_coincidence():
    # Same interference bracket, one extra factor of 1/2.
    for pol1, pol2, ta, tb in RNG.uniform(0.0, math.pi, size=(10, 4)):
        inp = InputSpec.polarized(pol1, pol2)
        bunch = same_arm_probability(inp, Arm.SIDE2, ta, tb, BS, PhaseGeometry(psi=0.0))
        coincide = coincidence_probability(inp, ta, tb, BS, PhaseGeometry(phi=math.pi))
        assert abs(bunch - 0.5 * coincide) < TOL


def test_outcome_partition_has_twelve_exclusive_entries():
    outcomes = all_outcomes()
    assert len(outcomes) == 12
    assert len(set(outcomes)) == 12
    opposite = [o for o in outcomes if o.kind is OutcomeKind.OPPOSITE]
    same = [o for o in outcomes if o.kind is OutcomeKind.SAME_ARM]
    assert len(opposite) == 4 and len(same) == 8
    assert all(o.n_detectors == 2 for o in outcomes)
    # opposite side first, then side 1 before side 2, ports in Port order
    key = lambda o: (o.kind.value, -1 if o.arm is None else o.arm.value, o.port1.value, o.port2.value)
    assert outcomes == tuple(sorted(outcomes, key=key))


def test_outcome_validation():
    with pytest.raises(ValueError):
        Outcome(OutcomeKind.SAME_ARM, Port.PARALLEL, Port.PARALLEL)  # missing arm
    with pytest.raises(ValueError):
        Outcome(OutcomeKind.OPPOSITE, Port.PARALLEL, Port.PARALLEL, arm=Arm.SIDE1)


def test_full_distribution_normalizes_at_matched_fringe_phases():
    for pol1, pol2, ana1, ana2, phase in RNG.uniform(0.0, math.pi, size=(8, 5)):
        dist = full_outcome_distribution(
            InputSpec.polarized(pol1, pol2), ana1, ana2, BS, PhaseGeometry(phase, phase)
        )
        assert abs(dist.sum() - 1.0) <= TOL
    dist = full_outcome_distribution(
        InputSpec.unpolarized(), 0.3, 1.2, BeamSplitterSpec.from_transmission(0.9, 0.6),
        PhaseGeometry(0.0, 0.0),
    )
    assert abs(dist.sum() - 1.0) <= TOL


def test_full_distribution_total_deviation_law_for_unequal_phases():
    # total - 1 = 2 G^2 (cos psi - cos phi) with G the joint interference
    # overlap of the two input polarizations through the splitter.
    for pol1, pol2, phi, psi in RNG.uniform(0.0, math.pi, size=(10, 4)):
        for bs in (BS, BeamSplitterSpec.from_transmission(0.9, 0.6)):
            dist = full_outcome_distribution(
                InputSpec.polarized(pol1, pol2), 0.4, 1.0, bs, PhaseGeometry(phi, psi)
            )
            g = bs.tx * bs.rx * math.cos(pol1) * math.cos(pol2) + bs.ty * bs.ry * math.sin(
                pol1
            ) * math.sin(pol2)
            expected = 1.0 + 2.0 * g * g * (math.cos(psi) - math.cos(phi))
            assert abs(dist.sum() - expected) < TOL


def test_unpolarized_opposite_subtotal_is_one_quarter_at_zero_phase():
    for ana1, ana2 in RNG.uniform(0.0, math.pi, size=(6, 2)):
        dist = full_outcome_distribution(
            InputSpec.unpolarized(), ana1, ana2, BS, PhaseGeometry(0.0, 0.0)
        )
        assert abs(dist[OPPOSITE].sum() - 0.25) < TOL
        assert abs(dist[~OPPOSITE].sum() - 0.75) < TOL


@pytest.mark.parametrize("polarized", [True, False])
def test_full_distribution_broadcasts_bitwise_like_its_scalar_calls(polarized):
    # The Monte Carlo counts depend on every bit of the distribution, so a
    # batch must round exactly as each of its points evaluated alone.
    rng = np.random.default_rng(12)
    pol1, pol2, ana1, ana2 = rng.uniform(-math.pi, math.pi, size=(4, 5, 1))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=(1, 3))
    tx, ty = rng.uniform(0.0, 1.0, size=(2, 5, 3))
    bs = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))

    def inp(i):
        return InputSpec.polarized(pol1[i, 0], pol2[i, 0]) if polarized else InputSpec.unpolarized()

    batch_inp = InputSpec.polarized(pol1, pol2) if polarized else InputSpec.unpolarized()
    batch = full_outcome_distribution(batch_inp, ana1, ana2, bs, PhaseGeometry(phi, -phi))
    assert batch.shape == (5, 3, 12)
    for i, j in np.ndindex(5, 3):
        one = full_outcome_distribution(
            inp(i), ana1[i, 0], ana2[i, 0], BeamSplitterSpec(tx[i, j], ty[i, j], bs.rx[i, j], bs.ry[i, j]),
            PhaseGeometry(phi[0, j], -phi[0, j]),
        )
        assert one.shape == (12,)
        assert np.array_equal(batch[i, j], one)


def test_unpolarized_coincidence_depends_only_on_analyzer_difference():
    geom = PhaseGeometry(phi=0.0)
    unpol = InputSpec.unpolarized()
    for ana1, ana2, delta in RNG.uniform(0.0, math.pi, size=(8, 3)):
        base = coincidence_probability(unpol, ana1, ana2, BS, geom)
        shifted = coincidence_probability(unpol, ana1 + delta, ana2 + delta, BS, geom)
        assert abs(base - shifted) < TOL


def test_outcome_labels_are_distinct_and_descriptive():
    labels = [o.label() for o in all_outcomes()]
    assert len(set(labels)) == 12
    assert "side1[par]+side2[par]" in labels
    assert "side2[w1:par+w2:perp]" in labels
