import math

import numpy as np
import pytest

from twophoton import elements, engine, formulas
from twophoton.elements import BeamSplitterSpec, PhaseGeometry, Port, Role
from twophoton.engine import (
    OPPOSITE,
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
from twophoton.fock import TOL, product_state, vacuum_amplitude

BS = BeamSplitterSpec.fifty_fifty()
HALF_PI = math.pi / 2.0
RNG = np.random.default_rng(77)


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


@pytest.mark.parametrize("polarized", [True, False])
def test_port_and_side_sums_equal_their_loops_bit_for_bit(polarized):
    # the loops over ports and sides, one engine call per term, added in
    # order as a Python sum adds them, are the reference
    rng = np.random.default_rng(18)
    tx, ty = rng.uniform(0.0, 1.0, size=(2, 3, 1))
    bs = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))
    geom = PhaseGeometry(*rng.uniform(0.0, 2.0 * math.pi, size=(2, 1, 4)))
    pol = rng.uniform(0.0, math.pi, size=(2, 3, 4))
    ana_a, ana_b = rng.uniform(0.0, math.pi, size=2)
    inp = InputSpec.polarized(*pol) if polarized else InputSpec.unpolarized()
    coincidence = coincidence_no_polarizers(inp, bs, geom)
    both_arms = same_arm_both_arms(inp, ana_a, ana_b, bs, geom, (Port.PARALLEL, Port.PERPENDICULAR))
    no_polarizers = same_arm_no_polarizers(inp, bs, geom)
    assert coincidence.shape == both_arms.shape == no_polarizers.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        one_bs = BeamSplitterSpec(tx[i, 0], ty[i, 0], bs.rx[i, 0], bs.ry[i, 0])
        one_geom = PhaseGeometry(geom.phi[0, j], geom.psi[0, j])
        one = InputSpec.polarized(pol[0, i, j], pol[1, i, j]) if polarized else inp

        def sides(theta_a, theta_b, ports):
            return sum(same_arm_probability(one, arm, theta_a, theta_b, one_bs, one_geom, ports) for arm in Arm)

        ports = [(pa, pb) for pa in Port for pb in Port]
        assert coincidence[i, j] == sum(coincidence_probability(one, 0.0, 0.0, one_bs, one_geom, p) for p in ports)
        assert both_arms[i, j] == sides(ana_a, ana_b, (Port.PARALLEL, Port.PERPENDICULAR))
        assert no_polarizers[i, j] == sum(sides(0.0, 0.0, p) for p in ports)


def test_double_trigger_broadcasts_over_an_array_of_arms():
    bs = BeamSplitterSpec.from_transmission(0.83, 0.37)
    pol1 = np.array([[0.2], [1.1]])
    arms = np.array([Arm.SIDE1, Arm.SIDE2, Arm.SIDE2], dtype=object)
    batch = double_trigger_probability(InputSpec.polarized(pol1, 0.7), arms, 0.4, bs)
    assert batch.shape == (2, 3)
    for (i, j), p in np.ndenumerate(batch):
        # the repeated detector row of the arm's own side, halved twice
        u = elements.analyzer_rows(Role.PAIR_FIRST, arms[j], 0.4, bs, PhaseGeometry(), (Port.PARALLEL,))[0]
        state = product_state(pol1[i, 0], 0.7)
        assert p == 0.25 * abs(vacuum_amplitude(u, u, state)) ** 2
        assert p == double_trigger_probability(InputSpec.polarized(pol1[i, 0], 0.7), arms[j], 0.4, bs)
    assert batch[0, 0] != batch[0, 1]  # an asymmetric splitter tells the sides apart
    with pytest.raises(ValueError, match="^arm must be an Arm, got"):
        double_trigger_probability(InputSpec.polarized(0.2, 0.7), np.array([Arm.SIDE1, "side2"]), 0.4, bs)


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
    assert OPPOSITE.tolist() == [o.kind is OutcomeKind.OPPOSITE for o in outcomes]
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


def _per_port_distribution(inp, theta1, theta2, bs, geom):
    """The distribution with each of its ten distinct rows built one port
    at a time, kept as the reference for the five-call build: the four
    same-side pairs (side x port) and the two side-1 opposite-side rows; a
    side-2 opposite-side row is the second row of side 2's pair."""

    def one_port(role, arm, theta, port):
        return elements.analyzer_rows(role, arm, theta, bs, geom, (port,))[..., 0, :]

    sides = ((Arm.SIDE1, theta1), (Arm.SIDE2, theta2))
    same = {
        (arm, port): (one_port(Role.PAIR_FIRST, arm, theta, port), one_port(Role.PAIR_SECOND, arm, theta, port))
        for arm, theta in sides
        for port in Port
    }
    side1 = {port: one_port(Role.OPPOSITE, Arm.SIDE1, theta1, port) for port in Port}
    pairs = [
        (side1[o.port1], same[Arm.SIDE2, o.port2][1])
        if o.kind is OutcomeKind.OPPOSITE
        else (same[o.arm, o.port1][0], same[o.arm, o.port2][1])
        for o in all_outcomes()
    ]
    u_a, u_b = (np.stack(np.broadcast_arrays(*rows), axis=-2) for rows in zip(*pairs))
    p = engine._squared_amplitudes(inp, u_a, u_b, axes=1)
    if inp.polarization is None:
        p = ((p[..., 0] + p[..., 2]) + (p[..., 1] + p[..., 3])) * 0.25
    return engine._FACTORS * p


@pytest.mark.parametrize("polarized", [True, False])
def test_full_distribution_builds_its_rows_in_five_calls(polarized, monkeypatch):
    # one `analyzer_rows` call per analyzer and role, and no one-port row;
    # the result equals the per-port reference bit for bit, on scalars and
    # on broadcast arrays of every argument
    rng = np.random.default_rng(19)
    tx, ty = rng.uniform(0.0, 1.0, size=(2, 1, 3))
    cases = [
        (0.3, 0.9, BeamSplitterSpec.from_transmission(0.83, 0.37), PhaseGeometry(0.4, 1.3)),
        (0.3, 0.9, BeamSplitterSpec.from_transmission(1.0, 0.0), PhaseGeometry(-0.0, math.pi)),
        (
            rng.uniform(-4.0, 4.0, size=(4, 1, 1)),
            rng.uniform(-4.0, 4.0, size=(5, 1)),
            BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty)),
            PhaseGeometry(rng.uniform(-7.0, 7.0, size=(3,)), rng.uniform(-7.0, 7.0, size=(5, 1))),
        ),
    ]
    for theta1, theta2, bs, geom in cases:
        inp = InputSpec.polarized(0.2, rng.uniform(-4.0, 4.0, size=(5, 1))) if polarized else InputSpec.unpolarized()
        expected = _per_port_distribution(inp, theta1, theta2, bs, geom)
        builds, analyzer_rows = [], engine.analyzer_rows
        with monkeypatch.context() as m:
            m.setattr(engine, "analyzer_rows", lambda *args: builds.append(args) or analyzer_rows(*args))
            dist = full_outcome_distribution(inp, theta1, theta2, bs, geom)
        assert len(builds) == 5
        assert all(len(args) == 5 for args in builds)  # both ports, the default, each time
        assert dist.shape == expected.shape
        assert dist.tobytes() == expected.tobytes()


def test_double_trigger_builds_only_the_row_it_uses(monkeypatch):
    builds, analyzer_rows = [], engine.analyzer_rows
    monkeypatch.setattr(engine, "analyzer_rows", lambda *args: builds.append(args) or analyzer_rows(*args))
    double_trigger_probability(InputSpec.polarized(0.2, 0.7), np.array(list(Arm), dtype=object), 0.4, BS)
    assert len(builds) == 1


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


def test_polarized_input_rejects_nonfinite_angles():
    with pytest.raises(ValueError, match="^theta1 must be finite, got nan$"):
        InputSpec.polarized(math.nan, 0.0)
    with pytest.raises(ValueError, match="^theta2 must be finite, got -inf$"):
        InputSpec.polarized(0.0, -math.inf)
    with pytest.raises(ValueError, match="^theta2 must be finite, got array"):
        InputSpec.polarized(0.0, np.array([0.1, -math.inf]))
    assert InputSpec.unpolarized().polarization is None
