import math
import re
from functools import partial

import numpy as np
import pytest

from twophoton import compare, elements, engine, formulas
from twophoton.elements import OTHER_SIDE, BeamSplitterSpec
from twophoton.engine import (
    ONE_SIDED,
    OPPOSITE,
    OUTCOMES,
    Arm,
    InputSpec,
    coincidence_no_polarizers,
    coincidence_probability,
    double_trigger_probability,
    full_outcome_distribution,
    same_arm_no_polarizers,
    same_arm_probability,
)
from twophoton.fock import TOL, product_state, vacuum_amplitude

BS = BeamSplitterSpec.fifty_fifty()
HALF_PI = math.pi / 2.0
RNG = np.random.default_rng(77)
BOTH_ARMS = np.array(tuple(Arm), dtype=object)  # side 1 first


def on_side(u, arm):
    """Side-1 rows u as the rows of `arm`: a side-2 row is its side-1 row
    with the sides' modes swapped."""
    return u if arm is Arm.SIDE1 else u[..., OTHER_SIDE]


def test_aligned_photons_never_coincide_at_zero_phase():
    # Destructive interference of the two coincidence paths.
    p = coincidence_probability(InputSpec.polarized(0.0, 0.0), 0.0, 0.0, BS, 0.0)
    assert abs(p) < TOL


def test_aligned_photons_always_coincide_at_pi_phase():
    p = coincidence_probability(InputSpec.polarized(0.0, 0.0), 0.0, 0.0, BS, math.pi)
    assert abs(p - 1.0) < TOL


def test_aligned_photons_coincide_half_the_time_at_quarter_phase():
    p = coincidence_probability(
        InputSpec.polarized(0.0, 0.0), 0.0, 0.0, BS, HALF_PI
    )
    assert abs(p - 0.5) < TOL


def test_crossed_photons_crossed_analyzers_give_one_quarter_at_any_phase():
    # Only one path survives, so the fringe phase drops out.
    inp = InputSpec.polarized(0.0, HALF_PI)
    for phi in (0.0, HALF_PI, math.pi, 2.0):
        p = coincidence_probability(inp, 0.0, HALF_PI, BS, phi)
        assert abs(p - 0.25) < TOL


def test_no_polarizers_crossed_photons_coincide_half_the_time():
    p = coincidence_no_polarizers(InputSpec.polarized(0.0, HALF_PI), BS, 0.0)
    assert abs(p - 0.5) < TOL


def test_no_polarizers_aligned_photons_never_coincide_at_zero_phase():
    p = coincidence_no_polarizers(InputSpec.polarized(0.0, 0.0), BS, 0.0)
    assert abs(p) < TOL


def test_no_polarizers_aligned_photons_always_coincide_at_pi_phase():
    # The coincidence summed over ports saturates at one at phi = pi.
    p = coincidence_no_polarizers(InputSpec.polarized(0.0, 0.0), BS, math.pi)
    assert abs(p - 1.0) < TOL


def test_no_polarizers_result_ignores_dummy_analyzer_angles():
    inp = InputSpec.polarized(0.4, 1.0)
    phi = 1.3
    base = coincidence_no_polarizers(inp, BS, phi)
    # removing an analyzer sums its ports, whatever angle it was set to; a
    # perpendicular port is the parallel port a quarter turn on
    for theta1, theta2 in RNG.uniform(0.0, math.pi, size=(10, 2)):
        summed = sum(
            coincidence_probability(inp, theta1 + a, theta2 + b, BS, phi)
            for a in (0.0, HALF_PI)
            for b in (0.0, HALF_PI)
        )
        assert abs(summed - base) < TOL


def test_same_arm_aligned_photons_bunch_half_the_time():
    p = same_arm_probability(
        InputSpec.polarized(0.0, 0.0), Arm.SIDE2, 0.0, 0.0, BS, 0.0
    )
    assert abs(p - 0.5) < TOL


def test_same_arm_crossed_photons_never_pass_aligned_analyzers():
    # The crossed photon is blocked by whichever x analyzer it reaches.
    p = same_arm_probability(
        InputSpec.polarized(0.0, HALF_PI), Arm.SIDE2, 0.0, 0.0, BS, 0.0
    )
    assert abs(p) < TOL


def test_same_arm_no_polarizers_follows_relative_polarization_law():
    # The bunching rate summed over ports is (1 + cos^2 of the relative incidence angle)/2.
    for pol1, pol2 in RNG.uniform(0.0, math.pi, size=(15, 2)):
        p = same_arm_no_polarizers(InputSpec.polarized(pol1, pol2), BS, 0.0)
        c = math.cos(pol1 - pol2)
        assert abs(p - 0.5 * (1.0 + c * c)) < TOL


def test_same_arm_no_polarizers_pinned_values():
    assert abs(same_arm_no_polarizers(InputSpec.polarized(0.0, 0.0), BS, 0.0) - 1.0) < TOL
    p = same_arm_no_polarizers(InputSpec.polarized(0.0, math.pi / 4.0), BS, 0.0)
    assert abs(p - 0.75) < TOL


def test_bunching_and_splitting_exhaust_all_pairs_at_zero_phase():
    # With analyzers removed the pair either splits or bunches.
    for pol1, pol2 in RNG.uniform(0.0, math.pi, size=(10, 2)):
        inp = InputSpec.polarized(pol1, pol2)
        split = coincidence_no_polarizers(inp, BS, phi=0.0)
        bunch = same_arm_no_polarizers(inp, BS, psi=0.0)
        assert abs(split + bunch - 1.0) < TOL


def test_no_bunching_through_clear_window_or_perfect_mirror():
    # Without one transmission and one reflection the photons cannot pair up.
    for bs in (BeamSplitterSpec.from_transmission(1.0, 1.0), BeamSplitterSpec.from_transmission(0.0, 0.0)):
        for pol1, pol2, ta, tb in RNG.uniform(0.0, math.pi, size=(5, 4)):
            p = same_arm_probability(InputSpec.polarized(pol1, pol2), BOTH_ARMS, ta, tb, bs, 0.0)
            assert abs(p[0] + p[1]) < TOL


def test_clear_window_coincidence_ignores_fringe_phase():
    # Only the transmitted path exists, so no fringe forms.
    bs = BeamSplitterSpec.from_transmission(1.0, 1.0)
    inp = InputSpec.polarized(0.3, 0.9)
    base = coincidence_probability(inp, 0.2, 1.1, bs, 0.0)
    for phi in (0.5, HALF_PI, math.pi):
        assert abs(coincidence_probability(inp, 0.2, 1.1, bs, phi) - base) < TOL


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
    # the loops over ports and sides, one evaluation of a pair of one-port
    # rows per term, added in order as a Python sum adds them, are the
    # reference
    rng = np.random.default_rng(18)
    tx, ty = rng.uniform(0.0, 1.0, size=(2, 3, 1))
    bs = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))
    phi, psi = rng.uniform(0.0, 2.0 * math.pi, size=(2, 1, 4))
    pol = rng.uniform(0.0, math.pi, size=(2, 3, 4))
    ana_a, ana_b = rng.uniform(0.0, math.pi, size=2)
    inp = InputSpec.polarized(*pol) if polarized else InputSpec.unpolarized()
    coincidence = coincidence_no_polarizers(inp, bs, phi)
    # the arms on a leading axis of their own, summed side 1 first
    same_arm = same_arm_probability(inp, BOTH_ARMS[:, None, None], ana_a, ana_b, bs, psi)
    assert same_arm.shape == (2, 3, 4)
    both_arms = same_arm[0] + same_arm[1]
    no_polarizers = same_arm_no_polarizers(inp, bs, psi)
    assert coincidence.shape == both_arms.shape == no_polarizers.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        one_bs = BeamSplitterSpec(tx[i, 0], ty[i, 0], bs.rx[i, 0], bs.ry[i, 0])
        one_phi, one_psi = phi[0, j], psi[0, j]
        one = InputSpec.polarized(pol[0, i, j], pol[1, i, j]) if polarized else inp

        def rows(arm, **phases):
            # both ports' rows of a detector on `arm` at angle 0
            return on_side(elements.analyzer_rows(0.0, one_bs, **phases), arm)

        def detect(first, second, ports):
            # the rows of the ports `ports` of two detectors
            return float(engine._detect(one, first[ports[0]], second[ports[1]]))

        ports = [(pa, pb) for pa in (0, 1) for pb in (0, 1)]
        opposite = (rows(Arm.SIDE1, phi=one_phi), rows(Arm.SIDE2))
        pair = {arm: (rows(arm, psi=one_psi), rows(arm)) for arm in Arm}
        assert coincidence[i, j] == sum(detect(*opposite, p) for p in ports)
        assert both_arms[i, j] == sum(same_arm_probability(one, arm, ana_a, ana_b, one_bs, one_psi) for arm in Arm)
        assert no_polarizers[i, j] == sum(sum(ONE_SIDED * detect(*pair[arm], p) for arm in Arm) for p in ports)


def test_double_trigger_broadcasts_over_an_array_of_arms():
    bs = BeamSplitterSpec.from_transmission(0.83, 0.37)
    pol1 = np.array([[0.2], [1.1]])
    arms = np.array([Arm.SIDE1, Arm.SIDE2, Arm.SIDE2], dtype=object)
    batch = double_trigger_probability(InputSpec.polarized(pol1, 0.7), arms, 0.4, bs)
    assert batch.shape == (2, 3)
    for (i, j), p in np.ndenumerate(batch):
        # the repeated detector row of the arm's own side, halved twice
        u = on_side(elements.analyzer_rows(0.4, bs)[0], arms[j])
        state = product_state(pol1[i, 0], 0.7)
        assert p == 0.25 * abs(vacuum_amplitude(u, u, state)) ** 2
        assert p == double_trigger_probability(InputSpec.polarized(pol1[i, 0], 0.7), arms[j], 0.4, bs)
    assert batch[0, 0] != batch[0, 1]  # an asymmetric splitter tells the sides apart
    with pytest.raises(ValueError, match="^arm must be an Arm, got"):
        double_trigger_probability(InputSpec.polarized(0.2, 0.7), np.array([Arm.SIDE1, "side2"]), 0.4, bs)


def test_unpolarized_input_is_equal_mixture_of_axis_products():
    bs = BeamSplitterSpec.from_transmission(0.9, 0.6)
    for ana1, ana2, phi in RNG.uniform(0.0, math.pi, size=(8, 3)):
        mixed = coincidence_probability(InputSpec.unpolarized(), ana1, ana2, bs, phi)
        avg = 0.25 * sum(
            coincidence_probability(InputSpec.polarized(a, b), ana1, ana2, bs, phi)
            for a in (0.0, HALF_PI)
            for b in (0.0, HALF_PI)
        )
        assert abs(mixed - avg) < TOL


def test_perpendicular_port_equals_rotated_parallel_port():
    bs = BeamSplitterSpec.from_transmission(0.8, 0.7)
    perp_par = OUTCOMES.index("side1[perp]+side2[par]")
    for pol1, pol2, ana1, ana2 in RNG.uniform(0.0, math.pi, size=(10, 4)):
        inp = InputSpec.polarized(pol1, pol2)
        perp = full_outcome_distribution(inp, ana1, ana2, bs, 0.7, 0.7)[perp_par]
        rot = coincidence_probability(inp, ana1 + HALF_PI, ana2, bs, 0.7)
        assert abs(perp - rot) < TOL


def test_side1_bunching_mirrors_side2_closed_form():
    # Swapping input sides and analyzer order maps one arm onto the other.
    bs = BeamSplitterSpec.from_transmission(0.9, 0.6)
    for pol1, pol2, ta, tb, psi in RNG.uniform(0.0, math.pi, size=(10, 5)):
        eng = same_arm_probability(
            InputSpec.polarized(pol1, pol2), Arm.SIDE1, ta, tb, bs, psi
        )
        ana = formulas.p_same_arm(pol2, pol1, tb, ta, bs, psi)
        assert abs(eng - ana) < TOL


def test_bunching_at_zero_psi_is_half_the_pi_phase_coincidence():
    # Same interference bracket, one extra factor of 1/2.
    for pol1, pol2, ta, tb in RNG.uniform(0.0, math.pi, size=(10, 4)):
        inp = InputSpec.polarized(pol1, pol2)
        bunch = same_arm_probability(inp, Arm.SIDE2, ta, tb, BS, 0.0)
        coincide = coincidence_probability(inp, ta, tb, BS, math.pi)
        assert abs(bunch - 0.5 * coincide) < TOL


def test_outcome_partition_has_twelve_exclusive_entries():
    assert len(OUTCOMES) == len(set(OUTCOMES)) == 12
    # opposite side first, then side 1 before side 2, each port parallel first
    ports = [(a, b) for a in ("par", "perp") for b in ("par", "perp")]
    assert OUTCOMES[:4] == tuple(f"side1[{a}]+side2[{b}]" for a, b in ports)
    assert OUTCOMES[4:] == tuple(f"{side}[w1:{a}+w2:{b}]" for side in ("side1", "side2") for a, b in ports)
    assert OPPOSITE.tolist() == [True] * 4 + [False] * 8
    with pytest.raises(ValueError, match="read-only"):
        OPPOSITE[0] = False


def test_full_distribution_normalizes_at_matched_fringe_phases():
    for pol1, pol2, ana1, ana2, phase in RNG.uniform(0.0, math.pi, size=(8, 5)):
        dist = full_outcome_distribution(
            InputSpec.polarized(pol1, pol2), ana1, ana2, BS, phase, phase
        )
        assert abs(dist.sum() - 1.0) <= TOL
    dist = full_outcome_distribution(
        InputSpec.unpolarized(), 0.3, 1.2, BeamSplitterSpec.from_transmission(0.9, 0.6),
        0.0, 0.0,
    )
    assert abs(dist.sum() - 1.0) <= TOL


def test_full_distribution_total_deviation_law_for_unequal_phases():
    # total - 1 = 2 G^2 (cos psi - cos phi) with G the joint interference
    # overlap of the two input polarizations through the splitter.
    for pol1, pol2, phi, psi in RNG.uniform(0.0, math.pi, size=(10, 4)):
        for bs in (BS, BeamSplitterSpec.from_transmission(0.9, 0.6)):
            dist = full_outcome_distribution(
                InputSpec.polarized(pol1, pol2), 0.4, 1.0, bs, phi, psi
            )
            g = bs.tx * bs.rx * math.cos(pol1) * math.cos(pol2) + bs.ty * bs.ry * math.sin(
                pol1
            ) * math.sin(pol2)
            expected = 1.0 + 2.0 * g * g * (math.cos(psi) - math.cos(phi))
            assert abs(dist.sum() - expected) < TOL


def test_unpolarized_opposite_subtotal_is_one_quarter_at_zero_phase():
    for ana1, ana2 in RNG.uniform(0.0, math.pi, size=(6, 2)):
        dist = full_outcome_distribution(
            InputSpec.unpolarized(), ana1, ana2, BS, 0.0, 0.0
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
    batch = full_outcome_distribution(batch_inp, ana1, ana2, bs, phi, -phi)
    assert batch.shape == (5, 3, 12)
    for i, j in np.ndindex(5, 3):
        one = full_outcome_distribution(
            inp(i), ana1[i, 0], ana2[i, 0], BeamSplitterSpec(tx[i, j], ty[i, j], bs.rx[i, j], bs.ry[i, j]),
            phi[0, j], -phi[0, j],
        )
        assert one.shape == (12,)
        assert np.array_equal(batch[i, j], one)


def _per_port_distribution(inp, theta1, theta2, bs, phi, psi):
    """The distribution with each outcome's two rows built from its index k,
    kept as the reference for the five-call build: its group (opposite
    side, side 1, side 2) is k // 4, its first detector's port (k // 2) % 2
    and its second detector's port k % 2.  Each label in `OUTCOMES` must
    name that group and those ports."""

    def one_port(arm, theta, phases, port):
        return on_side(elements.analyzer_rows(theta, bs, **phases)[..., port, :], arm)

    # each group's first and second detector, with the phase it carries: phi
    # on side 1's opposite-side row, psi on the first row of a pair
    groups = (
        ((Arm.SIDE1, theta1, {"phi": phi}), (Arm.SIDE2, theta2, {})),
        ((Arm.SIDE1, theta1, {"psi": psi}), (Arm.SIDE1, theta1, {})),
        ((Arm.SIDE2, theta2, {"psi": psi}), (Arm.SIDE2, theta2, {})),
    )
    names = ("par", "perp")
    pairs = []
    for k, label in enumerate(OUTCOMES):
        group, first, second = k // 4, (k // 2) % 2, k % 2
        a, b = names[first], names[second]
        assert label == (f"side1[{a}]+side2[{b}]" if group == 0 else f"side{group}[w1:{a}+w2:{b}]")
        pairs.append((one_port(*groups[group][0], first), one_port(*groups[group][1], second)))
    u_a, u_b = (np.stack(np.broadcast_arrays(*rows), axis=-2) for rows in zip(*pairs))
    p = engine._squared_amplitudes(inp, u_a, u_b, axes=1)
    if inp.polarization is None:
        p = ((p[..., 0] + p[..., 2]) + (p[..., 1] + p[..., 3])) * 0.25
    return engine._FACTORS * p


@pytest.mark.parametrize("polarized", [True, False])
def test_full_distribution_builds_its_rows_in_five_calls(polarized, monkeypatch):
    # one `analyzer_rows` call per analyzer and phase; the result equals the
    # per-port reference bit for bit, on scalars and on broadcast arrays of
    # every argument
    rng = np.random.default_rng(19)
    tx, ty = rng.uniform(0.0, 1.0, size=(2, 1, 3))
    cases = [
        (0.3, 0.9, BeamSplitterSpec.from_transmission(0.83, 0.37), 0.4, 1.3),
        (0.3, 0.9, BeamSplitterSpec.from_transmission(1.0, 0.0), -0.0, math.pi),
        (
            rng.uniform(-4.0, 4.0, size=(4, 1, 1)),
            rng.uniform(-4.0, 4.0, size=(5, 1)),
            BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty)),
            rng.uniform(-7.0, 7.0, size=(3,)),
            rng.uniform(-7.0, 7.0, size=(5, 1)),
        ),
    ]
    for theta1, theta2, bs, phi, psi in cases:
        inp = InputSpec.polarized(0.2, rng.uniform(-4.0, 4.0, size=(5, 1))) if polarized else InputSpec.unpolarized()
        expected = _per_port_distribution(inp, theta1, theta2, bs, phi, psi)
        builds, analyzer_rows = [], engine.analyzer_rows
        with monkeypatch.context() as m:
            m.setattr(engine, "analyzer_rows", lambda *a, **kw: builds.append(a) or analyzer_rows(*a, **kw))
            dist = full_outcome_distribution(inp, theta1, theta2, bs, phi, psi)
        assert len(builds) == 5
        assert dist.shape == expected.shape
        assert dist.tobytes() == expected.tobytes()


def test_double_trigger_builds_only_the_row_it_uses(monkeypatch):
    builds, analyzer_rows = [], engine.analyzer_rows
    monkeypatch.setattr(engine, "analyzer_rows", lambda *a, **kw: builds.append(a) or analyzer_rows(*a, **kw))
    double_trigger_probability(InputSpec.polarized(0.2, 0.7), np.array(list(Arm), dtype=object), 0.4, BS)
    assert len(builds) == 1


def test_unpolarized_coincidence_depends_only_on_analyzer_difference():
    unpol = InputSpec.unpolarized()
    for ana1, ana2, delta in RNG.uniform(0.0, math.pi, size=(8, 3)):
        base = coincidence_probability(unpol, ana1, ana2, BS, 0.0)
        shifted = coincidence_probability(unpol, ana1 + delta, ana2 + delta, BS, 0.0)
        assert abs(base - shifted) < TOL


def test_outcome_labels_are_distinct_and_descriptive():
    assert len(set(OUTCOMES)) == 12
    assert "side1[par]+side2[par]" in OUTCOMES
    assert "side2[w1:par+w2:perp]" in OUTCOMES


def test_polarized_input_rejects_nonfinite_angles():
    with pytest.raises(ValueError, match="^theta1 must be finite, got nan$"):
        InputSpec.polarized(math.nan, 0.0)
    with pytest.raises(ValueError, match="^theta2 must be finite, got -inf$"):
        InputSpec.polarized(0.0, -math.inf)
    with pytest.raises(ValueError, match="^theta2 must be finite, got array"):
        InputSpec.polarized(0.0, np.array([0.1, -math.inf]))
    assert InputSpec.unpolarized().polarization is None


# each phase-taking engine function with its other arguments bound, and the
# name of the phase it reads: the keyword it takes and its message names
POL = InputSpec.polarized(0.2, 0.7)
PHASE_TAKERS = {
    "coincidence_probability": (partial(coincidence_probability, POL, 0.3, 1.1, BS), "phi"),
    "coincidence_no_polarizers": (partial(coincidence_no_polarizers, InputSpec.unpolarized(), BS), "phi"),
    "same_arm_probability": (partial(same_arm_probability, POL, Arm.SIDE1, 0.3, 1.1, BS), "psi"),
    "same_arm_probability-both_arms": (
        partial(same_arm_probability, InputSpec.unpolarized(), BOTH_ARMS, 0.3, 1.1, BS),
        "psi",
    ),
    "same_arm_no_polarizers": (partial(same_arm_no_polarizers, POL, BS), "psi"),
    "full_outcome_distribution-phi": (partial(full_outcome_distribution, POL, 0.3, 1.1, BS, psi=0.0), "phi"),
    "full_outcome_distribution-psi": (
        partial(full_outcome_distribution, InputSpec.unpolarized(), 0.3, 1.1, BS, phi=0.0),
        "psi",
    ),
}
BAD_PHASES = {"nan": math.nan, "-inf": -math.inf, "array([0.4, nan])": np.array([0.4, math.nan])}


@pytest.mark.parametrize("shown", BAD_PHASES)
@pytest.mark.parametrize("function", PHASE_TAKERS)
def test_a_fringe_phase_that_is_not_finite_is_rejected(function, shown):
    call, name = PHASE_TAKERS[function]
    with pytest.raises(ValueError, match=rf"^{name} must be finite, got {re.escape(shown)}$"):
        call(**{name: BAD_PHASES[shown]})


@pytest.mark.parametrize("arm", ["side1"], ids=["str"])
def test_same_arm_probability_rejects_an_arm_that_is_not_an_arm(arm):
    # it once returned side 2's probability, 0.138692528137652 here, not
    # side 1's 0.30495467182404234
    inp, bs = InputSpec.polarized(0.3, 1.1), BeamSplitterSpec.from_transmission(0.9, 0.6)
    assert abs(same_arm_probability(inp, Arm.SIDE1, 0.2, 0.7, bs, psi=0.4) - 0.30495467182404234) < TOL
    assert abs(same_arm_probability(inp, Arm.SIDE2, 0.2, 0.7, bs, psi=0.4) - 0.138692528137652) < TOL
    with pytest.raises(ValueError, match=rf"^arm must be an Arm, got {re.escape(repr(arm))}$"):
        same_arm_probability(inp, arm, 0.2, 0.7, bs, psi=0.4)


def test_same_arm_probability_broadcasts_over_an_array_of_arms():
    # each element is its arm's own call, bit for bit
    inp, bs = InputSpec.polarized(0.3, 1.1), BeamSplitterSpec.from_transmission(0.9, 0.6)
    arms = np.array([Arm.SIDE1, Arm.SIDE2], dtype=object)
    batch = same_arm_probability(inp, arms, 0.2, 0.7, bs, psi=0.4)
    assert batch.shape == (2,)
    assert batch[0] == same_arm_probability(inp, Arm.SIDE1, 0.2, 0.7, bs, psi=0.4)
    assert batch[1] == same_arm_probability(inp, Arm.SIDE2, 0.2, 0.7, bs, psi=0.4)
    assert abs(batch[0] - 0.30495467182404234) < TOL and abs(batch[1] - 0.138692528137652) < TOL
    # the arms broadcast against the other arguments' axes
    theta_a = np.array([[0.2], [1.4], [-0.6]])
    grid = same_arm_probability(inp, arms[::-1], theta_a, 0.7, bs, psi=0.4)
    assert grid.shape == (3, 2)
    for (i, j), p in np.ndenumerate(grid):
        assert p == same_arm_probability(inp, arms[::-1][j], theta_a[i, 0], 0.7, bs, psi=0.4)


@pytest.mark.parametrize("polarized", [True, False])
def test_the_sum_over_both_arms_equals_the_two_arms_added_bit_for_bit(polarized):
    # the arms on an axis of their own, added side 1 first, against one
    # call per arm
    rng = np.random.default_rng(28)
    theta_a, theta_b = rng.uniform(0.0, math.pi, size=(5, 1)), rng.uniform(0.0, math.pi, size=(1, 6))
    bs, psi = BeamSplitterSpec.from_transmission(0.9, 0.6), 0.4
    inp = InputSpec.polarized(0.3, 1.1) if polarized else InputSpec.unpolarized()
    both = same_arm_probability(inp, BOTH_ARMS, theta_a[..., None], theta_b[..., None], bs, psi)
    total = np.cumsum(both, axis=-1)[..., -1]
    side1 = same_arm_probability(inp, Arm.SIDE1, theta_a, theta_b, bs, psi)
    side2 = same_arm_probability(inp, Arm.SIDE2, theta_a, theta_b, bs, psi)
    assert total.shape == (5, 6)
    assert np.array_equal(total, side1 + side2)
    if not polarized:  # compare's unpolarized_same_arm engine at psi = 0, with a splitter per column
        t = np.linspace(0.6, 0.8, 6)
        columns = BeamSplitterSpec(t, t, np.sqrt(1.0 - t * t), np.sqrt(1.0 - t * t))
        route = compare.EXPERIMENTS["unpolarized_same_arm"].engine(ana1=theta_a, ana2=theta_b, bs=columns)
        side1, side2 = (same_arm_probability(inp, arm, theta_a, theta_b, columns, 0.0) for arm in Arm)
        assert route.shape == (5, 6)
        assert np.array_equal(route, side1 + side2)


ARM_TAKERS = {
    "same_arm_probability": lambda arm: same_arm_probability(POL, arm, 0.3, 1.1, BS, 0.4),
    "double_trigger_probability": lambda arm: double_trigger_probability(POL, arm, 0.3, BS),
}


@pytest.mark.parametrize(
    "arm",
    ["side1", 0, None, np.array([Arm.SIDE1, "side2"], dtype=object)],
    ids=["str", "int", "None", "array"],
)
@pytest.mark.parametrize("function", ARM_TAKERS)
def test_an_arm_that_is_not_an_arm_is_rejected(function, arm):
    with pytest.raises(ValueError, match=rf"^arm must be an Arm, got {re.escape(repr(arm))}$"):
        ARM_TAKERS[function](arm)
