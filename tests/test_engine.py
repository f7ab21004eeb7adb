import hashlib
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
    InputSpec,
    coincidence_probability,
    full_outcome_distribution,
    same_arm_probability,
)
from twophoton.fock import TOL, product_state, vacuum_amplitude

BS = BeamSplitterSpec.fifty_fifty()
HALF_PI = math.pi / 2.0
RNG = np.random.default_rng(77)
SIDES = ("side1", "side2")
BOTH_ARMS = np.array(SIDES)  # side 1 first


def on_side(u, arm):
    """Side-1 rows u as the rows of `arm`: a side-2 row is its side-1 row
    with the sides' modes swapped."""
    return u if arm == "side1" else u[..., OTHER_SIDE]


# With analyzers removed (every port summed, analyzer angle 0) a pair splits
# or bunches: the opposite-side and same-side totals of the distribution, as
# compare's no_polarizers and same_arm_no_polarizers engines read them.
def split_rate(inp, bs, phi):
    return compare._opposite_total(full_outcome_distribution(inp, 0.0, 0.0, bs, phi, 0.0))


def bunch_rate(inp, bs, psi):
    return compare._same_side_total(full_outcome_distribution(inp, 0.0, 0.0, bs, 0.0, psi))


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
    p = split_rate(InputSpec.polarized(0.0, HALF_PI), BS, 0.0)
    assert abs(p - 0.5) < TOL


def test_no_polarizers_aligned_photons_never_coincide_at_zero_phase():
    p = split_rate(InputSpec.polarized(0.0, 0.0), BS, 0.0)
    assert abs(p) < TOL


def test_no_polarizers_aligned_photons_always_coincide_at_pi_phase():
    # The coincidence summed over ports saturates at one at phi = pi.
    p = split_rate(InputSpec.polarized(0.0, 0.0), BS, math.pi)
    assert abs(p - 1.0) < TOL


def test_no_polarizers_result_ignores_dummy_analyzer_angles():
    inp = InputSpec.polarized(0.4, 1.0)
    phi = 1.3
    base = split_rate(inp, BS, phi)
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
        InputSpec.polarized(0.0, 0.0), "side2", 0.0, 0.0, BS, 0.0
    )
    assert abs(p - 0.5) < TOL


def test_same_arm_crossed_photons_never_pass_aligned_analyzers():
    # The crossed photon is blocked by whichever x analyzer it reaches.
    p = same_arm_probability(
        InputSpec.polarized(0.0, HALF_PI), "side2", 0.0, 0.0, BS, 0.0
    )
    assert abs(p) < TOL


def test_same_arm_no_polarizers_follows_relative_polarization_law():
    # The bunching rate summed over ports is (1 + cos^2 of the relative incidence angle)/2.
    for pol1, pol2 in RNG.uniform(0.0, math.pi, size=(15, 2)):
        p = bunch_rate(InputSpec.polarized(pol1, pol2), BS, 0.0)
        c = math.cos(pol1 - pol2)
        assert abs(p - 0.5 * (1.0 + c * c)) < TOL


def test_same_arm_no_polarizers_pinned_values():
    assert abs(bunch_rate(InputSpec.polarized(0.0, 0.0), BS, 0.0) - 1.0) < TOL
    p = bunch_rate(InputSpec.polarized(0.0, math.pi / 4.0), BS, 0.0)
    assert abs(p - 0.75) < TOL


def test_bunching_and_splitting_exhaust_all_pairs_at_zero_phase():
    # With analyzers removed the pair either splits or bunches.
    for pol1, pol2 in RNG.uniform(0.0, math.pi, size=(10, 2)):
        inp = InputSpec.polarized(pol1, pol2)
        split = split_rate(inp, BS, phi=0.0)
        bunch = bunch_rate(inp, BS, psi=0.0)
        assert abs(split + bunch - 1.0) < TOL


@pytest.mark.parametrize("polarized", [True, False])
def test_splitting_and_bunching_exhaust_all_pairs_wherever_the_fringe_phases_match(polarized):
    # at any lossless splitter, once cos(phi) = cos(psi)
    rng = np.random.default_rng(31)
    tx, ty = rng.uniform(0.0, 1.0, size=(2, 200))
    bs = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))
    phi = rng.uniform(0.0, 2.0 * math.pi, size=200)
    pol1, pol2 = rng.uniform(0.0, math.pi, size=(2, 200))
    inp = InputSpec.polarized(pol1, pol2) if polarized else InputSpec.unpolarized()
    for psi in (phi, -phi):
        total = split_rate(inp, bs, phi) + bunch_rate(inp, bs, psi)
        assert np.all(np.abs(total - 1.0) < TOL)


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


# A double trigger is a same-side pair whose two channels are one detector
# (theta_a = theta_b, psi = 0), halved because its two clicks are one event.
def test_double_trigger_aligned_photons_hit_one_detector_quarter_of_the_time():
    p = 0.5 * same_arm_probability(InputSpec.polarized(0.0, 0.0), "side1", 0.0, 0.0, BS, 0.0)
    assert abs(p - 0.25) < TOL


def test_double_trigger_through_diagonal_analyzer():
    # Both cos^2 projections are 1/2, so the rate drops to 1/16.
    p = 0.5 * same_arm_probability(InputSpec.polarized(0.0, 0.0), "side2", math.pi / 4.0, math.pi / 4.0, BS, 0.0)
    assert abs(p - 0.0625) < TOL


def test_double_trigger_blocked_for_crossed_photon():
    p = 0.5 * same_arm_probability(InputSpec.polarized(0.0, HALF_PI), "side1", HALF_PI, HALF_PI, BS, 0.0)
    assert abs(p) < TOL


@pytest.mark.parametrize("polarized", [True, False])
def test_port_and_side_sums_equal_their_loops_bit_for_bit(polarized):
    # the loops over ports and sides, one evaluation of a pair of one-port
    # rows per term, added in order as a Python sum adds them, are the
    # reference for the distribution's totals
    rng = np.random.default_rng(18)
    tx, ty = rng.uniform(0.0, 1.0, size=(2, 3, 1))
    bs = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))
    phi, psi = rng.uniform(0.0, 2.0 * math.pi, size=(2, 1, 4))
    pol = rng.uniform(0.0, math.pi, size=(2, 3, 4))
    ana_a, ana_b = rng.uniform(0.0, math.pi, size=2)
    inp = InputSpec.polarized(*pol) if polarized else InputSpec.unpolarized()
    split = split_rate(inp, bs, phi)
    # the arms on a leading axis of their own, summed side 1 first
    same_arm = same_arm_probability(inp, BOTH_ARMS[:, None, None], ana_a, ana_b, bs, psi)
    assert same_arm.shape == (2, 3, 4)
    both_arms = same_arm[0] + same_arm[1]
    bunch = bunch_rate(inp, bs, psi)
    assert split.shape == both_arms.shape == bunch.shape == (3, 4)
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
        opposite = (rows("side1", phi=one_phi), rows("side2"))
        pair = {arm: (rows(arm, psi=one_psi), rows(arm)) for arm in SIDES}
        assert split[i, j] == sum(detect(*opposite, p) for p in ports)
        assert both_arms[i, j] == sum(same_arm_probability(one, arm, ana_a, ana_b, one_bs, one_psi) for arm in SIDES)
        assert bunch[i, j] == sum(sum(ONE_SIDED * detect(*pair[arm], p) for arm in SIDES) for p in ports)


# SHA-256 of the split and bunch rates below, recorded from the analyzer-free
# engine functions that preceded the distribution's totals
ANALYZER_FREE_SHA256 = {
    "polarized": "b332c1e345032d460f216f0a9729570d9cefc382f44f2e25326f482c74c3f37c",
    "unpolarized": "4e027aede07d4d8786a11117c374bb554c7fc795c1690bcb127aa8282709b7aa",
}


@pytest.mark.parametrize("input_kind", ANALYZER_FREE_SHA256)
def test_analyzer_free_totals_reproduce_the_retired_functions(input_kind):
    # 4 000 random general splitters, fringe phases and incident angles
    rng = np.random.default_rng(30)
    tx, ty = rng.uniform(0.0, 1.0, size=(2, 4000))
    bs = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))
    phi, psi = rng.uniform(0.0, 2.0 * math.pi, size=(2, 4000))
    pol1, pol2 = rng.uniform(0.0, math.pi, size=(2, 4000))
    inp = InputSpec.polarized(pol1, pol2) if input_kind == "polarized" else InputSpec.unpolarized()
    rates = np.stack([split_rate(inp, bs, phi), bunch_rate(inp, bs, psi)])
    assert rates.shape == (2, 4000)
    assert hashlib.sha256(rates.tobytes()).hexdigest() == ANALYZER_FREE_SHA256[input_kind]


def test_in_order_adds_the_last_axis_as_a_python_sum_does():
    # terms of very different sizes, so the order of the additions shows
    rng = np.random.default_rng(30)
    p = rng.uniform(0.0, 1.0, size=(3, 4, 12)) * 10.0 ** rng.integers(-17, 1, size=(3, 4, 12))
    total = engine._in_order(p)
    assert total.shape == (3, 4)
    for i, j in np.ndindex(3, 4):
        assert total[i, j] == sum(p[i, j].tolist())


def test_double_trigger_broadcasts_over_an_array_of_arms():
    bs = BeamSplitterSpec.from_transmission(0.83, 0.37)
    pol1 = np.array([[0.2], [1.1]])
    arms = np.array(["side1", "side2", "side2"])
    batch = 0.5 * same_arm_probability(InputSpec.polarized(pol1, 0.7), arms, 0.4, 0.4, bs, 0.0)
    assert batch.shape == (2, 3)
    for (i, j), p in np.ndenumerate(batch):
        # the repeated detector row of the arm's own side, halved twice
        u = on_side(elements.analyzer_rows(0.4, bs)[0], arms[j])
        state = product_state(pol1[i, 0], 0.7)
        assert p == 0.25 * abs(vacuum_amplitude(u, u, state)) ** 2
        assert p == 0.5 * same_arm_probability(InputSpec.polarized(pol1[i, 0], 0.7), arms[j], 0.4, 0.4, bs, 0.0)
    assert batch[0, 0] != batch[0, 1]  # an asymmetric splitter tells the sides apart


def test_double_trigger_reads_its_own_side_at_general_splitters():
    # compare's double_trigger engine route at 4 000 seeded random general
    # splitters, off the 50:50 grid it is checked on.  Both photons on one
    # detector: on side 1 photon 1 is transmitted and photon 2 reflected, on
    # side 2 the reverse, so each side has its own product of projections.
    rng = np.random.default_rng(31)
    pol1, pol2, theta = rng.uniform(-math.pi, math.pi, size=(3, 4000))
    tx, ty = rng.uniform(0.0, 1.0, size=(2, 4000))
    rx, ry = np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty)
    bs = BeamSplitterSpec(tx, ty, rx, ry)
    c, s = np.cos(theta), np.sin(theta)
    c1, s1, c2, s2 = np.cos(pol1), np.sin(pol1), np.cos(pol2), np.sin(pol2)
    forms = {
        "side1": (tx * c * c1 + ty * s * s1) ** 2 * (rx * c * c2 + ry * s * s2) ** 2,
        "side2": (rx * c * c1 + ry * s * s1) ** 2 * (tx * c * c2 + ty * s * s2) ** 2,
    }
    route = partial(compare.EXPERIMENTS["double_trigger"].engine, pol1=pol1, pol2=pol2, ana1=theta, bs=bs)
    for side, form in forms.items():
        assert np.max(np.abs(route(arm=side) - form)) <= 1e-15
    # a random array of sides reads each point's own side
    arms = np.array(SIDES)[rng.integers(0, 2, size=4000)]
    assert np.max(np.abs(route(arm=arms) - np.where(arms == "side1", forms["side1"], forms["side2"]))) <= 1e-15


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
            InputSpec.polarized(pol1, pol2), "side1", ta, tb, bs, psi
        )
        ana = formulas.p_same_arm(pol2, pol1, tb, ta, bs, psi)
        assert abs(eng - ana) < TOL


def test_bunching_at_zero_psi_is_half_the_pi_phase_coincidence():
    # Same interference bracket, one extra factor of 1/2.
    for pol1, pol2, ta, tb in RNG.uniform(0.0, math.pi, size=(10, 4)):
        inp = InputSpec.polarized(pol1, pol2)
        bunch = same_arm_probability(inp, "side2", ta, tb, BS, 0.0)
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


def closed_form_outcomes(pol1, pol2, theta1, theta2, bs, phi, psi):
    """The twelve outcome probabilities of a polarized pair from the closed
    forms, on a last axis in `OUTCOMES` order: an opposite-side entry is
    `p_coincidence` at its two ports, side 2's same-side entry `p_same_arm`
    at its two channels' ports and side 1's its mirror image."""
    ports = [(a * HALF_PI, b * HALF_PI) for a in (0, 1) for b in (0, 1)]
    return np.stack(
        [
            *(formulas.p_coincidence(pol1, pol2, theta1 + a, theta2 + b, bs, phi) for a, b in ports),
            *(formulas.p_same_arm(pol2, pol1, theta1 + b, theta1 + a, bs, psi) for a, b in ports),
            *(formulas.p_same_arm(pol1, pol2, theta2 + a, theta2 + b, bs, psi) for a, b in ports),
        ],
        axis=-1,
    )


@pytest.mark.parametrize("polarized", [True, False], ids=["polarized", "unpolarized"])
def test_every_distribution_entry_matches_its_closed_form(polarized):
    # entry by entry, at random general splitters and independent fringe
    # phases: a swap of the two sides' same-side rows passes every compare
    # family, whose totals add the sides or hold the splitter at 50:50
    rng = np.random.default_rng(16)
    n = 2000
    pol1, pol2, theta1, theta2 = rng.uniform(-math.pi, math.pi, size=(4, n))
    phi, psi = rng.uniform(0.0, 2.0 * math.pi, size=(2, n))
    tx, ty = rng.uniform(0.0, 1.0, size=(2, n))
    bs = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))
    if polarized:
        inp = InputSpec.polarized(pol1, pol2)
        expected = closed_form_outcomes(pol1, pol2, theta1, theta2, bs, phi, psi)
    else:  # the equal-weight average of the four basis products
        inp = InputSpec.unpolarized()
        basis = [(p1, p2) for p1 in (0.0, HALF_PI) for p2 in (0.0, HALF_PI)]
        expected = sum(closed_form_outcomes(p1, p2, theta1, theta2, bs, phi, psi) for p1, p2 in basis) / 4.0
    dist = full_outcome_distribution(inp, theta1, theta2, bs, phi, psi)
    assert dist.shape == expected.shape == (n, len(OUTCOMES))
    assert np.abs(dist - expected).max() <= compare.DEFAULT_TOL


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
        (("side1", theta1, {"phi": phi}), ("side2", theta2, {})),
        (("side1", theta1, {"psi": psi}), ("side1", theta1, {})),
        (("side2", theta2, {"psi": psi}), ("side2", theta2, {})),
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
    "same_arm_probability": (partial(same_arm_probability, POL, "side1", 0.3, 1.1, BS), "psi"),
    "same_arm_probability-both_arms": (
        partial(same_arm_probability, InputSpec.unpolarized(), BOTH_ARMS, 0.3, 1.1, BS),
        "psi",
    ),
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


@pytest.mark.parametrize("arm", ["SIDE1"], ids=["str"])
def test_same_arm_probability_rejects_an_arm_that_is_not_an_arm(arm):
    # a label must match exactly: an arm that was not side 1 once returned
    # side 2's probability, 0.138692528137652 here, not side 1's
    # 0.30495467182404234
    inp, bs = InputSpec.polarized(0.3, 1.1), BeamSplitterSpec.from_transmission(0.9, 0.6)
    assert abs(same_arm_probability(inp, "side1", 0.2, 0.7, bs, psi=0.4) - 0.30495467182404234) < TOL
    assert abs(same_arm_probability(inp, "side2", 0.2, 0.7, bs, psi=0.4) - 0.138692528137652) < TOL
    with pytest.raises(ValueError, match=rf"^arm must be 'side1' or 'side2', got {re.escape(repr(arm))}$"):
        same_arm_probability(inp, arm, 0.2, 0.7, bs, psi=0.4)


def test_same_arm_probability_broadcasts_over_an_array_of_arms():
    # each element is its arm's own call, bit for bit
    inp, bs = InputSpec.polarized(0.3, 1.1), BeamSplitterSpec.from_transmission(0.9, 0.6)
    arms = BOTH_ARMS
    batch = same_arm_probability(inp, arms, 0.2, 0.7, bs, psi=0.4)
    assert batch.shape == (2,)
    assert batch[0] == same_arm_probability(inp, "side1", 0.2, 0.7, bs, psi=0.4)
    assert batch[1] == same_arm_probability(inp, "side2", 0.2, 0.7, bs, psi=0.4)
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
    side1 = same_arm_probability(inp, "side1", theta_a, theta_b, bs, psi)
    side2 = same_arm_probability(inp, "side2", theta_a, theta_b, bs, psi)
    assert total.shape == (5, 6)
    assert np.array_equal(total, side1 + side2)
    if not polarized:  # compare's unpolarized_same_arm engine at psi = 0, with a splitter per column
        t = np.linspace(0.6, 0.8, 6)
        columns = BeamSplitterSpec(t, t, np.sqrt(1.0 - t * t), np.sqrt(1.0 - t * t))
        route = compare.EXPERIMENTS["unpolarized_same_arm"].engine(ana1=theta_a, ana2=theta_b, bs=columns)
        side1, side2 = (same_arm_probability(inp, arm, theta_a, theta_b, columns, 0.0) for arm in SIDES)
        assert route.shape == (5, 6)
        assert np.array_equal(route, side1 + side2)


ARM_TAKERS = {
    "same_arm_probability": lambda arm: same_arm_probability(POL, arm, 0.3, 1.1, BS, 0.4),
    # compare's double_trigger engine route hands its arm on unchecked
    "compare.double_trigger": lambda arm: compare.EXPERIMENTS["double_trigger"].engine(arm, 0.2, 0.7, 0.3, BS),
    # and same_arm's closed form takes one label
    "compare.same_arm_formula": lambda arm: compare.EXPERIMENTS["same_arm"].formula(arm, 0.1, 0.2, 0.3, 0.4, BS, 0.0),
}


@pytest.mark.parametrize(
    "arm",
    ["SIDE1", 0, None, b"side2", np.array(["side1", "left"])],
    ids=["str", "int", "None", "bytes", "array"],
)
@pytest.mark.parametrize("function", ARM_TAKERS)
def test_an_arm_that_is_not_an_arm_is_rejected(function, arm):
    with pytest.raises(ValueError, match=rf"^arm must be 'side1' or 'side2', got {re.escape(repr(arm))}$"):
        ARM_TAKERS[function](arm)


def arm_outputs(side1, side2):
    """The same-side pair and the double trigger (a same-side pair at one
    detector, halved) at 4 000 seeded random points (random splitters,
    polarized and unpolarized input), on each side alone and on a random
    array of sides, as the bytes of their float64 results."""
    rng = np.random.default_rng(29)
    pol1, pol2, theta_a, theta_b, psi = rng.uniform(-math.pi, math.pi, size=(5, 4000))
    tx, ty = rng.uniform(0.0, 1.0, size=(2, 4000))
    bs = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))
    arms = np.array((side1, side2))[rng.integers(0, 2, size=4000)]
    out = []
    for inp in (InputSpec.polarized(pol1, pol2), InputSpec.unpolarized()):
        for arm in (side1, side2, arms):
            out.append(same_arm_probability(inp, arm, theta_a, theta_b, bs, psi))
            out.append(0.5 * same_arm_probability(inp, arm, theta_a, theta_a, bs, 0.0))
    return np.concatenate(out).tobytes()


def test_side_labels_reproduce_the_outputs_of_the_retired_enum():
    # recorded with the sides given as the members of the enum `Arm`, which
    # the labels replaced; the labels must change no bit
    digest = "65f3dab749de6cddc5e43d1a769d293d38bfe1d31f8b0fab3c925379d48f2408"
    assert hashlib.sha256(arm_outputs("side1", "side2")).hexdigest() == digest


def distribution_outputs() -> bytes:
    """`full_outcome_distribution` for polarized and unpolarized input at
    seeded random points, as the bytes of its float64 results: scalar points
    given as Python floats, arrays of points with a scalar and an array
    splitter, and an open mesh.  The first points sit on lattice angles and
    clear or opaque splitters."""
    rng = np.random.default_rng(3714)
    n = 64
    theta1, theta2, phi, psi, pol1, pol2 = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=(6, n))
    tx, ty = rng.uniform(0.0, 1.0, size=(2, n))
    theta1[:4], theta2[:4] = (0.0, HALF_PI, -0.0, math.pi), (HALF_PI, 0.0, math.pi / 4.0, -HALF_PI)
    phi[:4], psi[:4] = (0.0, math.pi, -0.0, HALF_PI), (0.0, -math.pi, 0.0, HALF_PI)
    tx[:4], ty[:4] = (1.0, 0.0, 1.0, 0.5), (0.0, 1.0, 1.0, 0.0)
    bs = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))
    mesh = BeamSplitterSpec(*(v[:5, None, None, None] for v in (bs.tx, bs.ty, bs.rx, bs.ry)))
    out = []
    for inp in (InputSpec.polarized(pol1, pol2), InputSpec.unpolarized()):
        for i in range(n):
            point = BeamSplitterSpec(float(tx[i]), float(ty[i]), float(bs.rx[i]), float(bs.ry[i]))
            one = inp if inp.polarization is None else InputSpec.polarized(float(pol1[i]), float(pol2[i]))
            args = (float(v[i]) for v in (theta1, theta2))
            out.append(full_outcome_distribution(one, *args, point, float(phi[i]), float(psi[i])))
        out.append(full_outcome_distribution(inp, theta1, theta2, BS, phi, psi))
        out.append(full_outcome_distribution(inp, theta1, theta2, bs, phi, psi))
        out.append(full_outcome_distribution(inp, theta1, 0.3, bs, 0.0, 0.0))
    # an open mesh: angles, splitters and phases each on an axis of their own
    for inp in (InputSpec.polarized(pol1[:3, None, None, None, None], 0.2), InputSpec.unpolarized()):
        out.append(full_outcome_distribution(inp, theta1[:7, None], theta2[:2, None, None], mesh, phi[:4], phi[:4]))
    return b"".join(np.ascontiguousarray(p).tobytes() for p in out)


def test_the_distribution_keeps_its_bits_at_random_points():
    # recorded at commit 13bb8ea, before the twelve outcomes' rows were
    # written into one array; no bit may change
    digest = "541cbf6442f2503abc54b59b08826c1d5fc10fb0ce8bdd830ef9df302fd09da7"
    assert hashlib.sha256(distribution_outputs()).hexdigest() == digest
