import math

import numpy as np
import pytest

from twophoton.fock import (
    N_MODES,
    TOL,
    Arm,
    IncidentPolarization,
    Pol,
    mode_index,
    product_state,
    vacuum_amplitude,
)


def unit(arm: Arm, pol: Pol) -> np.ndarray:
    """Row of the bare annihilator of one occupied input mode."""
    row = np.zeros(N_MODES, dtype=complex)
    row[mode_index(arm, pol)] = 1.0
    return row


A1X, A1Y = unit(Arm.SIDE1, Pol.X), unit(Arm.SIDE1, Pol.Y)
A2X, A2Y = unit(Arm.SIDE2, Pol.X), unit(Arm.SIDE2, Pol.Y)


def pattern_amplitudes(inc: IncidentPolarization) -> dict[tuple[int, int], float]:
    """Amplitude of each one-photon-per-side occupation pattern (m1, m2)."""
    p1, p2 = product_state(inc)
    return {(m1, m2): p1[m1] * p2[m2] for m1 in range(N_MODES) for m2 in range(N_MODES)}


def test_mode_indexing_is_a_bijection():
    assert N_MODES == 4
    indices = [mode_index(arm, pol) for arm in Arm for pol in Pol]
    assert sorted(indices) == list(range(4))


def test_product_state_amplitudes_are_weight_products():
    inc = IncidentPolarization(math.pi / 6, math.pi / 3)
    amps = pattern_amplitudes(inc)
    c1, s1 = math.cos(inc.theta1), math.sin(inc.theta1)
    c2, s2 = math.cos(inc.theta2), math.sin(inc.theta2)
    i = {(arm, pol): mode_index(arm, pol) for arm in Arm for pol in Pol}
    assert abs(amps[i[Arm.SIDE1, Pol.X], i[Arm.SIDE2, Pol.X]] - c1 * c2) < TOL
    assert abs(amps[i[Arm.SIDE1, Pol.X], i[Arm.SIDE2, Pol.Y]] - c1 * s2) < TOL
    assert abs(amps[i[Arm.SIDE1, Pol.Y], i[Arm.SIDE2, Pol.X]] - s1 * c2) < TOL
    assert abs(amps[i[Arm.SIDE1, Pol.Y], i[Arm.SIDE2, Pol.Y]] - s1 * s2) < TOL
    assert abs(sum(a * a for a in amps.values()) - 1.0) < TOL


def test_diagonal_product_state_spreads_evenly():
    # both photons at 45 degrees: amplitude 1/2 on each of the four patterns
    amps = pattern_amplitudes(IncidentPolarization(math.pi / 4, math.pi / 4))
    populated = [a for a in amps.values() if a != 0.0]
    assert len(populated) == 4
    for amp in populated:
        assert abs(amp - 0.5) < TOL


def test_product_state_drops_zero_amplitudes():
    # Aligned x polarizations populate exactly one pattern.
    amps = pattern_amplitudes(IncidentPolarization(0.0, 0.0))
    x1, x2 = mode_index(Arm.SIDE1, Pol.X), mode_index(Arm.SIDE2, Pol.X)
    assert {m for m, a in amps.items() if a != 0.0} == {(x1, x2)}
    assert abs(amps[x1, x2] - 1.0) < TOL


def test_product_state_broadcasts_over_angle_arrays():
    # each photon's row runs over its own angle's shape only
    theta1, theta2 = np.array([0.1, 0.7, 2.0]), np.array([[0.4], [1.3]])
    p1, p2 = product_state(IncidentPolarization(theta1, theta2))
    assert p1.shape == (3, N_MODES)
    assert p2.shape == (2, 1, N_MODES)
    for k, t1 in enumerate(theta1):
        for j, t2 in enumerate(theta2[:, 0]):
            q1, q2 = product_state(IncidentPolarization(float(t1), float(t2)))
            assert np.max(np.abs(p1[k] - q1)) < TOL and np.max(np.abs(p2[j, 0] - q2)) < TOL


def test_incident_polarization_rejects_nonfinite_angles():
    with pytest.raises(ValueError):
        IncidentPolarization(math.nan, 0.0)
    with pytest.raises(ValueError):
        IncidentPolarization(0.0, math.inf)
    with pytest.raises(ValueError):
        IncidentPolarization(np.array([0.0, math.nan]), 0.0)


def test_annihilation_lowers_with_sqrt_n():
    # both photons in one mode: a^dag a^dag |0> = sqrt(2) |2>, and the
    # permanent counts both pairings, so <0| a a |2> = sqrt(2)
    doubly = (A1X.real, A1X.real)
    assert abs(vacuum_amplitude(A1X, A1X, doubly) / math.sqrt(2.0) - math.sqrt(2.0)) < TOL


def test_annihilation_of_empty_mode_gives_zero_state():
    state = product_state(IncidentPolarization(0.0, 0.0))  # x photons only
    assert vacuum_amplitude(A1Y, A2X, state) == 0.0
    assert vacuum_amplitude(A1X, A2Y, state) == 0.0
    assert abs(vacuum_amplitude(A1X, A2X, state) - 1.0) < TOL


def test_operator_scalar_multiplication_both_sides():
    # a scalar on the pair operator d_a d_b can ride on either factor
    state = product_state(IncidentPolarization(0.3, 1.1))
    u_a, u_b = A1X + 0.5j * A2Y, A2X - 0.2 * A1Y
    base = vacuum_amplitude(u_a, u_b, state)
    assert abs(vacuum_amplitude(3.0 * u_a, u_b, state) - 3.0 * base) < TOL
    assert abs(vacuum_amplitude(u_a, 3.0 * u_b, state) - 3.0 * base) < TOL


def test_vacuum_amplitude_is_linear_in_each_operator():
    rng = np.random.default_rng(20260823)
    state = product_state(IncidentPolarization(rng.uniform(0, math.pi), rng.uniform(0, math.pi)))
    op1, op2 = 1.3 * A1X, 0.7j * A1Y
    combined = vacuum_amplitude(op1 + op2, A2X + A2Y, state)
    separate = vacuum_amplitude(op1, A2X + A2Y, state) + vacuum_amplitude(op2, A2X + A2Y, state)
    assert abs(combined - separate) < TOL
    # the two operators commute
    assert abs(vacuum_amplitude(A2X + A2Y, op1 + op2, state) - combined) < TOL


def test_vacuum_amplitude_broadcasts_over_batch_axes():
    rows = np.stack([A1X, A1Y, A1X + A1Y])
    state = product_state(IncidentPolarization(np.array([[0.2], [0.9]]), 0.5))
    amps = vacuum_amplitude(rows, A2X, state)
    assert amps.shape == (2, 3)
    for i, theta1 in enumerate((0.2, 0.9)):
        single = product_state(IncidentPolarization(theta1, 0.5))
        for j, row in enumerate(rows):
            assert abs(amps[i, j] - vacuum_amplitude(row, A2X, single)) < TOL


def test_two_photon_state_needs_two_annihilations_for_vacuum_overlap():
    # one annihilation per photon: two side-1 operators cannot empty a
    # state with one photon per side
    state = product_state(IncidentPolarization(0.3, 1.1))
    assert vacuum_amplitude(A1X, A1Y, state) == 0.0
    assert vacuum_amplitude(A2X, A2Y, state) == 0.0
    expected = math.cos(0.3) * math.cos(1.1)
    assert abs(vacuum_amplitude(A1X, A2X, state) - expected) < TOL
