import math

import numpy as np
import pytest

from twophoton.elements import OTHER_SIDE
from twophoton.fock import N_MODES, TOL, product_state, vacuum_amplitude

# rows of the bare annihilators of the four modes, in the mode order
# (side1 x, side1 y, side2 x, side2 y)
A1X, A1Y, A2X, A2Y = np.eye(N_MODES, dtype=complex)
X, Y = 0, 1  # a photon row's entries


def pattern_amplitudes(theta1: float, theta2: float) -> dict[tuple[int, int], float]:
    """Amplitude of each one-photon-per-side occupation pattern: the side-1
    photon in polarization q1, the side-2 photon in q2."""
    p1, p2 = product_state(theta1, theta2)
    return {(q1, q2): p1[q1] * p2[q2] for q1 in (X, Y) for q2 in (X, Y)}


def four_mode_rows(state: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The photon rows over all four modes, zero on the other side's modes."""
    p1, p2 = state
    q1, q2 = np.zeros(p1.shape[:-1] + (N_MODES,)), np.zeros(p2.shape[:-1] + (N_MODES,))
    q1[..., :2], q2[..., 2:] = p1, p2
    return q1, q2


def dot(u: np.ndarray, q: np.ndarray) -> np.ndarray:
    """u.q over all four modes, the four terms added left to right."""
    return u[..., 0] * q[..., 0] + u[..., 1] * q[..., 1] + u[..., 2] * q[..., 2] + u[..., 3] * q[..., 3]


def four_mode_amplitude(u_a, u_b, state):
    """The 2x2 permanent over zero-padded four-mode photon rows."""
    q1, q2 = four_mode_rows(state)
    return dot(u_a, q1) * dot(u_b, q2) + dot(u_a, q2) * dot(u_b, q1)


def test_the_side_swap_is_a_bijection_of_the_modes():
    # the side swap of the mode order is a permutation that keeps each
    # mode's axis and is its own inverse
    assert N_MODES == 4
    assert sorted(OTHER_SIDE) == list(range(N_MODES))
    assert list(OTHER_SIDE[OTHER_SIDE]) == list(range(N_MODES))
    assert list(OTHER_SIDE % 2) == [X, Y, X, Y]


def test_product_state_amplitudes_are_weight_products():
    theta1, theta2 = math.pi / 6, math.pi / 3
    amps = pattern_amplitudes(theta1, theta2)
    c1, s1 = math.cos(theta1), math.sin(theta1)
    c2, s2 = math.cos(theta2), math.sin(theta2)
    assert abs(amps[X, X] - c1 * c2) < TOL
    assert abs(amps[X, Y] - c1 * s2) < TOL
    assert abs(amps[Y, X] - s1 * c2) < TOL
    assert abs(amps[Y, Y] - s1 * s2) < TOL
    assert abs(sum(a * a for a in amps.values()) - 1.0) < TOL


def test_diagonal_product_state_spreads_evenly():
    # both photons at 45 degrees: amplitude 1/2 on each of the four patterns
    amps = pattern_amplitudes(math.pi / 4, math.pi / 4)
    populated = [a for a in amps.values() if a != 0.0]
    assert len(populated) == 4
    for amp in populated:
        assert abs(amp - 0.5) < TOL


def test_product_state_drops_zero_amplitudes():
    # Aligned x polarizations populate exactly one pattern.
    amps = pattern_amplitudes(0.0, 0.0)
    assert {q for q, a in amps.items() if a != 0.0} == {(X, X)}
    assert abs(amps[X, X] - 1.0) < TOL


def test_product_state_broadcasts_over_angle_arrays():
    # each photon's row runs over its own angle's shape only, and over its
    # own side's two modes
    theta1, theta2 = np.array([0.1, 0.7, 2.0]), np.array([[0.4], [1.3]])
    p1, p2 = product_state(theta1, theta2)
    assert p1.shape == (3, 2)
    assert p2.shape == (2, 1, 2)
    for k, t1 in enumerate(theta1):
        for j, t2 in enumerate(theta2[:, 0]):
            q1, q2 = product_state(float(t1), float(t2))
            assert np.max(np.abs(p1[k] - q1)) < TOL and np.max(np.abs(p2[j, 0] - q2)) < TOL


def test_product_state_rejects_nonfinite_angles():
    with pytest.raises(ValueError, match="^theta1 must be finite, got nan$"):
        product_state(math.nan, 0.0)
    with pytest.raises(ValueError, match="^theta2 must be finite, got inf$"):
        product_state(0.0, math.inf)
    with pytest.raises(ValueError, match="^theta1 must be finite"):
        product_state(np.array([0.0, math.nan]), 0.0)
    with pytest.raises(ValueError, match="^theta1 must be finite, got 1000"):
        product_state(10**400, 0.0)  # an int past every float


def test_repeated_operator_counts_both_pairings():
    # d d empties the pair along either pairing of photons to factors, so
    # <0| d d |psi> = 2 (u.p1)(u.p2), not (u.p1)(u.p2)
    rng = np.random.default_rng(20261018)
    state = product_state(*rng.uniform(0, math.pi, size=2))
    q1, q2 = four_mode_rows(state)
    for _ in range(20):
        u = rng.normal(size=N_MODES) + 1j * rng.normal(size=N_MODES)
        assert vacuum_amplitude(u, u, state) == 2.0 * dot(u, q1) * dot(u, q2)


def test_two_term_overlaps_square_like_the_four_mode_permanent():
    # the kernel leaves out the two products of each overlap that meet the
    # other side's exact zeros in a four-mode photon row; that can only flip
    # the sign of a zero part, so |amplitude|^2 agrees bit for bit
    rng = np.random.default_rng(20261019)
    shape = (4000, N_MODES)
    u_a, u_b = (rng.normal(size=shape) + 1j * rng.normal(size=shape) for _ in range(2))
    for u in (u_a, u_b):
        # exact zeros of both signs in real and imaginary parts
        u.real[rng.random(shape) < 0.25] = 0.0
        u.imag[rng.random(shape) < 0.25] = -0.0
        u.real[rng.random(shape) < 0.1] = -0.0
        u.imag[rng.random(shape) < 0.1] = 0.0
    theta = rng.uniform(-math.pi, math.pi, size=(2, 4000))
    theta[:, ::7] = rng.choice([0.0, math.pi / 2, -math.pi, math.pi], size=(2, 572))
    state = product_state(*theta)
    kernel = np.abs(vacuum_amplitude(u_a, u_b, state)) ** 2
    reference = np.abs(four_mode_amplitude(u_a, u_b, state)) ** 2
    assert np.array_equal(kernel.view(np.uint64), reference.view(np.uint64))
    # broadcast rows too: every detector row against every photon row
    state = product_state(theta[0, :60], theta[1, :60])
    kernel = np.abs(vacuum_amplitude(u_a[:50, None], u_b[:50, None], state)) ** 2
    reference = np.abs(four_mode_amplitude(u_a[:50, None], u_b[:50, None], state)) ** 2
    assert kernel.shape == (50, 60)
    assert np.array_equal(kernel.view(np.uint64), reference.view(np.uint64))


def test_annihilation_of_empty_mode_gives_zero_state():
    state = product_state(0.0, 0.0)  # x photons only
    assert vacuum_amplitude(A1Y, A2X, state) == 0.0
    assert vacuum_amplitude(A1X, A2Y, state) == 0.0
    assert abs(vacuum_amplitude(A1X, A2X, state) - 1.0) < TOL


def test_operator_scalar_multiplication_both_sides():
    # a scalar on the pair operator d_a d_b can ride on either factor
    state = product_state(0.3, 1.1)
    u_a, u_b = A1X + 0.5j * A2Y, A2X - 0.2 * A1Y
    base = vacuum_amplitude(u_a, u_b, state)
    assert abs(vacuum_amplitude(3.0 * u_a, u_b, state) - 3.0 * base) < TOL
    assert abs(vacuum_amplitude(u_a, 3.0 * u_b, state) - 3.0 * base) < TOL


def test_vacuum_amplitude_is_linear_in_each_operator():
    rng = np.random.default_rng(20260823)
    state = product_state(rng.uniform(0, math.pi), rng.uniform(0, math.pi))
    op1, op2 = 1.3 * A1X, 0.7j * A1Y
    combined = vacuum_amplitude(op1 + op2, A2X + A2Y, state)
    separate = vacuum_amplitude(op1, A2X + A2Y, state) + vacuum_amplitude(op2, A2X + A2Y, state)
    assert abs(combined - separate) < TOL
    # the two operators commute
    assert abs(vacuum_amplitude(A2X + A2Y, op1 + op2, state) - combined) < TOL


def test_vacuum_amplitude_broadcasts_over_batch_axes():
    rows = np.stack([A1X, A1Y, A1X + A1Y])
    state = product_state(np.array([[0.2], [0.9]]), 0.5)
    amps = vacuum_amplitude(rows, A2X, state)
    assert amps.shape == (2, 3)
    for i, theta1 in enumerate((0.2, 0.9)):
        single = product_state(theta1, 0.5)
        for j, row in enumerate(rows):
            assert abs(amps[i, j] - vacuum_amplitude(row, A2X, single)) < TOL


def test_two_photon_state_needs_two_annihilations_for_vacuum_overlap():
    # one annihilation per photon: two side-1 operators cannot empty a
    # state with one photon per side
    state = product_state(0.3, 1.1)
    assert vacuum_amplitude(A1X, A1Y, state) == 0.0
    assert vacuum_amplitude(A2X, A2Y, state) == 0.0
    expected = math.cos(0.3) * math.cos(1.1)
    assert abs(vacuum_amplitude(A1X, A2X, state) - expected) < TOL
