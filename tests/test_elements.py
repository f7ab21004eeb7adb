import cmath
import math
import re

import numpy as np
import pytest

from twophoton.elements import (
    OTHER_SIDE,
    BeamSplitterSpec,
    Role,
    analyzer_rows,
)
from twophoton.fock import TOL, Arm

# polarization axes; a row's modes are side1 x, side1 y, side2 x, side2 y
X, Y = 0, 1
# port indexes on the ports axis of `analyzer_rows`
PAR, PERP = 0, 1

RNG = np.random.default_rng(411)


def one_row(role: Role, arm: Arm, theta, bs: BeamSplitterSpec, phase=0.0, port: int = PAR):
    """The row of the analyzer port of index `port`: an `analyzer_rows` call, sliced."""
    return analyzer_rows(role, arm, theta, bs, phase)[..., port, :]


def pair_rows(arm: Arm, thetas, bs: BeamSplitterSpec, psi=0.0, ports=(PAR, PAR)):
    """Rows of the two detectors of a same-side pair on `arm`, the first at
    thetas[0] and ports[0] carrying `psi`, the second at thetas[1] and ports[1]."""
    first = one_row(Role.PAIR_FIRST, arm, thetas[0], bs, psi, ports[0])
    return first, one_row(Role.PAIR_SECOND, arm, thetas[1], bs, port=ports[1])


def port_weights(theta, port: int):
    """Projection weights (wx, wy) of a port by the module convention,
    written out: (cos, sin) for the parallel port, (-sin, cos) for the
    perpendicular one."""
    c, s = np.cos(theta), np.sin(theta)
    return (c, s) if port == PAR else (-s, c)


def test_beam_splitter_rejects_lossy_amplitudes():
    with pytest.raises(ValueError):
        BeamSplitterSpec(0.9, 0.6, 0.9, 0.8)  # tx^2 + rx^2 != 1
    with pytest.raises(ValueError):
        BeamSplitterSpec(1.2, 0.0, 0.0, 1.0)  # out of range
    s = 1.0 / math.sqrt(2.0)
    with pytest.raises(ValueError):  # one lossy entry of an array-valued splitter
        BeamSplitterSpec(np.array([s, 0.9]), s, np.array([s, 0.9]), s)


@pytest.mark.parametrize(
    "fields",
    [
        (1.0, 0.0, 0.0, 1.0),
        (1.0 + TOL / 2.0, -TOL / 2.0, 0.0, 1.0),  # inside the tolerance
        (1.0 + 2.0 * TOL, 0.0, 0.0, 1.0),
        (-2.0 * TOL, 1.0, 1.0, 0.0),
        (0.6, 0.6, 0.8 + 0.9 * TOL, 0.8),
        (0.6, 0.6, 0.8, 0.8 + 3.0 * TOL),  # lossy y axis
        (math.nan, 0.0, 1.0, 1.0),
        (0.0, math.inf, 1.0, 1.0),
        (1, 0, 0, 1),
        (True, 0.0, 0.0, 1.0),
    ],
)
def test_python_numbers_are_checked_by_the_array_rule(fields):
    # the same outcome and message as the fields given as one-element arrays
    def outcome(*args):
        try:
            BeamSplitterSpec(*args)
        except ValueError as exc:
            return str(exc).partition(" got ")[0].partition(" = ")[0]
        return None

    assert outcome(*fields) == outcome(*(np.array([float(v)]) for v in fields))


def test_from_transmission_is_lossless():
    for tx, ty in ((0.9, 0.6), (1.0, 1.0), (0.0, 0.0), (0.3, 0.95)):
        bs = BeamSplitterSpec.from_transmission(tx, ty)
        assert abs(bs.tx**2 + bs.rx**2 - 1.0) < TOL
        assert abs(bs.ty**2 + bs.ry**2 - 1.0) < TOL
    with pytest.raises(ValueError):
        BeamSplitterSpec.from_transmission(1.5, 0.5)


def test_fifty_fifty_amplitudes():
    bs = BeamSplitterSpec.fifty_fifty()
    s = 1.0 / math.sqrt(2.0)
    assert (bs.tx, bs.ty, bs.rx, bs.ry) == (s, s, s, s)


def test_splitter_transform_is_unitary_per_polarization():
    # columns of (t, ir; ir, t) are orthonormal for every lossless splitter
    for tx, ty in ((0.5, 0.5), (0.9, 0.6), (1.0, 1.0), (0.0, 0.0), (0.33, 0.77)):
        bs = BeamSplitterSpec.from_transmission(tx, ty)
        for t, r in ((bs.tx, bs.rx), (bs.ty, bs.ry)):
            m = np.array([[t, 1j * r], [1j * r, t]])
            assert np.max(np.abs(m @ m.conj().T - np.eye(2))) < TOL
        # the detector rows of analyzers along x and y on both sides are the
        # splitter's output rows, so together they form a unitary matrix
        rows = np.stack(
            [one_row(Role.OPPOSITE, arm, theta, bs, 0.0) for arm in Arm for theta in (0.0, math.pi / 2.0)]
        )
        assert np.max(np.abs(rows @ rows.conj().T - np.eye(4))) < TOL


def test_parallel_port_projects_along_analyzer_angle():
    # behind a clear window a row is its port's weights on its own side's modes
    theta = 0.7
    clear = BeamSplitterSpec.from_transmission(1.0, 1.0)
    row = one_row(Role.OPPOSITE, Arm.SIDE1, theta, clear, 0.0)
    assert abs(row[0] - math.cos(theta)) < TOL
    assert abs(row[1] - math.sin(theta)) < TOL
    assert row[2] == 0.0 and row[3] == 0.0


def test_perpendicular_port_is_parallel_rotated_quarter_turn():
    bs = BeamSplitterSpec.from_transmission(0.83, 0.37)
    thetas = RNG.uniform(-math.pi, math.pi, size=25)
    for role in Role:
        perp = one_row(role, Arm.SIDE2, thetas, bs, 1.3, PERP)
        rotated = one_row(role, Arm.SIDE2, thetas + math.pi / 2.0, bs, 1.3)
        assert perp.shape == (25, 4)
        assert np.max(np.abs(perp - rotated)) < TOL


def test_analyzer_angle_validation():
    with pytest.raises(ValueError, match="^analyzer angle must be finite, got nan$"):
        one_row(Role.OPPOSITE, Arm.SIDE1, math.nan, BeamSplitterSpec.fifty_fifty())


@pytest.mark.parametrize(
    "phase, shown",
    [(math.nan, "nan"), (math.inf, "inf"), (np.array([0.1, math.nan]), "array([0.1, nan])")],
    ids=["nan", "inf", "array"],
)
def test_a_phase_that_is_not_finite_is_rejected_by_the_name_of_its_role(phase, shown):
    # an opposite-side row reads phi and a same-side pair's rows psi; a row
    # that ignores its phase still rejects a bad one
    bs = BeamSplitterSpec.fifty_fifty()
    for role, name in ((Role.OPPOSITE, "phi"), (Role.PAIR_FIRST, "psi"), (Role.PAIR_SECOND, "psi")):
        for arm in Arm:
            with pytest.raises(ValueError, match=rf"^{name} must be finite, got {re.escape(shown)}$"):
                analyzer_rows(role, arm, 0.3, bs, phase)


@pytest.mark.parametrize(
    "arm", ["side1", 0, None, np.array([Arm.SIDE1, Arm.SIDE2], dtype=object)], ids=["str", "int", "None", "array"]
)
def test_an_arm_that_is_not_an_arm_is_rejected(arm):
    # anything but an `Arm` once built side 2's rows
    with pytest.raises(ValueError, match=rf"^arm must be an Arm, got {re.escape(repr(arm))}$"):
        analyzer_rows(Role.PAIR_FIRST, arm, 0.3, BeamSplitterSpec.fifty_fifty(), 0.4)


def splitter_output(bs: BeamSplitterSpec, arm: Arm, axis: int) -> np.ndarray:
    """Row of one splitter output annihilator, polarization `axis` (X or Y):
    t on the same side, i*r on the other side, same polarization."""
    t, r = (bs.tx, bs.rx) if axis == X else (bs.ty, bs.ry)
    row = np.zeros(4, dtype=complex)
    row[axis], row[2 + axis] = t, 1j * r  # side 1's output
    return row if arm is Arm.SIDE1 else row[OTHER_SIDE]


def test_splitter_output_mixes_sides_with_i_reflection():
    # an analyzer along x (y) passes exactly the x (y) splitter output
    bs = BeamSplitterSpec.from_transmission(0.9, 0.6)
    out = one_row(Role.OPPOSITE, Arm.SIDE1, 0.0, bs, 0.0)
    assert abs(out[0] - bs.tx) < TOL
    assert abs(out[2] - 1j * bs.rx) < TOL
    assert out[1] == 0.0 and out[3] == 0.0
    out2 = one_row(Role.OPPOSITE, Arm.SIDE2, math.pi / 2.0, bs, 0.0)
    assert abs(out2[3] - bs.ty) < TOL
    assert abs(out2[1] - 1j * bs.ry) < TOL
    assert np.max(np.abs(out2 - splitter_output(bs, Arm.SIDE2, Y))) < TOL


def test_opposite_side_phase_sits_on_side1_reflected_terms():
    bs = BeamSplitterSpec.fifty_fifty()
    phi = 1.2
    theta = 0.4
    got = one_row(Role.OPPOSITE, Arm.SIDE1, theta, bs, phi)
    ref = one_row(Role.OPPOSITE, Arm.SIDE1, theta, bs, 0.0)
    for m in range(4):
        factor = cmath.exp(1j * phi) if m >= 2 else 1.0  # side 2's modes, reflected into side 1
        assert abs(got[m] - ref[m] * factor) < TOL


def test_side2_opposite_side_row_ignores_phi():
    bs = BeamSplitterSpec.from_transmission(0.8, 0.7)
    op_a = one_row(Role.OPPOSITE, Arm.SIDE2, 0.3, bs, 2.0)
    op_b = one_row(Role.OPPOSITE, Arm.SIDE2, 0.3, bs, 0.0)
    assert np.array_equal(op_a, op_b)


def test_one_port_row_matches_weighted_splitter_outputs():
    bs = BeamSplitterSpec.from_transmission(0.9, 0.6)
    theta = 1.1
    op = one_row(Role.OPPOSITE, Arm.SIDE2, theta, bs, 0.0, PERP)
    wx, wy = port_weights(theta, PERP)
    combo = wx * splitter_output(bs, Arm.SIDE2, X) + wy * splitter_output(bs, Arm.SIDE2, Y)
    assert np.max(np.abs(op - combo)) < TOL


def test_one_port_rows_broadcast_over_array_parameters():
    thetas = np.array([0.1, 0.8, 2.5])
    phis = np.array([0.0, 1.0, 4.0])
    splitters = [BeamSplitterSpec.from_transmission(*t) for t in ((0.9, 0.6), (0.5, 0.5), (0.1, 1.0))]
    fields = np.array([[s.tx, s.ty, s.rx, s.ry] for s in splitters]).T
    rows = one_row(Role.OPPOSITE, Arm.SIDE1, thetas, BeamSplitterSpec(*fields), phis, PERP)
    assert rows.shape == (3, 4)
    for k, bs in enumerate(splitters):
        single = one_row(Role.OPPOSITE, Arm.SIDE1, float(thetas[k]), bs, float(phis[k]), PERP)
        assert np.max(np.abs(rows[k] - single)) < TOL


def test_same_arm_pair_phase_sits_on_first_transmitted_term():
    bs = BeamSplitterSpec.fifty_fifty()
    psi = 0.9
    thetas = (0.2, 1.3)
    op_a, op_b = pair_rows(Arm.SIDE2, thetas, bs, psi)
    ref_a, ref_b = pair_rows(Arm.SIDE2, thetas, bs, 0.0)
    for m in range(4):
        factor = cmath.exp(1j * psi) if m >= 2 else 1.0  # side 2's modes, the transmitted term
        assert abs(op_a[m] - ref_a[m] * factor) < TOL
    # second operator of the pair carries no psi
    assert np.array_equal(op_b, ref_b)


def test_same_arm_pair_honors_ports_and_angles():
    bs = BeamSplitterSpec.fifty_fifty()
    op_perp, _ = pair_rows(Arm.SIDE1, (0.5, 0.5), bs, 0.0, (PERP, PAR))
    op_rot, _ = pair_rows(Arm.SIDE1, (0.5 + math.pi / 2.0, 0.5), bs, 0.0)
    assert np.max(np.abs(op_perp - op_rot)) < TOL
    # the second detector at its own angle and port
    _, second_perp = pair_rows(Arm.SIDE1, (0.5, 0.9), bs, 0.0, (PAR, PERP))
    _, second_rot = pair_rows(Arm.SIDE1, (0.5, 0.9 + math.pi / 2.0), bs, 0.0)
    assert np.max(np.abs(second_perp - second_rot)) < TOL


def test_side2_rows_are_side1_rows_with_the_sides_swapped():
    # `analyzer_rows` builds side 2's rows from side 1's this way
    bs = BeamSplitterSpec.from_transmission(0.83, 0.37)
    thetas = (np.array([0.3, 2.2]), 0.9)
    for ports in [(pa, pb) for pa in (PAR, PERP) for pb in (PAR, PERP)]:
        side1 = pair_rows(Arm.SIDE1, thetas, bs, 1.3, ports)
        side2 = pair_rows(Arm.SIDE2, thetas, bs, 1.3, ports)
        for u1, u2 in zip(side1, side2):
            assert np.array_equal(u1[..., [2, 3, 0, 1]], u2)


def test_analyzer_rows_hold_both_ports_with_the_phase_of_their_role():
    # each port's weighted splitter outputs, the role's phase on the
    # reflected (other-side) or transmitted (same-side) terms
    bs = BeamSplitterSpec.from_transmission(0.83, 0.37)
    thetas = np.array([[0.3], [2.2]])
    phi, psi = np.array([0.7, -1.9, 4.0]), 1.3
    for role in Role:
        for arm in Arm:
            # an opposite-side row takes phi, a same-side pair's row psi
            rows = analyzer_rows(role, arm, thetas, bs, phi if role is Role.OPPOSITE else psi)
            # only the side-1 opposite-side row spans phi
            assert rows.shape == ((2, 3, 2, 4) if (role, arm) == (Role.OPPOSITE, Arm.SIDE1) else (2, 1, 2, 4))
            if role is Role.OPPOSITE and arm is Arm.SIDE1:
                transmitted, reflected = 1.0, np.exp(1j * phi)[:, None]
            elif role is Role.PAIR_FIRST:
                transmitted, reflected = cmath.exp(1j * psi), 1.0
            else:
                transmitted, reflected = 1.0, 1.0
            for port in (PAR, PERP):
                wx, wy = port_weights(thetas, port)
                side = wx[..., None] * splitter_output(bs, arm, X) + wy[..., None] * splitter_output(bs, arm, Y)
                factor = np.where(np.arange(4) // 2 == arm.value, transmitted, reflected)
                assert np.max(np.abs(rows[..., port, :] - side * factor)) < TOL
    with pytest.raises(ValueError, match="^analyzer angle must be finite"):
        analyzer_rows(Role.OPPOSITE, Arm.SIDE1, np.array([0.1, math.nan]), bs, phi)
