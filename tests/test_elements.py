import cmath
import math

import numpy as np
import pytest

from twophoton.elements import (
    BeamSplitterSpec,
    PhaseGeometry,
    Port,
    Role,
    analyzer_rows,
    phase_from_positions,
)
from twophoton.fock import TOL, Arm, Pol, mode_index

RNG = np.random.default_rng(411)


def one_row(role: Role, arm: Arm, theta, bs: BeamSplitterSpec, geom: PhaseGeometry, port: Port = Port.PARALLEL):
    """The row of one analyzer port: a one-port `analyzer_rows` call, sliced."""
    return analyzer_rows(role, arm, theta, bs, geom, (port,))[..., 0, :]


def pair_rows(arm: Arm, thetas, bs: BeamSplitterSpec, geom: PhaseGeometry, ports=(Port.PARALLEL, Port.PARALLEL)):
    """Rows of the two detectors of a same-side pair on `arm`, the first at
    thetas[0] and ports[0], the second at thetas[1] and ports[1]."""
    first = one_row(Role.PAIR_FIRST, arm, thetas[0], bs, geom, ports[0])
    return first, one_row(Role.PAIR_SECOND, arm, thetas[1], bs, geom, ports[1])


def port_weights(theta, port: Port):
    """Projection weights (wx, wy) of a port by the module convention,
    written out: (cos, sin) for the parallel port, (-sin, cos) for the
    perpendicular one."""
    c, s = np.cos(theta), np.sin(theta)
    return (c, s) if port is Port.PARALLEL else (-s, c)


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
    assert bs.t(Pol.X) == bs.tx and bs.t(Pol.Y) == bs.ty
    assert bs.r(Pol.X) == bs.rx and bs.r(Pol.Y) == bs.ry


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
            [one_row(Role.OPPOSITE, arm, theta, bs, PhaseGeometry()) for arm in Arm for theta in (0.0, math.pi / 2.0)]
        )
        assert np.max(np.abs(rows @ rows.conj().T - np.eye(4))) < TOL


def test_parallel_port_projects_along_analyzer_angle():
    # behind a clear window a row is its port's weights on its own side's modes
    theta = 0.7
    clear = BeamSplitterSpec.from_transmission(1.0, 1.0)
    row = one_row(Role.OPPOSITE, Arm.SIDE1, theta, clear, PhaseGeometry())
    assert abs(row[mode_index(Arm.SIDE1, Pol.X)] - math.cos(theta)) < TOL
    assert abs(row[mode_index(Arm.SIDE1, Pol.Y)] - math.sin(theta)) < TOL
    assert row[mode_index(Arm.SIDE2, Pol.X)] == 0.0 and row[mode_index(Arm.SIDE2, Pol.Y)] == 0.0


def test_perpendicular_port_is_parallel_rotated_quarter_turn():
    bs = BeamSplitterSpec.from_transmission(0.83, 0.37)
    thetas = RNG.uniform(-math.pi, math.pi, size=25)
    for role in Role:
        perp = one_row(role, Arm.SIDE2, thetas, bs, PhaseGeometry(0.4, 1.3), Port.PERPENDICULAR)
        rotated = one_row(role, Arm.SIDE2, thetas + math.pi / 2.0, bs, PhaseGeometry(0.4, 1.3))
        assert perp.shape == (25, 4)
        assert np.max(np.abs(perp - rotated)) < TOL


def test_analyzer_and_phase_validation():
    with pytest.raises(ValueError, match="^analyzer angle must be finite, got nan$"):
        one_row(Role.OPPOSITE, Arm.SIDE1, math.nan, BeamSplitterSpec.fifty_fifty(), PhaseGeometry())
    with pytest.raises(ValueError):
        PhaseGeometry(phi=math.inf)
    with pytest.raises(ValueError):
        PhaseGeometry(psi=math.nan)


def test_phase_from_positions_depends_only_on_separation():
    spacing = 0.8
    base = phase_from_positions(0.1, 0.5, spacing)
    assert abs(base - 2.0 * math.pi * 0.4 / spacing) < TOL
    for shift in RNG.uniform(-5.0, 5.0, size=10):
        assert abs(phase_from_positions(0.1 + shift, 0.5 + shift, spacing) - base) < TOL
    with pytest.raises(ValueError):
        phase_from_positions(0.0, 1.0, 0.0)
    with pytest.raises(ValueError):
        phase_from_positions(0.0, 1.0, math.inf)


def splitter_output(bs: BeamSplitterSpec, arm: Arm, pol: Pol) -> np.ndarray:
    """Row of one splitter output annihilator: t on the same side, i*r on
    the other side, same polarization."""
    other = Arm.SIDE2 if arm is Arm.SIDE1 else Arm.SIDE1
    row = np.zeros(4, dtype=complex)
    row[mode_index(arm, pol)] = bs.t(pol)
    row[mode_index(other, pol)] = 1j * bs.r(pol)
    return row


def test_splitter_output_mixes_sides_with_i_reflection():
    # an analyzer along x (y) passes exactly the x (y) splitter output
    bs = BeamSplitterSpec.from_transmission(0.9, 0.6)
    out = one_row(Role.OPPOSITE, Arm.SIDE1, 0.0, bs, PhaseGeometry())
    assert abs(out[mode_index(Arm.SIDE1, Pol.X)] - bs.tx) < TOL
    assert abs(out[mode_index(Arm.SIDE2, Pol.X)] - 1j * bs.rx) < TOL
    assert out[mode_index(Arm.SIDE1, Pol.Y)] == 0.0 and out[mode_index(Arm.SIDE2, Pol.Y)] == 0.0
    out2 = one_row(Role.OPPOSITE, Arm.SIDE2, math.pi / 2.0, bs, PhaseGeometry())
    assert abs(out2[mode_index(Arm.SIDE2, Pol.Y)] - bs.ty) < TOL
    assert abs(out2[mode_index(Arm.SIDE1, Pol.Y)] - 1j * bs.ry) < TOL
    assert np.max(np.abs(out2 - splitter_output(bs, Arm.SIDE2, Pol.Y))) < TOL


def test_opposite_side_phase_sits_on_side1_reflected_terms():
    bs = BeamSplitterSpec.fifty_fifty()
    phi = 1.2
    theta = 0.4
    got = one_row(Role.OPPOSITE, Arm.SIDE1, theta, bs, PhaseGeometry(phi=phi))
    ref = one_row(Role.OPPOSITE, Arm.SIDE1, theta, bs, PhaseGeometry())
    for arm in Arm:
        for pol in Pol:
            m = mode_index(arm, pol)
            factor = cmath.exp(1j * phi) if arm is Arm.SIDE2 else 1.0  # reflected into side 1
            assert abs(got[m] - ref[m] * factor) < TOL


def test_side2_opposite_side_row_ignores_phi():
    bs = BeamSplitterSpec.from_transmission(0.8, 0.7)
    op_a = one_row(Role.OPPOSITE, Arm.SIDE2, 0.3, bs, PhaseGeometry(phi=2.0))
    op_b = one_row(Role.OPPOSITE, Arm.SIDE2, 0.3, bs, PhaseGeometry(phi=0.0))
    assert np.array_equal(op_a, op_b)


def test_one_port_row_matches_weighted_splitter_outputs():
    bs = BeamSplitterSpec.from_transmission(0.9, 0.6)
    theta = 1.1
    op = one_row(Role.OPPOSITE, Arm.SIDE2, theta, bs, PhaseGeometry(), Port.PERPENDICULAR)
    wx, wy = port_weights(theta, Port.PERPENDICULAR)
    combo = wx * splitter_output(bs, Arm.SIDE2, Pol.X) + wy * splitter_output(bs, Arm.SIDE2, Pol.Y)
    assert np.max(np.abs(op - combo)) < TOL


def test_one_port_rows_broadcast_over_array_parameters():
    thetas = np.array([0.1, 0.8, 2.5])
    phis = np.array([0.0, 1.0, 4.0])
    splitters = [BeamSplitterSpec.from_transmission(*t) for t in ((0.9, 0.6), (0.5, 0.5), (0.1, 1.0))]
    fields = np.array([[s.tx, s.ty, s.rx, s.ry] for s in splitters]).T
    rows = one_row(
        Role.OPPOSITE, Arm.SIDE1, thetas, BeamSplitterSpec(*fields), PhaseGeometry(phi=phis), Port.PERPENDICULAR
    )
    assert rows.shape == (3, 4)
    for k, bs in enumerate(splitters):
        single = one_row(
            Role.OPPOSITE, Arm.SIDE1, float(thetas[k]), bs, PhaseGeometry(phi=float(phis[k])), Port.PERPENDICULAR
        )
        assert np.max(np.abs(rows[k] - single)) < TOL


def test_same_arm_pair_phase_sits_on_first_transmitted_term():
    bs = BeamSplitterSpec.fifty_fifty()
    psi = 0.9
    thetas = (0.2, 1.3)
    op_a, op_b = pair_rows(Arm.SIDE2, thetas, bs, PhaseGeometry(psi=psi))
    ref_a, ref_b = pair_rows(Arm.SIDE2, thetas, bs, PhaseGeometry())
    for arm in Arm:
        for pol in Pol:
            m = mode_index(arm, pol)
            factor = cmath.exp(1j * psi) if arm is Arm.SIDE2 else 1.0  # transmitted term
            assert abs(op_a[m] - ref_a[m] * factor) < TOL
    # second operator of the pair carries no psi
    assert np.array_equal(op_b, ref_b)


def test_same_arm_pair_honors_ports_and_angles():
    bs = BeamSplitterSpec.fifty_fifty()
    op_perp, _ = pair_rows(Arm.SIDE1, (0.5, 0.5), bs, PhaseGeometry(), (Port.PERPENDICULAR, Port.PARALLEL))
    op_rot, _ = pair_rows(Arm.SIDE1, (0.5 + math.pi / 2.0, 0.5), bs, PhaseGeometry())
    assert np.max(np.abs(op_perp - op_rot)) < TOL
    # the second detector at its own angle and port
    _, second_perp = pair_rows(Arm.SIDE1, (0.5, 0.9), bs, PhaseGeometry(), (Port.PARALLEL, Port.PERPENDICULAR))
    _, second_rot = pair_rows(Arm.SIDE1, (0.5, 0.9 + math.pi / 2.0), bs, PhaseGeometry())
    assert np.max(np.abs(second_perp - second_rot)) < TOL


def test_side2_rows_are_side1_rows_with_the_sides_swapped():
    # `analyzer_rows` builds side 2's rows from side 1's this way
    bs = BeamSplitterSpec.from_transmission(0.83, 0.37)
    geom = PhaseGeometry(0.4, 1.3)
    thetas = (np.array([0.3, 2.2]), 0.9)
    for ports in [(pa, pb) for pa in Port for pb in Port]:
        side1 = pair_rows(Arm.SIDE1, thetas, bs, geom, ports)
        side2 = pair_rows(Arm.SIDE2, thetas, bs, geom, ports)
        for u1, u2 in zip(side1, side2):
            assert np.array_equal(u1[..., [2, 3, 0, 1]], u2)


def test_analyzer_rows_hold_both_ports_with_the_phase_of_their_role():
    # each port's weighted splitter outputs, the role's phase on the
    # reflected (other-side) or transmitted (same-side) terms
    bs = BeamSplitterSpec.from_transmission(0.83, 0.37)
    thetas = np.array([[0.3], [2.2]])
    geom = PhaseGeometry(phi=np.array([0.7, -1.9, 4.0]), psi=1.3)
    for role in Role:
        for arm in Arm:
            rows = analyzer_rows(role, arm, thetas, bs, geom)
            # only the side-1 opposite-side row spans phi
            assert rows.shape == ((2, 3, 2, 4) if (role, arm) == (Role.OPPOSITE, Arm.SIDE1) else (2, 1, 2, 4))
            if role is Role.OPPOSITE and arm is Arm.SIDE1:
                transmitted, reflected = 1.0, np.exp(1j * geom.phi)[:, None]
            elif role is Role.PAIR_FIRST:
                transmitted, reflected = cmath.exp(1j * geom.psi), 1.0
            else:
                transmitted, reflected = 1.0, 1.0
            for port in Port:
                wx, wy = port_weights(thetas, port)
                side = wx[..., None] * splitter_output(bs, arm, Pol.X) + wy[..., None] * splitter_output(bs, arm, Pol.Y)
                factor = np.where(np.arange(4) // 2 == arm.value, transmitted, reflected)
                assert np.max(np.abs(rows[..., port.value, :] - side * factor)) < TOL
    with pytest.raises(ValueError, match="^analyzer angle must be finite"):
        analyzer_rows(Role.OPPOSITE, Arm.SIDE1, np.array([0.1, math.nan]), bs, geom)
