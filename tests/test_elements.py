import cmath
import hashlib
import math
import re

import numpy as np
import pytest

from twophoton.elements import (
    OTHER_SIDE,
    BeamSplitterSpec,
    analyzer_rows,
)
from twophoton.fock import TOL

# polarization axes; a row's modes are side1 x, side1 y, side2 x, side2 y
X, Y = 0, 1
# port indexes on the ports axis of `analyzer_rows`
PAR, PERP = 0, 1

RNG = np.random.default_rng(411)


def one_row(theta, bs: BeamSplitterSpec, port: int = PAR, **phases):
    """Side 1's row of the analyzer port of index `port`: an `analyzer_rows`
    call, sliced."""
    return analyzer_rows(theta, bs, **phases)[..., port, :]


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
        side1 = np.stack([one_row(theta, bs) for theta in (0.0, math.pi / 2.0)])
        rows = np.concatenate((side1, side1[..., OTHER_SIDE]))
        assert np.max(np.abs(rows @ rows.conj().T - np.eye(4))) < TOL


def test_parallel_port_projects_along_analyzer_angle():
    # behind a clear window a row is its port's weights on its own side's modes
    theta = 0.7
    clear = BeamSplitterSpec.from_transmission(1.0, 1.0)
    row = one_row(theta, clear)
    assert abs(row[0] - math.cos(theta)) < TOL
    assert abs(row[1] - math.sin(theta)) < TOL
    assert row[2] == 0.0 and row[3] == 0.0


@pytest.mark.parametrize(
    "phases", [{}, {"phi": 1.3}, {"psi": 1.3}, {"phi": -0.4, "psi": 1.3}], ids=["none", "phi", "psi", "both"]
)
def test_perpendicular_port_is_parallel_rotated_quarter_turn(phases):
    bs = BeamSplitterSpec.from_transmission(0.83, 0.37)
    thetas = RNG.uniform(-math.pi, math.pi, size=25)
    perp = one_row(thetas, bs, PERP, **phases)
    rotated = one_row(thetas + math.pi / 2.0, bs, **phases)
    assert perp.shape == (25, 4)
    assert np.max(np.abs(perp - rotated)) < TOL


def test_analyzer_angle_validation():
    with pytest.raises(ValueError, match="^analyzer angle must be finite, got nan$"):
        one_row(math.nan, BeamSplitterSpec.fifty_fifty())


@pytest.mark.parametrize(
    "phase, shown",
    [(math.nan, "nan"), (math.inf, "inf"), (np.array([0.1, math.nan]), "array([0.1, nan])")],
    ids=["nan", "inf", "array"],
)
def test_a_phase_that_is_not_finite_is_rejected_by_its_name(phase, shown):
    # a phase is checked whether or not the other one is given
    bs = BeamSplitterSpec.fifty_fifty()
    for name, other in (("phi", "psi"), ("psi", "phi")):
        for phases in ({name: phase}, {name: phase, other: 0.4}):
            with pytest.raises(ValueError, match=rf"^{name} must be finite, got {re.escape(shown)}$"):
                analyzer_rows(0.3, bs, **phases)


def test_a_phase_left_as_none_puts_no_factor_on_its_terms():
    # the rows equal those of a zero phase, and the terms a phase would
    # multiply keep the real factor of the splitter and the port
    bs = BeamSplitterSpec.from_transmission(0.8, 0.7)
    plain = analyzer_rows(0.3, bs)
    for name in ("phi", "psi"):
        assert np.array_equal(plain, analyzer_rows(0.3, bs, **{name: 0.0}))
    assert not plain[..., :2].imag.any()  # transmitted terms
    assert not plain[..., 2:].real.any()  # reflected terms, i*r


def splitter_output(bs: BeamSplitterSpec, side: int, axis: int) -> np.ndarray:
    """Row of one splitter output annihilator on `side` (1 or 2),
    polarization `axis` (X or Y): t on the same side, i*r on the other
    side, same polarization."""
    t, r = (bs.tx, bs.rx) if axis == X else (bs.ty, bs.ry)
    same, other = (0, 2) if side == 1 else (2, 0)
    row = np.zeros(4, dtype=complex)
    row[same + axis], row[other + axis] = t, 1j * r
    return row


def test_splitter_output_mixes_sides_with_i_reflection():
    # an analyzer along x (y) passes exactly the x (y) splitter output
    bs = BeamSplitterSpec.from_transmission(0.9, 0.6)
    out = one_row(0.0, bs)
    assert abs(out[0] - bs.tx) < TOL
    assert abs(out[2] - 1j * bs.rx) < TOL
    assert out[1] == 0.0 and out[3] == 0.0
    out2 = one_row(math.pi / 2.0, bs)[OTHER_SIDE]
    assert abs(out2[3] - bs.ty) < TOL
    assert abs(out2[1] - 1j * bs.ry) < TOL
    assert np.max(np.abs(out2 - splitter_output(bs, 2, Y))) < TOL


def test_opposite_side_phase_sits_on_side1_reflected_terms():
    bs = BeamSplitterSpec.fifty_fifty()
    phi = 1.2
    theta = 0.4
    got = one_row(theta, bs, phi=phi)
    ref = one_row(theta, bs)
    for m in range(4):
        factor = cmath.exp(1j * phi) if m >= 2 else 1.0  # side 2's modes, reflected into side 1
        assert abs(got[m] - ref[m] * factor) < TOL


def test_one_port_row_matches_weighted_splitter_outputs():
    bs = BeamSplitterSpec.from_transmission(0.9, 0.6)
    theta = 1.1
    op = one_row(theta, bs, PERP)[OTHER_SIDE]
    wx, wy = port_weights(theta, PERP)
    combo = wx * splitter_output(bs, 2, X) + wy * splitter_output(bs, 2, Y)
    assert np.max(np.abs(op - combo)) < TOL


def test_one_port_rows_broadcast_over_array_parameters():
    thetas = np.array([0.1, 0.8, 2.5])
    phis = np.array([0.0, 1.0, 4.0])
    psis = np.array([-2.0, 0.3, 5.0])
    splitters = [BeamSplitterSpec.from_transmission(*t) for t in ((0.9, 0.6), (0.5, 0.5), (0.1, 1.0))]
    fields = np.array([[s.tx, s.ty, s.rx, s.ry] for s in splitters]).T
    rows = one_row(thetas, BeamSplitterSpec(*fields), PERP, phi=phis, psi=psis)
    assert rows.shape == (3, 4)
    for k, bs in enumerate(splitters):
        single = one_row(float(thetas[k]), bs, PERP, phi=float(phis[k]), psi=float(psis[k]))
        assert np.max(np.abs(rows[k] - single)) < TOL


def test_same_arm_pair_phase_sits_on_first_transmitted_term():
    # psi multiplies the transmitted terms: side 1's own modes, and after
    # the swap to side 2 side 2's
    bs = BeamSplitterSpec.fifty_fifty()
    psi = 0.9
    got, ref = one_row(0.2, bs, psi=psi), one_row(0.2, bs)
    for m in range(4):
        factor = cmath.exp(1j * psi) if m < 2 else 1.0
        assert abs(got[m] - ref[m] * factor) < TOL
        factor = cmath.exp(1j * psi) if m >= 2 else 1.0
        assert abs(got[OTHER_SIDE][m] - ref[OTHER_SIDE][m] * factor) < TOL


@pytest.mark.parametrize("phi", [None, np.array([0.7, -1.9, 4.0])], ids=["no_phi", "phi"])
@pytest.mark.parametrize("psi", [None, 1.3], ids=["no_psi", "psi"])
def test_analyzer_rows_hold_both_ports_with_their_phases(phi, psi):
    # each port's weighted splitter outputs on side 1, and on side 2 after
    # the swap, with exp(i*phi) on the reflected (other-side) terms and
    # exp(i*psi) on the transmitted (same-side) terms
    bs = BeamSplitterSpec.from_transmission(0.83, 0.37)
    thetas = np.array([[0.3], [2.2]])
    rows = analyzer_rows(thetas, bs, phi, psi)
    # only a given array phi spans its axis
    assert rows.shape == ((2, 1, 2, 4) if phi is None else (2, 3, 2, 4))
    transmitted = 1.0 if psi is None else cmath.exp(1j * psi)
    reflected = 1.0 if phi is None else np.exp(1j * phi)[:, None]
    for side, side_rows in ((1, rows), (2, rows[..., OTHER_SIDE])):
        for port in (PAR, PERP):
            wx, wy = port_weights(thetas, port)
            outputs = wx[..., None] * splitter_output(bs, side, X) + wy[..., None] * splitter_output(bs, side, Y)
            factor = np.where(np.arange(4) // 2 == side - 1, transmitted, reflected)
            assert np.max(np.abs(side_rows[..., port, :] - outputs * factor)) < TOL
    with pytest.raises(ValueError, match="^analyzer angle must be finite"):
        analyzer_rows(np.array([0.1, math.nan]), bs, phi, psi)


def row_outputs() -> bytes:
    """`analyzer_rows` at seeded random points, as the bytes of its complex
    results: real and imaginary parts, zero signs included.  Scalar and
    array angles, each phase left as None or given (as a Python float or an
    array), a scalar and an array splitter, and an open mesh.  The first
    points sit on lattice angles and clear or opaque splitters, whose exact
    zeros carry signs."""
    rng = np.random.default_rng(3713)
    n = 64
    theta, phi, psi = rng.uniform(-2.0 * math.pi, 2.0 * math.pi, size=(3, n))
    tx, ty = rng.uniform(0.0, 1.0, size=(2, n))
    theta[:6] = (0.0, math.pi / 2.0, -math.pi / 4.0, math.pi, -0.0, -math.pi / 2.0)
    tx[:6], ty[:6] = (1.0, 0.0, 1.0, 0.0, 0.5, 1.0), (0.0, 1.0, 1.0, 0.0, 1.0, 0.5)
    bs = BeamSplitterSpec(tx, ty, np.sqrt(1.0 - tx * tx), np.sqrt(1.0 - ty * ty))
    phase_sets = ({}, {"phi": phi}, {"psi": psi}, {"phi": phi, "psi": psi})
    out = []
    for i in range(n):
        point = BeamSplitterSpec(float(tx[i]), float(ty[i]), float(bs.rx[i]), float(bs.ry[i]))
        for phases in phase_sets:
            out.append(analyzer_rows(float(theta[i]), point, **{k: float(v[i]) for k, v in phases.items()}))
    for phases in phase_sets:
        out.append(analyzer_rows(theta, BeamSplitterSpec.fifty_fifty(), **phases))
        out.append(analyzer_rows(theta, bs, **phases))
        out.append(analyzer_rows(0.4, bs, **phases))
        # an open mesh: angles, splitters and phases each on an axis of their own
        mesh = BeamSplitterSpec(*(v[:5, None, None] for v in (bs.tx, bs.ty, bs.rx, bs.ry)))
        out.append(analyzer_rows(theta[:7, None], mesh, **{k: v[:3] for k, v in phases.items()}))
    return b"".join(rows.tobytes() for rows in out)


def test_rows_keep_their_bits_at_random_points():
    # recorded at commit 13bb8ea, before a row was built as phase x weight x
    # amplitude per mode; the rows must change no bit, zero signs included
    digest = "cc3eb84ff779a92a461cad432abb6d0d60ad79d8c4e0465dce9371169274aee4"
    assert hashlib.sha256(row_outputs()).hexdigest() == digest
