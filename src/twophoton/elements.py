"""Beam splitter, polarization analyzers, and detector operators.

Conventions fixed here and relied on everywhere else:

* Splitter action per polarization axis:  a1_out = t*a1_in + i*r*a2_in and
  a2_out = i*r*a1_in + t*a2_in, i.e. reflection carries a fixed factor i.
* Analyzer ports: the parallel port projects onto (cos t, sin t), the
  perpendicular port onto (-sin t, cos t); the perpendicular port equals the
  parallel port rotated by pi/2.
* Geometry enters only through two relative phases, and a measurement
  reads one of them.  `phi` is the fringe phase between the both-transmitted
  and the both-reflected path of an opposite-side coincidence; it is
  attached to the reflected term of the side-1 detector operator.  `psi` is
  the fringe phase between the two pairings of a same-side pair detection;
  it is attached to the transmitted term of the first operator of the pair.
  Detectors at positions z1, z2 fold in as the phase
  2*pi*(z2 - z1)/spacing, for the fringe spacing; equal displacement of
  both detectors leaves these relative phases (and hence all probabilities)
  unchanged.

A detector operator is linear in the input annihilators, so it is returned
as its coefficient row over the four occupied input modes (in `fock`'s
order).  `analyzer_rows` is the one row builder: it builds the rows of both
ports of an analyzer, on an axis of their own (parallel at index 0,
perpendicular at 1), with the phase of the detector's `Role`.  A one-port
row is the slice `analyzer_rows(role, arm, theta, bs, phase)[..., k, :]` of
its port index k.  Angles, phases and splitter amplitudes may be numpy
arrays; they broadcast, and the rows gain the broadcast shape as leading
axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import N_MODES, TOL, Arm, _all_finite


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Lossless splitter amplitudes per polarization axis (all real, in [0, 1])."""

    tx: float
    ty: float
    rx: float
    ry: float

    def __post_init__(self) -> None:
        # Python numbers are checked with plain comparisons, arrays elementwise
        numbers = all(isinstance(v, (int, float)) for v in (self.tx, self.ty, self.rx, self.ry))
        for name in ("tx", "ty", "rx", "ry"):
            v = getattr(self, name)
            if numbers:
                valid = math.isfinite(v) and -TOL <= v <= 1.0 + TOL
            else:
                valid = _all_finite(v) and np.all((-TOL <= v) & (v <= 1.0 + TOL))
            if not valid:
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        for axis, t, r in (("x", self.tx, self.rx), ("y", self.ty, self.ry)):
            norm = t**2 + r**2
            if abs(norm - 1.0) > TOL if numbers else np.any(np.abs(norm - 1.0) > TOL):
                raise ValueError(f"lossy {axis} axis: t{axis}^2 + r{axis}^2 = {norm!r}")

    @classmethod
    def from_transmission(cls, tx: float, ty: float) -> "BeamSplitterSpec":
        """Build a lossless splitter from transmission amplitudes alone."""
        if not (0.0 <= tx <= 1.0 and 0.0 <= ty <= 1.0):
            raise ValueError(f"transmissions must lie in [0, 1], got {(tx, ty)!r}")
        return cls(tx, ty, math.sqrt(max(0.0, 1.0 - tx * tx)), math.sqrt(max(0.0, 1.0 - ty * ty)))

    @classmethod
    def fifty_fifty(cls) -> "BeamSplitterSpec":
        """Polarization-independent 50:50 splitter."""
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s, s, s)


def _port_weights(theta: float) -> tuple[np.ndarray, np.ndarray]:
    """Projection weights (wx, wy) of the two ports of an analyzer at
    `theta`, on a last axis: parallel at index 0, perpendicular at 1."""
    if not _all_finite(theta):
        raise ValueError(f"analyzer angle must be finite, got {theta!r}")
    c, s = np.cos(theta), np.sin(theta)
    wx, wy = np.empty((*np.shape(c), 2)), np.empty((*np.shape(c), 2))
    wx[..., 0], wy[..., 0] = c, s
    wx[..., 1], wy[..., 1] = -s, c
    return wx, wy


# A side-2 row is the side-1 row of the same setting and phases with the two
# sides' modes swapped: the transmitted and reflected terms trade places.
OTHER_SIDE = np.array([2, 3, 0, 1])


class Role(Enum):
    """A detector's place in a measurement, which fixes the phase its row carries."""

    OPPOSITE = 0  # one of the two detectors of an opposite-side coincidence
    PAIR_FIRST = 1  # the first detector of a same-side pair
    PAIR_SECOND = 2  # the second detector of a same-side pair


def analyzer_rows(
    role: Role,
    arm: Arm,
    theta: float,
    bs: BeamSplitterSpec,
    phase: float = 0.0,
) -> np.ndarray:
    """Rows of the analyzer at `theta` on `arm`, one per port on an axis
    before the modes, parallel then perpendicular: (..., 2, 4).

    Each row holds the splitter outputs of its side, weighted by its port.
    `phase` is the one fringe phase the detector's role carries, by the
    module conventions: an opposite-side side-1 row carries exp(i*phi) on
    its reflected (other-side) terms, the first row of a same-side pair
    exp(i*psi) on its transmitted (same-side) terms, and every other row
    ignores it.
    """
    if not isinstance(arm, Arm):
        raise ValueError(f"arm must be an Arm, got {arm!r}")
    if not _all_finite(phase):
        raise ValueError(f"{'phi' if role is Role.OPPOSITE else 'psi'} must be finite, got {phase!r}")
    if role is Role.OPPOSITE:
        t_phase, r_phase = 1.0, np.exp(1j * phase) if arm is Arm.SIDE1 else 1.0
    elif role is Role.PAIR_FIRST:
        t_phase, r_phase = np.exp(1j * phase), 1.0
    else:
        t_phase, r_phase = 1.0, 1.0
    wx, wy = _port_weights(theta)
    # array phases and amplitudes gain the ports axis
    tp, rp, tx, ty, rx, ry = (
        a[..., None] if isinstance(a, np.ndarray) else a for a in (t_phase, 1j * r_phase, bs.tx, bs.ty, bs.rx, bs.ry)
    )
    # side 1's modes in `fock`'s order: transmitted x, y, then reflected x, y
    entries = (tp * wx * tx, tp * wy * ty, rp * wx * rx, rp * wy * ry)
    rows = np.empty(np.broadcast(*entries).shape + (N_MODES,), dtype=complex)
    for index, value in zip(range(N_MODES) if arm is Arm.SIDE1 else OTHER_SIDE, entries):
        rows[..., index] = value
    return rows

