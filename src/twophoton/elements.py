"""Beam splitter, polarization analyzers, and detector operators.

Conventions fixed here and relied on everywhere else:

* Splitter action per polarization axis:  a1_out = t*a1_in + i*r*a2_in and
  a2_out = i*r*a1_in + t*a2_in, i.e. reflection carries a fixed factor i.
* Analyzer ports: the parallel port projects onto (cos t, sin t), the
  perpendicular port onto (-sin t, cos t); the perpendicular port equals the
  parallel port rotated by pi/2.
* Geometry enters only through two relative phases.  `phi` is the fringe
  phase between the both-transmitted and the both-reflected path of an
  opposite-side coincidence; it is attached to the reflected term of the
  side-1 detector operator.  `psi` is the fringe phase between the two
  pairings of a same-side pair detection; it is attached to the transmitted
  term of the first operator of the pair.  Equal displacement of both
  detectors leaves these relative phases (and hence all probabilities)
  unchanged; `phase_from_positions` is the documented fold-in map.

A detector operator is linear in the input annihilators, so it is returned
as its coefficient row over the four occupied input modes (`fock.mode_index`
order).  `analyzer_rows` is the one row builder: it builds the rows of the
given ports of an analyzer (both by default), on an axis of their own, with
the phase of the detector's `Role`.  A one-port row is the slice
`analyzer_rows(role, arm, theta, bs, geom, (port,))[..., 0, :]`.  Angles,
phases and splitter amplitudes may be numpy arrays; they broadcast, and the
rows gain the broadcast shape as leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .fock import N_MODES, TOL, Arm, Pol, _all_finite


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

    def t(self, pol: Pol) -> float:
        return self.tx if pol is Pol.X else self.ty

    def r(self, pol: Pol) -> float:
        return self.rx if pol is Pol.X else self.ry


class Port(Enum):
    """Output port of a two-channel (birefringent) analyzer."""

    PARALLEL = 0
    PERPENDICULAR = 1


def _port_weights(theta: float, ports: Sequence[Port]) -> tuple[np.ndarray, np.ndarray]:
    """Projection weights (wx, wy) of `ports` of an analyzer at `theta`,
    each on a last axis in the order of `ports`."""
    if not _all_finite(theta):
        raise ValueError(f"analyzer angle must be finite, got {theta!r}")
    c, s = np.cos(theta), np.sin(theta)
    by_port = ((c, s), (-s, c))  # parallel, perpendicular
    wx, wy = (np.empty((*np.shape(c), len(ports))) for _ in "xy")
    for k, port in enumerate(ports):
        wx[..., k], wy[..., k] = by_port[port.value]
    return wx, wy


@dataclass(frozen=True)
class PhaseGeometry:
    """Folded detector-position phases (radians); see module docstring."""

    phi: float = 0.0
    psi: float = 0.0

    def __post_init__(self) -> None:
        for name in ("phi", "psi"):
            if not _all_finite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")


def phase_from_positions(z1: float, z2: float, fringe_spacing: float) -> float:
    """Fold two detector positions into a relative fringe phase.

    Returns 2*pi*(z2 - z1)/fringe_spacing; shifting both positions equally
    leaves the result unchanged.
    """
    if fringe_spacing == 0 or not math.isfinite(fringe_spacing):
        raise ValueError(f"fringe_spacing must be finite and nonzero, got {fringe_spacing!r}")
    return 2.0 * math.pi * (z2 - z1) / fringe_spacing


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
    geom: PhaseGeometry,
    ports: Sequence[Port] = tuple(Port),
) -> np.ndarray:
    """Rows of the analyzer at `theta` on `arm`, one per port of `ports`
    (both, in `Port` order, by default) on an axis before the modes:
    (..., len(ports), 4).

    Each row holds the splitter outputs of its side, weighted by its port.
    The phases follow the module conventions: an opposite-side side-1 row
    carries exp(i*phi) on its reflected (other-side) terms, the first row
    of a same-side pair exp(i*psi) on its transmitted (same-side) terms,
    and every other row none.
    """
    if role is Role.OPPOSITE:
        t_phase, r_phase = 1.0, np.exp(1j * geom.phi) if arm is Arm.SIDE1 else 1.0
    elif role is Role.PAIR_FIRST:
        t_phase, r_phase = np.exp(1j * geom.psi), 1.0
    else:
        t_phase, r_phase = 1.0, 1.0
    wx, wy = _port_weights(theta, ports)
    # array phases and amplitudes gain the ports axis
    tp, rp, tx, ty, rx, ry = (
        a[..., None] if isinstance(a, np.ndarray) else a for a in (t_phase, 1j * r_phase, bs.tx, bs.ty, bs.rx, bs.ry)
    )
    # side 1's modes in `mode_index` order: transmitted x, y, then reflected x, y
    entries = (tp * wx * tx, tp * wy * ty, rp * wx * rx, rp * wy * ry)
    rows = np.empty(np.broadcast(*entries).shape + (N_MODES,), dtype=complex)
    for index, value in zip(range(N_MODES) if arm is Arm.SIDE1 else OTHER_SIDE, entries):
        rows[..., index] = value
    return rows

