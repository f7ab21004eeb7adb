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
order).  Angles, phases and splitter amplitudes may be numpy arrays; they
broadcast, and the rows gain the broadcast shape as leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fock import N_MODES, TOL, Arm, Pol, _all_finite, mode_index


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Lossless splitter amplitudes per polarization axis (all real, in [0, 1])."""

    tx: float
    ty: float
    rx: float
    ry: float

    def __post_init__(self) -> None:
        for name in ("tx", "ty", "rx", "ry"):
            v = getattr(self, name)
            if not (_all_finite(v) and np.all((-TOL <= v) & (v <= 1.0 + TOL))):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        for axis, t, r in (("x", self.tx, self.rx), ("y", self.ty, self.ry)):
            norm = t**2 + r**2
            if np.any(np.abs(norm - 1.0) > TOL):
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


@dataclass(frozen=True)
class AnalyzerSetting:
    """One detector channel: side, analyzer angle (radians), and port."""

    arm: Arm
    theta: float
    port: Port = Port.PARALLEL

    def __post_init__(self) -> None:
        if not _all_finite(self.theta):
            raise ValueError(f"analyzer angle must be finite, got {self.theta!r}")

    def weights(self) -> tuple[float, float]:
        """Projection weights (wx, wy) of this port."""
        c, s = np.cos(self.theta), np.sin(self.theta)
        if self.port is Port.PARALLEL:
            return c, s
        return -s, c


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


# For each output side: (polarization, transmitted input mode, reflected
# input mode) per axis.
_PATHS = {
    arm: [(pol, mode_index(arm, pol), mode_index(other, pol)) for pol in Pol]
    for arm, other in ((Arm.SIDE1, Arm.SIDE2), (Arm.SIDE2, Arm.SIDE1))
}


def _port_row(
    setting: AnalyzerSetting, bs: BeamSplitterSpec, t_phase: complex, r_phase: complex
) -> np.ndarray:
    """Row of one analyzer port: the splitter outputs of its side, weighted
    by the port, with `t_phase` on the transmitted (same-side) terms and
    `r_phase` on the reflected (other-side) terms."""
    entries = {}
    for (pol, transmitted, reflected), w in zip(_PATHS[setting.arm], setting.weights()):
        entries[transmitted] = t_phase * w * bs.t(pol)
        entries[reflected] = 1j * r_phase * w * bs.r(pol)
    row = np.empty(np.broadcast(*entries.values()).shape + (N_MODES,), dtype=complex)
    for index, value in entries.items():
        row[..., index] = value
    return row


def detector_operator(
    setting: AnalyzerSetting, bs: BeamSplitterSpec, geom: PhaseGeometry
) -> np.ndarray:
    """Field operator for one analyzer port behind the splitter, as its row.

    Transmitted and reflected input terms are combined with the analyzer
    projection weights; the side-1 operator's reflected term carries
    exp(i*phi) so that the two-path relative phase of an opposite-side
    coincidence is exactly `phi`.
    """
    r_phase = np.exp(1j * geom.phi) if setting.arm is Arm.SIDE1 else 1.0
    return _port_row(setting, bs, 1.0, r_phase)


def same_arm_operator_pair(
    arm: Arm,
    thetas: tuple[float, float],
    bs: BeamSplitterSpec,
    geom: PhaseGeometry,
    ports: tuple[Port, Port] = (Port.PARALLEL, Port.PARALLEL),
) -> tuple[np.ndarray, np.ndarray]:
    """Rows of the two detectors of a same-side pair measurement.

    Both detectors sit on `arm`; the first analyzes at thetas[0], the second
    at thetas[1].  The first operator's transmitted term carries exp(i*psi),
    which makes `psi` the relative phase between the two pairings
    (which photon reaches which detector) of a same-side pair detection.
    """
    first = _port_row(AnalyzerSetting(arm, thetas[0], ports[0]), bs, np.exp(1j * geom.psi), 1.0)
    second = _port_row(AnalyzerSetting(arm, thetas[1], ports[1]), bs, 1.0, 1.0)
    return first, second
