"""Beam splitter, polarization analyzers, and detector operators.

Conventions fixed here and relied on everywhere else:

* Splitter action per polarization axis:  a1_out = t*a1_in + i*r*a2_in and
  a2_out = i*r*a1_in + t*a2_in, i.e. reflection carries a fixed factor i.
* Analyzer ports: the parallel port projects onto (cos t, sin t), the
  perpendicular port onto (-sin t, cos t); the perpendicular port equals the
  parallel port rotated by pi/2.
* Geometry enters only through two relative phases, each on a fixed path
  term.  `phi` is the fringe phase between the both-transmitted and the
  both-reflected path of an opposite-side coincidence; it multiplies the
  reflected terms of the side-1 detector row.  `psi` is the fringe phase
  between the two pairings of a same-side pair detection; it multiplies the
  transmitted terms of the first row of the pair.
  Detectors at positions z1, z2 fold in as the phase
  2*pi*(z2 - z1)/spacing, for the fringe spacing; equal displacement of
  both detectors leaves these relative phases (and hence all probabilities)
  unchanged.

A detector operator is linear in the input annihilators, so it is returned
as its coefficient row over the four occupied input modes (in `fock`'s
order).  `analyzer_rows` is the one row builder: it builds side 1's rows of
both ports of an analyzer, on an axis of their own (parallel at index 0,
perpendicular at 1), with the phases it is given by name.  Each entry of
a row is (phase x port weight) x amplitude of its mode, multiplied in that
order: over side 1's modes the phases are (e^{i psi}, e^{i psi}, i e^{i phi},
i e^{i phi}), the amplitudes (tx, ty, rx, ry) and the weights (cos, sin,
cos, sin) of the analyzer angle for the parallel port, (-sin, cos, -sin,
cos) for the perpendicular one; a phase defaults to 0, which puts no factor
on its terms.  A one-port row is the slice
`analyzer_rows(theta, bs, phi, psi)[..., k, :]` of its port index k, and a
side-2 row is the side-1 row with the sides' modes swapped,
`rows[..., OTHER_SIDE]`.  Angles, phases and splitter amplitudes may be
numpy arrays; they broadcast, and the rows gain the broadcast shape as
leading axes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import N_MODES, TOL, _all_finite


@dataclass(frozen=True)
class BeamSplitterSpec:
    """Lossless splitter amplitudes per polarization axis (all real, in [0, 1])."""

    tx: float
    ty: float
    rx: float
    ry: float

    def __post_init__(self) -> None:
        # Python numbers are checked with plain comparisons, one at a time;
        # arrays are stacked once, and each rule is one expression over every
        # field (a comparison with NaN is False)
        fields = (self.tx, self.ty, self.rx, self.ry)
        numbers = all(isinstance(v, (int, float)) for v in fields)
        if not numbers:
            stacked = np.empty((len(fields), *np.broadcast(*fields).shape), dtype=np.result_type(*fields))
            for index, v in enumerate(fields):
                stacked[index] = v
            stacked = stacked.reshape(len(fields), -1)
            inside = ((-TOL <= stacked) & (stacked <= 1.0 + TOL)).all(axis=1)
        for index, name in enumerate(("tx", "ty", "rx", "ry")):
            v = fields[index]
            if not (math.isfinite(v) and -TOL <= v <= 1.0 + TOL if numbers else inside[index]):
                raise ValueError(f"{name} must lie in [0, 1], got {v!r}")
        if not numbers:
            lossy = (np.abs(stacked[:2] ** 2 + stacked[2:] ** 2 - 1.0) > TOL).any(axis=1)
        for index, (axis, t, r) in enumerate((("x", self.tx, self.rx), ("y", self.ty, self.ry))):
            if abs(t**2 + r**2 - 1.0) > TOL if numbers else lossy[index]:
                raise ValueError(f"lossy {axis} axis: t{axis}^2 + r{axis}^2 = {t**2 + r**2!r}")

    @classmethod
    def from_transmission(cls, tx: float, ty: float) -> "BeamSplitterSpec":
        """Build a lossless splitter from transmission amplitudes alone, each
        r = sqrt(max(0, 1 - t^2)); the constructor's rules are the only check."""
        return cls(tx, ty, math.sqrt(max(0.0, 1.0 - tx * tx)), math.sqrt(max(0.0, 1.0 - ty * ty)))

    @classmethod
    def fifty_fifty(cls) -> "BeamSplitterSpec":
        """Polarization-independent 50:50 splitter."""
        s = 1.0 / math.sqrt(2.0)
        return cls(s, s, s, s)


def _per_mode(*values) -> np.ndarray:
    """The four modes' factors on a last axis, with an axis of length one
    for the ports before it when any factor is an array."""
    if not any(isinstance(v, np.ndarray) for v in values):
        return np.array(values)
    out = np.empty((*np.broadcast(*values).shape, 1, N_MODES), dtype=np.result_type(*values))
    for index, value in enumerate(values):
        out[..., 0, index] = value
    return out


# The port weights per mode, as indexes into (cos, sin, -sin) of the
# analyzer angle: the parallel port weighs x by cos and y by sin, the
# perpendicular port x by -sin and y by cos, on both sides' modes.
_WEIGHTS = np.array([[0, 1, 0, 1], [2, 0, 2, 0]])


# A side-2 row is the side-1 row of the same setting and phases with the two
# sides' modes swapped: the transmitted and reflected terms trade places.
OTHER_SIDE = np.array([2, 3, 0, 1])


def analyzer_rows(
    theta: float,
    bs: BeamSplitterSpec,
    phi: float = 0.0,
    psi: float = 0.0,
) -> np.ndarray:
    """Side 1's rows of the analyzer at `theta`, one per port on an axis
    before the modes, parallel then perpendicular: (..., 2, 4).

    Each row holds side 1's splitter outputs, weighted by its port.  `phi`
    multiplies the reflected (other-side) terms by exp(i*phi) and `psi` the
    transmitted (same-side) terms by exp(i*psi); a phase defaults to 0,
    which puts no factor on its terms.
    """
    for name, phase in (("phi", phi), ("psi", psi)):
        if not _all_finite(phase):
            raise ValueError(f"{name} must be finite, got {phase!r}")
    if not _all_finite(theta):
        raise ValueError(f"analyzer angle must be finite, got {theta!r}")
    tp, rp = np.exp(1j * psi), 1j * np.exp(1j * phi)
    c, s = np.cos(theta), np.sin(theta)
    cs = np.empty((*np.shape(c), 3))
    cs[..., 0], cs[..., 1], cs[..., 2] = c, s, -s
    # side 1's modes in `fock`'s order: transmitted x, y, then reflected x, y
    return _per_mode(tp, tp, rp, rp) * cs[..., _WEIGHTS] * _per_mode(bs.tx, bs.ty, bs.rx, bs.ry)
