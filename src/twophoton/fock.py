"""Two-photon states over the four occupied input modes, and the amplitude rule.

Photon pairs enter the beam splitter from opposite sides, one photon per
side, and each side carries its own frequency slot, so only four input modes
are ever occupied: (side1, x), (side1, y), (side2, x), (side2, y), at
indexes 0 to 3.  Every detector field operator d = sum_m u_m a_m is
linear in the input annihilators, so it is a row vector u over these four
modes.  A photon lives on its own side only, so its row is (cos, sin) of its
polarization angle over that side's (x, y) modes;
`product_state(theta1, theta2)` builds the two photons' rows from their
angles and rejects an angle that is not finite.

For the product state |psi> = a^dag(p1) a^dag(p2)|0>, the pair amplitude
<0| d_a d_b |psi> is the permanent of the 2x2 matrix of overlaps,
(u_a.p1)(u_b.p2) + (u_a.p2)(u_b.p1): the standard amplitude rule of linear
optics (Scheel, quant-ph/0406127; Aaronson & Arkhipov, arXiv:1011.3245).
An overlap u.p is two products, over the photon's own side of u.  Every
array argument broadcasts over leading batch axes.  Each photon's row spans
only its own angle's axes, so an overlap runs once per (detector row,
photon row) pair and only the permanent runs over every point.
"""

from __future__ import annotations

import sys

import numpy as np

TOL = 1e-12  # repo-wide numeric tolerance

N_MODES = 4


def _all_finite(v) -> bool:
    if isinstance(v, (int, float)):
        return abs(v) <= sys.float_info.max  # false for nan, +-inf and an int past every float
    return bool(np.isfinite(v).all())


def product_state(theta1: float, theta2: float) -> tuple[np.ndarray, np.ndarray]:
    """Rows (p1, p2) of the two photons of a linearly polarized pair, the
    side-1 photon at angle theta1 and the side-2 photon at theta2 (radians).

    The side-1 photon is cos(theta1)|side1 x> + sin(theta1)|side1 y> and the
    side-2 photon likewise on the side-2 modes; each row holds its photon's
    (x, y) amplitudes on its own side, so the amplitude of the pattern with
    the side-1 photon in polarization i and the side-2 photon in j is
    p1[i] * p2[j].

    Each row spans its own angle only: p1 is (*shape(theta1), 2) and p2 is
    (*shape(theta2), 2), and `vacuum_amplitude` broadcasts them.
    """
    for name, theta in (("theta1", theta1), ("theta2", theta2)):
        if not _all_finite(theta):
            raise ValueError(f"{name} must be finite, got {theta!r}")
    p1, p2 = (np.stack((np.cos(theta), np.sin(theta)), axis=-1) for theta in (theta1, theta2))
    return p1, p2


def vacuum_amplitude(
    u_a: np.ndarray, u_b: np.ndarray, state: tuple[np.ndarray, np.ndarray]
) -> np.ndarray:
    """<0| d_a d_b |psi> for detector rows u_a, u_b and photon rows (p1, p2).

    The 2x2 permanent (u_a.p1)(u_b.p2) + (u_a.p2)(u_b.p1); its squared
    magnitude is a joint detection probability.  Each overlap is two
    products, the photon's x and y amplitudes against the row's entries on
    that photon's side.  The other side's two entries meet exact zeros in a
    four-mode photon row, so leaving them out can only change the sign of a
    zero part, which no |amplitude|^2 sees.
    """
    p1, p2 = state
    c1, s1, c2, s2 = p1[..., 0], p1[..., 1], p2[..., 0], p2[..., 1]
    amp = (u_a[..., 0] * c1 + u_a[..., 1] * s1) * (u_b[..., 2] * c2 + u_b[..., 3] * s2)
    amp += (u_a[..., 2] * c2 + u_a[..., 3] * s2) * (u_b[..., 0] * c1 + u_b[..., 1] * s1)
    return amp
