"""Two-photon states over the four occupied input modes, and the amplitude rule.

Photon pairs enter the beam splitter from opposite sides, one photon per
side, and each side carries its own frequency slot, so only four input modes
are ever occupied: (side1, x), (side1, y), (side2, x), (side2, y), in that
order (`mode_index`).  Every detector field operator d = sum_m u_m a_m is
linear in the input annihilators, so it is a row vector u over these four
modes.  A photon lives on its own side only, so its row is (cos, sin) of its
polarization angle over that side's (x, y) modes.

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

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

TOL = 1e-12  # repo-wide numeric tolerance

N_MODES = 4


class Arm(Enum):
    """Input/output side of the beam splitter."""

    SIDE1 = 0
    SIDE2 = 1


class Pol(Enum):
    """Linear polarization axis."""

    X = 0
    Y = 1


def mode_index(arm: Arm, pol: Pol) -> int:
    """Position of the occupied input mode (arm, pol) in every row vector."""
    return 2 * arm.value + pol.value


def _all_finite(v) -> bool:
    if isinstance(v, (int, float)):
        return math.isfinite(v)
    return bool(np.isfinite(v).all())


@dataclass(frozen=True)
class IncidentPolarization:
    """Linear polarization angles (radians) of the photons on side 1 and side 2.

    The angles may be numpy arrays; they broadcast against each other.
    """

    theta1: float
    theta2: float

    def __post_init__(self) -> None:
        for name in ("theta1", "theta2"):
            v = getattr(self, name)
            if not _all_finite(v):
                raise ValueError(f"{name} must be finite, got {v!r}")


def product_state(inc: IncidentPolarization) -> tuple[np.ndarray, np.ndarray]:
    """Rows (p1, p2) of the two photons of a linearly polarized pair.

    The side-1 photon is cos(theta1)|side1 x> + sin(theta1)|side1 y> and the
    side-2 photon likewise on the side-2 modes; each row holds its photon's
    (x, y) amplitudes on its own side, so the amplitude of the pattern with
    the side-1 photon in polarization i and the side-2 photon in j is
    p1[i] * p2[j].

    Each row spans its own angle only: p1 is (*shape(theta1), 2) and p2 is
    (*shape(theta2), 2), and `vacuum_amplitude` broadcasts them.
    """
    p1, p2 = (np.stack((np.cos(theta), np.sin(theta)), axis=-1) for theta in (inc.theta1, inc.theta2))
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
